"""Multi-index arithmetic and lexicographic enumeration for d-level structures.

A multi-index is a plain tuple of ``d`` integers.  Size-type multi-indices
have every entry >= 1; offset-type multi-indices may be negative.  Intervals
``[lower, upper]`` are enumerated in lexicographic order with the *last*
coordinate varying fastest, which coincides with Python's tuple ordering.

Ranks are 0-based internally; multi-indices themselves stay 1-based in all
user-facing I/O (serialized as comma-separated integers, e.g. ``"2,3,4"``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import IndexRangeError, InvalidSizeError

MultiIndex = tuple[int, ...]


def as_multiindex(value: int | Sequence[int]) -> MultiIndex:
    """Coerce an integer or a sequence of integers (Python or NumPy) to a
    multi-index tuple; floats and strings are not integers and raise."""
    try:
        return (operator.index(value),)
    except TypeError:
        pass
    try:
        m = tuple(operator.index(v) for v in value)
    except TypeError as exc:
        raise InvalidSizeError(f"multi-index entries must be integers, got {value!r}") from exc
    if not m:
        raise InvalidSizeError("multi-index must have at least one entry")
    return m


def check_size(m: MultiIndex) -> MultiIndex:
    """Validate a size-type multi-index (all entries >= 1)."""
    m = as_multiindex(m)
    if any(v < 1 for v in m):
        raise InvalidSizeError(f"size multi-index must be >= 1 componentwise, got {m}")
    return m


def nu(m: int | Sequence[int]) -> int:
    """Product of the entries of a size multi-index."""
    m = check_size(m)
    out = 1
    for v in m:
        out *= v
    return out


def min_entry(m: int | Sequence[int]) -> int:
    return min(as_multiindex(m))


@dataclass(frozen=True)
class MultiIndexInterval:
    """The set of multi-indices j with lower <= j <= upper componentwise."""

    lower: MultiIndex
    upper: MultiIndex

    def __post_init__(self):
        lo = as_multiindex(self.lower)
        up = as_multiindex(self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        if len(lo) != len(up):
            raise IndexRangeError(f"interval endpoints differ in length: {lo} vs {up}")
        if any(a > b for a, b in zip(lo, up)):
            raise IndexRangeError(f"interval is empty: {lo} > {up} componentwise")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def extents(self) -> MultiIndex:
        return tuple(b - a + 1 for a, b in zip(self.lower, self.upper))

    @property
    def cardinality(self) -> int:
        return nu(self.extents)

    def contains(self, j: Sequence[int]) -> bool:
        j = as_multiindex(j)
        return len(j) == self.d and all(
            a <= v <= b for v, a, b in zip(j, self.lower, self.upper)
        )


def size_interval(n: int | Sequence[int]) -> MultiIndexInterval:
    """The interval [1, n] indexing a d-level structure of size n."""
    n = check_size(n)
    return MultiIndexInterval((1,) * len(n), n)


def lex_rank(j: Sequence[int], interval: MultiIndexInterval) -> int:
    """0-based rank of j in the interval's lexicographic enumeration."""
    j = as_multiindex(j)
    if not interval.contains(j):
        raise IndexRangeError(f"{j} is outside interval [{interval.lower}, {interval.upper}]")
    rank = 0
    for v, lo, ext in zip(j, interval.lower, interval.extents):
        rank = rank * ext + (v - lo)
    return rank


def lex_unrank(rank: int, interval: MultiIndexInterval) -> MultiIndex:
    """Inverse of :func:`lex_rank`."""
    card = interval.cardinality
    if not 0 <= rank < card:
        raise IndexRangeError(f"rank {rank} outside [0, {card})")
    rev = []
    rem = rank
    for lo, ext in zip(reversed(interval.lower), reversed(interval.extents)):
        rem, digit = divmod(rem, ext)
        rev.append(lo + digit)
    return tuple(reversed(rev))


def iter_interval(interval: MultiIndexInterval) -> Iterator[MultiIndex]:
    """Enumerate the interval in lexicographic order (last coordinate fastest)."""
    for rank in range(interval.cardinality):
        yield lex_unrank(rank, interval)


def parse_multiindex(text: str) -> MultiIndex:
    """Parse a serialized multi-index like ``"2,3,4"``."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidSizeError(f"cannot parse multi-index from {text!r}") from exc


def format_multiindex(m: int | Sequence[int]) -> str:
    return ",".join(str(v) for v in as_multiindex(m))
