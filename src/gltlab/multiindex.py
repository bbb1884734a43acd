"""Multi-index validation, the product ``nu`` and serialization for d-level structures.

A multi-index is a plain tuple of ``d`` integers.  Size-type multi-indices
have every entry >= 1; offset-type multi-indices may be negative.  The
d-level structures are ordered lexicographically with the *last* coordinate
varying fastest: numpy's C order, which ``np.ravel_multi_index``,
``np.indices`` and ``itertools.product`` all follow.

Multi-indices stay 1-based in all user-facing I/O (serialized as
comma-separated integers, e.g. ``"2,3,4"``).
"""

from __future__ import annotations

import operator
from typing import Sequence

from .errors import InvalidSizeError

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


def parse_multiindex(text: str) -> MultiIndex:
    """Parse a serialized multi-index like ``"2,3,4"``."""
    parts = [p.strip() for p in text.split(",")]
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidSizeError(f"cannot parse multi-index from {text!r}") from exc


def format_multiindex(m: int | Sequence[int]) -> str:
    return ",".join(str(v) for v in as_multiindex(m))
