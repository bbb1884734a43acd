"""Dense generators: multilevel block Toeplitz and diagonal sampling matrices.

Matrices are dense at desk scale by design.  :func:`toeplitz` writes each
offset's coefficient block straight into the rows and columns it occupies;
the offsets touch disjoint entries, so the result equals the naive block fill
bit for bit.

Dtype rule: a matrix is float64 when its entries are exactly real (every
Toeplitz coefficient, every diagonal sample has imaginary part 0) and
complex128 otherwise.  Real matrices take the real LAPACK paths, which are
2-4 times faster than the complex ones on the same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, EvaluationError, InvalidParameterError, SizeCapError
from .multiindex import (
    MultiIndex,
    check_size,
    format_multiindex,
    nu,
)
from .symbols import HERMITIAN_RTOL, Symbol, TrigPolynomial

DEFAULT_SIZE_CAP = 8192
_STRIP = 1 << 16  # entries a strip-wise matrix test reads at once


@dataclass(eq=False)
class BlockMatrix:
    """A dense matrix with its d-level r-block structure metadata.

    ``data`` is float64 when every imaginary part is exactly zero (the
    downcast is lossless) and complex128 otherwise.  ``notes`` carries
    non-fatal diagnostics (e.g. pseudo-inverse conditioning warnings)
    attached during materialization.  ``symmetrizer``, when set, is a
    positive vector w for which W^-1 A W (W = diag(w)) may be Hermitian: a
    hint that :func:`~gltlab.spectra.spectrum` tests, never a decision.
    """

    data: np.ndarray
    r: int
    n: MultiIndex
    notes: tuple[str, ...] = field(default_factory=tuple)
    symmetrizer: np.ndarray | None = None

    def __post_init__(self):
        self.n = check_size(self.n)
        self.data = _exact_dtype(np.asarray(self.data))
        expected = self.r * nu(self.n)
        if self.data.shape != (expected, expected):
            raise ConfigurationError(
                f"matrix shape {self.data.shape} != block structure size {expected}"
            )
        if self.symmetrizer is not None and np.shape(self.symmetrizer) != (expected,):
            raise ConfigurationError(
                f"symmetrizer shape {np.shape(self.symmetrizer)} != ({expected},)"
            )

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def size(self) -> int:
        return self.data.shape[0]


def _exact_dtype(arr: np.ndarray) -> np.ndarray:
    """float64 when ``arr`` has no non-zero imaginary part, else complex128."""
    if np.iscomplexobj(arr):
        if np.any(arr.imag):
            return arr.astype(complex, copy=False)
        arr = arr.real
    return np.ascontiguousarray(arr, dtype=float)


def as_array(matrix, notes: list[str] | None = None) -> np.ndarray:
    """Accept a BlockMatrix or a bare ndarray; a BlockMatrix's notes not yet
    in ``notes`` are appended to it."""
    if isinstance(matrix, BlockMatrix):
        if notes is not None:
            notes.extend(note for note in matrix.notes if note not in notes)
        return matrix.data
    return np.asarray(matrix)


def _check_cap(rows: int):
    if rows > DEFAULT_SIZE_CAP:
        raise SizeCapError(f"requested {rows} rows exceeds the size cap {DEFAULT_SIZE_CAP}")


def toeplitz(f: TrigPolynomial, n: int | Sequence[int]) -> BlockMatrix:
    """Multilevel block Toeplitz matrix with block (i, j) = fhat_{i-j}.

    For each offset k the block rows i with i - k inside the size box get
    fhat_k at block column i - k, whose lexicographic rank is rank(i) minus
    k's flat offset.  float64 when every coefficient is real.
    """
    n = check_size(n)
    if len(n) != f.d:
        raise ConfigurationError(f"size {n} has {len(n)} levels, symbol has {f.d}")
    count = nu(n)
    _check_cap(f.r * count)
    real = not any(np.any(block.imag) for block in f.coeffs.values())
    out = np.zeros((count, f.r, count, f.r), dtype=float if real else complex)
    strides = np.cumprod((1,) + n[:0:-1])[::-1]
    for k, block in f.coeffs.items():
        if any(abs(kj) >= nj for kj, nj in zip(k, n)):
            continue
        ranges = [np.arange(max(kj, 0), nj + min(kj, 0)) for kj, nj in zip(k, n)]
        rows = np.ravel_multi_index(np.ix_(*ranges), n).ravel()
        out[rows, :, rows - int(np.dot(k, strides)), :] = block.real if real else block
    return BlockMatrix(out.reshape(f.r * count, f.r * count), f.r, n)


def sampling_grid(n: int | Sequence[int]) -> np.ndarray:
    """Lexicographically ordered grid {i/n : i = 1..n} as an (nu(n), d) array."""
    n = check_size(n)
    return (np.indices(n).reshape(len(n), -1).T + 1) / np.asarray(n, dtype=float)


def diag_samples(a: Symbol, n: int | Sequence[int]) -> np.ndarray:
    """The blocks a(i/n) of a space-only symbol, i enumerated
    lexicographically, as an (nu(n), r, r) array; float64 when every sample
    is real.  The size cap is checked before anything is evaluated, and a
    non-finite sample raises :class:`EvaluationError` naming its grid node."""
    n = check_size(n)
    if not isinstance(a, Symbol):
        raise ConfigurationError("diagonal sampling takes a Symbol; wrap a function "
                                 "with CoefficientFunction.from_scalar")
    if a.depends_frequency:
        raise ConfigurationError("diagonal sampling requires a space-only symbol")
    if a.d != len(n):
        raise ConfigurationError(f"coefficient has d={a.d}, size has {len(n)} levels")
    _check_cap(a.r * nu(n))
    grid = sampling_grid(n)
    vals = a._eval(grid, np.zeros_like(grid))
    if not np.all(np.isfinite(vals)):
        ok = np.isfinite(vals.reshape(vals.shape[0], -1)).all(axis=1)
        bad = int(np.argmin(ok))
        node = tuple(int(round(v)) for v in grid[bad] * np.asarray(n))
        raise EvaluationError(
            f"coefficient evaluation failed at grid node {format_multiindex(node)}",
            node=node,
        )
    return _exact_dtype(vals)


def diag_sampling(a: Symbol, n: int | Sequence[int]) -> BlockMatrix:
    """Block diagonal matrix with i-th block a(i/n), i enumerated lexicographically;
    float64 when every sample is real."""
    vals = diag_samples(a, n)
    count, rb = vals.shape[:2]
    out = np.zeros((count, rb, count, rb), dtype=vals.dtype)
    idx = np.arange(count)
    out[idx, :, idx, :] = vals
    return BlockMatrix(out.reshape(count * rb, count * rb), rb, n)


def zeros(n: int | Sequence[int], r: int = 1) -> BlockMatrix:
    n = check_size(n)
    return BlockMatrix(np.zeros((r * nu(n), r * nu(n))), r, n)


def row_strips(stop: int, width: int):
    """(lo, hi) bounds that cover rows [0, stop) of a matrix ``width`` columns
    wide: row 0 alone first, so that a structure test can reject most other
    matrices in O(N), then strips of at most ``_STRIP`` entries, so that no
    N x N temporary is made."""
    edges = [0, *range(1, stop, max(1, _STRIP // max(width, 1))), stop]
    return list(zip(edges, edges[1:]))


def _sum_sq(a: np.ndarray) -> float:
    """||a||_F^2 by einsum on a real view, with no BLAS call."""
    if not np.iscomplexobj(a):
        return float(np.einsum("ij,ij->", a, a))
    if a.strides[-1] == a.itemsize:
        return _sum_sq(a.view(a.real.dtype))
    return _sum_sq(a.real) + _sum_sq(a.imag)


def is_hermitian(matrix) -> bool:
    """||A - A*||_F <= HERMITIAN_RTOL ||A||_F for one square matrix.

    Both squared norms are summed over square tiles of side
    ``isqrt(_STRIP)``: each pair of tiles (I, J), (J, I) with I <= J is read
    once and its difference formed once, so no N x N temporary is made, and
    the sums are einsums, not BLAS calls.  They round differently from one
    norm of the whole difference, so only a matrix within rounding of the
    threshold can be decided otherwise than by
    ``norm(A - A*) <= HERMITIAN_RTOL * norm(A)``.
    """
    arr = as_array(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidParameterError(f"is_hermitian takes a square matrix, got shape {arr.shape}")
    tile = math.isqrt(_STRIP)
    skew = scale = 0.0
    for i in range(0, arr.shape[0], tile):
        for j in range(i, arr.shape[0], tile):
            x = arr[i:i + tile, j:j + tile]
            if i == j:
                skew += _sum_sq(x - x.conj().T)
                scale += _sum_sq(x)
            else:
                y = arr[j:j + tile, i:i + tile]
                skew += 2 * _sum_sq(x - y.conj().T)
                scale += _sum_sq(x) + _sum_sq(y)
    return bool(np.sqrt(skew) <= HERMITIAN_RTOL * max(np.sqrt(scale), 1e-300))
