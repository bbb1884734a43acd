"""Generators: multilevel block Toeplitz and diagonal sampling matrices.

:func:`toeplitz` writes each offset's coefficient block straight into the
rows and columns it occupies; the offsets touch disjoint entries, so the
result equals the naive block fill bit for bit.

The module also owns LAPACK band storage, the form in which
``materialize`` builds a banded matrix without its N x N array:
:func:`toeplitz_band` and :func:`diagonal_band` write the same entries
into it, ``_band_rows``, ``_adjoint_band`` and ``_trimmed`` serve the
other node operations, and a :class:`BlockMatrix` keeps it and builds
its dense ``data`` only when a route reads it.  ``_diagonal``,
``_entries`` and :func:`is_hermitian` read either form.

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
    """A matrix with its d-level r-block structure metadata.

    ``data`` is the dense array, float64 when every imaginary part is
    exactly zero (the downcast is lossless) and complex128 otherwise.  It
    may be given as a function of no arguments that returns it in its final
    dtype: the array is then built on first access, once.  ``notes``
    carries non-fatal diagnostics (e.g. pseudo-inverse conditioning
    warnings) attached during materialization.  ``symmetrizer``, when set,
    is a positive vector w for which W^-1 A W (W = diag(w)) may be
    Hermitian: a hint that :func:`~gltlab.spectra.spectrum` tests, never a
    decision.
    ``band``, when set, is a bound (kl, ku) derived from the expression
    tree: A[i, j] = 0 wherever i - j > kl or j - i > ku.  Only
    ``materialize``, the split check and the similarity W^-1 A W of
    ``spectrum`` set it (it is not a constructor argument), and a change
    to ``data`` invalidates it.  It holds only for a finite matrix (0 * inf
    is NaN), so the structure tests that read only inside it run after a
    finiteness check.  ``storage``, when set (only by ``materialize``
    and the split check), is LAPACK's (kl + ku + 1) x N general band storage
    at the bound, AB[ku + i - j, j] = A[i, j], with +0.0 where i or j falls
    outside the matrix.  It holds ``data``'s in-band entries, so the routes
    that read it leave ``data`` unbuilt.  ``shape`` and ``dtype`` build
    nothing.
    """

    data: np.ndarray
    r: int
    n: MultiIndex
    notes: tuple[str, ...] = field(default_factory=tuple)
    symmetrizer: np.ndarray | None = None
    band: tuple[int, int] | None = field(default=None, init=False, repr=False)
    storage: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.n = check_size(self.n)
        expected = self.r * nu(self.n)
        if callable(self.data):  # built by __getattr__ on first access
            self._build = self.__dict__.pop("data")
        else:
            self.data = _exact_dtype(np.asarray(self.data))
            if self.data.shape != (expected, expected):
                raise ConfigurationError(
                    f"matrix shape {self.data.shape} != block structure size {expected}"
                )
        if self.symmetrizer is not None and np.shape(self.symmetrizer) != (expected,):
            raise ConfigurationError(
                f"symmetrizer shape {np.shape(self.symmetrizer)} != ({expected},)"
            )

    def __getattr__(self, name):
        # Reached only for an attribute not set: ``data`` before it is built.
        if name != "data" or "_build" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.data = self.__dict__.pop("_build")()
        return self.data

    shape = property(lambda self: (self.r * nu(self.n),) * 2)
    ndim = 2
    dtype = property(lambda self: (self.data if self.storage is None else self.storage).dtype)


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
            _take_notes(matrix, notes)
        return matrix.data
    return np.asarray(matrix)


def _take_notes(matrix, notes: list[str]) -> None:
    """Append a BlockMatrix's notes not yet in ``notes`` to it."""
    notes.extend(note for note in getattr(matrix, "notes", ()) if note not in notes)


def _diagonal(matrix, d: int) -> np.ndarray:
    """The entries (i, i + d) of a square matrix, read from a BlockMatrix's
    band storage when it has one (zeros outside its band) in O(N)."""
    storage = getattr(matrix, "storage", None)
    if storage is None:
        return np.diagonal(as_array(matrix), d)
    (kl, ku), n = matrix.band, storage.shape[1]
    if not -kl <= d <= ku:
        return np.zeros(n - abs(d), storage.dtype)
    return storage[ku - d, max(d, 0):n + min(d, 0)]


def _entries(matrix, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """A[i, j] at index arrays i, j, gathered from a BlockMatrix's band
    storage when it has one: an entry outside the band reads +0.0."""
    storage = getattr(matrix, "storage", None)
    if storage is None:
        return as_array(matrix)[i, j]
    s = matrix.band[1] + i - j
    inside = (s >= 0) & (s < len(storage))
    return np.where(inside, storage[np.where(inside, s, 0), j], 0)


def _check_cap(rows: int):
    if rows > DEFAULT_SIZE_CAP:
        raise SizeCapError(f"requested {rows} rows exceeds the size cap {DEFAULT_SIZE_CAP}")


def toeplitz(f: TrigPolynomial, n: int | Sequence[int]) -> BlockMatrix:
    """Multilevel block Toeplitz matrix with block (i, j) = fhat_{i-j}.

    For each offset k the block rows i with i - k inside the size box get
    fhat_k at block column i - k, whose lexicographic rank is rank(i) minus
    k's flat offset.  float64 when every coefficient is real.
    """
    n, real = _check_toeplitz(f, n)
    count = nu(n)
    out = np.zeros((count, f.r, count, f.r), dtype=float if real else complex)
    for rows, flat, block in _fitting_offsets(f, n):
        out[rows, :, rows - flat, :] = block.real if real else block
    return BlockMatrix(out.reshape(f.r * count, f.r * count), f.r, n)


def toeplitz_band(f: TrigPolynomial, n: int | Sequence[int], k: int) -> np.ndarray:
    """Diagonals -k..k, k at least the band bound, of :func:`toeplitz`'s
    matrix in band storage, AB[k + i - j, j] = A[i, j]: the same blocks
    copied to the same entries, +0.0 elsewhere."""
    n, real = _check_toeplitz(f, n)
    r, (a, b) = f.r, np.indices((f.r, f.r))
    ab = np.zeros((2 * k + 1, r * nu(n)), dtype=float if real else complex)
    for rows, flat, block in _fitting_offsets(f, n):
        ab[k + flat * r + a - b, (rows - flat)[:, None, None] * r + b] = (
            block.real if real else block)
    return ab


def _check_toeplitz(f: TrigPolynomial, n) -> tuple[MultiIndex, bool]:
    """The checked size of T_n(f), within the cap, and whether f is real."""
    n = check_size(n)
    if len(n) != f.d:
        raise ConfigurationError(f"size {n} has {len(n)} levels, symbol has {f.d}")
    _check_cap(f.r * nu(n))
    return n, not any(np.any(block.imag) for block in f.coeffs.values())


def _fitting_offsets(f: TrigPolynomial, n: MultiIndex) -> list[tuple]:
    """(block rows, flat offset, fhat_k) for each offset k of ``f`` that fits
    the size box n, i.e. |k_j| < n_j; the flat offset is k's shift of
    lexicographic rank, so fhat_k lies on block diagonal -(flat offset) of
    T_n(f), in the block rows i with i - k inside the box."""
    strides = np.cumprod((1,) + n[:0:-1])[::-1]
    out = []
    for k, block in f.coeffs.items():
        if all(abs(kj) < nj for kj, nj in zip(k, n)):
            ranges = [np.arange(max(kj, 0), nj + min(kj, 0)) for kj, nj in zip(k, n)]
            rows = np.ravel_multi_index(np.ix_(*ranges), n).ravel()
            out.append((rows, int(np.dot(k, strides)), block))
    return out


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
                                 "in a CoefficientFunction")
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


def diagonal_band(vals: np.ndarray, k: int) -> np.ndarray:
    """Diagonals -k..k, k >= r - 1, of the block diagonal matrix of the
    (count, r, r) samples ``vals`` in band storage, as :func:`diag_sampling`
    fills them; +0.0 elsewhere."""
    count, r = vals.shape[:2]
    a, b = np.indices((r, r))
    ab = np.zeros((2 * k + 1, count * r), dtype=vals.dtype)
    ab[k + a - b, np.arange(count)[:, None, None] * r + b] = vals
    return ab


def _band_rows(v: np.ndarray, k: int) -> np.ndarray:
    """v[i] at each position (s, j) of band storage of half-width k, i =
    j + s - k the row it holds (clipped to the matrix), to scale rows."""
    return v[np.clip(np.arange(-k, k + 1)[:, None] + np.arange(len(v)), 0, len(v) - 1)]


def _trimmed(ab: np.ndarray, band: tuple[int, int]) -> np.ndarray:
    """The rows of band storage of half-width k that ``band`` = (kl, ku)
    spans, in Fortran order with +0.0 outside the matrix, float64 when every
    imaginary part is zero: a BlockMatrix's storage."""
    (kl, ku), k, n = band, len(ab) // 2, ab.shape[1]
    ab = ab[k - ku:k + kl + 1]
    for s in range(len(ab)):  # row s holds i - j = s - ku
        ab[s, :max(ku - s, 0)] = ab[s, n - max(s - ku, 0):] = 0
    return np.asfortranarray(_exact_dtype(ab))


def _adjoint_band(ab: np.ndarray) -> np.ndarray:
    """The band storage of A^T from that of A (half-width k): diagonal i - j
    = t of A^T is diagonal -t of A, shifted by t columns."""
    out, k, n = np.zeros_like(ab), len(ab) // 2, ab.shape[1]
    for t in range(-k, k + 1):
        out[k + t, max(-t, 0):n - max(t, 0)] = ab[k - t, max(t, 0):n - max(-t, 0)]
    return out


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
    """||a||_F^2 of a vector or matrix by einsum on a real view, with no
    BLAS call."""
    if not np.iscomplexobj(a):
        index = "ij"[:a.ndim]
        return float(np.einsum(f"{index},{index}->", a, a))
    if a.strides[-1] == a.itemsize:
        return _sum_sq(a.view(a.real.dtype))
    return _sum_sq(a.real) + _sum_sq(a.imag)


def is_hermitian(matrix) -> bool:
    """||A - A*||_F <= HERMITIAN_RTOL ||A||_F for one square matrix.

    Both squared norms are summed over pairs (X, Y) read once each, whose
    difference X - Y* is formed once, so no N x N temporary is made, and
    the sums are einsums, not BLAS calls: the diagonals d and -d, 0 <= d
    <= max(kl, ku), of a matrix in band storage, in O(N k); else the square
    tiles (I, J), (J, I), I <= J, of side ``isqrt(_STRIP)``.  They round
    differently from one norm of the whole difference, so only a matrix
    within rounding of the threshold can be decided otherwise than by
    ``norm(A - A*) <= HERMITIAN_RTOL * norm(A)``.
    """
    if getattr(matrix, "storage", None) is not None:
        pairs = ((_diagonal(matrix, d), _diagonal(matrix, -d), d == 0)
                 for d in range(max(matrix.band) + 1))
    else:
        arr = as_array(matrix)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidParameterError(
                f"is_hermitian takes a square matrix, got shape {arr.shape}")
        tile = math.isqrt(_STRIP)
        pairs = ((arr[i:i + tile, j:j + tile], arr[j:j + tile, i:i + tile], i == j)
                 for i in range(0, len(arr), tile) for j in range(i, len(arr), tile))
    skew = scale = 0.0
    for x, y, same in pairs:
        if same:
            skew += _sum_sq(x - x.conj().T)
            scale += _sum_sq(x)
        else:
            skew += 2 * _sum_sq(x - y.conj().T)
            scale += _sum_sq(x) + _sum_sq(y)
    return bool(np.sqrt(skew) <= HERMITIAN_RTOL * max(np.sqrt(scale), 1e-300))
