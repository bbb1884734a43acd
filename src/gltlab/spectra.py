"""Spectra, Weyl functionals, and distribution verdicts.

The averaged test-function sums over eigenvalues or singular values are
compared against the symbol-side integrals; since limits are not observable,
verdicts combine a threshold at the largest tested size with a non-increasing
error trend over the last two size doublings (slack factor configurable).
``distribution_check`` returns a :class:`~gltlab.reports.Report` with one
row per (size, test function), one check per test function, and that
surrogate policy plus each function's quadrature resolution as metadata.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    EvaluationError,
    InvalidParameterError,
    ModeError,
    QuadratureError,
    SolverError,
)
from .matgen import (
    _STRIP,
    BlockMatrix,
    _band_rows,
    _diagonal,
    _entries,
    _take_notes,
    as_array,
    is_hermitian,
    row_strips,
)
from .multiindex import MultiIndex, check_size, min_entry
from .reports import Report
from .symbols import Symbol, spectral_surfaces

SIGMA = "sigma"
LAMBDA = "lambda"
_MAX_NODES = 2**22  # symbol-side quadrature node budget
_PROBE_NODES = 2**16  # node budget of the grid that probes a symbol's range
QUAD_TOL = 1e-7  # quadrature convergence tolerance
# The verdict policy: finite surrogates for the limits of the definitions.
SLACK = 1.5  # growth per size step that still counts as non-increasing
DECAY = 0.5  # fall from first to last value required of a trend to zero
FLOOR = 1e-10  # values at or below this count as zero in a trend to zero
TREND_FLOOR = 1e-12  # absolute allowance of each non-increasing step
# A matrix of order N takes the band route when its lower and upper
# bandwidths fit (_fits(kl + ku, N), SVD), or when it is Hermitian and its
# lower bandwidth does (_fits(kd, N)): N >= _BAND_FLOOR and (k + 1) *
# _BAND_COST <= N.  On 2
# cores, dgbbrd + dbdsqr break even with the dense values-only SVD near
# kl = ku = 50 at N = 1024 (2.8 times faster at 16, 1.7 at 32).  Hermitian
# band routines, best form, against eigvalsh (ms; z = complex):
#   N = 1024, kd = 48: 49 vs 75 (d);   N = 1024, kd = 63: 115 vs 229 (z)
#   N = 2048, kd = 64: 227 vs 458 (d); N = 2048, kd = 64: 1022 vs 1545 (z)
#   N = 2048, kd = 96: 532 vs 538 (d); N = 4096, kd = 128: 4207 vs 3578 (d)
# Below order 32 no route is faster.  The two-stage reduction (band to
# tridiagonal by bulge chasing) overtakes the one-stage one near kd = 32
# (d: 251 vs 180 ms at N = 2048, kd = 32; 198 vs 284 at kd = 24) and kd = 16
# (z: 506 vs 424 at N = 2048, kd = 16; 255 vs 306 at kd = 12).  From
# kd = 92 (d) OpenBLAS threads the bulge chase's small matrix-vector
# products and it loses that lead: 882 vs 454 ms at N = 2048, kd = 92, but
# 364 vs 507 ms on one thread at kd = 88 and 384 vs 624 at kd = 96.  Complex
# input keeps it (N = 2048, kd = 127: 1498 vs 2783 ms).
_BAND_COST = 16
_BAND_FLOOR = 32
_TWO_STAGE = {"dsbevd": range(32, 92), "zhbevd": range(16, 1 << 62)}  # kd of the _2stage form


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A continuous compactly-supported test function on the real line.

    ``fn`` must be vectorized and elementwise: the symbol-side quadrature
    evaluates it strip by strip over a grid's surface values and takes the
    mean of the whole.  Complex inputs are reduced to their real part
    (used only on quasi-Hermitian waiver paths where imaginary parts vanish
    asymptotically).
    """

    __test__ = False  # domain type, not a pytest collection target

    id: str
    fn: Callable[[np.ndarray], np.ndarray]

    def evaluate(self, values) -> np.ndarray:
        arr = np.asarray(values)
        if np.iscomplexobj(arr):
            arr = arr.real
        return np.asarray(self.fn(arr), dtype=float)


def poly_on_window(power: int, lo: float, hi: float, fid: str | None = None) -> TestFunction:
    """x^power restricted to [lo, hi] (zero outside)."""

    def fn(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= lo) & (x <= hi), x**power, 0.0)

    return TestFunction(fid or f"x^{power}", fn)


def cosine_bump(center: float, halfwidth: float, fid: str | None = None) -> TestFunction:
    """C^1 bump (1 + cos(pi u))/2 with u = (x - center)/halfwidth."""
    if halfwidth <= 0:
        raise InvalidParameterError("bump halfwidth must be positive")

    def fn(x):
        u = (np.asarray(x, dtype=float) - center) / halfwidth
        return np.where(np.abs(u) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * u)), 0.0)

    return TestFunction(fid or f"bump@{center:g}", fn)


def default_basket(lo: float, hi: float) -> list[TestFunction]:
    """Finite default basket: x, x^2, x^3 windowed to the observed hull plus
    two cosine bumps centered at the hull's third points."""
    span = max(hi - lo, 1e-6)
    pad = 0.05 * span + 1e-9
    wlo, whi = lo - pad, hi + pad
    basket = [
        poly_on_window(1, wlo, whi, "x"),
        poly_on_window(2, wlo, whi, "x^2"),
        poly_on_window(3, wlo, whi, "x^3"),
        cosine_bump(lo + span / 3.0, span / 3.0, "bump_lo"),
        cosine_bump(lo + 2.0 * span / 3.0, span / 3.0, "bump_hi"),
    ]
    return basket


# ---------------------------------------------------------------------------
# matrix-side quantities


def _fingerprint(arr) -> str:
    """Shape, Frobenius norm and trace (summed over a stack) of a matrix,
    read from its band storage when it has one: that holds every nonzero."""
    storage = getattr(arr, "storage", None)
    entries = as_array(arr) if storage is None else storage
    diagonal = np.diagonal(entries, axis1=-2, axis2=-1) if storage is None else _diagonal(arr, 0)
    return f"shape={arr.shape}, fro={np.linalg.norm(entries):.6e}, trace={diagonal.sum():.6e}"


# The readers below take a BlockMatrix whole: they read its band bound, level
# sizes and band storage from it, and build its dense array only as needed.


def _fits(k: int, n: int) -> bool:
    """The band rule: a band of k diagonals on one side (kl + ku for the
    SVD, kd for a Hermitian matrix) of a matrix of order n pays for the band
    route."""
    return n >= _BAND_FLOOR and (k + 1) * _BAND_COST <= n


def _band_nonzeros(arr: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the nonzero entries with |i - j| <= k, read
    diagonal by diagonal in O(N k)."""
    rows = [np.flatnonzero(_diagonal(arr, d)) + max(-d, 0) for d in range(-k, k + 1)]
    return np.concatenate(rows), np.concatenate([r + d for r, d in zip(rows, range(-k, k + 1))])


def _is_centro_hermitian(arr: np.ndarray, nonzeros=None, sizes=(), levels=(0,)) -> bool:
    """Exactly J A J == conj(A), J the reversal of the digit of each of
    ``levels`` of the index over ``sizes`` (default: the whole index), in
    strips of the first digit, row 0 first; given every ``nonzeros`` of A
    (:func:`_band_nonzeros` within a band bound), in O(N K) at them alone (J
    is an involution).  The whole reversal needs only the first ceil(N/2)
    rows."""
    n, sizes = arr.shape[0], sizes or arr.shape[:1]
    conj = np.conj if np.iscomplexobj(arr) else np.asarray
    if nonzeros is not None:
        i, j = nonzeros
        mirrors = [np.flip(np.arange(n).reshape(sizes), level).ravel() for level in levels]
        return all(np.array_equal(_entries(arr, m[i], m[j]), conj(_entries(arr, i, j)))
                   for m in mirrors)
    arr = as_array(arr)
    tensor = arr.reshape(sizes * 2)
    stop, width = (n + 1) // 2 if len(sizes) < 2 else sizes[0], arr.size // max(sizes[0], 1)
    return all(np.array_equal(tensor[lo:hi], conj(np.flip(tensor, (l, len(sizes) + l))[lo:hi]))
               for lo, hi in row_strips(stop, width) for l in levels)


def _is_skew_centro(arr: np.ndarray) -> bool:
    """Exactly A == -A^T and J A J == -A, J the reversal of the whole index:
    in band storage diagonal by diagonal, d against -d and against -d
    reversed; else in strips of at most ``_STRIP`` entries, row 0 first
    (:func:`~gltlab.matgen.row_strips`).

    Both relations on the first ceil(N/2) rows imply them on the others, since
    J A J = -A maps row i onto row N-1-i.
    """
    if getattr(arr, "storage", None) is not None:
        pairs = ((_diagonal(arr, d), -_diagonal(arr, -d)) for d in range(arr.band + 1))
        return all(np.array_equal(x, y) and np.array_equal(x, y[::-1]) for x, y in pairs)
    arr = as_array(arr)
    n = arr.shape[0]
    for lo, hi in row_strips((n + 1) // 2, n):
        rows = arr[lo:hi]
        if not (np.array_equal(rows, -arr[:, lo:hi].T)
                and np.array_equal(rows, -arr[n - hi:n - lo][::-1, ::-1])):
            return False
    return True


# ---------------------------------------------------------------------------
# banded matrices

_INT, _PTR, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
_COL_MAJOR = 102  # LAPACKE's matrix_layout for Fortran order
# layout, vect, m, n, ncc, kl, ku, ab, ldab, d, e, q, ldq, pt, ldpt, c, ldc
_GBBRD = [ctypes.c_int, _CHAR, _INT, _INT, _INT, _INT, _INT, _PTR, _INT, _PTR, _PTR,
          _PTR, _INT, _PTR, _INT, _PTR, _INT]
# layout, jobz, uplo, n, kd, ab, ldab, w, z, ldz
_SBEVD = [ctypes.c_int, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT]
# layout, vect, uplo, n, kd, ab, ldab, d, e, q, ldq
_SBTRD = [ctypes.c_int, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _PTR, _PTR, _INT]
_LAPACKE_ARGS = {  # ILP64 prototypes of the LAPACKE routines the band route calls
    "dgbbrd": _GBBRD, "zgbbrd": _GBBRD,
    # layout, uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc
    "dbdsqr": [ctypes.c_int, _CHAR, _INT, _INT, _INT, _INT, _PTR, _PTR, _PTR, _INT, _PTR,
               _INT, _PTR, _INT],
    "dsbevd": _SBEVD, "dsbevd_2stage": _SBEVD, "zhbevd": _SBEVD, "zhbevd_2stage": _SBEVD,
    "dsbtrd": _SBTRD, "zhbtrd": _SBTRD,
    # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit: no layout
    "dstebz": [_CHAR, _CHAR, _INT, ctypes.c_double, ctypes.c_double, _INT, _INT,
               ctypes.c_double, *[_PTR] * 7],
}


@functools.cache
def _band_lapack() -> dict | None:
    """The LAPACKE band routines of the scipy-openblas64 library that numpy
    bundles, found through numpy's own linalg extension, or None when numpy
    links another LAPACK or one of them is missing (an OpenBLAS older than
    its two-stage routines); then every matrix takes the dense call.  Bound
    on first use, so importing gltlab loads nothing."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        routines = {name: getattr(lib, f"scipy_LAPACKE_{name}64_") for name in _LAPACKE_ARGS}
    except (ImportError, OSError, AttributeError):
        return None
    for name, fn in routines.items():
        fn.argtypes, fn.restype = _LAPACKE_ARGS[name], _INT
    return routines


def _bandwidths(arr: np.ndarray, lower: bool = False) -> tuple[int, int] | None:
    """The exact lower and upper bandwidths (kl, ku) of a dense matrix, or
    None as soon as the rows read so far break ``_fits(kl + ku,
    min(shape))``.  With ``lower`` only the lower triangle counts and ku is
    0: the rule of a Hermitian matrix's lower band.  Reads strips of rows,
    row 0 first, or the last row first for ``lower``
    (:func:`~gltlab.matgen.row_strips`), so a dense matrix is rejected in
    O(N)."""
    arr = as_array(arr)
    m, n = arr.shape
    kl = ku = 0
    for lo, hi in row_strips(m, n):
        if lower:
            lo, hi = m - hi, m - lo
        nonzero = arr[lo:hi] != 0
        hit = nonzero.any(axis=1)
        i = np.arange(lo, hi)
        kl = max(kl, int(np.max(np.where(hit, i - nonzero.argmax(axis=1), 0))))
        if not lower:
            ku = max(ku, int(np.max(np.where(hit, n - 1 - nonzero[:, ::-1].argmax(axis=1) - i, 0))))
        if not _fits(kl + ku, min(m, n)):
            return None
    return kl, ku


def _band_storage(arr: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """LAPACK's (kl + ku + 1) x N column-major band storage, AB[ku + i - j, j]
    = A[i, j], a new array with +0.0 outside the matrix, diagonal by diagonal
    (:func:`~gltlab.matgen._diagonal`); with ku = 0 the lower storage."""
    ab = np.zeros((kl + ku + 1, arr.shape[1]), dtype=arr.dtype, order="F")
    for k in range(-kl, ku + 1):
        diag = _diagonal(arr, k)
        ab[ku - k, max(k, 0):max(k, 0) + diag.size] = diag
    return ab


def _lapacke(lapack: dict, name: str, *args) -> None:
    if _LAPACKE_ARGS[name][0] is ctypes.c_int:  # the layout comes first, but not for dstebz
        args = (_COL_MAJOR, *args)
    info = lapack[name](*args)
    if info > 0:
        raise np.linalg.LinAlgError(f"{name} did not converge (info={info})")
    if info < 0:
        raise RuntimeError(f"LAPACKE_{name} returned info={info}: a bug in the band route")


def _band_singular_values(lapack: dict, ab: np.ndarray, m: int, kl: int) -> np.ndarray:
    """Descending singular values of an m-row matrix in general band storage
    ``ab`` with kl subdiagonals: dgbbrd (zgbbrd if complex) reduces the band
    to a real upper bidiagonal, dbdsqr takes its values; no vectors."""
    n, ku = ab.shape[1], ab.shape[0] - 1 - kl
    d, e = np.empty(min(m, n)), np.empty(min(m, n))
    _lapacke(lapack, "zgbbrd" if np.iscomplexobj(ab) else "dgbbrd", b"N", m, n, 0, kl, ku,
             ab.ctypes.data, ab.shape[0], d.ctypes.data, e.ctypes.data, None, 1, None, 1,
             None, 1)
    _lapacke(lapack, "dbdsqr", b"U", d.size, 0, 0, 0, d.ctypes.data, e.ctypes.data,
             None, 1, None, 1, None, 1)
    return d


def _eigen_routine(ab: np.ndarray) -> str:
    """dsbevd (zhbevd if complex) for the lower band storage ``ab``, kd + 1
    rows by N, in its ``_2stage`` form for kd in _TWO_STAGE[name]."""
    name = "zhbevd" if np.iscomplexobj(ab) else "dsbevd"
    return name + ("_2stage" if ab.shape[0] - 1 in _TWO_STAGE[name] else "")


def _band_eigenvalues(lapack: dict, ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues from :func:`_eigen_routine` of the lower band
    storage ``ab`` of a Hermitian matrix (the triangle
    ``np.linalg.eigvalsh`` reads)."""
    w = np.empty(ab.shape[1])
    _lapacke(lapack, _eigen_routine(ab), b"N", b"L", w.size, ab.shape[0] - 1, ab.ctypes.data,
             ab.shape[0], w.ctypes.data, None, 1)
    return w


def _band_norm(lapack: dict, ab: np.ndarray) -> float:
    """max(|lambda_1|, |lambda_N|) of the Hermitian matrix in lower band
    storage ``ab`` (N >= 1, overwritten): dsbtrd (zhbtrd if complex) reduces
    it to a real tridiagonal, dstebz bisects for each end of its spectrum in
    O(N), to the default tolerance, ulp times the tridiagonal's norm."""
    n, kd = ab.shape[1], ab.shape[0] - 1
    d, e = np.empty(n), np.empty(n)
    _lapacke(lapack, "zhbtrd" if np.iscomplexobj(ab) else "dsbtrd", b"N", b"L", n, kd,
             ab.ctypes.data, ab.shape[0], d.ctypes.data, e.ctypes.data, None, 1)
    found, w, blocks = np.zeros(2, np.int64), np.empty(n), np.empty(2 * n, np.int64)
    ends: list[float] = []
    for i in (1, n):  # range "I" with il = iu = i; found = (m, nsplit)
        _lapacke(lapack, "dstebz", b"I", b"E", n, 0.0, 0.0, i, i, 0.0, d.ctypes.data,
                 e.ctypes.data, found.ctypes.data, found[1:].ctypes.data, w.ctypes.data,
                 blocks.ctypes.data, blocks[n:].ctypes.data)
        ends.extend(w[:found[0]])
    return float(np.abs(ends).max())


def _narrow(ab: np.ndarray, ku: int) -> tuple[np.ndarray, int, int]:
    """Band storage ``ab`` with ku superdiagonals narrowed to its outermost
    nonzero diagonals, with their ku and kl, as an array the band routines
    may overwrite: Fortran-ordered, in place if ``ab`` owns its data, else a
    copy (so never a view of a matrix's storage)."""
    rows = np.flatnonzero(ab.any(axis=1))  # the diagonals that hold a nonzero
    lo, hi = min(rows.min(initial=ku), ku), max(rows.max(initial=ku), ku)
    narrow = ab[lo:hi + 1]
    narrow = np.asfortranarray(narrow) if ab.flags.owndata else np.array(narrow, order="F")
    return narrow, ku - lo, hi - ku


def _band_solve(ab: np.ndarray, ku: int, m: int, hermitian: bool) -> np.ndarray:
    """:func:`_values` of the m-row matrix in band storage ``ab`` with ku
    superdiagonals (ku = 0: a Hermitian matrix's lower storage), narrowed
    (:func:`_narrow`): from the band routines where the band rule passes and
    they are bound, else from ``eigvalsh`` or the values-only ``svd`` of the
    dense array it is scattered into."""
    (ab, ku, kl), n, lapack = _narrow(ab, ku), ab.shape[1], _band_lapack()
    if lapack and _fits(kl + ku, min(m, n)):
        return (_band_eigenvalues(lapack, ab) if hermitian else
                _band_singular_values(lapack, ab, m, kl))
    i = np.arange(-ku, kl + 1)[:, None] + np.arange(n)  # the row of each entry
    dense, inside = np.zeros((m, n), ab.dtype), (i >= 0) & (i < m)
    dense[i[inside], np.nonzero(inside)[1]] = ab[inside]
    return np.linalg.eigvalsh(dense) if hermitian else np.linalg.svd(dense, compute_uv=False)


def _band_input(arr: np.ndarray, hermitian: bool) -> tuple[np.ndarray, int] | None:
    """The band storage :func:`_values` solves from, with its ku: a
    band-stored matrix's storage rows (the lower ones if ``hermitian``), or
    the storage written from a float64 or complex128 matrix whose bandwidths
    fit where the band routines are bound; else None."""
    storage = getattr(arr, "storage", None)
    if storage is not None:
        ku = 0 if hermitian else arr.band
        return storage[arr.band - ku:], ku
    widths = (arr.ndim == 2 and arr.dtype in (np.float64, np.complex128)
              and _fits(0, min(arr.shape)) and _band_lapack() and _bandwidths(arr, hermitian))
    return (_band_storage(arr, *widths), widths[1]) if widths else None


def _values(arr: np.ndarray, hermitian: bool) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix (its lower triangle) or
    descending singular values, of a matrix or a stack: from
    :func:`_band_solve` of its :func:`_band_input`, if it has one; else
    from one ``eigvalsh`` or values-only ``svd``, of a whole stack too."""
    band = _band_input(arr, hermitian)
    if band is not None:
        return _band_solve(*band, arr.shape[0], hermitian)
    arr = as_array(arr)
    return np.linalg.eigvalsh(arr) if hermitian else np.linalg.svd(arr, compute_uv=False)


def _reflection_block(arr, sizes: tuple, signs: tuple, kd=None, ku=0, rows=None) -> np.ndarray:
    """Block ``signs`` of :func:`_reflection_eigenvalues`, dense, or given
    bounds kd and ku on its bandwidths, as the band storage of its first
    ``rows`` rows (default all) at those bounds; ku = 0 gives the lower
    storage.  Level by level, the first first, entry (p, q) folds to
    x ± y (y at the column J_l reflects), √2 x where p or q is the middle of
    odd n_l, x where both are; one whose row alone is a middle is read at
    its transpose.  For J these are Cantoni and Butler's X ± YJ, √2 u and c.
    The band storage is gathered entry by entry from A (from its band
    storage if it has one); the dense block takes x ± y from views of A and
    gathers only the rows and columns that are a middle of some level."""
    d, half = len(sizes), [(n + (s > 0)) // 2 for n, s in zip(sizes, signs)]
    mids = 2 * np.indices(half).reshape(d, -1) == np.subtract(sizes, 1)[:, None]
    box, order = tuple(slice(h) for h in half), int(np.prod(half))
    grid = np.arange(arr.shape[0]).reshape(sizes)

    # Levels 0..level; above it, bits reflected.  Gathered entries (index
    # arrays p, q) take the middle rule; the dense fold of views skips it.
    def fold(leaf, p=None, q=None, level=d - 1, bits=()):
        if level < 0:
            return leaf(bits)
        x, y = (fold(leaf, p, q, level - 1, (b, *bits)) for b in (0, 1))
        out = x + y if signs[level] > 0 else x - y
        if p is not None and mids[level].any():  # √2 x at a middle p or q, x at both
            mp, mq = mids[level][p], mids[level][q]
            out = np.where(mp | mq, np.where(mp & mq, x, np.sqrt(2.0) * x), out)
        return out

    def gather(p, q):  # the entries at index arrays (p, q), read from A
        turn = np.logical_or.reduce([m[p] & ~m[q] for m in mids])  # read at (q, p)
        p, q = np.where(turn, q, p), np.where(turn, p, q)
        return fold(lambda bits: _entries(
            arr, grid[box].ravel()[p], np.flip(grid, tuple(np.flatnonzero(bits)))[box].ravel()[q]),
                    p, q)

    if kd is None:  # x ± y from views of A; the middle rows and columns gathered
        arr = as_array(arr)
        tensor, every = arr.reshape(tuple(sizes) * 2), np.arange(order)
        r = np.flatnonzero(mids.any(0))
        block = fold(lambda bits: np.flip(tensor, tuple(d + np.flatnonzero(bits)))[
            box * 2].reshape(order, order))
        if r.size:
            rows, cols = gather(r[:, None], every), gather(every[:, None], r)
            block = block.astype(np.result_type(block, rows), copy=False)
            block[r], block[:, r] = rows, cols
        return block
    i = np.arange(-ku, kd + 1)[:, None] + np.arange(order)  # the row of each entry
    inside = (i >= 0) & (i < (order if rows is None else rows))
    return np.where(inside, gather(np.clip(i, 0, order - 1), np.arange(order)), 0.0)


def _skew_half_values(arr: np.ndarray) -> np.ndarray:
    """Descending singular values of the half block C of a real A = -A^T =
    -J A J (:func:`_spectrum`), the first floor(N/2) rows of its even
    reflection block; of A's band storage C is gathered into band storage
    at A's bound for :func:`_band_solve`."""
    n, m = arr.shape[0], arr.shape[0] // 2
    if getattr(arr, "storage", None) is None:
        return _values(_reflection_block(arr, (n,), (1,))[:m], False)
    k = arr.band
    return _band_solve(_reflection_block(arr, (n,), (1,), k, k, m), k, m, False)


def _similarity(matrix: BlockMatrix, w: np.ndarray) -> BlockMatrix:
    """B = W^-1 A W, W = diag(w), entry (a * w_j) / w_i, with A's band bound
    (a diagonal similarity keeps every zero); in band storage, A's scaled
    entry by entry, if A is, its dense array then built from A's on first access."""
    def dense():
        b = as_array(matrix) * w
        return np.divide(b, w[:, None], out=b)

    b = BlockMatrix(dense if matrix.storage is not None else dense(), matrix.r, matrix.n)
    b.band = matrix.band
    if matrix.storage is not None:
        b.storage = matrix.storage * w / _band_rows(w, b.band)
    return b


def _fold_spans(sizes: tuple, nonzeros: tuple) -> np.ndarray:
    """Per level l, max |f(i_l) - f(j_l)|, f(x) = min(x, n_l - 1 - x), over
    A's ``nonzeros`` (i, j).  Each term of a block's entry (p, q) is such an
    A[i, j] with {f(i), f(j)} = {p, q}, so the sum of span_l times the
    block's stride of level l bounds its kd."""
    top = np.subtract(sizes, 1)[:, None]
    a, b = (np.array(np.unravel_index(x, sizes)) for x in nonzeros)
    return np.abs(np.minimum(a, top - a) - np.minimum(b, top - b)).max(1, initial=0)


def _reflection_eigenvalues(arr: np.ndarray, sizes: tuple, nonzeros: tuple | None) -> np.ndarray:
    """Eigenvalues of a real symmetric A that commutes with the reversal J_l of
    each level of ``sizes`` ((N,): J): Q_1 ⊗ … ⊗ Q_d, Q_l the even and odd
    vectors of J_l, splits A into 2^d blocks (Trench, LAA 377 (2004) 207–218;
    d = 1: Cantoni and Butler, LAA 13 (1976) 275–288).  Given A's
    ``nonzeros``, each block is gathered into band storage at its kd bound
    (:func:`_fold_spans`) for :func:`_band_solve`; else it is built dense."""
    spans = None if nonzeros is None else _fold_spans(sizes, nonzeros)
    values = []
    for signs in itertools.product((1, -1), repeat=len(sizes)):
        half = [(n + (s > 0)) // 2 for n, s in zip(sizes, signs)]
        if spans is None:
            values.append(_values(_reflection_block(arr, sizes, signs), True))
        else:
            kd = int(np.dot(spans, np.cumprod([1, *half[:0:-1]])[::-1]))
            values.append(_band_solve(_reflection_block(arr, sizes, signs, kd), 0,
                                      int(np.prod(half)), True))
    return np.sort(np.concatenate(values))


def _hermitian_eigenvalues(arr: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack, by the route of
    one matrix: structure test -> blocks -> solver.

    - Test, exact, of one real matrix: J_l A J_l = A for the reversal J_l
      of each of d >= 2 levels of a 1-block BlockMatrix, else J A J = A for
      the reversal J of the whole index (:func:`_is_centro_hermitian`).
      Within a band bound that fits, it reads A's in-band nonzeros once and
      compares them alone.
    - Blocks: a matrix that passes splits into 2^d or two real blocks
      (:func:`_reflection_eigenvalues`).  A complex matrix, a stack and a
      matrix that fails are their own block.
    - Solver: :func:`_values`, or :func:`_band_solve` of the band storage
      that each block of a matrix with in-band nonzeros is gathered into.
    """
    if np.iscomplexobj(arr) or arr.ndim != 2:
        return _values(arr, True)
    band = getattr(arr, "band", None)
    nonzeros = _band_nonzeros(arr, band) if band is not None and _fits(band, arr.shape[0]) else None
    levels = arr.n if isinstance(arr, BlockMatrix) and arr.r == 1 else ()
    for sizes in ([levels] if len(levels) > 1 else []) + [arr.shape[:1]]:
        if _is_centro_hermitian(arr, nonzeros, sizes, range(len(sizes))):
            return _reflection_eigenvalues(arr, sizes, nonzeros)
    return _values(arr, True)


def _hermitian_norm(x) -> float:
    """||X|| of a Hermitian matrix that the caller found finite: from
    :func:`_band_norm` where :func:`_values` would take X's band storage to
    the one-stage solver, with no reflection split (the bisection is O(N)
    already); else the first value of ``_spectrum(x, SIGMA, True)``."""
    band, lapack = _band_input(x, True), _band_lapack()
    if band is not None and lapack:
        ab, _, kd = _narrow(*band)
        if _fits(kd, x.shape[0]) and not _eigen_routine(ab).endswith("_2stage"):
            try:
                return _band_norm(lapack, ab)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"eigensolver failed ({exc}); {_fingerprint(x)}") from exc
    return float(_spectrum(x, SIGMA, True)[0])


def spectrum(matrix, mode: str = SIGMA, hermitian: bool | None = None) -> np.ndarray:
    """Singular values (descending) or eigenvalues (canonical order).

    ``hermitian`` is the caller's decision for this matrix, taken once with
    :func:`is_hermitian` (here, in lambda mode, when it is None).  A
    Hermitian matrix's values come from its real eigenvalues, ascending in
    lambda mode and their moduli, descending, in sigma mode.  Otherwise
    sigma mode gives the singular values and lambda mode the complex
    eigenvalues in (re, im) order.  Exact structure tests pick a cheaper
    route to the same values (:func:`_spectrum`).

    ``materialize`` sets the symmetrizer of a product D_a H D_b with real,
    strictly positive diagonal samples; B = D_sqrt(ab) H D_sqrt(ab) has the
    eigenvalues of A and is Hermitian when H is.  The vector is a hint: only
    the numeric test on B decides.

    In sigma mode ``matrix`` may also be a stack of shape (k, d, d): the
    result has shape (k, d) and row i holds, bit for bit, the values of the
    plain numpy call on matrix i (``svd`` with ``compute_uv=False``, or
    ``eigvalsh`` with ``hermitian``).  A stack takes one stacked call, which
    saves numpy's per-call overhead on many small matrices, and no structure
    test or band route.  Every entry of the stack must be finite.
    Eigenvalues (lambda mode, or ``hermitian`` true) need a square matrix;
    the SVD of sigma mode also takes rectangles.  The entries must be
    integer, float or complex.
    """
    if len(np.shape(matrix)) < 2:
        raise InvalidParameterError(f"spectrum takes a matrix, got shape {np.shape(matrix)}")
    _finite(matrix)
    return _spectrum(matrix, mode, hermitian)


def _spectrum(matrix, mode: str, hermitian: bool | None) -> np.ndarray:
    """:func:`spectrum` of a matrix (ndim >= 2) that the caller found finite.

    The routes, each to the values of the plain numpy call:

    - Hermitian: :func:`_hermitian_eigenvalues`.
    - Sigma mode of one real A = -A^T = -J A J (:func:`_is_skew_centro`; the
      skew parts of D_n(x) T_n(f) and of real Toeplitz matrices, and
      commutators such as [D_n(x), T_n(f)]): the first m rows of its even
      reflection block, C = A[:m, :m] + A[:m, N-m:] J with the column
      √2 A[:m, m] for N = 2m + 1 (:func:`_skew_half_values`).  Cantoni and
      Butler's similarity takes A to [[0, -K^T], [K, 0]], K = J C, so each
      singular value of C counts twice, plus one 0 for odd N.
    - Any other sigma mode: :func:`_values`.
    - Lambda mode of a ``BlockMatrix`` with a symmetrizer w for which B =
      W^-1 A W (:func:`_similarity`) passes ``is_hermitian``: B's eigenvalues
      as complex, with imaginary parts exactly zero.  Otherwise ``eigvals``.

    Sigma mode tests nothing else for itself: one real matrix pays the skew
    test, a stack takes one stacked call with no test, and only a matrix of
    order 32 or more pays the bandwidth test, so a caller that factors many small
    matrices (Monte Carlo trials) pays no test per matrix.
    """
    arr = matrix if isinstance(matrix, BlockMatrix) else np.asarray(matrix)
    if mode not in (SIGMA, LAMBDA):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == LAMBDA and arr.ndim != 2:
        raise InvalidParameterError(f"lambda mode takes one matrix, got shape {arr.shape}")
    if arr.shape[-2] != arr.shape[-1] and (mode == LAMBDA or hermitian):
        raise InvalidParameterError(f"eigenvalues need a square matrix, got shape {arr.shape}")
    if mode == LAMBDA and hermitian is None:
        hermitian = is_hermitian(matrix)
    try:
        if hermitian:
            values = _hermitian_eigenvalues(arr)
            return values if mode == LAMBDA else np.sort(np.abs(values))[..., ::-1]
        if mode == SIGMA:
            if arr.ndim == 2 and not np.iscomplexobj(arr) and _is_skew_centro(arr):
                sv = _skew_half_values(arr)
                return np.concatenate([np.repeat(sv, 2), np.zeros(arr.shape[0] % 2)])
            return _values(arr, False)
        w = getattr(matrix, "symmetrizer", None)
        if w is not None:
            b = _similarity(matrix, w)
            if is_hermitian(b):
                return _hermitian_eigenvalues(b).astype(complex)
        return np.sort(np.linalg.eigvals(as_array(arr)).astype(complex, copy=False))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver failed ({exc}); {_fingerprint(arr)}") from exc


def _finite(matrix) -> None:
    """Raise :class:`InvalidParameterError` unless the entries are integer,
    float or complex, and :class:`EvaluationError` if one is not finite,
    reading a stack's rows in :func:`~gltlab.matgen.row_strips`: no N x N
    temporary.  A BlockMatrix with band storage is read there, in O(N k)."""
    arr = getattr(matrix, "storage", None)
    arr = as_array(matrix) if arr is None else arr
    if arr.dtype.kind not in "iufc":
        raise InvalidParameterError(f"matrix entries must be numbers, got dtype {arr.dtype}")
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim and arr.size else arr.reshape(-1)
    if not all(np.isfinite(rows[lo:hi]).all() for lo, hi in row_strips(len(rows), rows.shape[-1])):
        raise EvaluationError("matrix has non-finite entries")


def empirical_functional(values, f: TestFunction) -> float:
    """Arithmetic mean of F over a spectrum, (1/d_n) sum F(values_i)."""
    arr = np.asarray(values)
    if arr.size == 0:
        raise InvalidParameterError("empty value list")
    if not np.all(np.isfinite(arr)):
        raise EvaluationError("spectrum contains non-finite values")
    return float(np.mean(f.evaluate(arr)))


# ---------------------------------------------------------------------------
# symbol-side quadrature


def _grid(s: Symbol, g: int, ends: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The tensor grid of d space axes on [0, 1] then d frequency axes on
    [-pi, pi], as the pair (x, theta) of its space nodes, (Nx, 1, d), and
    its frequency nodes, (1, Ntheta, d), which :func:`spectral_surfaces`
    evaluates by broadcasting, x-major: g cell midpoints per axis, or with
    ``ends`` g points from end to end.  An axis the symbol does not depend on
    gets one node, its midpoint.

    Endpoints matter to the probe of a symbol's range: surfaces often attain
    their extremes on the domain boundary, and the hull estimated from these
    samples must cover the range so that windowed test functions never clip it.
    """
    axes = []
    for depends, lo, hi in ((s.depends_space, 0.0, 1.0), (s.depends_frequency, -np.pi, np.pi)):
        count = g if depends else 1
        line = (np.linspace(lo, hi, count) if ends and count > 1
                else lo + (np.arange(count) + 0.5) * (hi - lo) / count)
        mesh = np.meshgrid(*[line] * s.d, indexing="ij")
        axes.append(np.stack([m.ravel() for m in mesh], axis=1))
    return axes[0][:, None, :], axes[1][None, :, :]


def _active(s: Symbol) -> int:
    """The number of axes, of 2d, that the symbol depends on."""
    return s.d * (int(s.depends_space) + int(s.depends_frequency))


def _node_count(s: Symbol, g: int) -> int:
    return g ** _active(s)


def _per_axis(s: Symbol, budget: int) -> int:
    """Points per axis the symbol depends on that fit ``budget`` nodes."""
    active = _active(s)
    return int(budget ** (1.0 / active)) if active else budget


@dataclass(frozen=True)
class Quadrature:
    """One test function's symbol-side integral and how it was reached:
    the finest resolution ``g`` used, its node count, and the last change
    between successive estimates."""

    value: float
    g: int
    nodes: int
    last_delta: float


def _grid_strips(nx: int, nt: int) -> list[tuple[int, int, slice, slice]]:
    """(lo, hi, rows, columns) of the strips that cover the nodes [0, nx nt)
    of a grid of nx space and nt frequency nodes, x-major: whole rows of at
    most ``_STRIP`` nodes, or pieces of one row of ``_STRIP`` nodes where a
    row is longer.  Each strip's nodes are [lo, hi) of the whole grid's."""
    if nt <= _STRIP:
        step = _STRIP // nt
        return [(i * nt, min(i + step, nx) * nt, slice(i, i + step), slice(None))
                for i in range(0, nx, step)]
    return [(i * nt + j, i * nt + min(j + _STRIP, nt), slice(i, i + 1), slice(j, j + _STRIP))
            for i in range(nx) for j in range(0, nt, _STRIP)]


def _grid_means(s: Symbol, basket: Sequence[TestFunction], mode: str, g: int) -> list[float]:
    """Midpoint means of every test function on the grid of :func:`_grid`.

    The surfaces are written strip by strip (:func:`_grid_strips`) into one
    array, each node evaluated once for the whole basket; a non-finite value
    raises :class:`EvaluationError` naming its node of the whole grid.  Each
    test function is then evaluated strip by strip into one reused buffer,
    whose mean has the bits of the mean over the whole grid's values, since
    ``fn`` is elementwise.  So no grid-sized temporary of an evaluation is
    made.  In lambda mode the Hermitian test of a declared-Hermitian symbol
    (:func:`~gltlab.symbols.spectral_surfaces`) is taken per strip; a
    scalar symbol's values have the same real parts either way.
    """
    x, theta = _grid(s, g)
    strips = _grid_strips(len(x), theta.shape[1])
    surfaces = None
    for lo, hi, rows, cols in strips:
        try:
            part = spectral_surfaces(s, x[rows], theta[:, cols], mode)
        except EvaluationError as exc:
            if exc.node is None:
                raise
            raise EvaluationError(str(exc), node=lo + exc.node) from None
        if surfaces is None:
            surfaces = np.empty((len(x) * theta.shape[1], s.r), dtype=part.dtype)
        elif np.iscomplexobj(part) and not np.iscomplexobj(surfaces):
            surfaces = surfaces.astype(part.dtype)  # an earlier strip passed the Hermitian test
        surfaces[lo:hi] = part
        del part  # so that no strip is held while the next one is evaluated
    values = np.empty(surfaces.shape)
    means = []
    for f in basket:
        for lo, hi, _, _ in strips:
            values[lo:hi] = f.evaluate(surfaces[lo:hi])
        means.append(float(np.mean(values)))
    return means


def _basket_quadrature(s: Symbol, basket: Sequence[TestFunction], mode: str,
                       tol: float) -> list[Quadrature]:
    """Tensor quadrature of each averaged surface functional of a basket,
    (1/mu(D)) int mean_i F(surface_i(x, theta)) d(x, theta).

    The rule is the midpoint rule I(g) on a g-per-dimension grid, from g = 64.  It is
    spectrally accurate in the periodic theta, so a frequency-only symbol
    takes I(g) as its estimate.  In the non-periodic x it converges only as
    O(h^2), so a symbol that depends on x takes one Richardson step,
    R(g) = (4 I(2g) - I(g)) / 3.  The grid is doubled until two consecutive
    estimates differ by less than ``tol``; the finer one is reported.  The
    convergence test stays the gate because clipped windows and |.|
    surfaces break the h^2 expansion.  The grid is that of :func:`_grid`, and
    the starting resolution shrinks automatically so that the grids of one
    convergence test fit inside the ``_MAX_NODES`` budget;
    :class:`QuadratureError` is raised when the budget runs out first.

    Each grid is evaluated once for the whole basket.  Every function stops
    at its own resolution, so its value is the one a basket of it alone
    returns; later grids apply only the functions that have not converged yet.
    """
    richardson = s.depends_space
    doublings = 2 if richardson else 1  # grids past the first before one comparison
    g = min(64, max(_per_axis(s, _MAX_NODES) >> doublings, 2))
    if _node_count(s, g << doublings) > _MAX_NODES:
        raise QuadratureError(
            f"node budget {_MAX_NODES} cannot fit the {doublings + 1} grids of one "
            f"convergence test ({_active(s)} active dimensions)"
        )
    coarse = _grid_means(s, basket, mode, g)
    estimate: list[float | None] = [None] * len(basket) if richardson else list(coarse)
    delta = [np.inf] * len(basket)
    done: dict[int, Quadrature] = {}
    pending = list(range(len(basket)))
    while pending:
        g2 = 2 * g
        if _node_count(s, g2) > _MAX_NODES:
            i = pending[0]
            raise QuadratureError(
                f"quadrature for {basket[i].id!r} did not converge to {tol} within "
                f"{_MAX_NODES} nodes (last delta {delta[i]:.3e} at g={g})"
            )
        fine = _grid_means(s, [basket[i] for i in pending], mode, g2)
        for i, cur in zip(pending, fine):
            est = (4.0 * cur - coarse[i]) / 3.0 if richardson else cur
            if estimate[i] is not None:
                delta[i] = abs(est - estimate[i])
                if delta[i] < tol:
                    done[i] = Quadrature(est, g2, _node_count(s, g2), delta[i])
            coarse[i], estimate[i] = cur, est
        pending = [i for i in pending if i not in done]
        g = g2
    return [done[i] for i in range(len(basket))]


# ---------------------------------------------------------------------------
# trend policies shared by the verdict-producing checks


def non_increasing(series: Sequence[float], slack: float = SLACK,
                   floor: float = TREND_FLOOR, steps: int | None = None) -> bool:
    """True when consecutive values do not grow beyond ``slack`` (last
    ``steps`` transitions only, all of them when ``steps`` is None)."""
    vals = [float(v) for v in series]
    pairs = list(zip(vals, vals[1:]))
    if steps is not None:
        pairs = pairs[-steps:]
    return all(b <= slack * a + floor for a, b in pairs)


def trending_to_zero(series: Sequence[float], slack: float = SLACK,
                     floor: float = FLOOR) -> bool:
    """Finite surrogate for ``lim = 0``: non-increasing steps (with slack)
    plus an overall decay of at least ``DECAY`` from first to last value."""
    vals = [float(v) for v in series]
    if not vals:
        return True
    if max(vals) <= floor:
        return True
    if not non_increasing(vals, slack=slack, floor=floor):
        return False
    return vals[-1] <= DECAY * vals[0] + floor


# ---------------------------------------------------------------------------
# distribution check


class WeylRow(NamedTuple):
    n: MultiIndex
    d_n: int
    mode: str
    f_id: str
    empirical: float
    symbol: float
    abs_error: float


def _normalize_sizes(sizes: Sequence) -> list[MultiIndex]:
    norm = [check_size(n) for n in sizes]
    if not norm:
        raise InvalidParameterError("at least one size is required")
    d = len(norm[0])
    if any(len(n) != d for n in norm):
        raise InvalidParameterError("sizes must share the same number of levels")
    mins = [min_entry(n) for n in norm]
    if any(b <= a for a, b in zip(mins, mins[1:])):
        raise InvalidParameterError(f"sizes must be strictly increasing in min-entry: {norm}")
    return norm


def _check_basket(basket, basket_ids) -> None:
    """Raise :class:`InvalidParameterError` for an empty basket or id list:
    a check of no test function would pass with nothing checked."""
    if any(b is not None and len(b) == 0 for b in (basket, basket_ids)):
        raise InvalidParameterError("the basket has no test function")


def distribution_check(seq, symbol: Symbol, sizes: Sequence, mode: str = SIGMA,
                       basket: Sequence[TestFunction] | None = None,
                       tolerance: float = 0.05, slack: float = SLACK,
                       quad_tol: float = QUAD_TOL, allow_non_hermitian: bool = False,
                       basket_ids: Sequence[str] | None = None, *,
                       _read: frozenset = frozenset()) -> Report:
    """Compare empirical Weyl averages against symbol integrals over a size sweep.

    ``seq`` maps a size multi-index to a matrix.  PASS requires, for every test
    function, the error at the largest size to fall below ``tolerance`` and the
    errors to be non-increasing (slack ``slack``) over the last two size steps.
    Eigenvalue mode demands Hermitian matrices unless ``allow_non_hermitian``
    (the quasi-Hermitian waiver) is set.  The report has one row per (size,
    test function) and one check per test function.  An empty basket or
    ``basket_ids`` raises InvalidParameterError before any matrix is built.
    Each matrix is read for finiteness first, but for the sizes in ``_read``,
    whose matrices the caller has read (:func:`~gltlab.gltcalc.glt1_verify`
    hands back those of its split check).
    """
    _check_basket(basket, basket_ids)
    if not quad_tol > 0:
        raise InvalidParameterError(f"quad_tol must be > 0, got {quad_tol}")
    norm_sizes = _normalize_sizes(sizes)
    spectra: list[np.ndarray] = []
    notes: list[str] = []
    for n in norm_sizes:
        matrix = seq(n)
        if n not in _read:
            _finite(matrix)
        _take_notes(matrix, notes)
        hermitian = is_hermitian(matrix)
        if mode == LAMBDA and not allow_non_hermitian and not hermitian:
            raise ModeError(
                f"eigenvalue mode requires Hermitian matrices (size {n}); "
                "pass allow_non_hermitian=True after a quasi-Hermitian split check"
            )
        spectra.append(_spectrum(matrix, mode, hermitian))
        del matrix  # so that no matrix is held while the next one or the grids are built
    if basket is None:
        observed = np.concatenate([np.asarray(v).real.ravel() for v in spectra])
        probe_x, probe_t = _grid(symbol, min(17, max(3, _per_axis(symbol, _PROBE_NODES))),
                                 ends=True)
        samples = spectral_surfaces(symbol, probe_x, probe_t, mode).real.ravel()
        lo = float(min(observed.min(), samples.min()))
        hi = float(max(observed.max(), samples.max()))
        basket = default_basket(lo, hi)
    if basket_ids is not None:
        known = {f.id: f for f in basket}
        missing = [fid for fid in basket_ids if fid not in known]
        if missing:
            raise InvalidParameterError(
                f"unknown basket ids {missing}; available: {sorted(known)}"
            )
        basket = [known[fid] for fid in basket_ids]
    quadrature = _basket_quadrature(symbol, basket, mode, quad_tol)
    rows: list[WeylRow] = []
    checks: list[dict] = []
    passed = True
    for f, quad in zip(basket, quadrature):
        errors: list[float] = []
        for n, values in zip(norm_sizes, spectra):
            emp = empirical_functional(values, f)
            err = abs(emp - quad.value)
            errors.append(err)
            rows.append(WeylRow(n, values.size, mode, f.id, emp, quad.value, err))
        checks.append({"name": f"weyl distribution error ({mode} mode, F={f.id})",
                       "error_at_largest": errors[-1], "tolerance": tolerance})
        ok = errors[-1] <= tolerance and non_increasing(errors, slack=slack, steps=2)
        passed = passed and ok
    rows.sort(key=lambda row: (row.n, 0))
    return Report(
        passed=passed,
        columns=("n", "d_n", "mode", "F_id", "empirical", "symbol", "abs_error"),
        rows=rows,
        checks=checks,
        metadata={
            "verdict_policy": "threshold at largest size plus non-increasing "
            "errors over the last two size steps",
            "tolerance": tolerance,
            "slack": slack,
            "quad_tol": quad_tol,
            "quadrature": {
                f.id: {"g": quad.g, "nodes": quad.nodes, "last_delta": quad.last_delta}
                for f, quad in zip(basket, quadrature)
            },
        },
        notes=notes,
    )
