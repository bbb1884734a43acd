"""Spectra, Schatten norms, Weyl functionals, and distribution verdicts.

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
from .matgen import as_array, is_hermitian, row_strips
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
# A matrix of order N >= _BAND_FLOOR takes the band route when its lower and
# upper bandwidths keep (kl + ku + 1) * _BAND_COST <= N (SVD), or when it is
# Hermitian and its lower bandwidth keeps (kd + 1) * _BAND_COST <= N.  On 2
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
_BAND_FLOOR = 2 * _BAND_COST
_TWO_STAGE = {"dsbevd": range(32, 92), "zhbevd": range(16, 1 << 62)}  # kd of the _2stage form


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class TestFunction:
    """A continuous compactly-supported test function on the real line.

    ``fn`` must be vectorized.  Complex inputs are reduced to their real part
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


def _fingerprint(arr: np.ndarray) -> str:
    trace = np.trace(arr, axis1=-2, axis2=-1).sum()  # summed over a stack
    return f"shape={arr.shape}, fro={np.linalg.norm(arr):.6e}, trace={trace:.6e}"


Band = tuple[int, int] | None  # a BlockMatrix's band bound


def _is_centro_hermitian(arr: np.ndarray, band: Band = None) -> bool:
    """Exactly J A J == conj(A), J the reversal of the (lexicographic) index,
    compared in strips of at most ``_STRIP`` entries, row 0 first
    (:func:`~gltlab.matgen.row_strips`); within a band bound K = max(kl, ku)
    with (K + 1) * _BAND_COST <= N, as diagonal k against diagonal -k
    reversed and conjugated for k = 0..K."""
    n = arr.shape[0]
    complex_ = np.iscomplexobj(arr)
    if band is not None and (max(band) + 1) * _BAND_COST <= n:
        return all(np.array_equal(np.diagonal(arr, k), np.diagonal(arr, -k)[::-1].conj())
                   for k in range(max(band) + 1))
    for lo, hi in row_strips((n + 1) // 2, n):
        mirror = arr[n - hi:n - lo][::-1, ::-1]
        if not np.array_equal(arr[lo:hi], mirror.conj() if complex_ else mirror):
            return False
    return True


def _centro_hermitian_blocks(arr: np.ndarray) -> list[np.ndarray]:
    """Real symmetric matrices whose joint spectrum is that of the Hermitian,
    centro-Hermitian ``arr``, built in O(N^2).

    With N = 2m + odd, X = A[:m, :m], YJ = A[:m, N-m:] with its columns
    reversed, P = X + YJ, M = X - YJ, u = A[:m, m] and c = A[m, m] (odd N only),
    the orthogonal similarity of Cantoni & Butler (real A) or the unitary one
    of Lee (complex A) gives

        [[Re P,     √2 Re u, -Im M   ],
         [√2 Re uᵀ, c,       √2 Im uᵀ],
         [Im P,     √2 Im u, Re M    ]],

    which is block diagonal, [[P, √2 u], [√2 uᵀ, c]] and M, when A is real.
    """
    n = arr.shape[0]
    m, odd = divmod(n, 2)
    x = arr[:m, :m]
    yj = arr[:m, n - m:][:, ::-1]
    p, q = x + yj, x - yj
    u = np.sqrt(2.0) * arr[:m, m:m + odd]
    c = arr[m:m + odd, m:m + odd].real
    if not np.iscomplexobj(arr):
        return [np.block([[p, u], [u.T, c]]), q]
    return [np.block([[p.real, u.real, -q.imag],
                      [u.real.T, c, u.imag.T],
                      [p.imag, u.imag, q.real]])]


def _is_skew_centro(arr: np.ndarray) -> bool:
    """Exactly A == -A^T and J A J == -A, J the reversal of the whole index,
    compared in strips of at most ``_STRIP`` entries, row 0 first
    (:func:`~gltlab.matgen.row_strips`).

    Both relations on the first ceil(N/2) rows imply them on the others, since
    J A J = -A maps row i onto row N-1-i.
    """
    n = arr.shape[0]
    for lo, hi in row_strips((n + 1) // 2, n):
        rows = arr[lo:hi]
        if not (np.array_equal(rows, -arr[:, lo:hi].T)
                and np.array_equal(rows, -arr[n - hi:n - lo][::-1, ::-1])):
            return False
    return True


def _skew_centro_block(arr: np.ndarray) -> np.ndarray:
    """The real m x (m + odd) matrix C whose singular values, each taken
    twice, plus one 0 for odd N = 2m + odd, are those of the real
    ``arr`` = -arr^T = -J arr J, built in O(N^2).

    C = A[:m, :m] + A[:m, N-m:] J, with the extra column √2 A[:m, m] for odd
    N.  The orthogonal similarity of :func:`_centro_hermitian_blocks` takes
    A to [[0, -K^T], [K, 0]] with K = J C, whose singular values are those of
    K twice, plus one 0 from the odd column.
    """
    n = arr.shape[0]
    m, odd = divmod(n, 2)
    c = arr[:m, :m] + arr[:m, n - m:][:, ::-1]
    return np.hstack([c, np.sqrt(2.0) * arr[:m, m:m + 1]]) if odd else c


# ---------------------------------------------------------------------------
# banded matrices

_INT, _PTR, _CHAR = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char
_COL_MAJOR = 102  # LAPACKE's matrix_layout for Fortran order
# layout, vect, m, n, ncc, kl, ku, ab, ldab, d, e, q, ldq, pt, ldpt, c, ldc
_GBBRD = [ctypes.c_int, _CHAR, _INT, _INT, _INT, _INT, _INT, _PTR, _INT, _PTR, _PTR,
          _PTR, _INT, _PTR, _INT, _PTR, _INT]
# layout, jobz, uplo, n, kd, ab, ldab, w, z, ldz
_SBEVD = [ctypes.c_int, _CHAR, _CHAR, _INT, _INT, _PTR, _INT, _PTR, _PTR, _INT]
_LAPACKE_ARGS = {  # ILP64 prototypes of the LAPACKE routines the band route calls
    "dgbbrd": _GBBRD, "zgbbrd": _GBBRD,
    # layout, uplo, n, ncvt, nru, ncc, d, e, vt, ldvt, u, ldu, c, ldc
    "dbdsqr": [ctypes.c_int, _CHAR, _INT, _INT, _INT, _INT, _PTR, _PTR, _PTR, _INT, _PTR,
               _INT, _PTR, _INT],
    "dsbevd": _SBEVD, "dsbevd_2stage": _SBEVD, "zhbevd": _SBEVD, "zhbevd_2stage": _SBEVD,
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


def _outermost(diagonal: Callable[[int], np.ndarray], k: int) -> int:
    """The largest d <= k whose ``diagonal(d)`` has a nonzero entry, else 0."""
    while k > 0 and not diagonal(k).any():
        k -= 1
    return k


def _bandwidths(arr: np.ndarray, lower: bool = False, band: Band = None) -> Band:
    """The exact lower and upper bandwidths (kl, ku) of a matrix, or None as
    soon as the rows read so far break (kl + ku + 1) * _BAND_COST <=
    min(shape).  With ``lower`` only the lower triangle counts and ku is 0:
    the rule of a Hermitian matrix's lower band.  A band bound that passes
    the rule is narrowed to the outermost nonzero diagonals in O(N k);
    otherwise reads strips of rows, row 0 first, or the last row first for
    ``lower`` (:func:`~gltlab.matgen.row_strips`), so a dense matrix is
    rejected in O(N)."""
    m, n = arr.shape
    if band is not None:
        kl, ku = band[0], 0 if lower else band[1]
        if (kl + ku + 1) * _BAND_COST <= min(m, n):
            return (_outermost(lambda d: np.diagonal(arr, -d), kl),
                    _outermost(lambda d: np.diagonal(arr, d), ku))
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
        if (kl + ku + 1) * _BAND_COST > min(m, n):
            return None
    return kl, ku


def _band_storage(arr: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """LAPACK's (kl + ku + 1) x N column-major band storage, AB[ku + i - j, j]
    = A[i, j]; with ku = 0 it is the lower storage of a symmetric matrix."""
    ab = np.zeros((kl + ku + 1, arr.shape[1]), dtype=arr.dtype, order="F")
    for k in range(-kl, ku + 1):
        diag = np.diagonal(arr, k)
        ab[ku - k, max(k, 0):max(k, 0) + diag.size] = diag
    return ab


def _lapacke(lapack: dict, name: str, *args) -> None:
    info = lapack[name](_COL_MAJOR, *args)
    if info > 0:
        raise np.linalg.LinAlgError(f"{name} did not converge (info={info})")
    if info < 0:
        raise RuntimeError(f"LAPACKE_{name} returned info={info}: a bug in the band route")


def _band_singular_values(lapack: dict, arr: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """Descending singular values: dgbbrd (zgbbrd if complex) reduces the
    band to a real upper bidiagonal, dbdsqr takes its values; no vectors."""
    m, n = arr.shape
    ab = _band_storage(arr, kl, ku)
    d, e = np.empty(min(m, n)), np.empty(min(m, n))
    _lapacke(lapack, "zgbbrd" if np.iscomplexobj(ab) else "dgbbrd", b"N", m, n, 0, kl, ku,
             ab.ctypes.data, ab.shape[0], d.ctypes.data, e.ctypes.data, None, 1, None, 1,
             None, 1)
    _lapacke(lapack, "dbdsqr", b"U", d.size, 0, 0, 0, d.ctypes.data, e.ctypes.data,
             None, 1, None, 1, None, 1)
    return d


def _band_eigenvalues(lapack: dict, ab: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues from dsbevd (zhbevd if complex) of the lower
    band storage ``ab`` of a Hermitian matrix, kd + 1 rows by N (the
    triangle ``np.linalg.eigvalsh`` reads), or from its ``_2stage`` form for
    kd in _TWO_STAGE[name]."""
    kd = ab.shape[0] - 1
    name = "zhbevd" if np.iscomplexobj(ab) else "dsbevd"
    name += "_2stage" if kd in _TWO_STAGE[name] else ""
    w = np.empty(ab.shape[1])
    _lapacke(lapack, name, b"N", b"L", w.size, kd, ab.ctypes.data, ab.shape[0],
             w.ctypes.data, None, 1)
    return w


def _routed(arr: np.ndarray, dense: Callable, hermitian: bool = False,
            band: Band = None) -> np.ndarray:
    """The band route for a float64 or complex128 matrix of order at least
    _BAND_FLOOR whose bandwidths (read within ``band``) pass the rule, where
    the band routines are bound: ``_band_eigenvalues`` with the Hermitian
    rule (of the lower band alone) if ``hermitian``, else
    ``_band_singular_values``; ``dense`` otherwise.  A stack of that order
    is routed matrix by matrix, so that row i holds matrix i's values as if
    passed alone."""
    if (arr.ndim < 2 or arr.dtype not in (np.float64, np.complex128)
            or min(arr.shape[-2:]) < _BAND_FLOOR or arr.size == 0):
        return dense(arr)
    lapack = _band_lapack()
    if lapack is None:
        return dense(arr)
    if arr.ndim > 2:
        return np.stack([_routed(a, dense, hermitian) for a in arr])
    widths = _bandwidths(arr, lower=hermitian, band=band)
    if widths is None:
        return dense(arr)
    return (_band_eigenvalues(lapack, _band_storage(arr, widths[0], 0)) if hermitian
            else _band_singular_values(lapack, arr, *widths))


def _singular_values(arr: np.ndarray, band: Band = None) -> np.ndarray:
    return _routed(arr, lambda a: np.linalg.svd(a, compute_uv=False), band=band)


def _eigvalsh(arr: np.ndarray, band: Band = None) -> np.ndarray:
    return _routed(arr, lambda a: np.linalg.eigvalsh(a), hermitian=True, band=band)


def _centro_band(arr: np.ndarray, k: int, op: Callable) -> np.ndarray:
    """Lower band storage, narrowed to the exact kd <= k, of P's block (``op``
    np.add, with c and √2 u for odd N) or M (np.subtract) of
    :func:`_centro_hermitian_blocks` of a real ``arr`` with band bound k, by
    the same float operations in O(N k): row d is diag(X, -d) op diag(YJ,
    -d), YJ[j + d, j] = A[j + d, N - 1 - j]."""
    m, odd = divmod(arr.shape[0], 2)
    odd = odd and op is np.add
    ab = np.zeros((k + 1, m + odd), order="F")
    for d in range(k + 1):
        ab[d, :m - d] = op(np.diagonal(arr, -d)[:m - d], np.diagonal(arr[:m, ::-1], -d))
        if odd:
            ab[d, m - d] = np.sqrt(2.0) * arr[m - d, m] if d else arr[m, m]
    return np.asfortranarray(ab[:_outermost(ab.__getitem__, k) + 1])


def _centro_eigenvalues(arr: np.ndarray, band: Band = None) -> np.ndarray:
    """The real blocks of a matrix with band bound (kl, ku) keep K = max(kl, ku):
    YJ and u are nonzero only in the last K rows and columns.  A block whose
    order passes the band rule for K (routines bound) is built only in band
    storage (:func:`_centro_band`), the others dense."""
    k, n = band and max(band), arr.shape[0]
    lapack = band is not None and _band_lapack()  # only a real matrix brings its bound
    stored = [bool(lapack) and order >= _BAND_FLOOR and (k + 1) * _BAND_COST <= order
              for order in ((n + 1) // 2, n // 2)]
    blocks = [None, None] if all(stored) else _centro_hermitian_blocks(arr)
    return np.sort(np.concatenate([  # a block built dense failed the rule for K
        _band_eigenvalues(lapack, _centro_band(arr, k, op)) if ok else _eigvalsh(b)
        for b, ok, op in zip(blocks, stored, (np.add, np.subtract))]))


def _hermitian_eigenvalues(arr: np.ndarray, band: Band = None) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix or stack, through the
    centro-Hermitian blocks when one matrix passes the exact test.  A complex
    centro-Hermitian matrix that is banded goes to zhbevd whole, as Lee's
    real block of the same order is dense."""
    if arr.ndim == 2 and _is_centro_hermitian(arr, band):
        if np.iscomplexobj(arr):
            return _routed(arr, _centro_eigenvalues, hermitian=True, band=band)
        return _centro_eigenvalues(arr, band)
    return _eigvalsh(arr, band)


def spectrum(matrix, mode: str = SIGMA, hermitian: bool | None = None) -> np.ndarray:
    """Singular values (descending) or eigenvalues (canonical order).

    ``hermitian`` is the caller's decision for this matrix, taken once with
    :func:`is_hermitian`; it picks the solver, and exact or numeric structure
    tests pick a cheaper route to the same values:

    ======  ===============  ==============================  ====================
    mode    hermitian        solver                          result
    ======  ===============  ==============================  ====================
    sigma   True             ``sort(|eigvalsh|)``            real, descending
    sigma   False or None    ``svd`` (values only)           real, descending
    lambda  True             ``eigvalsh``                    real, ascending
    lambda  False            ``eigvals``                     complex, (re, im)
    lambda  None             ``is_hermitian`` decides        as above
    either  True, and one    ``eigvalsh`` of real symmetric  as for ``eigvalsh``
            centro-Hermitian blocks: orders m(+1) and m if
            matrix           real (band storage if banded),
                             one of order N if complex and
                             not banded (band row)
    sigma   False or None,   ``svd`` of one real block of    real, descending
            one real matrix  order m x (m + odd), each
            with A = -A^T =  value twice, plus one 0 for
            -J A J           odd N
    lambda  False, and a     ``eigvalsh`` (centro blocks     complex, (re, im),
            ``BlockMatrix``  when B passes) of B = W^-1 A W  imaginary parts
            whose            if ``is_hermitian(B)``, else    exactly zero
            ``symmetrizer``  ``eigvals`` of A                (``eigvals``: as
            w is set                                         above)
    either  as above, for    ``dgbbrd`` (``zgbbrd`` if       as the call it
            each matrix or   complex) + ``dbdsqr`` (svd),    replaces
            block of order   or ``dsbevd`` (``zhbevd``) of
            N >= 32 with     the lower band (eigvalsh),
            (kl + ku + 1) *  ``_2stage`` for a wide band;
            16 <= N (svd),   no vectors
            (kd + 1) * 16 <=
            N (eigvalsh)
    ======  ===============  ==============================  ====================

    J is the reversal of the whole (lexicographic) index.  Every scalar
    Hermitian multilevel Toeplitz matrix is centro-Hermitian, J A J =
    conj(A); a Hermitian matrix that passes this exact test is reduced, in
    O(N^2), to real symmetric blocks of the same joint spectrum before the
    O(N^3) solve (:func:`_centro_hermitian_blocks`).  The skew parts of
    D_n(x) T_n(f) and of real Toeplitz matrices, and such commutators as
    [D_n(x), T_n(f)], satisfy A = -A^T = -J A J exactly; their singular
    values come from one real block of half the order
    (:func:`_skew_centro_block`).  Both structure tests are exact, compare
    strips of rows, and reject most other matrices in O(N) on row 0; the
    centro-Hermitian test of a ``BlockMatrix`` whose band bound K passes
    (K + 1) * ``_BAND_COST`` <= N compares only the diagonals inside it, in
    O(N K).

    The band row covers every values-only SVD and ``eigvalsh`` above, of a
    whole matrix or of a block: a float64 or complex128 one of order N >=
    ``_BAND_FLOOR`` whose exact bandwidths (:func:`_bandwidths`: the
    outermost nonzero diagonals inside a ``BlockMatrix``'s band bound, else
    row 0 or the last row first, so a dense matrix is rejected in O(N)) pass
    the rule takes O(N^2 k) band routines from the scipy-openblas64 LAPACKE
    that numpy bundles (:func:`_band_lapack`; without it, the dense call).
    The real centro-Hermitian blocks keep the bound K, and a block whose
    order passes the rule for K is written straight into LAPACK's band
    storage from A in O(N K) (:func:`_centro_band`), with no dense block.
    The SVD's rule is (kl + ku + 1) * ``_BAND_COST`` <= N; a Hermitian matrix is
    admitted by the lower bandwidth kd alone, (kd + 1) * ``_BAND_COST`` <=
    N, and takes the two-stage reduction for kd in ``_TWO_STAGE``.
    ``dsbevd`` and ``zhbevd`` read the lower band and the real part of the
    diagonal, as ``eigvalsh`` reads the lower triangle of a matrix that is
    Hermitian only within ``is_hermitian``'s tolerance.  A complex
    centro-Hermitian matrix that passes the rule goes to ``zhbevd`` whole:
    its real block of the same order is dense (N = 4096, kd = 1: 0.26 s
    against 4.8 s on 2 cores).  Sigma mode tests nothing else for itself:
    one real matrix pays the skew test, stacks pay no structure test, and
    only a matrix of order 32 or more, alone or in a stack, pays the
    bandwidth test, so a caller that factors many small matrices (Monte
    Carlo trials) pays no test per matrix.  Real (float64) input takes the
    real LAPACK routine of each solver.

    ``materialize`` sets the symmetrizer of a product D_a H D_b with real,
    strictly positive diagonal samples; B = D_sqrt(ab) H D_sqrt(ab) has the
    eigenvalues of A and is Hermitian when H is.  The vector is a hint: only
    the numeric test on B decides.

    In sigma mode ``matrix`` may also be a stack of shape (k, d, d): the
    result has shape (k, d) and row i holds the values of matrix i, bit for
    bit as if it were passed alone.  One call factors the whole stack, which
    saves numpy's per-call overhead on many small matrices; a stack of
    order 32 or more is routed matrix by matrix instead.  Every entry of the
    stack must be finite.  Eigenvalues (lambda mode, or ``hermitian`` true)
    need a square matrix; the SVD of sigma mode also takes rectangles.
    """
    arr = as_array(matrix)
    if arr.ndim < 2:
        raise InvalidParameterError(f"spectrum takes a matrix, got shape {arr.shape}")
    _finite(arr)
    return _spectrum(matrix, mode, hermitian)


def _spectrum(matrix, mode: str, hermitian: bool | None) -> np.ndarray:
    """:func:`spectrum` of a matrix (ndim >= 2) that the caller found finite."""
    arr = as_array(matrix)
    band = getattr(matrix, "band", None)
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
            values = _hermitian_eigenvalues(arr, band)
            return values if mode == LAMBDA else np.sort(np.abs(values))[..., ::-1]
        if mode == SIGMA:
            if arr.ndim == 2 and not np.iscomplexobj(arr) and _is_skew_centro(arr):
                sv = _singular_values(_skew_centro_block(arr))
                return np.concatenate([np.repeat(sv, 2), np.zeros(arr.shape[0] % 2)])
            return _singular_values(arr, band)
        w = getattr(matrix, "symmetrizer", None)
        if w is not None:
            b = arr * w  # B = W^-1 A W
            b /= w[:, None]
            if is_hermitian(b):
                return _hermitian_eigenvalues(b, band).astype(complex)
        return np.sort(np.linalg.eigvals(arr).astype(complex, copy=False))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver failed ({exc}); {_fingerprint(arr)}") from exc


def _finite(arr: np.ndarray) -> None:
    """Raise :class:`EvaluationError` if an entry is not finite, reading a
    stack's rows in :func:`~gltlab.matgen.row_strips`: no N x N temporary."""
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim and arr.size else arr.reshape(-1)
    if not all(np.isfinite(rows[lo:hi]).all() for lo, hi in row_strips(len(rows), rows.shape[-1])):
        raise EvaluationError("matrix has non-finite entries")


def _schatten_from_values(sv: np.ndarray, p) -> float:
    """p-norm of a descending singular value vector; p=inf is sigma_1."""
    if sv.size == 0:
        return 0.0
    if p == np.inf:
        return float(sv[0])
    return float(np.sum(sv**p) ** (1.0 / p))


def schatten_norm(matrix, p) -> float:
    """p-norm of the singular value vector; p=inf is the spectral norm."""
    if not p >= 1:
        raise InvalidParameterError(f"Schatten norm requires p >= 1, got {p}")
    return _schatten_from_values(spectrum(matrix, SIGMA), p)


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


def _midline(count: int, lo: float, hi: float) -> np.ndarray:
    return lo + (np.arange(count) + 0.5) * (hi - lo) / count


def _mesh_nodes(lines: list[np.ndarray], d: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor grid of d space lines then d frequency lines, as (x, theta)."""
    mesh = np.meshgrid(*lines, indexing="ij")
    flat = [m.ravel() for m in mesh]
    return np.stack(flat[:d], axis=1), np.stack(flat[d:], axis=1)


def _tensor_nodes(s: Symbol, g: int) -> tuple[np.ndarray, np.ndarray]:
    gx = g if s.depends_space else 1
    gt = g if s.depends_frequency else 1
    lines = [_midline(gx, 0.0, 1.0)] * s.d + [_midline(gt, -np.pi, np.pi)] * s.d
    return _mesh_nodes(lines, s.d)


def _node_count(s: Symbol, g: int) -> int:
    gx = g if s.depends_space else 1
    gt = g if s.depends_frequency else 1
    return (gx**s.d) * (gt**s.d)


def _probe_nodes(s: Symbol, per_dim: int):
    """Endpoint-including evaluation grid capped at ``_PROBE_NODES`` nodes.

    Endpoints matter: symbol surfaces often attain their extremes on the
    domain boundary, and the hull estimated from these samples must cover
    the range so that windowed test functions never clip it.
    """
    active = s.d * (int(s.depends_space) + int(s.depends_frequency))
    g = per_dim
    if active > 0:
        g = min(per_dim, max(3, int(_PROBE_NODES ** (1.0 / active))))
    gx = g if s.depends_space else 1
    gt = g if s.depends_frequency else 1
    x_line = np.linspace(0.0, 1.0, gx) if gx > 1 else np.array([0.5])
    t_line = np.linspace(-np.pi, np.pi, gt) if gt > 1 else np.array([0.0])
    return _mesh_nodes([x_line] * s.d + [t_line] * s.d, s.d)


@dataclass(frozen=True)
class Quadrature:
    """One test function's symbol-side integral and how it was reached:
    the finest resolution ``g`` used, its node count, and the last change
    between successive estimates."""

    value: float
    g: int
    nodes: int
    last_delta: float


def _grid_means(s: Symbol, basket: Sequence[TestFunction], mode: str, g: int) -> list[float]:
    """Midpoint means of every test function, from one surface evaluation."""
    x, theta = _tensor_nodes(s, g)
    surfaces = spectral_surfaces(s, x, theta, mode)
    return [float(np.mean(f.evaluate(surfaces))) for f in basket]


def _basket_quadrature(s: Symbol, basket: Sequence[TestFunction], mode: str,
                       grid_points_per_dim: int, tol: float) -> list[Quadrature]:
    """Symbol-side integrals of a whole basket, each grid evaluated once.

    Every function follows the rule of :func:`symbol_functional` and stops at
    its own resolution, so its value is the one a call for it alone returns;
    later grids apply only the functions that have not converged yet.
    """
    # The midpoint rule is spectrally accurate in the periodic theta but only
    # O(h^2) in x; one Richardson step cancels the h^2 term.
    richardson = s.depends_space
    doublings = 2 if richardson else 1  # grids past the first before one comparison
    g = max(int(grid_points_per_dim), 2)
    active = s.d * (int(s.depends_space) + int(s.depends_frequency))
    if active > 0:
        g_cap = int(_MAX_NODES ** (1.0 / active)) >> doublings
        g = min(g, max(g_cap, 2))
    if _node_count(s, g << doublings) > _MAX_NODES:
        raise QuadratureError(
            f"node budget {_MAX_NODES} cannot fit the {doublings + 1} grids of one "
            f"convergence test ({active} active dimensions)"
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


def symbol_functional(s: Symbol, f: TestFunction, mode: str = SIGMA) -> float:
    """Tensor quadrature of the averaged surface functional,
    (1/mu(D)) int mean_i F(surface_i(x, theta)) d(x, theta).

    The rule is the midpoint rule I(g) on a g-per-dimension grid, from g = 64.  It is
    spectrally accurate in the periodic theta, so a frequency-only symbol
    takes I(g) as its estimate.  In the non-periodic x it converges only as
    O(h^2), so a symbol that depends on x takes one Richardson step,
    R(g) = (4 I(2g) - I(g)) / 3.  The grid is doubled until two consecutive
    estimates differ by less than ``QUAD_TOL``; the finer one is reported.  The
    convergence test stays the gate because clipped windows and |.|
    surfaces break the h^2 expansion.  Inactive variables use a single
    midpoint node.  The starting resolution shrinks automatically so that
    the grids of one convergence test fit inside the ``_MAX_NODES`` budget;
    :class:`QuadratureError` is raised when the budget runs out first.
    """
    return _basket_quadrature(s, [f], mode, 64, QUAD_TOL)[0].value


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
                     decay: float = DECAY, floor: float = FLOOR) -> bool:
    """Finite surrogate for ``lim = 0``: non-increasing steps (with slack)
    plus an overall decay of at least ``decay`` from first to last value."""
    vals = [float(v) for v in series]
    if not vals:
        return True
    if max(vals) <= floor:
        return True
    if not non_increasing(vals, slack=slack, floor=floor):
        return False
    return vals[-1] <= decay * vals[0] + floor


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


def distribution_check(seq, symbol: Symbol, sizes: Sequence, mode: str = SIGMA,
                       basket: Sequence[TestFunction] | None = None,
                       tolerance: float = 0.05, slack: float = SLACK,
                       quad_tol: float = QUAD_TOL, grid_points_per_dim: int = 64,
                       allow_non_hermitian: bool = False,
                       basket_ids: Sequence[str] | None = None) -> Report:
    """Compare empirical Weyl averages against symbol integrals over a size sweep.

    ``seq`` maps a size multi-index to a matrix.  PASS requires, for every test
    function, the error at the largest size to fall below ``tolerance`` and the
    errors to be non-increasing (slack ``slack``) over the last two size steps.
    Eigenvalue mode demands Hermitian matrices unless ``allow_non_hermitian``
    (the quasi-Hermitian waiver) is set.  The report has one row per (size,
    test function) and one check per test function.
    """
    if not quad_tol > 0:
        raise InvalidParameterError(f"quad_tol must be > 0, got {quad_tol}")
    norm_sizes = _normalize_sizes(sizes)
    spectra: list[np.ndarray] = []
    notes: list[str] = []
    for n in norm_sizes:
        matrix = seq(n)
        _finite(as_array(matrix, notes))
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
        probe_x, probe_t = _probe_nodes(symbol, 17)
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
    quadrature = _basket_quadrature(symbol, basket, mode, grid_points_per_dim, quad_tol)
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
