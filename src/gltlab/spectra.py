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
from .matgen import as_array, is_hermitian
from .multiindex import MultiIndex, check_size, min_entry
from .reports import Report
from .symbols import Symbol, spectral_surfaces

SIGMA = "sigma"
LAMBDA = "lambda"
_MAX_NODES = 2**22  # symbol-side quadrature node budget


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
    support: tuple

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

    return TestFunction(fid or f"x^{power}", fn, ("window", float(lo), float(hi)))


def cosine_bump(center: float, halfwidth: float, fid: str | None = None) -> TestFunction:
    """C^1 bump (1 + cos(pi u))/2 with u = (x - center)/halfwidth."""
    if halfwidth <= 0:
        raise InvalidParameterError("bump halfwidth must be positive")

    def fn(x):
        u = (np.asarray(x, dtype=float) - center) / halfwidth
        return np.where(np.abs(u) <= 1.0, 0.5 * (1.0 + np.cos(np.pi * u)), 0.0)

    return TestFunction(fid or f"bump@{center:g}", fn, ("bump", float(center), float(halfwidth)))


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


_STRIP = 1 << 16  # entries the structure test compares at once


def _is_centro_hermitian(arr: np.ndarray) -> bool:
    """Exactly J A J == conj(A), J the reversal of the (lexicographic) index.

    Row 0 goes first, against the reversed last row, so most other matrices
    are rejected in O(N).  The rest is compared in strips of rows: no N x N
    temporary is made.
    """
    n = arr.shape[0]
    complex_ = np.iscomplexobj(arr)
    half = (n + 1) // 2
    edges = [0, *range(1, half, max(1, _STRIP // n)), half]
    for lo, hi in zip(edges, edges[1:]):
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


def spectrum(matrix, mode: str = SIGMA, hermitian: bool | None = None) -> np.ndarray:
    """Singular values (descending) or eigenvalues (canonical order).

    ``hermitian`` is the caller's decision for this matrix, taken once with
    :func:`is_hermitian`; it picks the solver:

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
            matrix           real, one of order N if complex
    ======  ===============  ==============================  ====================

    Sigma mode never tests for itself: a caller that factors many small
    matrices (Schatten norms, Monte Carlo trials) pays no test per call.
    Real (float64) input takes the real LAPACK routine of each solver.

    Every scalar Hermitian multilevel Toeplitz matrix is centro-Hermitian,
    J A J = conj(A) with J the reversal of the whole index.  A Hermitian
    matrix that passes this exact O(N^2) test is reduced, in O(N^2), to real
    symmetric blocks of the same joint spectrum before the O(N^3) solve
    (:func:`_centro_hermitian_blocks`).  Stacks never take that path.

    In sigma mode ``matrix`` may also be a stack of shape (k, d, d): the
    result has shape (k, d) and row i holds the values of matrix i, bit for
    bit as if it were passed alone.  One call factors the whole stack, which
    saves numpy's per-call overhead on many small matrices.  Every entry of
    the stack must be finite.
    """
    arr = as_array(matrix)
    if not np.all(np.isfinite(arr)):
        raise EvaluationError("matrix has non-finite entries")
    if mode not in (SIGMA, LAMBDA):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == LAMBDA and arr.ndim != 2:
        raise InvalidParameterError(f"lambda mode takes one matrix, got shape {arr.shape}")
    if mode == LAMBDA and hermitian is None:
        hermitian = is_hermitian(arr)
    try:
        if hermitian:
            if arr.ndim == 2 and _is_centro_hermitian(arr):
                values = np.sort(np.concatenate(
                    [np.linalg.eigvalsh(b) for b in _centro_hermitian_blocks(arr)]))
            else:
                values = np.linalg.eigvalsh(arr)
            return values if mode == LAMBDA else np.sort(np.abs(values))[..., ::-1]
        if mode == SIGMA:
            return np.linalg.svd(arr, compute_uv=False)
        return np.sort(np.linalg.eigvals(arr).astype(complex, copy=False))
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver failed ({exc}); {_fingerprint(arr)}") from exc


def _schatten_from_values(sv: np.ndarray, p) -> float:
    """p-norm of a descending singular value vector; p=inf is sigma_1."""
    if sv.size == 0:
        return 0.0
    if p == np.inf:
        return float(sv[0])
    return float(np.sum(sv**p) ** (1.0 / p))


def schatten_norm(matrix, p) -> float:
    """p-norm of the singular value vector; p=inf is the spectral norm."""
    if p != np.inf and p < 1:
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


def _probe_nodes(s: Symbol, per_dim: int, node_budget: int = 2**16):
    """Endpoint-including evaluation grid capped at ``node_budget`` nodes.

    Endpoints matter: symbol surfaces often attain their extremes on the
    domain boundary, and the hull estimated from these samples must cover
    the range so that windowed test functions never clip it.
    """
    active = s.d * (int(s.depends_space) + int(s.depends_frequency))
    g = per_dim
    if active > 0:
        g = min(per_dim, max(3, int(node_budget ** (1.0 / active))))
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
                       grid_points_per_dim: int, tol: float,
                       max_nodes: int) -> list[Quadrature]:
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
        g_cap = int(max_nodes ** (1.0 / active)) >> doublings
        g = min(g, max(g_cap, 2))
    if _node_count(s, g << doublings) > max_nodes:
        raise QuadratureError(
            f"node budget {max_nodes} cannot fit the {doublings + 1} grids of one "
            f"convergence test ({active} active dimensions)"
        )
    coarse = _grid_means(s, basket, mode, g)
    estimate: list[float | None] = [None] * len(basket) if richardson else list(coarse)
    delta = [np.inf] * len(basket)
    done: dict[int, Quadrature] = {}
    pending = list(range(len(basket)))
    while pending:
        g2 = 2 * g
        if _node_count(s, g2) > max_nodes:
            i = pending[0]
            raise QuadratureError(
                f"quadrature for {basket[i].id!r} did not converge to {tol} within "
                f"{max_nodes} nodes (last delta {delta[i]:.3e} at g={g})"
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


def symbol_functional(s: Symbol, f: TestFunction, mode: str = SIGMA,
                      grid_points_per_dim: int = 64, tol: float = 1e-8,
                      max_nodes: int = _MAX_NODES) -> float:
    """Tensor quadrature of the averaged surface functional,
    (1/mu(D)) int mean_i F(surface_i(x, theta)) d(x, theta).

    The rule is the midpoint rule I(g) on a g-per-dimension grid.  It is
    spectrally accurate in the periodic theta, so a frequency-only symbol
    takes I(g) as its estimate.  In the non-periodic x it converges only as
    O(h^2), so a symbol that depends on x takes one Richardson step,
    R(g) = (4 I(2g) - I(g)) / 3.  The grid is doubled until two consecutive
    estimates differ by less than ``tol``; the finer one is reported.  The
    convergence test stays the gate because clipped windows and |.|
    surfaces break the h^2 expansion.  Inactive variables use a single
    midpoint node.  The starting resolution shrinks automatically so that
    the grids of one convergence test fit inside the ``max_nodes`` budget;
    :class:`QuadratureError` is raised when the budget runs out first.
    """
    return _basket_quadrature(s, [f], mode, grid_points_per_dim, tol, max_nodes)[0].value


# ---------------------------------------------------------------------------
# trend policies shared by the verdict-producing checks


def non_increasing(series: Sequence[float], slack: float = 1.5,
                   floor: float = 1e-12, steps: int | None = None) -> bool:
    """True when consecutive values do not grow beyond ``slack`` (last
    ``steps`` transitions only, all of them when ``steps`` is None)."""
    vals = [float(v) for v in series]
    pairs = list(zip(vals, vals[1:]))
    if steps is not None:
        pairs = pairs[-steps:]
    return all(b <= slack * a + floor for a, b in pairs)


def trending_to_zero(series: Sequence[float], slack: float = 1.5,
                     decay: float = 0.5, floor: float = 1e-10) -> bool:
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
                       tolerance: float = 0.05, slack: float = 1.5,
                       quad_tol: float = 1e-7, grid_points_per_dim: int = 64,
                       allow_non_hermitian: bool = False,
                       trend_floor: float = 1e-12,
                       basket_ids: Sequence[str] | None = None) -> Report:
    """Compare empirical Weyl averages against symbol integrals over a size sweep.

    ``seq`` maps a size multi-index to a matrix.  PASS requires, for every test
    function, the error at the largest size to fall below ``tolerance`` and the
    errors to be non-increasing (slack ``slack``) over the last two size steps.
    Eigenvalue mode demands Hermitian matrices unless ``allow_non_hermitian``
    (the quasi-Hermitian waiver) is set.  The report has one row per (size,
    test function) and one check per test function.
    """
    norm_sizes = _normalize_sizes(sizes)
    spectra: list[np.ndarray] = []
    notes: list[str] = []
    for n in norm_sizes:
        a = as_array(seq(n), notes)
        hermitian = is_hermitian(a)
        if mode == LAMBDA and not allow_non_hermitian and not hermitian:
            raise ModeError(
                f"eigenvalue mode requires Hermitian matrices (size {n}); "
                "pass allow_non_hermitian=True after a quasi-Hermitian split check"
            )
        spectra.append(spectrum(a, mode, hermitian=hermitian))
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
    quadrature = _basket_quadrature(symbol, basket, mode, grid_points_per_dim, quad_tol,
                                    _MAX_NODES)
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
        ok = errors[-1] <= tolerance and non_increasing(
            errors, slack=slack, floor=trend_floor, steps=2
        )
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
