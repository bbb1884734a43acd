"""Shared fixtures-by-hand for the test suite."""

import itertools
from dataclasses import fields

import numpy as np

from gltlab.acs import _STACK_BYTES, CERTIFICATE_COLUMNS, SplittingRow, hoeffding_radius
from gltlab.gltcalc import Diag, GLTExpression, Toeplitz
from gltlab.matgen import as_array
from gltlab.multiindex import MultiIndex, check_size, nu
from gltlab.errors import InvalidParameterError, QuadratureError
from gltlab.reports import Report
from gltlab.spectra import (
    LAMBDA,
    QUAD_TOL,
    SIGMA,
    _basket_quadrature,
    _normalize_sizes,
    spectrum,
    trending_to_zero,
)
from gltlab.symbols import Symbol, TrigPolynomial, spectral_surfaces


def structurally_equal(a: GLTExpression, b: GLTExpression) -> bool:
    """Structural tree equality (coefficient tables compared exactly); inner
    nodes compare every field, their children recursively."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Toeplitz):
        pa, pb = a.poly, b.poly
        if (pa.d, pa.r) != (pb.d, pb.r) or set(pa.coeffs) != set(pb.coeffs):
            return False
        return all(np.array_equal(pa.coeffs[k], pb.coeffs[k]) for k in pa.coeffs)
    if isinstance(a, Diag):
        if a.exprs is None or b.exprs is None:
            return a.coefficient is b.coefficient
        return a.exprs == b.exprs
    for f in fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if not (structurally_equal(u, v) if isinstance(u, GLTExpression) else u == v):
            return False
    return True


def schatten_norm(matrix, p) -> float:
    """p-norm of the singular value vector; p=inf is the spectral norm."""
    sv = spectrum(matrix, SIGMA)
    return float(np.max(sv, initial=0.0)) if p == np.inf else float(np.sum(sv**p) ** (1.0 / p))


def splitting_distance(matrix) -> float:
    """min_i ( i/d_n + sigma_{i+1} ); always in [0, min(1, sigma_1)]."""
    arr = as_array(matrix)
    sv = np.append(spectrum(arr, SIGMA), 0.0)
    return float(np.min(np.arange(arr.shape[0] + 1) / arr.shape[0] + sv))


def symbol_functional(s: Symbol, f, mode: str = SIGMA) -> float:
    """The symbol-side integral of one test function, by the lab's quadrature."""
    return _basket_quadrature(s, [f], mode, QUAD_TOL)[0].value


def _mesh(s: Symbol, x_lines, t_lines):
    """(x, theta) of the tensor grid of the space lines then the frequency lines."""
    flat = [m.ravel() for m in np.meshgrid(*x_lines, *t_lines, indexing="ij")]
    return np.stack(flat[:s.d], axis=1), np.stack(flat[s.d:], axis=1)


def random_trig_polynomial(rng, d=1, r=1, degree=1, hermitian=True, scale=1.0):
    """Random trig polynomial; Hermitian variants satisfy fhat_{-k} = fhat_k^*."""
    deg = (degree,) * d if isinstance(degree, int) else tuple(degree)
    coeffs = {}
    for k in itertools.product(*(range(-v, v + 1) for v in deg)):
        if k in coeffs:
            continue
        block = scale * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        if hermitian:
            if all(v == 0 for v in k):
                block = (block + block.conj().T) / 2
                coeffs[k] = block
            else:
                coeffs[k] = block
                coeffs[tuple(-v for v in k)] = block.conj().T
        else:
            coeffs[k] = block
    return TrigPolynomial(d, r, coeffs)


def random_reflection(dim, rng):
    """Householder reflection I - 2 v v^*."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.eye(dim) - 2.0 * np.outer(v, v.conj())


def laplacian_eigenvalues(n):
    """Closed form for the tridiagonal (2, -1) matrix of size n."""
    return 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def cantoni_butler_blocks(a):
    """The two real symmetric blocks of a real centro-symmetric matrix whose
    joint spectrum is its own (Cantoni & Butler, LAA 13 (1976) 275-288):
    with N = 2m + odd, X = A[:m, :m], YJ = A[:m, N-m:] with its columns
    reversed, u = sqrt(2) A[:m, m] and c = A[m, m] (odd N only), they are
    [[X + YJ, u], [u^T, c]] and X - YJ."""
    n = a.shape[0]
    m, odd = divmod(n, 2)
    x = a[:m, :m]
    yj = a[:m, n - m:][:, ::-1]
    u = np.sqrt(2.0) * a[:m, m:m + odd]
    c = a[m:m + odd, m:m + odd]
    return [np.block([[x + yj, u], [u.T, c]]), x - yj]


def shift_matrix(m, offset):
    """J^(l): (i, j) entry 1 when i - j = l (0 elsewhere)."""
    return np.eye(m, k=-offset)


def toeplitz_kronecker(f, n):
    """Oracle: T_n(f) as the sum over offsets k of (J^(k_1) x ... x J^(k_d)) x fhat_k."""
    n = check_size(n)
    out = np.zeros((f.r * nu(n), f.r * nu(n)), dtype=complex)
    for k, block in f.coeffs.items():
        if any(abs(kj) >= nj for kj, nj in zip(k, n)):
            continue
        shifts = np.ones((1, 1))
        for kj, nj in zip(k, n):
            shifts = np.kron(shifts, shift_matrix(nj, kj))
        out += np.kron(shifts, block)
    return out


def toeplitz_blockfill(f, n):
    """Oracle: T_n(f) filled block (i, j) = fhat_{i-j} one pair at a time."""
    n = check_size(n)
    indices = list(itertools.product(*(range(1, v + 1) for v in n)))
    out = np.zeros((f.r * nu(n), f.r * nu(n)), dtype=complex)
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            block = f.coeffs.get(tuple(ii - jj for ii, jj in zip(i, j)))
            if block is not None:
                out[a * f.r : (a + 1) * f.r, b * f.r : (b + 1) * f.r] = block
    return out


def numerical_rank(matrix):
    """Oracle: the number of singular values above 1e-10 * sigma_1 + 1e-14."""
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-10 * sv[0] + 1e-14))


def designed_draw_chunk(rng, n, m, k, s_of=lambda m: 1.0 / m):
    """Oracle: the k trials (S, R, N) of one chunk of the designed model, each
    built on its own from the chunk's draws (rank uniforms, U, V, norm
    uniforms, reflector vectors, S uniforms); R takes only the first ``rank``
    columns of U and N is the scaled Householder reflector of the trial's v."""
    d_n = int(np.prod(n))
    c_m, w_m = 1.0 / (2.0 * m), 1.0 / m
    ok_rank = int(np.floor(c_m * d_n))
    r_max = min(ok_rank + 2, d_n)
    rank_u = rng.random(k)
    u = rng.standard_normal((k, d_n, r_max))
    v = rng.standard_normal((k, r_max, d_n))
    norm_u = rng.random(k)
    g = rng.standard_normal((k, d_n))
    s_u = rng.random(k)
    out = []
    for i in range(k):
        rank = ok_rank if rank_u[i] >= 0.5 / m else r_max
        r = u[i, :, :rank] @ v[i, :rank]
        norm_scale = 0.8 if norm_u[i] >= 0.5 / m else 1.5
        nn = (norm_scale * w_m) * (np.eye(d_n) - 2.0 / max(np.sum(g[i] * g[i]), 1e-30)
                                   * np.outer(g[i], g[i]))
        s = np.zeros((d_n, d_n))
        if s_u[i] < s_of(m):
            s[0, 0] = 1.0
        out.append((s, r, nn))
    return out


def errors_for(report, f_id):
    """(d_n, abs_error) of each row of a distribution report for one test function."""
    return [(row.d_n, row.abs_error) for row in report.rows if row.f_id == f_id]


def sacs_oracle(model, m_list, sizes, trials, slack=1.5, floor=1e-10):
    """Oracle: the s.a.c.s. certificate from one trial at a time, with a
    separate SVD for each rank and each norm; each chunk of trials (as many as
    fit a complex stack of ``_STACK_BYTES``) is drawn by ``model.sample``."""
    norm_sizes = _normalize_sizes(sizes)
    radius = hoeffding_radius(trials)
    rows = []
    freq_s_by_m = {m: [] for m in m_list}
    events_ok = True
    for m in m_list:
        c_m = model.c_bound(m)
        w_m = model.omega_bound(m)
        for n in norm_sizes:
            hit_rank = hit_norm = hit_s = 0
            d_n = nu(n)
            step = max(1, _STACK_BYTES // (16 * d_n**2))
            for chunk, first in enumerate(range(0, trials, step)):
                k = min(step, trials - first)
                for s_mat, r_mat, n_mat in zip(*model.sample(n, m, chunk, k)):
                    if numerical_rank(r_mat) <= c_m * d_n + 1e-9:
                        hit_rank += 1
                    if schatten_norm(n_mat, np.inf) <= w_m + 1e-12 * (1.0 + w_m):
                        hit_norm += 1
                    if np.any(s_mat != 0):
                        hit_s += 1
            freq_rank, freq_norm, freq_s = hit_rank / trials, hit_norm / trials, hit_s / trials
            freq_s_by_m[m].append(freq_s)
            rows.append((m, n, d_n, c_m, w_m, freq_rank, freq_norm, freq_s))
            if freq_rank < 1.0 - 1.0 / m - radius or freq_norm < 1.0 - 1.0 / m - radius:
                events_ok = False
    s_est = {m: float(max(freq_s_by_m[m][-2:])) for m in m_list}
    c_decl = {m: model.c_bound(m) for m in m_list}
    w_decl = {m: model.omega_bound(m) for m in m_list}
    passed = (
        events_ok
        and trending_to_zero([c_decl[m] for m in m_list], slack=slack, floor=floor)
        and trending_to_zero([w_decl[m] for m in m_list], slack=slack, floor=floor)
        and trending_to_zero([s_est[m] for m in m_list], slack=slack, floor=max(floor, radius))
    )
    verdict = "PASS" if passed else "FAIL"
    return Report(passed=passed, columns=CERTIFICATE_COLUMNS,
                  rows=[SplittingRow(*row, verdict) for row in rows],
                  facts={"s_estimates": {str(m): s for m, s in s_est.items()}})


def grid_mean(s, f, mode, g):
    """Oracle: one test function's mean over the tensor midpoint grid of g
    points per axis the symbol depends on (one midpoint on the others), every
    node's surfaces evaluated in one call, as paired points."""
    gx, gt = (g if s.depends_space else 1), (g if s.depends_frequency else 1)
    x_line = (np.arange(gx) + 0.5) / gx
    t_line = -np.pi + (np.arange(gt) + 0.5) * (2 * np.pi) / gt
    x, theta = _mesh(s, [x_line] * s.d, [t_line] * s.d)
    return float(np.mean(f.evaluate(spectral_surfaces(s, x, theta, mode))))


def midpoint_functional(s, f, mode, tol=1e-8, max_nodes=2**22):
    """Oracle: one test function's tensor midpoint integral, from g = 64 points
    per axis the symbol depends on (one midpoint on the others), its own
    grid means evaluated at every doubling until two values differ by less than tol."""
    active = s.d * (int(s.depends_space) + int(s.depends_frequency))
    g = 64
    if active > 0:
        g = min(g, max(int(max_nodes ** (1.0 / active)) // 2, 2))
    if (2 * g) ** active > max_nodes:
        raise QuadratureError("node budget cannot fit one grid doubling")
    prev = grid_mean(s, f, mode, g)
    while True:
        g2 = 2 * g
        if g2**active > max_nodes:
            raise QuadratureError(f"no convergence within {max_nodes} nodes")
        cur = grid_mean(s, f, mode, g2)
        if abs(cur - prev) < tol:
            return cur
        prev, g = cur, g2


# The reference oracle of criterion 5: sorted spectra against the symbol
# sampled on an equispaced grid of nu(n) nodes.


def _split_count(n_i: int) -> tuple[int, int]:
    # Factor n_i = g1 * g2 with g1 <= g2 as balanced as possible.
    g1 = int(np.sqrt(n_i))
    while g1 > 1 and n_i % g1:
        g1 -= 1
    return g1, n_i // g1


def _equispaced_nodes(s: Symbol, n: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
    """Equispaced evaluation grid x_j = a + j (b - a)/count, j = 1..count,
    with exactly nu(n) nodes distributed over the active variables."""
    counts_x: list[int] = []
    counts_t: list[int] = []
    for n_i in n:
        if s.depends_space and s.depends_frequency:
            gx, gt = _split_count(n_i)
        elif s.depends_space:
            gx, gt = n_i, 1
        else:
            gx, gt = 1, n_i
        counts_x.append(gx)
        counts_t.append(gt)
    return _mesh(s, [np.arange(1, g + 1) / g for g in counts_x],
                 [-np.pi + np.arange(1, g + 1) * (2 * np.pi / g) for g in counts_t])


def quantile_compare(values, s: Symbol, n, outlier_budget: float | None = None,
                     mode: str = LAMBDA) -> float:
    """Max absolute deviation between sorted spectral values and the sorted
    symbol samples on the equispaced grid, after discarding the worst
    ``outlier_budget * d_n`` entries from both ends.

    The default budget discards ceil(sqrt(d_n)) entries per end, the sublinear
    realization of "up to o(d_n) outliers".
    """
    n = check_size(n)
    vals = np.sort(np.asarray(values, dtype=float).ravel())
    d_n = vals.size
    if outlier_budget is None:
        k = int(np.ceil(np.sqrt(d_n)))
    else:
        if not 0 <= outlier_budget < 0.5:
            raise InvalidParameterError("outlier budget must lie in [0, 0.5)")
        k = int(np.ceil(outlier_budget * d_n))
    x, theta = _equispaced_nodes(s, n)
    samples = np.sort(spectral_surfaces(s, x, theta, mode).real.ravel())
    if samples.size != d_n:
        raise InvalidParameterError(
            f"value count {d_n} does not match nu(n) r = {samples.size}"
        )
    if 2 * k >= d_n:
        raise InvalidParameterError("outlier budget discards every entry")
    middle = slice(k, d_n - k) if k else slice(None)
    return float(np.max(np.abs(vals[middle] - samples[middle])))
