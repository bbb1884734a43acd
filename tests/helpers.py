"""Shared fixtures-by-hand for the test suite."""

import numpy as np

from gltlab.acs import _STACK_BYTES, CERTIFICATE_COLUMNS, SplittingRow, hoeffding_radius
from gltlab.multiindex import MultiIndexInterval, check_size, iter_interval, nu, size_interval
from gltlab.errors import QuadratureError
from gltlab.reports import Report
from gltlab.spectra import (
    _node_count,
    _normalize_sizes,
    _tensor_nodes,
    schatten_norm,
    trending_to_zero,
)
from gltlab.symbols import TrigPolynomial, spectral_surfaces


def random_trig_polynomial(rng, d=1, r=1, degree=1, hermitian=True, scale=1.0):
    """Random trig polynomial; Hermitian variants satisfy fhat_{-k} = fhat_k^*."""
    deg = (degree,) * d if isinstance(degree, int) else tuple(degree)
    box = MultiIndexInterval(tuple(-v for v in deg), deg)
    coeffs = {}
    for k in iter_interval(box):
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
    indices = list(iter_interval(size_interval(n)))
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


def sacs_oracle(model, m_list, sizes, trials, slack=1.5, decay=0.5, floor=1e-10):
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
        and trending_to_zero([c_decl[m] for m in m_list], slack=slack, decay=decay, floor=floor)
        and trending_to_zero([w_decl[m] for m in m_list], slack=slack, decay=decay, floor=floor)
        and trending_to_zero([s_est[m] for m in m_list], slack=slack, decay=decay,
                             floor=max(floor, radius))
    )
    verdict = "PASS" if passed else "FAIL"
    return Report(passed=passed, columns=CERTIFICATE_COLUMNS,
                  rows=[SplittingRow(*row, verdict) for row in rows],
                  facts={"s_estimates": {str(m): s for m, s in s_est.items()}})


def midpoint_functional(s, f, mode, grid_points_per_dim=64, tol=1e-8, max_nodes=2**22):
    """Oracle: one test function's tensor midpoint integral, its own surfaces
    evaluated at every doubling until two values differ by less than tol."""

    def value(g):
        x, theta = _tensor_nodes(s, g)
        return float(np.mean(f.evaluate(spectral_surfaces(s, x, theta, mode))))

    g = max(int(grid_points_per_dim), 2)
    active = s.d * (int(s.depends_space) + int(s.depends_frequency))
    if active > 0:
        g = min(g, max(int(max_nodes ** (1.0 / active)) // 2, 2))
    if _node_count(s, 2 * g) > max_nodes:
        raise QuadratureError("node budget cannot fit one grid doubling")
    prev = value(g)
    while True:
        g2 = 2 * g
        if _node_count(s, g2) > max_nodes:
            raise QuadratureError(f"no convergence within {max_nodes} nodes")
        cur = value(g2)
        if abs(cur - prev) < tol:
            return cur
        prev, g = cur, g2
