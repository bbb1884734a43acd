"""Approximating-class-of-sequences machinery.

The central quantity is the splitting functional

    p(M) = min_{0 <= i <= d_n} ( i/d_n + sigma_{i+1}(M) ),    sigma_{d_n+1} := 0,

whose argmin yields an explicit decomposition M = R + N with rank(R) = i* and
||N|| = sigma_{i*+1}.  Certificates estimate the per-m bounds c(m) (rank
fraction) and omega(m) (norm part) and pass when both trend to zero; the
limsup over sizes is surrogated by the max over the two largest tested sizes.

Certificate estimation is two-stage: the pure-norm splitting (rank part zero,
norm part sigma_1) is preferred whenever its norm sequence already vanishes
in m, because rank assistance is unnecessary there; otherwise the argmin
splitting is reported.  The stochastic verifier draws seeded trials and
checks the three per-(m, n) event frequencies against their 1 - 1/m bounds
within a one-sided 95% Hoeffding radius sqrt(ln(20) / (2 trials)).

Every check returns a :class:`~gltlab.reports.Report`.  A certificate's rows
are its per-(m, n) lines and its facts the per-m estimates (``c`` and
``omega``, or ``s_estimates``) keyed by ``str(m)``; the zero-distribution
test's facts are its per-size series.

Trials are drawn in chunks: a model's ``draw`` returns the (S, R, N) stacks
of a whole chunk from one generator seeded with (seed, m, *n, chunk), with a
few vectorized calls.  A chunk holds as many trials as fit a stack of
``_STACK_BYTES`` (2 MiB) of complex d_n x d_n matrices (the last one is
short), so memory does not grow with the trial count and the streams depend
on d_n and the trial count only, never on the host.  The verifier decides
each trial's rank and norm events with certificates that agree with the
stacked values-only SVD, ``spectrum``'s one call on a stack of any order,
on every trial they decide: one Householder QR of the leading j + 1
columns of the R stack (j the allowed rank) proves rank hits by the
residual of the other columns and rank misses by one Cholesky
factorization of its triangular factor, column norms prove norm misses
and one Cholesky factorization of the rest proves their norm hits.  Only
the trials a certificate leaves open take the SVD.  The chunks are
independent jobs: the calling thread and one helper thread per further
usable CPU take them in order, each drawing, certifying and counting whole
chunks, and the integer hit counts are summed per (m, n), so the report
does not depend on the number of threads.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidParameterError
from .matgen import _take_notes, as_array
from .multiindex import MultiIndex, check_size, nu
from .reports import Report
from .spectra import (
    DECAY,
    FLOOR,
    SIGMA,
    SLACK,
    _normalize_sizes,
    non_increasing,
    spectrum,
    trending_to_zero,
)

_RANK_TOL = 1e-10
# Byte budget of one stack of trial matrices in the s.a.c.s. Monte Carlo loop.
_STACK_BYTES = 2**21
# Event certificates of the s.a.c.s. loop.  Each is proved to give the hit
# the stacked values-only SVD gives, on every trial it decides; u = eps / 2.
# - Householder QR (Higham, Accuracy and Stability of Numerical Algorithms,
#   Thm. 19.4) returns the exact factors of A + dA with ||dA||_F <=
#   gamma~_{d^2} ||A||_F, gamma~_k = c k u / (1 - c k u) for a small integer
#   c; the SVD's Householder bidiagonalization obeys the same bound, and its
#   bidiagonal QR iteration is relatively accurate.  E(d) = _QR_C d^2 eps =
#   32 d^2 u covers c <= 31, so a computed singular value is within
#   E(d) ||A||_F of the exact one, with room for the O(d u) rounding of the
#   norms the certificates compare and for second-order terms.
# - Rank, with j = floor(c(m) d + 1e-9): one QR of the leading j + 1
#   columns, R[:, :j+1] = Q T11, returns an orthonormal Q whose first j
#   columns Q_j are within E of exact (Lemma 19.3, applying the reflectors).
#   Hit: X = Q_j [T11[:j, :j], fl(Q_j^H R[:, j:])] has rank <= j and differs
#   from R by the computed residual T22 = R[:, j:] - Q_j Q_j^H R[:, j:] plus
#   E ||R||_F (the QR's error and the O(d^1.5 u) rounding of the residual),
#   so sigma_{j+1}(R) <= ||T22||_F + E ||R||_F; in exact arithmetic ||T22||_F
#   is that of the full QR's trailing (d - j)^2 block.  ||T22||_F +
#   E ||R||_F <= (tol / 2) ||R||_F / sqrt(d) <= (tol / 2) sigma_1 leaves the
#   other half of tol sigma_1 for the SVD's own error E ||R||_F, so the
#   computed sigma_{j+1} clears the rank threshold.  No hit is proved once
#   2 E(d) sqrt(d) > tol, i.e. d >= 46.
#   Miss: by interlacing sigma_{j+1}(R) >= sigma_min(R[:, :j+1]) >=
#   sigma_min(T11) - E ||R||_F.  The SVD moves sigma_{j+1} down, and
#   sigma_1 (at most ||R||_F) up, by at most E ||R||_F each, so
#   sigma_min(T11) > nu = (tol + 3 E) ||R||_F + 1e-14 makes the computed
#   sigma_{j+1} exceed the computed tol sigma_1 + 1e-14 (the spare
#   E ||R||_F covers the rounding of the norm and of the threshold).  A
#   Cholesky factorization of T11^H T11 - mu^2 I that completes proves
#   sigma_min(T11)^2 >= mu^2 - rho, where rho <= (2 d + 6) u ||T11||_F^2 <=
#   E ||R||_F^2 bounds the rounding of the Gram matrix, of the shift and of
#   the factorization (Thm. 10.5), so mu^2 = nu^2 + 2 E ||R||_F^2 proves the
#   miss for any d.  Every |t_ii| >= sigma_min(T11), so a trial with a
#   diagonal entry at most mu is left to the SVD without trying.
# - Norm (thr the norm threshold, delta = _NORM_MARGIN): every column norm
#   is a lower bound of sigma_1(N), and E sqrt(d) sigma_1 bounds the SVD's
#   error, so a computed column norm above thr (1 + delta) is a miss.  On
#   the other trials every column norm is at most thr (1 + delta), so the
#   rounding of the formed thr^2 (1 - delta) I - N^H N and that of a Cholesky
#   factorization which completes (Higham, Thm. 10.5: |dM| <= gamma_{d+1}
#   |R^H| |R|) add up to at most E thr^2; then sigma_1^2 <= thr^2 (1 - delta
#   + E) and the computed sigma_1 stays below thr.  Both hold while
#   4 E(d) sqrt(d) <= delta, i.e. d <= 218; beyond, every trial takes the SVD.
_QR_C = 16
_NORM_MARGIN = 1e-8


# ---------------------------------------------------------------------------
# splitting functional


def _splitting_candidates(sv: np.ndarray, d_n: int) -> np.ndarray:
    ext = np.concatenate([sv, [0.0]])
    return np.arange(d_n + 1) / d_n + ext


def _argmin_splitting(sv: np.ndarray, d_n: int) -> tuple[int, float]:
    """(i*, sigma_{i*+1}) of the splitting functional over descending ``sv``."""
    istar = int(np.argmin(_splitting_candidates(sv, d_n)))
    return istar, float(np.concatenate([sv, [0.0]])[istar])


# ---------------------------------------------------------------------------
# certificates


class SplittingRow(NamedTuple):
    """One (m, n) line of an a.c.s. or s.a.c.s. certificate."""

    m: int
    n: MultiIndex
    d_n: int
    rank_frac: float
    norm_part: float
    freq_rank: float
    freq_norm: float
    freq_s: float
    verdict: str


CERTIFICATE_COLUMNS = ("m", "n", "d_n", "rank_frac", "norm_part", "freq_rank", "freq_norm",
                       "freq_S", "verdict")


def _per_m(values: dict[int, float]) -> dict[str, float]:
    # summary.json keys: str(m), in the order of the tested m.
    return {str(m): value for m, value in values.items()}


def _limsup_estimate(values_by_n: Sequence[float]) -> float:
    # Finite surrogate for limsup over n: max over the two largest sizes.
    return float(max(values_by_n[-2:]))


def _check_m_list(m_list: Sequence[int]) -> list[int]:
    """``m_list`` as ints; it must be non-empty, of integers >= 1 and strictly
    increasing, because the trend tests read the per-m bounds in its order."""
    if not m_list or any(not isinstance(m, (int, np.integer)) or m < 1 for m in m_list) \
            or any(b <= a for a, b in zip(m_list, m_list[1:])):
        raise InvalidParameterError(
            f"m_list must be a non-empty, strictly increasing list of integers >= 1, "
            f"got {list(m_list)}")
    return [int(m) for m in m_list]


def acs_check(family, target, m_list: Sequence[int], sizes: Sequence,
              slack: float = SLACK) -> Report:
    """Estimate the splitting bounds of a candidate approximating class.

    ``family(m, n)`` and ``target(n)`` produce matrices of identical size.
    For each m the difference target - family is split; the certificate
    passes when both estimated bound sequences trend to zero.  The report's
    facts ``c`` and ``omega`` map each tested m (as ``str(m)``) to its
    estimated bound.
    """
    m_list = _check_m_list(m_list)
    norm_sizes = _normalize_sizes(sizes)
    notes: list[str] = []
    # (d_n, rank fraction, norm) of each argmin splitting and sigma_1, from
    # one SVD; the splitting matrices are never formed.
    splits: dict[int, list[tuple[int, float, float]]] = {m: [] for m in m_list}
    sigma1: dict[int, list[float]] = {m: [] for m in m_list}
    for n in norm_sizes:
        a = as_array(target(n), notes)
        for m in m_list:
            b = as_array(family(m, n), notes)
            if a.shape != b.shape:
                raise InvalidParameterError(
                    f"size mismatch at (m={m}, n={n}): {a.shape} vs {b.shape}"
                )
            d_n = a.shape[0]
            sv = spectrum(a - b, SIGMA)
            istar, norm = _argmin_splitting(sv, d_n)
            splits[m].append((d_n, istar / d_n, norm))
            sigma1[m].append(float(sv[0]))

    # The pure-norm splitting (rank part 0, norm sigma_1) wherever it suffices.
    pure = trending_to_zero([_limsup_estimate(sigma1[m]) for m in m_list], slack=slack)
    if pure:
        splits = {m: [(d_n, 0.0, s1) for (d_n, _, _), s1 in zip(splits[m], sigma1[m])]
                  for m in m_list}
    c = {m: _limsup_estimate([frac for _, frac, _ in splits[m]]) for m in m_list}
    omega = {m: _limsup_estimate([norm for _, _, norm in splits[m]]) for m in m_list}
    lines = [(m, n, *split) for m in m_list for n, split in zip(norm_sizes, splits[m])]
    strategy = "pure-norm splitting (rank part unnecessary)" if pure else "argmin splitting"
    passed = trending_to_zero([c[m] for m in m_list], slack=slack) and \
        trending_to_zero([omega[m] for m in m_list], slack=slack)
    verdict = "PASS" if passed else "FAIL"
    return Report(
        passed=passed,
        columns=CERTIFICATE_COLUMNS,
        rows=[SplittingRow(*line, 1.0, 1.0, 0.0, verdict) for line in lines],
        checks=[{"name": "approximating-class splitting bounds vanish"}],
        facts={"c": _per_m(c), "omega": _per_m(omega)},
        metadata={
            "strategy": strategy,
            "limsup_surrogate": "max over the two largest tested sizes",
            "slack": slack,
            "decay": DECAY,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# zero-distribution test


class TrendRow(NamedTuple):
    n: MultiIndex
    d_n: int
    normalized_norm: float
    splitting_distance: float
    verdict: str


def zero_distribution_test(seq, p, sizes: Sequence, tol: float = 0.1) -> Report:
    """Test ||A_n||_p / d_n^(1/p) -> 0 and the equivalent R + N splitting.

    PASS when either criterion is non-increasing (with slack) and falls below
    ``tol`` at the largest size.  The splitting criterion is the
    characterization (R + N with vanishing rank fraction and norm); the
    normalized Schatten p-norm criterion is sufficient only.  The report's
    checks carry both verdicts, its facts both per-size series.  Each matrix
    goes whole to ``spectrum``, which factors band storage where it has one.
    """
    if not p >= 1:
        raise InvalidParameterError(f"requires p >= 1, got {p}")
    norm_sizes = _normalize_sizes(sizes)
    notes: list[str] = []
    norms: list[float] = []
    dists: list[float] = []
    d_ns: list[int] = []
    for n in norm_sizes:
        matrix = seq(n)
        _take_notes(matrix, notes)
        d_n = np.shape(matrix)[0]
        d_ns.append(d_n)
        scale = 1.0 if p == np.inf else d_n ** (1.0 / p)
        sv = spectrum(matrix, SIGMA)
        norms.append((float(sv[0]) if p == np.inf else float(np.sum(sv**p) ** (1.0 / p))) / scale)
        dists.append(float(np.min(_splitting_candidates(sv, d_n))))
    norm_ok = norms[-1] <= tol and non_increasing(norms)
    split_ok = dists[-1] <= tol and non_increasing(dists)
    passed = norm_ok or split_ok
    verdict = "PASS" if passed else "FAIL"
    return Report(
        passed=passed,
        columns=("n", "d_n", "normalized_norm", "splitting_distance", "verdict"),
        rows=[TrendRow(*line, verdict) for line in zip(norm_sizes, d_ns, norms, dists)],
        checks=[
            {"name": "normalized Schatten norm vanishes", "verdict": norm_ok},
            {"name": "rank/norm splitting vanishes", "verdict": split_ok},
        ],
        facts={
            "p": "inf" if p == np.inf else float(p),
            "normalized_norms": norms,
            "splitting_distances": dists,
        },
        metadata={"tol": tol, "slack": SLACK},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# stochastic a.c.s.


@dataclass(frozen=True)
class RandomSequenceModel:
    """Seeded generator of the splitting triple (S, R, N) for a chunk of trials.

    ``sample(n, m, chunk, k)`` builds one generator from (seed, m, *n, chunk)
    and hands it to ``draw(rng, n, m, k)``, which returns the stacks
    (S, R, N) of the chunk's k trials, each of shape (k, d_n, d_n).  Identical
    seeds therefore reproduce identical matrices bit for bit; :func:`sacs_check`
    sets the chunk length from d_n alone.  Trials are independent across n
    (the dependence structure across sizes is not pinned down by the
    definition; independence is this model zoo's documented choice).
    ``c_bound`` and ``omega_bound`` declare the per-m bounds the rank and norm
    events are tested against.

    :func:`sacs_check` may call ``sample`` (hence ``draw``) from several
    threads at once, never twice for one chunk, so ``draw`` may not share
    mutable state between calls.  It never writes to the stacks, so ``draw``
    may return read-only views.
    """

    name: str
    seed: int
    draw: Callable[[np.random.Generator, MultiIndex, int, int], tuple]
    c_bound: Callable[[int], float]
    omega_bound: Callable[[int], float]

    def sample(self, n: MultiIndex, m: int, chunk: int, k: int) -> tuple:
        return self.draw(np.random.default_rng((self.seed, m, *n, chunk)), n, m, k)


def hoeffding_radius(trials: int) -> float:
    """One-sided 95% confidence radius for an empirical frequency."""
    return float(np.sqrt(np.log(20.0) / (2.0 * trials)))


def _column_sq_norms(stack: np.ndarray) -> np.ndarray:
    """Squared 2-norms of the columns of each matrix of a stack, shape (k, d),
    summed by ``einsum`` with no stack-sized temporary."""
    parts = (stack.real, stack.imag) if np.iscomplexobj(stack) else (stack,)
    return sum(np.einsum("kij,kij->kj", part, part) for part in parts)


def _backward_error(d: int) -> float:
    """E(d): the backward error bound of QR and SVD relative to ||A||_F."""
    return _QR_C * d * d * np.finfo(np.float64).eps


def _cholesky_completes(a: np.ndarray, negate: bool, shift) -> bool:
    """Whether one Cholesky factorization of the stack of Gram matrices
    A^H A (negated when ``negate``) plus ``shift`` I completes for every
    matrix of the stack ``a``; ``shift`` is a scalar or one value per matrix.
    The Gram stack is the only temporary and is shifted in place."""
    d = a.shape[-1]
    gram = np.matmul(np.swapaxes(a.conj(), -1, -2), a)
    if negate:
        np.negative(gram, out=gram)
    gram.reshape(len(a), -1)[:, ::d + 1] += np.reshape(shift, (-1, 1))
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _rank_hits(r: np.ndarray, limit: float) -> int:
    """Trials of the stack ``r`` whose numerical rank (singular values above
    _RANK_TOL * sigma_1 + 1e-14) is at most ``limit``.  One Householder QR of
    the leading j + 1 columns, j = floor(limit), decides what it can: the
    residual of the trailing columns against its first j columns proves
    hits, and one Cholesky factorization of T11^H T11 - mu^2 I (T11 its
    triangular factor) proves misses.  The other trials take the
    values-only SVD."""
    d = r.shape[-1]
    fro = np.sqrt(_column_sq_norms(r).sum(axis=-1))
    hit = miss = np.zeros(len(r), dtype=bool)
    # Non-finite norms leave every trial to spectrum, which rejects
    # non-finite entries and scales finite ones that overflow a square.
    if np.all(np.isfinite(fro)):
        if limit >= d:
            return len(r)
        if limit >= 0:
            j = int(limit)
            e = _backward_error(d)
            q, t11 = np.linalg.qr(r[..., :j + 1])
            if 2 * e * np.sqrt(d) <= _RANK_TOL:
                q = q[..., :j]
                t22 = np.matmul(q, np.matmul(np.swapaxes(q.conj(), -1, -2), r[..., j:]))
                np.subtract(r[..., j:], t22, out=t22)
                t22 = np.sqrt(_column_sq_norms(t22).sum(axis=-1))
                hit = t22 + e * fro <= 0.5 * _RANK_TOL / np.sqrt(d) * fro
            mu2 = ((_RANK_TOL + 3 * e) * fro + 1e-14) ** 2 + 2 * e * fro * fro
            # |t_ii| >= sigma_min(T11): a small diagonal entry means no proof.
            t_ii = np.abs(np.diagonal(t11, axis1=-2, axis2=-1)).min(axis=-1)
            tried = ~hit & (t_ii * t_ii > mu2) & np.isfinite(2.0 * fro * fro)
            if tried.any() and _cholesky_completes(t11[tried], False, -mu2[tried]):
                miss = tried
    open_ = ~(hit | miss)
    if not open_.any():
        return int(hit.sum())
    sv = spectrum(r if open_.all() else r[open_], SIGMA)
    # sigma_1 = 0 leaves no singular value above the threshold: rank 0.
    rank = np.sum(sv > _RANK_TOL * sv[:, :1] + 1e-14, axis=1)
    return int(hit.sum()) + int(np.sum(rank <= limit))


def _norm_hits(n: np.ndarray, thr: float) -> int:
    """Trials of the stack ``n`` whose sigma_1 is at most ``thr``.  Column
    norms decide the misses they can, one Cholesky factorization of the
    other trials' thr^2 (1 - delta) I - N^H N decides their hits when it
    completes, and otherwise those trials take the values-only SVD."""
    d = n.shape[-1]
    longest = np.sqrt(_column_sq_norms(n).max(axis=-1))
    rest = n
    if np.all(np.isfinite(longest)) and 4 * _backward_error(d) * np.sqrt(d) <= _NORM_MARGIN:
        keep = longest <= thr * (1.0 + _NORM_MARGIN)
        if not keep.any():
            return 0
        rest = n if keep.all() else n[keep]
        # Every entry of the Gram matrices is at most thr^2 (1 + delta)^2.
        if np.isfinite(2.0 * thr * thr) and _cholesky_completes(
                rest, True, thr * thr * (1.0 - _NORM_MARGIN)):
            return len(rest)
    return int(np.sum(spectrum(rest, SIGMA)[:, 0] <= thr))


def _run_jobs(work: Callable, jobs: Sequence) -> list:
    """``[work(job) for job in jobs]``, run by the calling thread and one
    helper thread per further usable CPU, which take the jobs in order.  If
    a job raises, no job that has not started yet starts; once every helper
    has stopped, the failure of the earliest job is raised, which is the one
    a loop in order would have raised, since every job before it had
    started.  The helpers are joined before this returns or raises."""
    results: list = [None] * len(jobs)
    failures: dict[int, BaseException] = {}
    order = iter(range(len(jobs)))
    lock, stop = threading.Lock(), threading.Event()

    def take() -> None:
        while True:
            with lock:
                i = None if stop.is_set() else next(order, None)
            if i is None:
                return
            try:
                results[i] = work(jobs[i])
            except BaseException as exc:  # raised again on the calling thread
                failures[i] = exc
                stop.set()
                return

    helpers = [threading.Thread(target=take, name=f"gltlab-job-{i}")
               for i in range(min(len(os.sched_getaffinity(0)), len(jobs)) - 1)]
    for helper in helpers:
        helper.start()
    try:
        take()
    finally:
        stop.set()
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def sacs_check(model: RandomSequenceModel, m_list: Sequence[int], sizes: Sequence,
               trials: int) -> Report:
    """Monte Carlo verification of the stochastic splitting events.

    Per (m, n) the frequencies of {rank(R)/d_n <= c(m)}, {||N|| <= omega(m)},
    and {S != 0} are estimated over ``trials`` seeded draws.  PASS requires
    the first two frequencies to clear 1 - 1/m within the Hoeffding radius,
    the estimated s(m) to trend to zero, and the declared c(m), omega(m)
    bounds to trend to zero themselves.  The report's fact ``s_estimates``
    maps each tested m (as ``str(m)``) to its estimated s(m).

    Trials are drawn in chunks of at most ``_STACK_BYTES`` per stack.  A
    trial's rank event is a hit when the numerical rank of R (singular values
    above 1e-10 sigma_1 + 1e-14) is at most c(m) d_n, its norm event when
    sigma_1(N) <= omega(m) + 1e-12 (1 + omega(m)).  The QR and Cholesky
    certificates of ``_QR_C`` and ``_NORM_MARGIN`` decide each event where
    they can, hits and misses of both, with the hit the stacked values-only
    SVD would give; the trials they leave open take that SVD, one call per
    chunk and event.  The chunks run as jobs of :func:`_run_jobs`.
    """
    trials = int(trials)
    if trials < 100:
        raise InvalidParameterError("at least 100 trials are required")
    if not isinstance(model.seed, (int, np.integer)) or model.seed < 0:
        raise InvalidParameterError(f"the seed must be an integer >= 0, got {model.seed!r}")
    m_list = _check_m_list(m_list)
    norm_sizes = _normalize_sizes(sizes)
    radius = hoeffding_radius(trials)

    c_decl = {m: model.c_bound(m) for m in m_list}
    w_decl = {m: model.omega_bound(m) for m in m_list}

    def count(job) -> tuple[int, int, int, int]:
        """d_n and the rank, norm and S hits of one chunk; each stack is
        dropped once it is counted."""
        m, n, chunk, k = job
        s_mat, r_mat, n_mat = (np.asarray(a) for a in model.sample(n, m, chunk, k))
        hit_s = int(np.sum(np.any(s_mat != 0, axis=(1, 2))))
        del s_mat
        d_n = r_mat.shape[-1]
        hit_rank = _rank_hits(r_mat, c_decl[m] * d_n + 1e-9)
        del r_mat
        return d_n, hit_rank, _norm_hits(n_mat, w_decl[m] + 1e-12 * (1.0 + w_decl[m])), hit_s

    # Sized for complex entries, so real and complex stacks both fit.
    steps = {n: max(1, _STACK_BYTES // (16 * nu(n) ** 2)) for n in norm_sizes}
    jobs = [(m, n, chunk, min(steps[n], trials - first)) for m in m_list for n in norm_sizes
            for chunk, first in enumerate(range(0, trials, steps[n]))]
    # (d_n, rank hits, norm hits, S hits) per (m, n); d_n from its last chunk.
    totals: dict[tuple, tuple[int, int, int, int]] = {}
    for (m, n, _, _), (d_n, *hits) in zip(jobs, _run_jobs(count, jobs)):
        before = totals.get((m, n), (0, 0, 0, 0))[1:]
        totals[m, n] = (d_n, *(a + b for a, b in zip(before, hits)))

    lines: list[tuple] = []
    freq_s_by_m: dict[int, list[float]] = {m: [] for m in m_list}
    events_ok = True
    for m in m_list:
        for n in norm_sizes:
            d_n, hit_rank, hit_norm, hit_s = totals[m, n]
            freq_rank = hit_rank / trials
            freq_norm = hit_norm / trials
            freq_s = hit_s / trials
            freq_s_by_m[m].append(freq_s)
            lines.append((m, n, d_n, c_decl[m], w_decl[m], freq_rank, freq_norm, freq_s))
            if freq_rank < 1.0 - 1.0 / m - radius or freq_norm < 1.0 - 1.0 / m - radius:
                events_ok = False
    s_est = {m: _limsup_estimate(freq_s_by_m[m]) for m in m_list}
    # Monte Carlo noise on s(m) is absorbed by a Hoeffding-radius floor.
    s_floor = max(FLOOR, radius)
    passed = (
        events_ok
        and trending_to_zero([c_decl[m] for m in m_list])
        and trending_to_zero([w_decl[m] for m in m_list])
        and trending_to_zero([s_est[m] for m in m_list], floor=s_floor)
    )
    verdict = "PASS" if passed else "FAIL"
    return Report(
        passed=passed,
        columns=CERTIFICATE_COLUMNS,
        rows=[SplittingRow(*line, verdict) for line in lines],
        checks=[{"name": "stochastic splitting event frequencies and trends"}],
        facts={"s_estimates": _per_m(s_est)},
        metadata={
            "model": model.name,
            "seed": model.seed,
            "trials": trials,
            "hoeffding_radius": radius,
            "confidence": "one-sided 95% per event",
        },
    )


# ---------------------------------------------------------------------------
# model zoo (used by the CLI and the test suite)


def deterministic_model(seed: int) -> RandomSequenceModel:
    """S = 0, R = 0, N = (1/m) I: reduces to a deterministic certificate."""

    def draw(rng, n, m, k):
        d_n = nu(n)
        zero = np.zeros((k, d_n, d_n))
        return zero, zero, np.broadcast_to((1.0 / m) * np.eye(d_n), zero.shape)

    return RandomSequenceModel(
        name="deterministic",
        seed=seed,
        draw=draw,
        c_bound=lambda m: 1.0 / m,
        omega_bound=lambda m: 1.0 / m,
    )


def designed_model(seed: int,
                   s_design: Callable[[int], float] | None = None) -> RandomSequenceModel:
    """Events with analytically known probabilities.

    S != 0 with probability s_design(m) (default 1/m); the rank and norm
    bounds are violated with probability 1/(2m), strictly inside the allowed
    1/m exception budget.

    R = U V with U, V standard normal of inner size floor(c(m) d_n) + 2 (at
    most d_n), U's two extra columns zero unless the trial violates the rank
    bound c(m) = 1/(2m).  N = norm_scale * omega(m) * (I - 2 v v^T / v^T v) with v a
    standard normal d_n-vector: a Householder reflector, whose singular values
    are all 1, so ||N|| = norm_scale * omega(m) by construction (norm_scale is
    0.8, or 1.5 to violate the bound) and the model takes no SVD.  A chunk is
    drawn in this order: rank uniforms, U, V, norm uniforms, v, S uniforms.
    """
    s_of = s_design or (lambda m: 1.0 / m)
    bad_of = lambda m: 0.5 / m
    c_of = lambda m: 1.0 / (2.0 * m)
    w_of = lambda m: 1.0 / m

    def draw(rng, n, m, k):
        d_n = nu(n)
        ok_rank = int(np.floor(c_of(m) * d_n))
        r_max = min(ok_rank + 2, d_n)
        keeps_rank = rng.random(k) >= bad_of(m)
        u = rng.standard_normal((k, d_n, r_max))
        v = rng.standard_normal((k, r_max, d_n))
        u[keeps_rank, :, ok_rank:] = 0.0
        norm_scale = np.where(rng.random(k) >= bad_of(m), 0.8, 1.5)
        col = rng.standard_normal((k, d_n))
        s = np.zeros((k, d_n, d_n))
        s[:, 0, 0] = rng.random(k) < s_of(m)
        # The floor keeps a zero column from giving NaN (N is then a multiple of I).
        two_over_vv = 2.0 / np.maximum(np.sum(col * col, axis=-1), 1e-30)
        # N is built in place: no stack-sized temporaries stay on the heap.
        nn = col[:, :, None] * col[:, None, :]
        nn *= -two_over_vv[:, None, None]
        nn[:, range(d_n), range(d_n)] += 1.0
        nn *= (norm_scale * w_of(m))[:, None, None]
        return s, u @ v, nn

    return RandomSequenceModel(
        name="designed", seed=seed, draw=draw, c_bound=c_of, omega_bound=w_of
    )


def constant_s_model(seed: int) -> RandomSequenceModel:
    """Designed failure: the exceptional term never becomes rare (s(m) = 0.3)."""
    return replace(designed_model(seed, s_design=lambda m: 0.3), name="constant_s")


MODEL_ZOO: dict[str, Callable[[int], RandomSequenceModel]] = {
    "deterministic": deterministic_model,
    "designed": designed_model,
    "constant_s": constant_s_model,
}


# ---------------------------------------------------------------------------
# reference zero-distribution sequences (CLI builtins and test fixtures)


def spike_sequence(n):
    """diag(1 at the ceil(sqrt(d_n)) leading entries, else 0): vanishing rank
    fraction with unit norm."""
    d_n = int(np.prod(check_size(n)))
    k = int(np.ceil(np.sqrt(d_n)))
    return np.diag(np.concatenate([np.ones(k), np.zeros(d_n - k)]))


def identity_sequence(n):
    return np.eye(int(np.prod(check_size(n))))


def rank_one_sequence(n):
    d_n = int(np.prod(check_size(n)))
    out = np.zeros((d_n, d_n))
    out[0, 0] = 1.0
    return out


ZERO_SEQUENCES = {
    "spike": spike_sequence,
    "identity": identity_sequence,
    "rankone": rank_one_sequence,
}
