import os
import sys
import threading

import numpy as np
import pytest

from helpers import designed_draw_chunk, numerical_rank, random_reflection, sacs_oracle

import gltlab.acs as acs_mod
from gltlab.acs import (
    _STACK_BYTES,
    MODEL_ZOO,
    ZERO_SEQUENCES,
    RandomSequenceModel,
    acs_check,
    constant_s_model,
    designed_model,
    deterministic_model,
    hoeffding_radius,
    identity_sequence,
    rank_one_sequence,
    sacs_check,
    spike_sequence,
    splitting_distance,
    zero_distribution_test,
)
from gltlab.errors import EvaluationError, InvalidParameterError
from gltlab.matgen import toeplitz
from gltlab.symbols import TrigPolynomial


def test_splitting_distance_examples():
    assert splitting_distance(np.zeros((5, 5))) == 0.0
    assert abs(splitting_distance(np.eye(7)) - 1.0) < 1e-15
    m = np.zeros((10, 10))
    m[0, 0] = 5.0
    assert abs(splitting_distance(m) - 0.1) < 1e-15


def test_splitting_upper_bounds():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((8, 8))
        p = splitting_distance(a)
        assert p <= min(1.0, np.linalg.norm(a, 2)) + 1e-12


def test_splitting_unitary_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    u = random_reflection(10, rng)
    v = random_reflection(10, rng)
    assert abs(splitting_distance(a) - splitting_distance(u @ a @ v)) < 1e-10


def test_splitting_subadditive():
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = rng.standard_normal((9, 9))
        b = rng.standard_normal((9, 9))
        assert splitting_distance(a + b) <= (
            splitting_distance(a) + splitting_distance(b) + 1e-10
        )


def _band_poly(nmax, decay=lambda k: 1.0 / (1.0 + k * k)):
    return TrigPolynomial(
        1, 1, {(k,): [[decay(abs(k))]] for k in range(-(nmax - 1), nmax)}
    )


def test_acs_family_equal_target_passes():
    target = lambda n: toeplitz(_band_poly(n[0]), n)
    family = lambda m, n: target(n)
    cert = acs_check(family, target, [1, 2, 4], [(16,), (32,)])
    assert cert.passed
    assert all(cert.facts["c"][str(m)] == 0.0 for m in (1, 2, 4))
    assert all(cert.facts["omega"][str(m)] <= 1e-12 for m in (1, 2, 4))


def test_acs_truncation_family():
    target = lambda n: toeplitz(_band_poly(n[0]), n)
    family = lambda m, n: toeplitz(_band_poly(n[0]).truncated(m), n)
    cert = acs_check(family, target, [1, 2, 4, 8], [(32,), (64,)])
    assert cert.passed
    tails = {m: 2 * sum(1.0 / (1 + k * k) for k in range(m + 1, 100000)) for m in (1, 2, 4, 8)}
    assert list(cert.facts["c"]) == list(cert.facts["omega"]) == ["1", "2", "4", "8"]
    for m in (1, 2, 4, 8):
        assert cert.facts["c"][str(m)] == 0.0
        assert cert.facts["omega"][str(m)] <= tails[m]


def test_acs_constant_offset_fails():
    target = lambda n: toeplitz(_band_poly(n[0]), n)
    family = lambda m, n: target(n).data + np.eye(n[0])
    cert = acs_check(family, target, [1, 2, 4], [(16,), (32,)])
    assert not cert.passed
    assert all(abs(cert.facts["omega"][str(m)] - 1.0) < 1e-12 for m in (1, 2, 4))


def test_acs_size_mismatch():
    target = lambda n: np.eye(n[0])
    family = lambda m, n: np.eye(n[0] + 1)
    with pytest.raises(InvalidParameterError):
        acs_check(family, target, [1], [(4,), (8,)])


def test_certificate_csv_header():
    target = lambda n: toeplitz(_band_poly(n[0]), n)
    cert = acs_check(lambda m, n: target(n), target, [1, 2], [(8,), (16,)])
    lines = cert.csv().splitlines()
    assert lines[0] == "m,n,d_n,rank_frac,norm_part,freq_rank,freq_norm,freq_S,verdict"
    assert len(lines) == 1 + 4


@pytest.mark.parametrize("p", [1, 2, np.inf])
def test_zero_distribution_suite(p):
    sizes = [(64,), (128,), (256,)]
    assert zero_distribution_test(spike_sequence(), p, sizes).passed
    assert not zero_distribution_test(identity_sequence(), p, sizes).passed
    assert zero_distribution_test(rank_one_sequence(), p, sizes).passed


def test_zero_distribution_values():
    res = zero_distribution_test(rank_one_sequence(), 1, [(16,), (32,)])
    assert np.allclose(res.facts["normalized_norms"], [1 / 16, 1 / 32])
    res_i = zero_distribution_test(identity_sequence(), 2, [(16,), (32,)])
    assert np.allclose(res_i.facts["normalized_norms"], [1.0, 1.0])
    assert [check["verdict"] for check in res_i.checks] == [False, False]


def test_zero_distribution_bounded_norm_vanishing_rank_suite():
    # rank fraction 1/sqrt(d_n) -> 0 with spectral norm identically 1: the
    # splitting criterion certifies it even though no p-norm vanishes
    def seq(n):
        d_n = n[0]
        k = int(np.ceil(np.sqrt(d_n)))
        rng = np.random.default_rng(d_n)  # deterministic per size
        u, _ = np.linalg.qr(rng.standard_normal((d_n, k)))
        return u @ u.T

    res = zero_distribution_test(seq, np.inf, [(64,), (128,), (256,)])
    assert res.passed
    norm_criterion, splitting_criterion = (check["verdict"] for check in res.checks)
    assert splitting_criterion and not norm_criterion
    assert np.allclose(res.facts["normalized_norms"], 1.0)


def test_zero_distribution_invalid_p():
    with pytest.raises(InvalidParameterError):
        zero_distribution_test(identity_sequence(), 0.3, [(8,), (16,)])


def test_sacs_deterministic_model():
    cert = sacs_check(deterministic_model(1), [2, 4, 8], [(12,), (16,)], trials=200)
    assert cert.passed
    for row in cert.rows:
        assert row.freq_rank == 1.0
        assert row.freq_norm == 1.0
        assert row.freq_s == 0.0


def test_sacs_designed_model_estimates():
    cert = sacs_check(designed_model(99), [2, 4], [(12,), (16,)], trials=2000)
    assert cert.passed
    for m in (2, 4):
        assert abs(cert.facts["s_estimates"][str(m)] - 1.0 / m) < 0.05


def test_sacs_constant_s_fails():
    cert = sacs_check(constant_s_model(5), [2, 4, 8], [(12,), (16,)], trials=300)
    assert not cert.passed


def test_sacs_bit_reproducible():
    out = []
    for _ in range(2):
        cert = sacs_check(designed_model(42), [2, 4], [(10,), (12,)], trials=300)
        out.append(cert.csv())
    assert out[0] == out[1]


def test_sacs_requires_trials():
    with pytest.raises(InvalidParameterError):
        sacs_check(deterministic_model(1), [2], [(8,), (12,)], trials=10)


def test_hoeffding_radius_value():
    assert abs(hoeffding_radius(10000) - np.sqrt(np.log(20.0) / 20000.0)) < 1e-15


def test_zero_sequences_registry():
    assert set(ZERO_SEQUENCES) == {"spike", "identity", "rankone"}


def test_sacs_rejects_m_below_one():
    with pytest.raises(InvalidParameterError):
        sacs_check(deterministic_model(1), [0, 2], [(8,), (12,)], trials=100)


def test_sacs_trial_loop_takes_no_hermitian_test(monkeypatch):
    import gltlab.matgen as matgen_mod
    import gltlab.spectra as spectra_mod

    calls = []
    for module in (matgen_mod, spectra_mod):
        monkeypatch.setattr(module, "is_hermitian", lambda a: calls.append(a) or True)
    cert = sacs_check(designed_model(3), [2, 4], [(8,), (12,)], trials=100)
    assert cert.rows and calls == []


@pytest.mark.parametrize("name, sizes", [
    ("designed", [(12,), (16,)]),
    ("designed", [(3, 4), (5, 6)]),
    ("deterministic", [(3, 4), (5, 6)]),
    ("constant_s", [(12,), (16,)]),
])
def test_sacs_matches_the_per_trial_oracle_byte_for_byte(name, sizes):
    # 1037 trials is no multiple of any chunk length, so the last chunk is short.
    model = MODEL_ZOO[name](17)
    cert, oracle = sacs_check(model, [2, 4], sizes, 1037), sacs_oracle(model, [2, 4], sizes, 1037)
    assert cert.csv() == oracle.csv()
    assert cert.facts == oracle.facts


@pytest.mark.parametrize("model, s_of", [
    (designed_model(8), lambda m: 1.0 / m),
    (constant_s_model(8), lambda m: 0.3),
])
def test_chunk_draws_match_the_per_trial_oracle(model, s_of):
    n, m, chunk, k = (3, 5), 4, 2, 150
    d_n, ok_rank, omega = 15, 1, 0.25  # ok_rank = floor(d_n / (2 m))
    s, r, nn = model.sample(n, m, chunk, k)
    assert s.shape == r.shape == nn.shape == (k, d_n, d_n)
    oracle = designed_draw_chunk(np.random.default_rng((model.seed, m, *n, chunk)), n, m, k, s_of)
    ranks, scales = set(), set()
    for i, (s_one, r_one, n_one) in enumerate(oracle):
        assert np.array_equal(s[i], s_one) and np.array_equal(nn[i], n_one)
        assert np.abs(r[i] - r_one).max() <= 1e-12 * np.abs(r_one).max()
        ranks.add(numerical_rank(r[i]))
        sv = np.linalg.svd(nn[i], compute_uv=False)
        scale = 0.8 if sv[0] < omega else 1.5
        assert np.all(np.abs(sv - scale * omega) <= 1e-12 * omega)
        scales.add(scale)
        assert np.count_nonzero(s[i]) <= 1
    # both outcomes of each designed violation occur in the chunk
    assert ranks == {ok_rank, min(ok_rank + 2, d_n)} and scales == {0.8, 1.5}
    assert 0 < np.count_nonzero(s) < k


def test_sacs_non_finite_norm_part_raises(monkeypatch):
    def draw(rng, n, m, k):
        zero = np.zeros((k, n[0], n[0]))
        nn = zero.copy()
        nn[-1, 0, 1] = np.nan
        return zero, zero, nn

    model = RandomSequenceModel("nan", 1, draw, lambda m: 1.0 / m, lambda m: 1.0 / m)
    for workers in (acs_mod._WORKERS, 3):
        monkeypatch.setattr(acs_mod, "_WORKERS", workers)
        with pytest.raises(EvaluationError):
            sacs_check(model, [2], [(8,), (12,)], trials=100)


def test_sacs_worker_count_is_at_most_four_usable_cpus():
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert acs_mod._WORKERS == min(4, usable)


@pytest.mark.parametrize("sizes", [[(12,), (16,)], [(3, 4), (5, 6)]])
def test_sacs_csv_does_not_depend_on_the_worker_count(monkeypatch, sizes):
    # 1037 trials is no multiple of any chunk length, so the last chunk is short.
    def csv(workers):
        monkeypatch.setattr(acs_mod, "_WORKERS", workers)
        return sacs_check(designed_model(23), [2, 4], sizes, 1037).csv()

    default = csv(acs_mod._WORKERS)
    assert csv(1) == default
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches: a lost hit would show
    try:
        assert csv(3) == default
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 3])
def test_sacs_draws_on_the_calling_thread_and_factors_on_the_pool(monkeypatch, workers):
    base = deterministic_model(4)
    on_main = lambda: threading.current_thread() is threading.main_thread()
    draws, svds, alive, unfactored = set(), set(), set(), []
    lock = threading.Lock()
    drawn = factored = 0

    def draw(rng, n, m, k):
        nonlocal drawn
        draws.add(on_main())
        alive.add(threading.active_count())
        with lock:
            unfactored.append(drawn - factored // 2)  # two SVDs per block
            drawn += 1
        return base.draw(rng, n, m, k)

    def recording_spectrum(*args):
        nonlocal factored
        svds.add(on_main())
        values = spectrum(*args)
        with lock:
            factored += 1
        return values

    spectrum = acs_mod.spectrum
    monkeypatch.setattr(acs_mod, "spectrum", recording_spectrum)
    monkeypatch.setattr(acs_mod, "_WORKERS", workers)
    model = RandomSequenceModel("probe", 4, draw, base.c_bound, base.omega_bound)
    before = threading.active_count()
    sacs_check(model, [2], [(16,), (24,)], trials=5000)
    assert draws == {True} and svds == {workers == 1}
    # one worker: a plain loop that starts no thread
    assert (alive == {before}) == (workers == 1)
    # memory: at most workers - 1 drawn blocks wait for their SVDs
    assert max(unfactored) <= workers - 1


@pytest.mark.parametrize("n", [(16,), (24,), (3, 5)])
def test_designed_norm_part_has_the_designed_spectral_norm(n):
    scales = []
    for m in (2, 4, 8):
        _, _, n_mat = designed_model(31).sample(n, m, 0, 300)
        sv = np.linalg.svd(n_mat, compute_uv=False)
        omega = 1.0 / m
        design = np.where(sv[:, 0] < omega, 0.8, 1.5)  # norm_scale of each trial
        assert np.all(np.abs(sv[:, 0] - design * omega) <= 1e-12 * design * omega)
        # a scaled reflector: every singular value equals sigma_1
        assert np.all(np.abs(sv - sv[:, :1]) <= 1e-12 * sv[:, :1])
        scales += list(design)
    assert set(scales) == {0.8, 1.5}


def test_sacs_stacks_stay_within_the_byte_budget(monkeypatch):
    stacks = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        stacks.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    cert = sacs_check(deterministic_model(2), [2], [(16,), (24,)], trials=10**4)
    assert [(row.freq_rank, row.freq_norm) for row in cert.rows] == [(1.0, 1.0)] * 2
    assert stacks and all(len(shape) == 3 for shape in stacks)
    assert sum(shape[0] for shape in stacks) == 2 * 2 * 10**4  # R and N of every trial
    assert max(np.prod(shape) * 16 for shape in stacks) <= _STACK_BYTES
    assert max(shape[0] for shape in stacks) > 100
