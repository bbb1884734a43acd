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
    _norm_hits,
    _rank_hits,
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
from gltlab.multiindex import nu
from gltlab.spectra import schatten_norm
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
    assert zero_distribution_test(spike_sequence, p, sizes).passed
    assert not zero_distribution_test(identity_sequence, p, sizes).passed
    assert zero_distribution_test(rank_one_sequence, p, sizes).passed


def test_zero_distribution_values():
    res = zero_distribution_test(rank_one_sequence, 1, [(16,), (32,)])
    assert np.allclose(res.facts["normalized_norms"], [1 / 16, 1 / 32])
    res_i = zero_distribution_test(identity_sequence, 2, [(16,), (32,)])
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
        zero_distribution_test(identity_sequence, 0.3, [(8,), (16,)])


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


def test_sacs_rejects_a_negative_seed():
    with pytest.raises(InvalidParameterError, match="seed"):
        sacs_check(designed_model(-1), [2], [(8,), (12,)], trials=100)


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


def nan_model(part, c_of):
    """Zero stacks with one NaN in the last trial's R (part 1) or N (part 2)."""
    def draw(rng, n, m, k):
        stacks = [np.zeros((k, n[0], n[0])) for _ in range(3)]
        stacks[part][-1, 0, 1] = np.nan
        return stacks

    return RandomSequenceModel("nan", 1, draw, c_of, lambda m: 1.0 / m)


def test_sacs_non_finite_norm_part_raises():
    with pytest.raises(EvaluationError):
        sacs_check(nan_model(2, lambda m: 1.0 / m), [2], [(8,), (12,)], trials=100)


def test_sacs_non_finite_rank_part_raises():
    # c = 1 makes every rank a hit, so only the finiteness check can see the NaN.
    with pytest.raises(EvaluationError):
        sacs_check(nan_model(1, lambda m: 1.0), [2], [(8,), (12,)], trials=100)


def test_sacs_draws_on_the_calling_thread_and_starts_no_thread(monkeypatch):
    base = designed_model(4)
    on_main = lambda: threading.current_thread() is threading.main_thread()
    draws, svds, alive = set(), set(), set()

    def draw(rng, n, m, k):
        draws.add(on_main())
        alive.add(threading.active_count())
        return base.draw(rng, n, m, k)

    def recording_spectrum(*args):
        svds.add(on_main())
        alive.add(threading.active_count())
        return spectrum(*args)

    spectrum = acs_mod.spectrum
    monkeypatch.setattr(acs_mod, "spectrum", recording_spectrum)
    model = RandomSequenceModel("probe", 4, draw, base.c_bound, base.omega_bound)
    before = threading.active_count()
    sacs_check(model, [2], [(16,), (24,)], trials=5000)
    assert draws == {True} and svds == {True}
    assert alive == {before}


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

    def recording(hits):
        def certify(stack, bound):
            stacks.append(np.shape(stack))
            return hits(stack, bound)
        return certify

    for name in ("_rank_hits", "_norm_hits"):
        monkeypatch.setattr(acs_mod, name, recording(getattr(acs_mod, name)))
    cert = sacs_check(deterministic_model(2), [2], [(16,), (24,)], trials=10**4)
    assert [(row.freq_rank, row.freq_norm) for row in cert.rows] == [(1.0, 1.0)] * 2
    assert stacks and all(len(shape) == 3 for shape in stacks)
    assert sum(shape[0] for shape in stacks) == 2 * 2 * 10**4  # R and N of every trial
    assert max(np.prod(shape) * 16 for shape in stacks) <= _STACK_BYTES
    assert max(shape[0] for shape in stacks) > 100


def orthogonal_stack(rng, k, d, dtype=float):
    """k random orthogonal matrices, unitary when ``dtype`` is complex."""
    a = rng.standard_normal((k, d, d))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((k, d, d))
    return np.linalg.qr(a)[0]


def count_spectrum_calls(monkeypatch):
    calls = []
    spectrum = acs_mod.spectrum
    monkeypatch.setattr(acs_mod, "spectrum",
                        lambda stack, mode: calls.append(len(stack)) or spectrum(stack, mode))
    return calls


def assert_norm_certificate_agrees(stack, thr):
    expected = [int(schatten_norm(a, np.inf) <= thr) for a in stack]
    assert [_norm_hits(a[None], thr) for a in stack] == expected
    assert _norm_hits(stack, thr) == sum(expected)


def assert_rank_certificate_agrees(stack, limit):
    expected = [int(numerical_rank(a) <= limit) for a in stack]
    assert [_rank_hits(a[None], limit) for a in stack] == expected
    assert _rank_hits(stack, limit) == sum(expected)
    return expected


@pytest.mark.parametrize("d", [5, 16, 24])
def test_norm_certificate_agrees_with_the_svd_at_the_threshold(d):
    rng = np.random.default_rng(d)
    omega = 0.25
    thr = omega + 1e-12 * (1.0 + omega)
    sigma_1 = [thr * (1 + 1e-15), thr * (1 - 1e-15), thr * (1 + 1e-13), thr * (1 - 1e-13),
               0.8 * omega, 1.5 * omega]
    stack = orthogonal_stack(rng, len(sigma_1), d) * np.array(sigma_1)[:, None, None]
    assert_norm_certificate_agrees(stack, thr)
    # the deterministic model's N = omega I, whose sigma_1 is exactly omega
    assert_norm_certificate_agrees(np.broadcast_to(omega * np.eye(d), (3, d, d)), thr)


def test_norm_certificates_decide_clear_trials_without_the_svd(monkeypatch):
    rng = np.random.default_rng(2)
    omega = 0.25
    thr = omega + 1e-12 * (1.0 + omega)
    scales = np.array([0.8, 1.5, 0.8, 0.8, 1.5])[:, None, None] * omega
    calls = count_spectrum_calls(monkeypatch)
    assert _norm_hits(orthogonal_stack(rng, 5, 16) * scales, thr) == 3
    assert _norm_hits(orthogonal_stack(rng, 5, 16) * scales * 1j, thr) == 3
    # N = 0 with omega = 0
    assert _norm_hits(np.zeros((4, 16, 16)), 0.0 + 1e-12 * (1.0 + 0.0)) == 4
    assert calls == []


@pytest.mark.parametrize("d, j", [(12, 3), (24, 6), (24, 12)])
def test_rank_certificate_agrees_with_the_svd_at_the_threshold(monkeypatch, d, j):
    rng = np.random.default_rng(d + j)
    # sigma_1 = 1e6 makes the absolute 1e-14 of the rank threshold negligible.
    ratios = [1e-10 * (1 + 1e-6), 1e-10 * (1 - 1e-6), 1e-13, 0.0, 1e-3]
    sv = np.zeros((len(ratios), d))
    sv[:, 0] = 1e6
    sv[:, 1:j] = rng.uniform(1.0, 1e6, (len(ratios), j - 1))
    sv[:, j] = 1e6 * np.array(ratios)
    stack = orthogonal_stack(rng, len(ratios), d) * sv[:, None, :] @ orthogonal_stack(rng, len(ratios), d)
    calls = count_spectrum_calls(monkeypatch)
    assert assert_rank_certificate_agrees(stack, j + 1e-9) == [0, 1, 1, 1, 0]
    # only the two trials within 1e-6 of the threshold reach the SVD, alone
    # or in the stack: sigma_{j+1} / sigma_1 <= 1e-13 is a proved hit and
    # 1e-3 a proved miss
    assert calls == [1, 1, 2]


def test_rank_certificate_refuses_dependent_leading_columns(monkeypatch):
    rng = np.random.default_rng(7)
    d, j = 16, 4
    stack = rng.standard_normal((3, d, j)) @ rng.standard_normal((3, j, d))
    stack[:, :, 1] = stack[:, :, 0]  # rank <= j, yet the first j columns span j - 1
    calls = count_spectrum_calls(monkeypatch)
    assert assert_rank_certificate_agrees(stack, j + 1e-9) == [1, 1, 1]
    assert calls == [1, 1, 1, 3]


def test_rank_certificate_edge_cases(monkeypatch):
    rng = np.random.default_rng(8)
    calls = count_spectrum_calls(monkeypatch)
    assert _rank_hits(np.zeros((4, 16, 16)), 0 + 1e-9) == 4  # R = 0
    full = rng.standard_normal((4, 16, 16)) + 1j * rng.standard_normal((4, 16, 16))
    assert _rank_hits(full, 16 + 1e-9) == 4  # j >= d
    assert calls == []
    assert_rank_certificate_agrees(full, 15 + 1e-9)


def low_rank_stack(rng, k, d, rank):
    return rng.standard_normal((k, d, rank)) @ rng.standard_normal((k, rank, d))


@pytest.mark.parametrize("dtype", [float, complex])
def test_rank_certificate_decides_clear_misses_without_the_svd(monkeypatch, dtype):
    rng = np.random.default_rng(11)
    d, j = 24, 6
    sv = np.zeros((8, d))
    sv[:, 0] = 1.0
    sv[:, 1:j] = rng.uniform(1e-3, 1.0, (8, j - 1))
    sv[:, j] = 1e-3  # sigma_{j+1} / sigma_1
    right = np.swapaxes(orthogonal_stack(rng, 8, d, dtype), -1, -2)
    stack = orthogonal_stack(rng, 8, d, dtype) * sv[:, None, :] @ right
    calls = count_spectrum_calls(monkeypatch)
    assert _rank_hits(stack, j + 1e-9) == 0
    assert calls == []
    assert assert_rank_certificate_agrees(stack, j + 1e-9) == [0] * 8


def test_rank_certificate_decides_mixed_hits_and_misses_in_one_stack(monkeypatch):
    rng = np.random.default_rng(12)
    d, j = 16, 4
    stack = np.concatenate([low_rank_stack(rng, 5, d, j), low_rank_stack(rng, 5, d, j + 2)])
    stack = stack[rng.permutation(len(stack))]
    calls = count_spectrum_calls(monkeypatch)
    assert _rank_hits(stack, j + 1e-9) == 5
    assert calls == []
    assert sum(assert_rank_certificate_agrees(stack, j + 1e-9)) == 5


def test_rank_certificate_with_no_allowed_rank(monkeypatch):
    rng = np.random.default_rng(13)
    d = 16
    stack = np.concatenate([np.zeros((2, d, d)), low_rank_stack(rng, 2, d, 1),
                            rng.standard_normal((2, d, d))])
    calls = count_spectrum_calls(monkeypatch)
    assert _rank_hits(stack, 0 + 1e-9) == 2  # j = 0: only R = 0 is a hit
    assert calls == []
    assert assert_rank_certificate_agrees(stack, 0 + 1e-9) == [1, 1, 0, 0, 0, 0]


def test_rank_certificate_leaves_dependent_leading_columns_of_a_miss_to_the_svd(monkeypatch):
    rng = np.random.default_rng(14)
    d, j = 16, 4
    stack = low_rank_stack(rng, 3, d, j + 2)
    stack[:, :, 1] = stack[:, :, 0]  # rank j + 2, yet the first j + 1 columns span j
    calls = count_spectrum_calls(monkeypatch)
    assert assert_rank_certificate_agrees(stack, j + 1e-9) == [0, 0, 0]
    assert calls == [1, 1, 1, 3]


@pytest.mark.parametrize("d, hits_proved", [(45, True), (46, False)])
def test_rank_certificate_on_either_side_of_the_hit_cutoff(monkeypatch, d, hits_proved):
    # 2 E(d) sqrt(d) <= 1e-10 holds up to d = 45; misses are proved at any d
    rng = np.random.default_rng(d)
    j = 11
    stack = np.concatenate([low_rank_stack(rng, 3, d, j), low_rank_stack(rng, 2, d, j + 2)])
    calls = count_spectrum_calls(monkeypatch)
    assert _rank_hits(stack, j + 1e-9) == 3
    assert calls == ([] if hits_proved else [3])
    assert assert_rank_certificate_agrees(stack, j + 1e-9) == [1, 1, 1, 0, 0]


def complex_model(seed):
    """Complex (S, R, N): R = U V of inner size floor(d / 2m) (plus 2 with
    probability 1/2m), N a scaled complex reflector (scale 0.8 or 1.5)."""

    def draw(rng, n, m, k):
        d = nu(n)
        ok = d // (2 * m)
        r_max = min(ok + 2, d)
        gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        u, v, col = gauss(k, d, r_max), gauss(k, r_max, d), gauss(k, d)
        u[rng.random(k) >= 0.5 / m, :, ok:] = 0.0
        scale = np.where(rng.random(k) >= 0.5 / m, 0.8, 1.5) / m
        nn = np.eye(d) - 2.0 * col[:, :, None] * col.conj()[:, None, :] / np.sum(
            np.abs(col) ** 2, axis=-1)[:, None, None]
        s = np.zeros((k, d, d), dtype=complex)
        s[:, 0, 0] = (rng.random(k) < 1.0 / m) * 1j
        return s, u @ v, nn * scale[:, None, None]

    return RandomSequenceModel("complex", seed, draw, lambda m: 0.5 / m, lambda m: 1.0 / m)


@pytest.mark.parametrize("sizes", [[(12,), (16,)], [(3, 4), (5, 6)]])
def test_sacs_complex_model_matches_the_per_trial_oracle_byte_for_byte(sizes):
    model = complex_model(19)
    cert, oracle = sacs_check(model, [2, 4], sizes, 1037), sacs_oracle(model, [2, 4], sizes, 1037)
    assert cert.csv() == oracle.csv()
    assert cert.facts == oracle.facts
    assert {row.freq_rank < 1.0 for row in cert.rows} == {True}


def test_sacs_readme_run_hands_few_rank_parts_and_no_norm_part_to_the_svd(monkeypatch):
    calls = count_spectrum_calls(monkeypatch)
    norm_calls = []
    norm_hits = acs_mod._norm_hits

    def watched(stack, thr):
        before = len(calls)
        hits = norm_hits(stack, thr)
        norm_calls.extend(calls[before:])
        return hits

    monkeypatch.setattr(acs_mod, "_norm_hits", watched)
    cert = sacs_check(designed_model(42), [2, 4, 8], [(16,), (24,)], trials=10**4)
    assert cert.passed and norm_calls == []
    assert sum(calls) <= 0.01 * 6 * 10**4
