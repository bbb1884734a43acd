"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is budgeted to finish in under five minutes.
"""

import random
import string
import time

import numpy as np
import pytest

from helpers import (
    errors_for,
    laplacian_eigenvalues,
    quantile_compare,
    random_trig_polynomial,
    structurally_equal,
)

from test_dsl import CORPUS

from gltlab import dsl
from gltlab.acs import (
    ZERO_SEQUENCES,
    acs_check,
    designed_model,
    sacs_check,
    zero_distribution_test,
)
from gltlab.errors import DslSyntaxError
from gltlab.gltcalc import materialize
from gltlab.matgen import toeplitz
from gltlab.multiindex import nu
from gltlab.spectra import (
    distribution_check,
    empirical_functional,
    poly_on_window,
    spectrum,
)
from gltlab.symbols import TrigPolynomial

_T0 = time.time()

LAP = TrigPolynomial(1, 1, {(0,): [[2.0]], (1,): [[-1.0]], (-1,): [[-1.0]]})


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_laplacian_spectrum():
    start = time.time()
    lam = np.sort(spectrum(toeplitz(LAP, 512), "lambda"))
    exact = np.sort(laplacian_eigenvalues(512))
    err = float(np.abs(lam - exact).max())
    elapsed = time.time() - start
    _report(1, err <= 1e-9 and elapsed < 10.0,
            f"max abs eigenvalue error {err:.3e} (tol 1e-9), {elapsed:.2f}s (< 10s)")


def test_criterion_02_trace_identity():
    rng = np.random.default_rng(424242)
    configs = [
        (1, 1, (4096,)),
        (2, 2, (45, 45)),  # 2025 * 2 = 4050 <= 4096
        (1, 2, (1024,)),
        (2, 1, (32, 32)),
    ]
    while len(configs) < 20:
        d = int(rng.integers(1, 3))
        r = int(rng.integers(1, 3))
        if d == 1:
            n = (int(rng.integers(64, 1024 // r)),)
        else:
            side = int(rng.integers(8, 24))
            n = (side, side)
        configs.append((d, r, n))
    worst = 0.0
    for d, r, n in configs:
        poly = random_trig_polynomial(rng, d=d, r=r, degree=1, hermitian=True)
        assert r * nu(n) <= 4096
        lam = spectrum(toeplitz(poly, n), "lambda")
        f = poly_on_window(1, float(lam.min()) - 1, float(lam.max()) + 1, "x")
        expect = float(np.trace(poly.coeffs[(0,) * d]).real) / r
        worst = max(worst, abs(empirical_functional(lam, f) - expect))
    _report(2, worst <= 1e-12,
            f"worst |empirical - trace(fhat_0)/r| = {worst:.3e} over 20 symbols (tol 1e-12)")


def test_criterion_03_exact_error_law():
    report = distribution_check(
        lambda n: toeplitz(LAP, n), LAP, [64, 128, 256], mode="lambda",
        basket=[poly_on_window(2, -10.0, 10.0, "x^2")], quad_tol=1e-10,
    )
    worst = max(
        abs(err - 2.0 / d_n) for d_n, err in errors_for(report, "x^2")
    )
    _report(3, worst <= 1e-12,
            f"x^2 distribution error deviates from 2/n by {worst:.3e} (tol 1e-12)")


def test_criterion_04_product_first_moment():
    e = dsl.parse("D(x1)*T(2-2*cos(t1))")
    from gltlab.gltcalc import symbol_of

    report = distribution_check(
        lambda n: materialize(e, n), symbol_of(e), [128, 256, 512], mode="sigma",
        basket=[poly_on_window(1, -20.0, 20.0, "x")], slack=1.5,
    )
    errs = [err for _, err in errors_for(report, "x")]
    ok = errs[-1] <= 0.02 and errs[1] <= 1.5 * errs[0] and errs[2] <= 1.5 * errs[1]
    _report(4, ok,
            f"sigma first moment errors {['%.4f' % e for e in errs]} "
            "(<= 0.02 at n=512, non-increasing with slack 1.5)")


def test_criterion_05_block_symbol_quantiles():
    f = TrigPolynomial(
        1, 2,
        {
            (0,): [[0.0, 1.0], [1.0, 0.0]],
            (1,): [[0.0, 0.0], [1.0, 0.0]],
            (-1,): [[0.0, 1.0], [0.0, 0.0]],
        },
    )
    lam = spectrum(toeplitz(f, 1024), "lambda")
    dev = quantile_compare(lam, f, 1024)  # default budget ceil(sqrt(d_n))
    _report(5, dev <= 0.05,
            f"max quantile deviation {dev:.4f} vs +-2|cos(theta/2)| (tol 0.05)")


def test_criterion_06_two_level_spectrum():
    start = time.time()
    poly = dsl.parse("T(4-2*cos(t1)-2*cos(t2))").poly
    lam = np.sort(spectrum(toeplitz(poly, (32, 32)), "lambda"))
    ev = 2.0 - 2.0 * np.cos(np.arange(1, 33) * np.pi / 33.0)
    exact = np.sort((ev[:, None] + ev[None, :]).ravel())
    err = float(np.abs(lam - exact).max())
    elapsed = time.time() - start
    _report(6, err <= 1e-9 and elapsed < 60.0,
            f"two-level eigenvalue error {err:.3e} (tol 1e-9), {elapsed:.2f}s (< 60s)")


def test_criterion_07_acs_truncation():
    def band(nmax):
        return TrigPolynomial(
            1, 1, {(k,): [[1.0 / (1 + k * k)]] for k in range(-(nmax - 1), nmax)}
        )

    target = lambda n: toeplitz(band(n[0]), n)
    family = lambda m, n: toeplitz(band(n[0]).truncated(m), n)
    m_list = [1, 2, 4, 8]
    cert = acs_check(family, target, m_list, [(64,), (128,), (256,)])
    c, omega = cert.facts["c"], cert.facts["omega"]
    ks = np.arange(1, 10**6, dtype=float)
    tail_all = float(np.sum(1.0 / (1.0 + ks * ks)))
    tails = {m: 2.0 * (tail_all - float(np.sum(1.0 / (1.0 + ks[:m] ** 2)))) for m in m_list}
    ok = (
        cert.passed
        and all(c[str(m)] == 0.0 for m in m_list)
        and all(omega[str(m)] <= tails[m] for m in m_list)
    )
    detail = ", ".join(
        f"m={m}: omega={omega[str(m)]:.4f}<=tail={tails[m]:.4f}, c={c[str(m)]}"
        for m in m_list
    )
    _report(7, ok, f"truncation certificate PASS with {detail}")


def test_criterion_08_zero_distribution_suite():
    sizes = [(64,), (128,), (256,), (512,)]
    expected = {"spike": True, "identity": False, "rankone": True}
    results = {}
    for name, want in expected.items():
        for p in (1, 2, np.inf):
            got = zero_distribution_test(ZERO_SEQUENCES[name], p, sizes).passed
            results[(name, p)] = got == want
    ok = all(results.values())
    bad = [k for k, v in results.items() if not v]
    _report(8, ok, "all 9 verdicts correct (spike PASS, identity FAIL, rank-one PASS "
                   "for p in {1,2,inf})" + (f"; wrong: {bad}" if bad else ""))


def test_criterion_09_zero_perturbation_invariance():
    def spikes(n):
        d_n = n[0]
        k = int(np.ceil(np.sqrt(d_n)))
        idx = np.linspace(0, d_n - 1, k).astype(int)
        out = np.zeros((d_n, d_n))
        out[idx, idx] = 0.1  # rank ceil(sqrt(n)), spectral norm 0.1
        return out

    sizes = [(128,), (256,), (512,)]
    pure = distribution_check(
        lambda n: toeplitz(LAP, n), LAP, sizes, mode="lambda", tolerance=0.15,
    )
    perturbed = distribution_check(
        lambda n: toeplitz(LAP, n).data + spikes(n), LAP, sizes,
        mode="lambda", tolerance=0.15,
    )
    ok = pure.passed and perturbed.passed
    _report(9, ok,
            f"verdicts unchanged by rank-ceil(sqrt(n)) norm-0.1 perturbation "
            f"(pure={pure.passed}, perturbed={perturbed.passed})")


def test_criterion_10_stochastic_acs():
    m_list = [2, 4, 8]
    sizes = [(16,), (24,)]
    cert = sacs_check(designed_model(20260808), m_list, sizes, trials=10**4)
    devs = {m: abs(cert.facts["s_estimates"][str(m)] - 1.0 / m) for m in m_list}
    rerun = sacs_check(designed_model(20260808), m_list, sizes, trials=10**4)
    identical = cert.csv() == rerun.csv()
    ok = cert.passed and all(dev <= 0.015 for dev in devs.values()) and identical
    _report(10, ok,
            f"s(m) deviations {['%.4f' % devs[m] for m in m_list]} (tol 0.015), "
            f"bit-identical rerun: {identical}")


def test_criterion_11_dsl_roundtrip_and_fuzz():
    for text in CORPUS:
        e = dsl.parse(text)
        again = dsl.parse(dsl.format_expression(e))
        assert structurally_equal(e, again), text
    rng = random.Random(20260808)
    alphabet = string.printable
    crashes = 0
    for _ in range(10**4):
        s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 64)))
        try:
            dsl.parse(s)
        except DslSyntaxError:
            pass
        except Exception:
            crashes += 1
    _report(11, crashes == 0,
            f"{len(CORPUS)}-expression corpus round-trips; 10^4 fuzz inputs, {crashes} crashes")


def test_criterion_12_suite_runtime():
    elapsed = time.time() - _T0
    _report(12, elapsed < 300.0, f"acceptance suite wall time {elapsed:.1f}s (< 300s)")
