import ast
import dataclasses
import importlib.util
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from helpers import errors_for, laplacian_eigenvalues, random_trig_polynomial, structurally_equal

import gltlab.matgen as matgen_mod
from gltlab.cli import parse_sizes
from gltlab.dsl import parse
from gltlab.errors import (
    CalculusError,
    EvaluationError,
    ModeError,
    SingularEvaluationError,
    SizeCapError,
)
from gltlab.gltcalc import (
    Adjoint,
    Diag,
    FunApply,
    LinComb,
    Product,
    PseudoInverse,
    Scalar,
    Toeplitz,
    Zero,
    glt1_verify,
    glt5_split_check,
    materialize,
    symbol_of,
    truncate_toeplitz,
)
from gltlab.matgen import is_hermitian, toeplitz
from gltlab.multiindex import check_size
from gltlab.spectra import _bandwidths, poly_on_window, spectrum
from gltlab.symbols import CoefficientFunction, TrigPolynomial, evaluate

LAP_POLY = TrigPolynomial(1, 1, {(0,): [[2.0]], (1,): [[-1.0]], (-1,): [[-1.0]]})
LAP = Toeplitz(LAP_POLY)
X_COEFF = CoefficientFunction(1, 1, lambda x: x[:, :, None], hermitian=True, name="x1")
DIAG_X = Diag(X_COEFF)
SHIFT = Toeplitz(TrigPolynomial(1, 1, {(1,): [[1.0]]}))


def test_symbol_of_generators():
    sym = symbol_of(LAP)
    assert abs(evaluate(sym, [[0.5]], [[np.pi]])[0, 0, 0] - 4.0) < 1e-14
    sym_d = symbol_of(DIAG_X)
    assert abs(evaluate(sym_d, [[0.25]], [[0.3]])[0, 0, 0] - 0.25) < 1e-14
    sym_z = symbol_of(Zero(), d=1, r=2)
    assert np.abs(evaluate(sym_z, [[0.5]], [[0.5]])[0]).max() == 0.0


def test_symbol_of_product_rule():
    sym = symbol_of(Product(DIAG_X, LAP))
    val = evaluate(sym, [[0.5]], [[np.pi]])[0]
    assert abs(val[0, 0] - 2.0) < 1e-14


def test_symbol_of_pseudo_inverse():
    sym = symbol_of(PseudoInverse(LAP))
    val = evaluate(sym, [[0.5]], [[np.pi]])[0]
    assert abs(val[0, 0] - 0.25) < 1e-14


def test_symbol_of_fun_apply_requires_hermitian():
    with pytest.raises(CalculusError):
        symbol_of(FunApply("exp", SHIFT))
    sym = symbol_of(FunApply("exp", LAP))
    val = evaluate(sym, [[0.5]], [[0.0]])[0]
    assert abs(val[0, 0] - 1.0) < 1e-13  # exp(0)


@pytest.mark.parametrize("text", ["-T(2-2*cos(t1))", "2*T(2-2*cos(t1))",
                                  "T(2-2*cos(t1))*2", "D(x1)*T(2-2*cos(t1))",
                                  "T(exp(i*t1))'", "T(2-2*cos(t1))^-1"])
def test_symbol_hermitian_is_the_expression_rule(text):
    e = parse(text)
    assert symbol_of(e).hermitian == e.hermitian


def test_symbol_of_block_pseudo_inverse_and_function():
    rng = np.random.default_rng(29)
    f = random_trig_polynomial(rng, d=1, r=2, degree=1, hermitian=True)
    xs = rng.random((50, 1))
    thetas = rng.uniform(-np.pi, np.pi, (50, 1))
    vals = evaluate(f, xs, thetas)

    inv = evaluate(symbol_of(PseudoInverse(Toeplitz(f))), xs, thetas)
    assert np.abs(inv - np.linalg.inv(vals)).max() < 1e-10

    w, v = np.linalg.eigh(vals)
    want = v @ (np.exp(w)[:, :, None] * np.conj(np.swapaxes(v, -1, -2)))
    got = evaluate(symbol_of(FunApply("exp", Toeplitz(f))), xs, thetas)
    assert np.abs(got - want).max() < 1e-10


def test_symbol_of_pseudo_inverse_is_singular_where_the_symbol_vanishes():
    sym = symbol_of(parse("T(2-2*cos(t1))^-1"))
    with pytest.raises(SingularEvaluationError):
        evaluate(sym, [[0.5]], [[0.0]])


def test_symbol_of_a_block_pseudo_inverse_is_singular_where_the_symbol_is():
    # r = 2: [[1, 1], [1, 1]] is singular at every point, and np.linalg.inv says so
    sym = symbol_of(parse("T([1,1;1,1])^-1"))
    with pytest.raises(SingularEvaluationError, match="pointwise inverse failed"):
        evaluate(sym, [[0.5]], [[0.3]])


def test_symbol_homomorphism_random_nodes():
    rng = np.random.default_rng(17)
    f = random_trig_polynomial(rng, d=1, r=2, degree=1, hermitian=True)
    g = random_trig_polynomial(rng, d=1, r=2, degree=2, hermitian=False)
    e1, e2 = Toeplitz(f), Toeplitz(g)
    xs = rng.random((100, 1))
    thetas = rng.uniform(-np.pi, np.pi, (100, 1))

    prod = evaluate(symbol_of(Product(e1, e2)), xs, thetas)
    want = evaluate(f, xs, thetas) @ evaluate(g, xs, thetas)
    assert np.abs(prod - want).max() < 1e-12

    lin = evaluate(symbol_of(LinComb(2.0, e1, -1.5j, e2)), xs, thetas)
    want = 2.0 * evaluate(f, xs, thetas) - 1.5j * evaluate(g, xs, thetas)
    assert np.abs(lin - want).max() < 1e-12

    adj = evaluate(symbol_of(Adjoint(e2)), xs, thetas)
    want = np.conj(np.swapaxes(evaluate(g, xs, thetas), -1, -2))
    assert np.abs(adj - want).max() < 1e-12


def test_materialize_generators():
    a = materialize(LAP, 4)
    assert np.array_equal(a.data, toeplitz(LAP_POLY, 4).data)
    z = materialize(Zero(), 4, r=2)
    assert z.data.shape == (8, 8) and np.abs(z.data).max() == 0.0
    s = materialize(Scalar(2.5), 3)
    assert np.array_equal(s.data, 2.5 * np.eye(3))


def test_materialize_adjoint_exact():
    rng = np.random.default_rng(23)
    g = random_trig_polynomial(rng, d=1, r=2, degree=1, hermitian=False)
    e = Toeplitz(g)
    assert np.array_equal(
        materialize(Adjoint(e), 5).data, materialize(e, 5).data.conj().T
    )


def test_materialize_lincomb_and_cancellation():
    rng = np.random.default_rng(29)
    f = random_trig_polynomial(rng, d=1, r=1, degree=1, hermitian=False)
    g = random_trig_polynomial(rng, d=1, r=1, degree=2, hermitian=False)
    alpha, beta = 1.7, -2.3 + 0.5j
    lhs = materialize(LinComb(alpha, Toeplitz(f), beta, Toeplitz(g)), 9).data
    rhs = alpha * materialize(Toeplitz(f), 9).data + beta * materialize(Toeplitz(g), 9).data
    assert np.abs(lhs - rhs).max() < 1e-13
    cancel = materialize(LinComb(1.0, Toeplitz(f), -1.0, Toeplitz(f)), 6)
    assert np.abs(cancel.data).max() == 0.0


def test_materialize_fun_apply_exp_closed_form():
    a = materialize(FunApply("exp", LAP), 2).data
    e1, e3 = math.e, math.e**3
    expect = np.array([[(e1 + e3) / 2, (e1 - e3) / 2], [(e1 - e3) / 2, (e1 + e3) / 2]])
    assert np.abs(a - expect).max() < 1e-12


def test_fun_apply_polynomial_consistency():
    rng = np.random.default_rng(31)
    f = random_trig_polynomial(rng, d=1, r=2, degree=1, hermitian=True)
    e = Toeplitz(f)
    base = materialize(e, 6).data
    sq = materialize(FunApply("sq", e), 6).data
    assert np.abs(sq - base @ base).max() < 1e-10
    cube = materialize(FunApply("cube", e), 6).data
    assert np.abs(cube - base @ base @ base).max() < 1e-10


def test_pseudo_inverse_materialization():
    inv = materialize(PseudoInverse(LAP), 8)
    lam = laplacian_eigenvalues(8)
    assert abs(spectrum(inv, "sigma")[0] - 1.0 / lam.min()) < 1e-9
    assert not inv.notes

    # a singular diagonal triggers the conditioning note
    singular = LinComb(1.0, DIAG_X, -0.25, Scalar(1.0))
    out = materialize(PseudoInverse(singular), 4)
    assert out.notes and "pseudo-inverse" in out.notes[0]


@pytest.mark.parametrize("left", [
    LAP,
    Toeplitz(TrigPolynomial(1, 1, {(0,): [[2.0]], (1,): [[1j]]})),
])
def test_pseudo_inverse_is_pinv_from_one_svd(monkeypatch, left):
    # diag((x - 1/4)(x - 1/2)) is singular twice at n = 8
    singular = Product(LinComb(1.0, DIAG_X, -0.25, Scalar(1.0)),
                       LinComb(1.0, DIAG_X, -0.5, Scalar(1.0)))
    e = Product(left, singular)
    child = materialize(e, 8).data
    expected = np.linalg.pinv(child, rcond=1e-10)
    sv = np.linalg.svd(child, compute_uv=False)
    dropped = int(np.sum(sv <= 1e-10 * sv[0]))
    assert dropped == 2
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
    out = materialize(PseudoInverse(e), 8)
    assert len(calls) == 1
    assert out.data.dtype == expected.dtype and np.array_equal(out.data, expected)
    assert out.notes == (
        f"pseudo-inverse at n=8 truncated {dropped} singular values below 1e-10 * sigma_1",
    )


def test_fun_apply_gate_on_matrices():
    with pytest.raises(CalculusError):
        materialize(FunApply("exp", SHIFT), 4)


def test_fun_apply_gate_tests_the_materialized_child():
    # diag(x + i) is declared Hermitian wrongly, and eigh would silently read
    # only its lower triangle.
    child = Diag(CoefficientFunction(1, 1, lambda x: x[:, :, None] + 1j, hermitian=True))
    with pytest.raises(CalculusError):
        materialize(FunApply("id", child), 3)
    ok = materialize(FunApply("id", LAP), 5)
    assert np.allclose(ok.data, toeplitz(LAP_POLY, 5).data, atol=1e-12)


def test_hermitian_inference():
    assert LAP.hermitian
    assert not SHIFT.hermitian
    assert LinComb(1.0, LAP, 2.0, LAP).hermitian
    assert not LinComb(1j, LAP, 0.0, LAP).hermitian
    assert Product(Scalar(2.0), LAP).hermitian
    assert not Product(DIAG_X, LAP).hermitian
    assert Adjoint(SHIFT).hermitian is False
    assert FunApply("exp", LAP).hermitian


def test_glt5_split_check_hermitian_trivial():
    report = glt5_split_check(lambda n: materialize(LAP, n), [(16,), (32,), (64,)])
    assert report.passed
    assert max(report.facts["trace_norm_y_over_nu"]) == 0.0


def test_glt5_split_check_small_skew_perturbation():
    def seq(n):
        a = materialize(LAP, n).data.astype(complex)
        a[0, n[0] - 1] += 1j / n[0]
        return a

    report = glt5_split_check(seq, [(32,), (64,), (128,)])
    assert report.passed


def test_glt5_split_check_shift_fails():
    report = glt5_split_check(lambda n: materialize(SHIFT, n), [(32,), (64,), (128,)])
    assert not report.passed
    # the skew part keeps Theta(n) singular values of size ~ 1/2
    assert min(report.facts["trace_norm_y_over_nu"]) > 0.2


def test_glt1_verify_lambda_trace_identity():
    report = glt1_verify(
        LAP, [(32,), (64,)], mode="lambda",
        basket=[poly_on_window(1, -10, 10, "x")],
    )
    assert report.passed
    assert all(row.abs_error < 1e-12 for row in report.rows)


def test_glt1_verify_product_sigma_first_moment():
    e = Product(DIAG_X, LAP)
    report = glt1_verify(
        e, [(64,), (128,), (256,)], mode="sigma",
        basket=[poly_on_window(1, -20, 20, "x")], tolerance=0.05,
    )
    assert report.passed
    errs = [err for _, err in errors_for(report, "x")]
    assert errs[-1] < 0.02
    assert errs[0] > errs[-1]


def test_glt1_verify_of_a_scalar_only_expression_takes_d_and_r_as_materialize():
    # no structural leaf: d comes from the sizes and r is 1, as in materialize
    report = glt1_verify(parse("2"), [8, 16, 32])
    assert report.passed
    assert {row.symbol for row in report.rows if row.f_id == "x"} == {2.0}


def test_glt1_verify_mode_gate():
    with pytest.raises(ModeError):
        glt1_verify(SHIFT, [(16,), (32,), (64,)], mode="lambda")


def test_glt1_verify_quasi_hermitian_waiver():
    # D(x) T(f) is not Hermitian, but its skew part has vanishing normalized
    # trace norm; the split check grants the eigenvalue-mode waiver.
    e = Product(DIAG_X, LAP)
    assert not e.hermitian
    split = glt5_split_check(lambda n: materialize(e, n), [(32,), (64,), (128,)])
    assert split.passed
    report = glt1_verify(
        e, [(64,), (128,), (256,)], mode="lambda",
        basket=[poly_on_window(1, -20, 20, "x")], tolerance=0.05,
    )
    assert report.passed
    errs = [err for _, err in errors_for(report, "x")]
    assert errs[-1] < 0.01


def test_glt1_verify_waiver_materializes_each_size_once(monkeypatch):
    import gltlab.gltcalc as gltcalc_mod

    calls = []
    original = gltcalc_mod.materialize
    monkeypatch.setattr(gltcalc_mod, "materialize",
                        lambda e, n, r=None: calls.append(n) or original(e, n, r=r))
    report = glt1_verify(
        Product(DIAG_X, LAP), [(64,), (128,), (256,)], mode="lambda",
        basket=[poly_on_window(1, -20, 20, "x")], tolerance=0.05,
    )
    assert report.passed
    assert calls == [(64,), (128,), (256,)]


def test_zero_perturbation_does_not_change_verdict():
    # bounded-norm, vanishing-rank-fraction perturbations leave verdicts alone
    def spikes(n):
        d_n = n[0]
        k = int(np.ceil(np.sqrt(d_n)))
        idx = np.linspace(0, d_n - 1, k).astype(int)
        out = np.zeros((d_n, d_n))
        out[idx, idx] = 0.1
        return out

    sizes = [(64,), (128,), (256,)]
    sym = symbol_of(LAP)
    from gltlab.spectra import distribution_check

    basket = [poly_on_window(1, -10, 10, "x"), poly_on_window(2, -10, 10, "x^2")]
    pure = distribution_check(
        lambda n: materialize(LAP, n), sym, sizes, mode="lambda",
        basket=basket, tolerance=0.05,
    )
    perturbed = distribution_check(
        lambda n: materialize(LAP, n).data + spikes(n), sym, sizes,
        mode="lambda", basket=basket, tolerance=0.05,
    )
    assert pure.passed == perturbed.passed is True


def test_truncate_toeplitz():
    rng = np.random.default_rng(37)
    f = random_trig_polynomial(rng, d=1, r=1, degree=3, hermitian=True)
    e = truncate_toeplitz(Toeplitz(f), 1)
    assert isinstance(e, Toeplitz)
    assert set(e.poly.coeffs) == {(-1,), (0,), (1,)}
    nested = truncate_toeplitz(Product(DIAG_X, Toeplitz(f)), 2)
    assert set(nested.right.poly.coeffs) == {(k,) for k in range(-2, 3)}


def test_acs_plus_symbol_convergence_scenario():
    # truncation families approximate in the splitting sense while their
    # symbols converge; the limit sequence then matches the limit symbol
    from gltlab.acs import acs_check
    from gltlab.spectra import distribution_check

    def band(nmax):
        return TrigPolynomial(
            1, 1, {(k,): [[1.0 / (1 + k * k)]] for k in range(-(nmax - 1), nmax)}
        )

    target = lambda n: toeplitz(band(n[0]), n)
    family = lambda m, n: toeplitz(band(n[0]).truncated(m), n)
    cert = acs_check(family, target, [1, 2, 4, 8], [(32,), (64,)])
    assert cert.passed

    report = distribution_check(
        target, band(9), [(32,), (64,), (128,)], mode="lambda",
        basket=[poly_on_window(1, -10, 10, "x")], tolerance=0.05,
    )
    assert report.passed


def test_structurally_equal():
    assert structurally_equal(LAP, Toeplitz(LAP_POLY))
    assert not structurally_equal(LAP, SHIFT)
    assert structurally_equal(Product(LAP, SHIFT), Product(LAP, SHIFT))
    assert not structurally_equal(Product(LAP, SHIFT), Product(SHIFT, LAP))
    assert structurally_equal(Scalar(2 + 1j), Scalar(2 + 1j))
    assert not structurally_equal(Scalar(2), Scalar(3))
    assert structurally_equal(PseudoInverse(LAP), PseudoInverse(LAP))


REAL_EXPRESSIONS = [
    "T(2-2*cos(t1))",
    "D(x1)*T(2-2*cos(t1))",
    "D(x1)*T(2-2*cos(t1))-T(2-2*cos(t1))*D(x1)",
    "fun(exp, T(2-2*cos(t1)))",
    "2*T(1+cos(t1))+D(x1^2)",
    "T(4-2*cos(t1)-2*cos(t2))",
]


@pytest.mark.parametrize("text", REAL_EXPRESSIONS)
def test_real_expressions_materialize_as_float64(text):
    from gltlab.dsl import parse

    e = parse(text)
    n = (4,) * e.dims()[0]
    assert materialize(e, n).data.dtype == np.float64


def test_real_materialization_matches_complex_arithmetic():
    n = 12
    t = toeplitz(LAP_POLY, n).data.astype(complex)
    x = np.diag(np.arange(1, n + 1) / n).astype(complex)
    got = materialize(LinComb(2.0, Product(DIAG_X, LAP), -1.0, FunApply("exp", LAP)), n).data
    w, v = np.linalg.eigh(t)
    want = 2.0 * (x @ t) - (v * np.exp(w)) @ v.conj().T
    assert got.dtype == np.float64
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("text", ["T(i*cos(t1))", "i*T(2-2*cos(t1))", "D(x1+i*x1)"])
def test_non_real_expressions_stay_complex(text):
    from gltlab.dsl import parse

    a = materialize(parse(text), 6).data
    assert a.dtype == np.complex128 and np.any(a.imag)


@pytest.mark.parametrize("coefficient", ["x1", "x1-0.5+i*x1^2"])
@pytest.mark.parametrize("other", ["T(2-2*cos(t1))", "T(2-cos(t1)+sin(t1))"])
def test_diag_factor_scales_rows_and_columns_like_the_matmul(coefficient, other):
    diag, t = parse(f"D({coefficient})"), parse(other)
    for n in (64, 256):
        d, a = materialize(diag, n).data, materialize(t, n).data
        assert np.array_equal(materialize(Product(diag, t), n).data, d @ a)
        assert np.array_equal(materialize(Product(t, diag), n).data, a @ d)


def test_diag_factor_keeps_the_cap_and_the_failing_node(monkeypatch):
    monkeypatch.setattr(matgen_mod, "DEFAULT_SIZE_CAP", 32)
    with pytest.raises(SizeCapError):
        materialize(Product(Scalar(2.0), DIAG_X), 64)
    pole = parse("D(1/(x1-0.5))")
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as err:
            materialize(Product(LAP, pole), 4)
    assert err.value.node == (2,)  # the grid node i/n = 1/2


@pytest.mark.parametrize("expr,want", [
    ("-T(2-2*cos(t1))", lambda t: -t),
    ("2*T(2-2*cos(t1))", lambda t: 2 * t),
    ("T(2-2*cos(t1))*2", lambda t: t * 2),
    ("(1+i)*T(2-2*cos(t1))", lambda t: (1 + 1j) * t),
    ("Z*T(2-2*cos(t1))", lambda t: 0 * t),
    ("T(2-2*cos(t1))-2*T(2-2*cos(t1))", lambda t: t - 2 * t),
])
def test_a_constant_product_factor_scales_without_a_matrix(expr, want, monkeypatch):
    import gltlab.gltcalc as gltcalc_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a constant factor was materialized")

    t = toeplitz(LAP_POLY, 16).data
    monkeypatch.setattr(np, "eye", refuse)
    monkeypatch.setattr(gltcalc_mod, "zeros", refuse)
    out = materialize(parse(expr), 16)
    assert out.data.dtype == want(t).dtype and np.array_equal(out.data, want(t))
    assert out.symmetrizer is None


def test_a_constant_product_factor_leaves_the_symmetrizer_to_the_diagonal():
    x = np.arange(1, 9) / 8
    for expr in ("2*D(x1)", "Z*D(x1)"):
        assert np.array_equal(materialize(parse(expr), 8).symmetrizer, np.sqrt(1.0 / x))
    assert np.array_equal(materialize(parse("D(x1)*2"), 8).symmetrizer, np.sqrt(x))


@pytest.mark.parametrize("expr", ["2*T(2-2*cos(t1))", "2+T(2-2*cos(t1))",
                                  "Z+T(2-2*cos(t1))"])
def test_size_cap_is_checked_before_any_allocation(expr, monkeypatch):
    import gltlab.gltcalc as gltcalc_mod

    e = parse(expr)
    calls = []
    eye, full, zeros = np.eye, np.full, gltcalc_mod.zeros
    monkeypatch.setattr(np, "eye", lambda *a, **k: calls.append(("eye", a)) or eye(*a, **k))
    monkeypatch.setattr(np, "full", lambda *a, **k: calls.append(("full", a)) or full(*a, **k))
    monkeypatch.setattr(gltcalc_mod, "zeros",
                        lambda *a, **k: calls.append(("zeros", a)) or zeros(*a, **k))
    monkeypatch.setattr(matgen_mod, "DEFAULT_SIZE_CAP", 8)
    with pytest.raises(SizeCapError):
        materialize(e, 9)
    assert calls == []
    materialize(e, 8)
    assert calls


# ---------------------------------------------------------------------------
# band bounds

ROOT = pathlib.Path(__file__).resolve().parent.parent


def exact_widths(a):
    """(kl, ku) of the outermost nonzero diagonals, read from every entry."""
    i, j = np.nonzero(a)
    return int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0))


def assert_band_bound_holds(bm):
    """The bound contains the exact widths, and _bandwidths within it gives
    what it gives from every row (the widths, or None past the cost rule)."""
    kl, ku = exact_widths(bm.data)
    assert kl <= bm.band[0] and ku <= bm.band[1]
    for lower in (False, True):
        assert _bandwidths(bm, lower) == _bandwidths(bm.data, lower)


R2_CORNER_ZERO = Toeplitz(TrigPolynomial(1, 2, {
    (0,): [[2.0, 1.0], [1.0, 2.0]],
    (1,): [[-1.0, 0.5], [0.0, -1.0]],  # zero corner: lower width 2 within the bound 3
    (-1,): [[-1.0, 0.0], [0.5, -1.0]],
}))
# flat offsets 4 and 1 at n = (80, 4); (0, 5) does not fit
TWO_LEVEL = Toeplitz(TrigPolynomial(2, 1, {
    (0, 0): [[4.0]], (1, 0): [[-1.0]], (-1, 0): [[-1.0]], (0, 1): [[-1.0]], (0, -1): [[-1.0]],
    (0, 5): [[7.0]],
}))
DIAG_R2 = Diag(CoefficientFunction(
    1, 2, lambda x: (1 + x[:, 0, None, None]) * np.array([[2.0, 1.0], [1.0, 2.0]]),
    hermitian=True))

BAND_CASES = {  # expression, size, bound, exact widths
    "toeplitz": (LAP, 128, (1, 1), (1, 1)),
    "toeplitz-r2-zero-corner": (R2_CORNER_ZERO, 64, (3, 3), (2, 2)),
    "toeplitz-2-level": (TWO_LEVEL, (80, 4), (4, 4), (4, 4)),
    "diag": (DIAG_X, 128, (0, 0), (0, 0)),
    "diag-r2": (DIAG_R2, 64, (1, 1), (1, 1)),
    "zero": (Zero(), 128, (0, 0), (0, 0)),
    "scalar": (Scalar(2.0), 128, (0, 0), (0, 0)),
    "adjoint": (Adjoint(SHIFT), 128, (0, 1), (0, 1)),
    "lincomb-cancels": (LinComb(1.0, LAP, -1.0, LAP), 128, (1, 1), (0, 0)),
    "product": (Product(LAP, LAP), 128, None, None),  # a GEMM: no bound
    "diag-product": (Product(DIAG_X, SHIFT), 128, (1, 0), (1, 0)),
    "commutator": (LinComb(1.0, Product(DIAG_X, LAP), -1.0, Product(LAP, DIAG_X)), 128,
                   (1, 1), (1, 1)),
    "pseudo-inverse": (PseudoInverse(LAP), 16, None, None),
    "fun": (FunApply("exp", LAP), 16, None, None),
}


@pytest.mark.parametrize("e, n, bound, exact", BAND_CASES.values(), ids=BAND_CASES)
def test_band_bound_of_each_node_type(e, n, bound, exact):
    bm = materialize(e, n)
    assert bm.band == bound
    if bound is not None:
        assert exact_widths(bm.data) == exact
        assert_band_bound_holds(bm)


def workloads_module():
    """The benchmark's ``perfbench/workloads.py``, loaded once."""
    if "perfbench_workloads" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      ROOT / "perfbench" / "workloads.py")
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return sys.modules["perfbench_workloads"]


def documented_expressions():
    """Every DSL expression of README.md and of the benchmark's workloads."""
    readme = (ROOT / "README.md").read_text()
    found = re.findall(r"--expr '([^']*)'", readme) + re.findall(r"^expr = (.*)$", readme, re.M)
    for name in ("readme", "dense", "certify", "smoke"):
        for op in workloads_module().workload(name, 42):
            if "--expr" in op.argv:
                found.append(op.argv[op.argv.index("--expr") + 1])
    return sorted(set(found))


@pytest.mark.parametrize("text", documented_expressions())
def test_the_band_bound_of_each_documented_expression_changes_no_result(text):
    e = parse(text)
    # 1100 rows span five of is_hermitian's tiles of the plain matrix; a banded
    # matrix is read from its band storage instead
    sizes = [(40,), (512,), (1100,)] if e.dims()[0] == 1 else [(6, 7), (22, 23), (33, 34)]
    for n in sizes:
        bm = materialize(e, n)
        plain = dataclasses.replace(bm)  # the same matrix with no bound
        assert plain.band is None
        assert (bm.band is None) == isinstance(e, FunApply)
        if bm.band is not None:
            assert_band_bound_holds(bm)
        assert is_hermitian(bm) == is_hermitian(plain)
        if bm.data.shape[0] <= 512:
            for mode in ("sigma", "lambda"):
                assert np.array_equal(spectrum(bm, mode), spectrum(plain, mode))


# ---------------------------------------------------------------------------
# band storage


def _sizes(text):
    """The sizes of a command line, config value or Python list literal."""
    if text.startswith("["):
        return [check_size(n) for n in ast.literal_eval(text)]
    return parse_sizes(text, None)


def documented_runs():
    """(expression, size) for each size at which README.md, scripts/ or the
    benchmark's workloads run a DSL expression."""
    runs = set()
    texts = [(ROOT / "README.md").read_text().replace("\\\n", " ")]
    texts += [path.read_text() for path in sorted((ROOT / "scripts").glob("*.py"))]
    # a command line's --expr, a config file's expr key or the Python API's
    # expression, each with the first sizes before the next expression
    exprs = re.compile(r"""(?:--expr '|^expr = |expr="|parse\(")([^'"\n]+)""", re.M)
    sizes = re.compile(r"""(?:--sizes |--n |sizes ?= ?)'?(\[[^\]]*\]|\d[\d,]*(?: *; *\d[\d,]*)*)""")
    for text in texts:
        found = list(exprs.finditer(text))
        for expr, end in zip(found, [m.start() for m in found[1:]] + [len(text)]):
            size = sizes.search(text, expr.end(), end)
            if size:
                runs.update((expr[1], n) for n in _sizes(size[1]))
    workloads = workloads_module()
    for name in ("readme", "dense", "certify"):
        for op in workloads.workload(name, 42):
            argv = dict(zip(op.argv, op.argv[1:]))
            if "--expr" in argv and ("--sizes" in argv or "--n" in argv):
                size = argv.get("--sizes", argv.get("--n"))
                runs.update((argv["--expr"], n) for n in _sizes(size))
    runs.update((workloads.PRODUCT, (n,)) for n in (256, 512, 1024))  # the glt1 waiver call
    return sorted(runs)


def criterion_02_matrices():
    """The complex r = 2 Hermitian Toeplitz expressions of acceptance
    criterion 02, drawn as it draws them, at its sizes."""
    rng = np.random.default_rng(424242)
    polys = [random_trig_polynomial(rng, d=d, r=r, degree=1, hermitian=True)
             for d, r in ((1, 1), (2, 2), (1, 2))]
    return [(Toeplitz(polys[1]), (45, 45)), (Toeplitz(polys[2]), (1024,))]


BAND_RUNS = ([(parse(text), n) for text, n in documented_runs()]
             + [(parse("D(-x1)*T(2-2*cos(t1))"), (2048,))] + criterion_02_matrices()
             # products of two diagonal factors
             + [(parse(text), (64,)) for text in ("2*D(x1)", "D(x1)*D(x1)", "D(-x1)*(-3)")])


def test_the_documented_runs_are_found():
    runs = documented_runs()
    for run in [("T(2-2*cos(t1))", (64,)), ("T(2-2*cos(t1))", (512,)),  # README, script
                ("D(x1)*T(2-2*cos(t1))", (512,)), ("T(exp(i*t1))", (128,)),  # README
                ("T(4-2*cos(t1)-2*cos(t2))", (48, 48)),  # dense workload
                ("D(x1)*T(2-2*cos(t1))-T(2-2*cos(t1))*D(x1)", (1024,))]:  # certify
        assert run in runs


@pytest.mark.parametrize("e, n", BAND_RUNS)
def test_band_storage_and_the_lazy_array_keep_the_dense_bytes(e, n):
    """Band storage equals the band storage of the dense matrix bit for
    bit, and the dense array built on first access is the dense matrix."""
    from gltlab.gltcalc import _materialize
    from gltlab.spectra import _band_storage, _fits

    bm = materialize(e, n)
    dense = matgen_mod._exact_dtype(_materialize(e, bm.n, bm.r, []))
    banded = bm.band is not None and _fits(max(bm.band), len(dense))
    assert (bm.storage is not None) == (banded and not isinstance(e, (PseudoInverse, FunApply)))
    if bm.storage is not None:
        assert "data" not in vars(bm)
        assert bm.storage.flags.f_contiguous and bm.storage.dtype == dense.dtype
        assert bm.storage.tobytes() == _band_storage(dense, *bm.band).tobytes()
    assert bm.data.dtype == dense.dtype and bm.data.tobytes() == dense.tobytes()


def test_a_negative_diagonal_factor_holds_negative_zeros():
    """The guard's D(-x1) case is one: its dense product holds -0.0 outside
    the band, and the unused corner of the band storage +0.0, as LAPACK's
    band storage of the dense matrix does."""
    bm = materialize(parse("D(-x1)*T(2-2*cos(t1))"), 64)
    assert bm.storage is not None
    assert bm.data[0, 5] == 0.0 and np.signbit(bm.data[0, 5])
    assert bm.storage[0, 0] == 0.0 and not np.signbit(bm.storage[0, 0])  # entry (-1, 0)
