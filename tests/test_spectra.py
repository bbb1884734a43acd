import ctypes
import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    cantoni_butler_blocks,
    errors_for,
    laplacian_eigenvalues,
    midpoint_functional,
    quantile_compare,
    random_reflection,
    random_trig_polynomial,
    schatten_norm,
    splitting_distance,
    symbol_functional,
)

from gltlab.dsl import parse
from gltlab.errors import (
    EvaluationError,
    InvalidParameterError,
    ModeError,
    QuadratureError,
    SolverError,
)
from gltlab.gltcalc import Diag, Product, Scalar, Toeplitz, materialize, symbol_of
from gltlab.matgen import BlockMatrix, as_array, is_hermitian, toeplitz
from gltlab.spectra import (
    TestFunction,
    cosine_bump,
    default_basket,
    distribution_check,
    empirical_functional,
    non_increasing,
    poly_on_window,
    spectrum,
    trending_to_zero,
)
from gltlab.symbols import TrigPolynomial

LAP = TrigPolynomial(1, 1, {(0,): [[2.0]], (1,): [[-1.0]], (-1,): [[-1.0]]})

BLOCK_F = TrigPolynomial(
    1, 2,
    {
        (0,): [[0.0, 1.0], [1.0, 0.0]],
        (1,): [[0.0, 0.0], [1.0, 0.0]],
        (-1,): [[0.0, 1.0], [0.0, 0.0]],
    },
)

PRODUCT_EXPR = parse("D(x1)*T(2-2*cos(t1))")
PRODUCT = symbol_of(PRODUCT_EXPR)

WIDE_X = poly_on_window(1, -100.0, 100.0, "x")
WIDE_X2 = poly_on_window(2, -100.0, 100.0, "x^2")


def test_spectrum_laplacian_closed_form():
    lam = spectrum(toeplitz(LAP, 4), "lambda")
    expect = np.sort(laplacian_eigenvalues(4))
    assert np.allclose(lam, expect, atol=1e-12)
    assert abs(lam[0] - 0.3819660112501051) < 1e-12
    assert abs(lam[-1] - 3.618033988749895) < 1e-12


def test_spectrum_identity_and_diag():
    assert np.allclose(spectrum(np.eye(3), "sigma"), [1, 1, 1])
    assert np.allclose(spectrum(np.diag([3.0, -4.0]), "sigma"), [4, 3])


def test_spectrum_canonical_complex_order():
    a = np.diag([1 + 2j, 1 - 2j, 0.5])
    lam = spectrum(a, "lambda")
    assert np.allclose(lam, [0.5, 1 - 2j, 1 + 2j])


def test_spectrum_sigma_on_a_stack_matches_each_matrix_bit_for_bit():
    rng = np.random.default_rng(11)
    real = rng.standard_normal((7, 12, 12))
    cplx = real + 1j * rng.standard_normal((7, 12, 12))
    # order 64: the tridiagonal matrices take the band route, the last the dense call
    banded = np.concatenate([np.triu(np.tril(rng.standard_normal((3, 64, 64)), 1), -1),
                             rng.standard_normal((1, 64, 64))])
    for stack in (real, cplx, np.zeros((3, 5, 5)), banded, np.zeros((0, 64, 64))):
        values = spectrum(stack, "sigma")
        assert values.shape == stack.shape[:2]
        for row, a in zip(values, stack):
            assert np.array_equal(row, spectrum(a, "sigma"))
    for herm in (real + real.transpose(0, 2, 1), banded + banded.transpose(0, 2, 1)):
        values = spectrum(herm, "sigma", hermitian=True)
        for row, a in zip(values, herm):
            assert np.array_equal(row, spectrum(a, "sigma", hermitian=True))


def test_spectrum_stack_checks_finiteness_and_mode():
    stack = np.zeros((4, 3, 3))
    stack[2, 1, 0] = np.nan
    with pytest.raises(EvaluationError):
        spectrum(stack, "sigma")
    with pytest.raises(InvalidParameterError):
        spectrum(np.zeros((4, 3, 3)), "lambda")


@pytest.mark.parametrize("mode", ["sigma", "lambda"])
@pytest.mark.parametrize("value", [np.ones(40), np.float64(3.0)])
def test_spectrum_rejects_input_of_fewer_than_two_dimensions(value, mode):
    with pytest.raises(InvalidParameterError) as info:
        spectrum(value, mode)
    assert info.value.exit_code == 2


@pytest.mark.parametrize("a", [np.eye(64, dtype=bool), np.full((3, 3), "1"),
                               np.eye(3, dtype=object)], ids=["bool", "str", "object"])
def test_a_matrix_of_non_numbers_is_a_typed_error(a):
    symbol = symbol_of(parse("T(2-2*cos(t1))"))
    calls = [lambda: spectrum(a, "sigma"), lambda: spectrum(a, "lambda"),
             lambda: schatten_norm(a, 2), lambda: splitting_distance(a),
             lambda: distribution_check(lambda n: a, symbol, [3])]
    for call in calls:
        with pytest.raises(InvalidParameterError, match="dtype") as info:
            call()
        assert info.value.exit_code == 2


@pytest.mark.parametrize("dtype", [float, complex])
def test_empty_matrix_has_an_empty_spectrum(dtype):
    empty = np.zeros((0, 0), dtype=dtype)
    for mode in ("sigma", "lambda"):
        for hermitian in (None, True, False):
            assert spectrum(empty, mode, hermitian).size == 0
    assert is_hermitian(empty)
    assert schatten_norm(empty, 1) == schatten_norm(empty, np.inf) == 0.0


@pytest.mark.parametrize("quad_tol", [0.0, -1.0, np.nan])
def test_distribution_check_refuses_a_non_positive_quad_tol_before_any_matrix(quad_tol):
    def seq(n):
        raise AssertionError("a matrix was built")

    symbol = symbol_of(parse("T(2-2*cos(t1))"))
    with pytest.raises(InvalidParameterError, match="quad_tol"):
        distribution_check(seq, symbol, [4, 8], quad_tol=quad_tol)


def test_distribution_check_rejects_a_non_square_matrix():
    symbol = symbol_of(parse("T(2-2*cos(t1))"))
    with pytest.raises(InvalidParameterError) as info:
        distribution_check(lambda n: np.ones((n[0], n[0] + 1)), symbol, [4, 8])
    assert info.value.exit_code == 2


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (0, 3)])
@pytest.mark.parametrize("mode, hermitian", [("lambda", None), ("lambda", True),
                                             ("lambda", False), ("sigma", True)])
def test_eigenvalues_of_a_non_square_matrix_are_refused(shape, mode, hermitian):
    with pytest.raises(InvalidParameterError) as info:
        spectrum(np.ones(shape), mode, hermitian)
    assert info.value.exit_code == 2


@pytest.mark.parametrize("shape", [(3, 5), (5, 3)])
@pytest.mark.parametrize("hermitian", [None, False])
def test_singular_values_of_a_non_square_matrix(shape, hermitian):
    a = np.arange(15.0).reshape(shape) + 1j
    assert np.allclose(spectrum(a, "sigma", hermitian), np.linalg.svd(a, compute_uv=False))


def test_schatten_examples():
    n = 6
    assert abs(schatten_norm(np.eye(n), 3) - n ** (1 / 3)) < 1e-12
    u = np.random.default_rng(0).standard_normal(5)
    u /= np.linalg.norm(u)
    v = np.random.default_rng(1).standard_normal(5)
    v /= np.linalg.norm(v)
    assert abs(schatten_norm(np.outer(u, v), 1.7) - 1.0) < 1e-12
    assert abs(schatten_norm(toeplitz(LAP, 8), 2) - np.sqrt(46.0)) < 1e-12
    assert abs(schatten_norm(np.eye(4), np.inf) - 1.0) < 1e-15


def test_schatten_frobenius_identity():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    assert abs(schatten_norm(a, 2) ** 2 - np.sum(np.abs(a) ** 2)) < 1e-10


def test_schatten_invalid_p():
    from gltlab.acs import zero_distribution_test

    def seq(n):
        raise AssertionError("a matrix was built")

    for p in (0.5, np.nan):
        with pytest.raises(InvalidParameterError, match="p >= 1"):
            zero_distribution_test(seq, p, [4, 8])


@given(
    a=arrays(np.float64, (5, 5), elements=st.floats(-10, 10)),
    b=arrays(np.float64, (5, 5), elements=st.floats(-10, 10)),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0, np.inf]),
)
@settings(max_examples=40, deadline=None)
def test_schatten_triangle_inequality(a, b, p):
    assert schatten_norm(a + b, p) <= schatten_norm(a, p) + schatten_norm(b, p) + 1e-9


def test_empirical_functional_examples():
    lam = spectrum(toeplitz(LAP, 8), "lambda")
    assert abs(empirical_functional(lam, WIDE_X) - 2.0) < 1e-12  # trace identity
    zero_f = TestFunction("zero", lambda x: np.zeros_like(x))
    assert empirical_functional(lam, zero_f) == 0.0
    assert abs(empirical_functional(lam, WIDE_X2) - (6.0 - 2.0 / 8.0)) < 1e-12
    with pytest.raises(InvalidParameterError):
        empirical_functional([], WIDE_X)


def test_trace_identity_random_hermitian():
    rng = np.random.default_rng(12)
    for n in (13, 37, 64):
        poly = random_trig_polynomial(rng, d=1, r=2, degree=2, hermitian=True)
        lam = spectrum(toeplitz(poly, n), "lambda")
        expect = np.trace(poly.coeffs[(0,)]).real / 2.0
        assert abs(empirical_functional(lam, WIDE_X) - expect) < 1e-12


def test_symbol_functional_examples():
    assert abs(symbol_functional(LAP, WIDE_X, "lambda") - 2.0) < 1e-10
    assert abs(symbol_functional(LAP, WIDE_X2, "lambda") - 6.0) < 1e-10
    a = parse("D(x1)").coefficient
    kappa = symbol_of(Product(Diag(a), Toeplitz(LAP)))
    assert abs(symbol_functional(kappa, WIDE_X, "sigma") - 1.0) < 1e-8


def test_sigma_unitary_invariance():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    u = random_reflection(12, rng)
    v = random_reflection(12, rng)
    sv = spectrum(a, "sigma")
    sv2 = spectrum(u @ a @ v, "sigma")
    assert np.abs(sv - sv2).max() < 1e-10


def test_distribution_check_trace_identity_zero_error():
    report = distribution_check(
        lambda n: toeplitz(LAP, n), LAP, [16, 32, 64], mode="lambda",
        basket=[WIDE_X],
    )
    for _, err in errors_for(report, "x"):
        assert err < 1e-12
    assert report.passed


def test_distribution_check_takes_numpy_sizes():
    report = distribution_check(
        lambda n: toeplitz(LAP, n), LAP, 2 ** np.arange(5, 8), mode="lambda",
        basket=[WIDE_X],
    )
    assert [row.n for row in report.rows] == [(32,), (64,), (128,)]
    assert all(type(row.n[0]) is int for row in report.rows)
    assert report.passed


def test_distribution_check_exact_error_law():
    report = distribution_check(
        lambda n: toeplitz(LAP, n), LAP, [64, 128, 256], mode="lambda",
        basket=[WIDE_X2], tolerance=0.05, quad_tol=1e-10,
    )
    for (d_n, err), n in zip(errors_for(report, "x^2"), (64, 128, 256)):
        assert d_n == n
        assert abs(err - 2.0 / n) <= 1e-12
    assert report.passed


def test_distribution_check_lambda_requires_hermitian():
    shift = TrigPolynomial(1, 1, {(1,): [[1.0]]})
    with pytest.raises(ModeError):
        distribution_check(lambda n: toeplitz(shift, n), shift, [8, 16], mode="lambda")
    # the waiver path runs (verdict may be anything sensible)
    distribution_check(
        lambda n: toeplitz(shift, n), shift, [8, 16], mode="sigma",
    )


def test_distribution_check_basket_filter():
    with pytest.raises(InvalidParameterError):
        distribution_check(
            lambda n: toeplitz(LAP, n), LAP, [8, 16], mode="lambda",
            basket_ids=["nope"],
        )
    # the ids also pick from a basket passed in
    basket = [poly_on_window(1, -10, 10, "x"), poly_on_window(2, -10, 10, "x^2")]
    with pytest.raises(InvalidParameterError, match="unknown basket ids"):
        distribution_check(lambda n: toeplitz(LAP, n), LAP, [8, 16], mode="lambda",
                           basket=basket[:1], basket_ids=["nope"])
    report = distribution_check(lambda n: toeplitz(LAP, n), LAP, [8, 16], mode="lambda",
                                basket=basket, basket_ids=["x^2"])
    assert [row.f_id for row in report.rows] == ["x^2", "x^2"]
    assert list(report.metadata["quadrature"]) == ["x^2"]


def test_distribution_report_csv_header():
    report = distribution_check(
        lambda n: toeplitz(LAP, n), LAP, [8, 16], mode="lambda", basket=[WIDE_X],
    )
    lines = report.csv().splitlines()
    assert lines[0] == "n,d_n,mode,F_id,empirical,symbol,abs_error"
    assert len(lines) == 1 + 2


def test_quantile_compare_matched_grid():
    # feeding back the symbol's own grid samples gives deviation zero
    n = 64
    theta = -np.pi + np.arange(1, n + 1) * (2 * np.pi / n)
    values = np.sort(2.0 - 2.0 * np.cos(theta))
    assert quantile_compare(values, LAP, n, outlier_budget=0.0) < 1e-14


def test_quantile_compare_constant_symbol():
    c = symbol_of(Scalar(5.0), d=1, r=1)
    values = np.full(32, 5.0)
    assert quantile_compare(values, c, 32) == 0.0


def test_quantile_compare_converges_for_laplacian():
    lam = spectrum(toeplitz(LAP, 256), "lambda")
    dev = quantile_compare(lam, LAP, 256)
    assert dev < 0.05


def test_quantile_compare_budget_validation():
    with pytest.raises(InvalidParameterError):
        quantile_compare(np.ones(8), LAP, 8, outlier_budget=0.6)


def test_default_basket_structure():
    basket = default_basket(0.0, 4.0)
    ids = [f.id for f in basket]
    assert ids == ["x", "x^2", "x^3", "bump_lo", "bump_hi"]
    bump = basket[3]
    assert bump.evaluate(np.array([100.0]))[0] == 0.0


def test_trend_helpers():
    assert non_increasing([1.0, 0.9, 0.5])
    assert non_increasing([1.0, 1.4], slack=1.5)
    assert not non_increasing([1.0, 1.6], slack=1.5)
    assert trending_to_zero([1.0, 0.5, 0.2])
    assert not trending_to_zero([1.0, 1.0, 1.0])
    assert trending_to_zero([0.0, 0.0])
    assert not trending_to_zero([1.0, 0.2, 0.9])


def test_symbol_functional_quadrature_error(monkeypatch):
    import gltlab.spectra as spectra_mod

    bump = cosine_bump(2.0, 1.0)
    monkeypatch.setattr(spectra_mod, "_MAX_NODES", 32)  # read at each call
    with pytest.raises(QuadratureError, match=r"last delta \d\.\d{3}e[+-]\d+ at g=32"):
        symbol_functional(LAP, bump, "lambda")
    # x-dependent: the Richardson test needs three grids, 8^2 nodes at the least
    monkeypatch.setattr(spectra_mod, "_MAX_NODES", 63)
    with pytest.raises(QuadratureError, match="cannot fit the 3 grids"):
        symbol_functional(PRODUCT, bump, "sigma")
    monkeypatch.setattr(spectra_mod, "_MAX_NODES", 64**2)
    with pytest.raises(QuadratureError, match=r"last delta \d\.\d{3}e[+-]\d+ at g=64"):
        symbol_functional(PRODUCT, cosine_bump(2.0, 1.0), "sigma")


def test_empirical_functional_rejects_non_finite():
    from gltlab.errors import EvaluationError

    with pytest.raises(EvaluationError):
        empirical_functional([1.0, np.inf], WIDE_X)


def test_poly_window_clips():
    f = poly_on_window(2, 0.0, 1.0)
    assert f.evaluate(np.array([2.0]))[0] == 0.0
    assert f.evaluate(np.array([0.5]))[0] == 0.25
    b = cosine_bump(0.0, 1.0)
    assert b.evaluate(np.array([0.0]))[0] == 1.0
    assert b.evaluate(np.array([1.0]))[0] < 1e-15


def test_sigma_hermitian_path_matches_svd():
    rng = np.random.default_rng(21)
    g = rng.standard_normal((40, 40))
    h = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    for a in (g + g.T, h + h.conj().T, toeplitz(LAP, 64).data):
        values = spectrum(a, "sigma", hermitian=True)
        svd = np.linalg.svd(a, compute_uv=False)
        assert values.dtype == np.float64 and np.all(np.diff(values) <= 0)
        assert np.abs(values - svd).max() <= 1e-12 * svd[0]


def test_lambda_non_hermitian_is_complex():
    a = np.triu(np.arange(1.0, 17.0).reshape(4, 4))  # real, eigenvalues 1, 6, 11, 16
    for hermitian in (None, False):
        lam = spectrum(a, "lambda", hermitian=hermitian)
        assert lam.dtype == np.complex128
        assert np.allclose(lam, [1, 6, 11, 16], atol=1e-12)


CENTRO_CASES = (
    [("T(2-2*cos(t1))", n) for n in (1, 2, 3, 7, 8, 255, 256)]
    + [("T(2+cos(t1)+sin(t1))", n) for n in (1, 2, 3, 7, 8, 255, 256)]
    + [("T(4-2*cos(t1)-2*cos(t2))", n) for n in ((1, 1), (2, 3), (3, 3), (8, 8), (15, 17))]
    + [("T(4+cos(t1)+sin(t1+t2)+cos(t2))", n) for n in ((1, 2), (2, 3), (3, 3), (8, 8), (15, 17))]
    + [("T(6-2*cos(t1)-2*cos(t2)-2*cos(t3))", n) for n in ((2, 3, 4), (3, 3, 3), (4, 4, 4))]
    + [("T(6+cos(t1)+sin(t1+t2+t3)-cos(t3))", n) for n in ((2, 3, 4), (3, 3, 3), (4, 4, 4))]
)


@pytest.mark.parametrize("expr, n", CENTRO_CASES)
def test_centro_hermitian_path_matches_the_plain_eigvalsh(expr, n):
    import gltlab.spectra as spectra_mod

    a = materialize(parse(expr), n).data
    assert spectra_mod._is_centro_hermitian(a)
    lam = np.linalg.eigvalsh(a)
    bound = 1e-13 * np.abs(lam).max()
    assert np.abs(spectrum(a, "lambda", hermitian=True) - lam).max() <= bound
    sigma = np.sort(np.abs(lam))[::-1]
    assert np.abs(spectrum(a, "sigma", hermitian=True) - sigma).max() <= bound


@pytest.mark.parametrize("n", [2047, 2048])
def test_centro_laplacian_closed_form_at_large_n(n):
    expect = laplacian_eigenvalues(n)
    lam = spectrum(toeplitz(LAP, n), "lambda")
    assert np.abs(lam - expect).max() <= 1e-12
    sigma = spectrum(toeplitz(LAP, n), "sigma", hermitian=True)
    assert np.abs(sigma - expect[::-1]).max() <= 1e-12


def _nudged(a):
    """``a`` moved by one ulp in the Hermitian pair (2, 3), (3, 2): still
    Hermitian, no longer centro-Hermitian, and rows 0 and N-1 are untouched."""
    b = a.copy()
    b.real[2, 3] = np.nextafter(b.real[2, 3], np.inf)
    b[3, 2] = np.conj(b[2, 3])
    return b


@pytest.mark.parametrize("expr, n", CENTRO_CASES + [
    # large enough for the 2- and 3-level bounds to pass the cost rule
    ("T(4+cos(t1)+sin(t1+t2)+cos(t2))", (40, 41)),
    ("T(6+cos(t1)+sin(t1+t2+t3)-cos(t3))", (20, 6, 7)),
])
def test_centro_hermitian_test_within_the_band_bound_matches_the_strips(expr, n):
    import gltlab.spectra as spectra_mod

    bm = materialize(parse(expr), n)
    for a in [bm.data] + ([_nudged(bm.data)] if bm.data.shape[0] > 3 else []):
        nonzeros = spectra_mod._band_nonzeros(a, max(bm.band))
        assert spectra_mod._is_centro_hermitian(a, nonzeros) == spectra_mod._is_centro_hermitian(a)


def test_centro_hermitian_path_and_its_gate(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: calls.append((a.shape[0], a.dtype)) or eigvalsh(a))
    real = parse("T(2-2*cos(t1))")
    cplx = parse("T(2+cos(t1)+sin(t1))")
    block = TrigPolynomial(1, 2, {(0,): [[2.0, 1.0], [1.0, 3.0]], (1,): [[-1.0, 0.0], [0.0, -1.0]],
                                  (-1,): [[-1.0, 0.0], [0.0, -1.0]]})
    product = materialize(PRODUCT_EXPR, 8).data
    f8 = np.dtype(np.float64)
    cases = [
        (materialize(real, 8).data, [(4, f8), (4, f8)]),
        (materialize(real, 7).data, [(4, f8), (3, f8)]),
        (materialize(parse("T(4-2*cos(t1)-2*cos(t2))"), (3, 3)).data, [(5, f8), (4, f8)]),
        (materialize(cplx, 8).data, [(8, f8)]),
        (materialize(cplx, 7).data, [(7, f8)]),
    ]
    falls_through = [_nudged(materialize(real, 8).data), _nudged(materialize(cplx, 8).data),
                     toeplitz(block, 4).data, (product + product.T) / 2]
    assert falls_through[1].dtype == np.complex128
    cases += [(a, [(a.shape[0], a.dtype)]) for a in falls_through]
    for a, expect in cases:
        for mode in ("lambda", "sigma"):
            calls.clear()
            spectrum(a, mode, hermitian=True)
            assert calls == expect


def test_centro_structure_test_rejects_on_row_zero(monkeypatch):
    import gltlab.matgen as matgen_mod
    import gltlab.spectra as spectra_mod

    product = materialize(PRODUCT_EXPR, 64).data
    shapes = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal",
                        lambda a, b: shapes.append(np.shape(a)) or array_equal(a, b))
    assert not spectra_mod._is_centro_hermitian((product + product.T) / 2)
    assert shapes == [(1, 64)]
    shapes.clear()
    assert spectra_mod._is_centro_hermitian(toeplitz(LAP, 2048).data)
    assert shapes[0] == (1, 2048) and max(np.prod(s) for s in shapes) <= matgen_mod._STRIP
    assert sum(s[0] for s in shapes) == 1024


@pytest.mark.parametrize("expr", ["T(2-2*cos(t1))", "T(2+cos(t1)+sin(t1))"])
def test_centro_hermitian_solver_error_fingerprints_the_original(expr, monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("no convergence")

    a = materialize(parse(expr), 9).data
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(SolverError) as info:
        spectrum(a, "lambda", hermitian=True)
    assert f"shape=(9, 9), fro={np.linalg.norm(a):.6e}" in str(info.value)


def test_distribution_check_decides_hermitian_once_per_size(monkeypatch):
    import gltlab.spectra as spectra_mod

    calls = []
    decide = spectra_mod.is_hermitian
    monkeypatch.setattr(spectra_mod, "is_hermitian",
                        lambda a: calls.append(as_array(a).shape[0]) or decide(a))
    for mode in ("sigma", "lambda"):
        calls.clear()
        distribution_check(lambda n: toeplitz(LAP, n), LAP, [16, 32, 64], mode=mode,
                           basket=[WIDE_X])
        assert calls == [16, 32, 64]


def test_distribution_check_refuses_a_non_finite_matrix_before_the_hermitian_test(monkeypatch):
    import gltlab.spectra as spectra_mod

    # NaN outside the band bound, where is_hermitian no longer reads
    bad = materialize(Toeplitz(LAP), 16)
    bad.data[0, 15] = np.nan
    monkeypatch.setattr(spectra_mod, "is_hermitian", lambda a: pytest.fail("decided"))
    for mode in ("sigma", "lambda"):
        with pytest.raises(EvaluationError, match="non-finite"):
            distribution_check(lambda n: bad, LAP, [16], mode=mode, basket=[WIDE_X])


def test_richardson_in_x_reaches_the_closed_forms():
    # sigma surface |x (2 - 2 cos t)|: int x^2 * mean (2-2cos)^2 = 6/3, int x * 2 = 1
    report = distribution_check(lambda n: materialize(PRODUCT_EXPR, n), PRODUCT, [16, 32],
                                mode="sigma", basket=[WIDE_X, WIDE_X2])
    symbol = {row.f_id: row.symbol for row in report.rows}
    assert abs(symbol["x^2"] - 2.0) <= 1e-9
    assert abs(symbol["x"] - 1.0) <= 1e-9
    quad = report.metadata["quadrature"]
    assert set(quad) == {"x", "x^2"}
    for entry in quad.values():
        assert entry["g"] <= 256 and entry["nodes"] == entry["g"] ** 2
        assert entry["last_delta"] < report.metadata["quad_tol"]


TWO_LEVEL = TrigPolynomial(2, 1, {(0, 0): [[4.0]], (1, 0): [[-1.0]], (-1, 0): [[-1.0]],
                                  (0, 1): [[-1.0]], (0, -1): [[-1.0]]})


@pytest.mark.parametrize("symbol, mode, hull", [
    (LAP, "lambda", (0.0, 4.0)),
    (LAP, "sigma", (0.0, 4.0)),
    (BLOCK_F, "sigma", (0.0, 2.0)),
    (TWO_LEVEL, "lambda", (0.0, 8.0)),
])
def test_frequency_only_quadrature_matches_the_midpoint_oracle_bit_for_bit(symbol, mode, hull):
    basket = default_basket(*hull) + [poly_on_window(2, -100.0, 100.0, "wide x^2")]
    for f in basket:
        assert symbol_functional(symbol, f, mode) == midpoint_functional(symbol, f, mode, tol=1e-7)
    sizes = [(4,) * symbol.d, (8,) * symbol.d]
    report = distribution_check(lambda n: toeplitz(symbol, n), symbol, sizes, mode=mode,
                                basket=basket, quad_tol=1e-7)
    for row in report.rows:
        f = next(f for f in basket if f.id == row.f_id)
        assert row.symbol == midpoint_functional(symbol, f, mode, tol=1e-7)


@pytest.mark.parametrize("expr, mode", [("D(x1)*T(2-2*cos(t1))", "sigma"),
                                        ("T(2-2*cos(t1))", "lambda")])
def test_distribution_check_evaluates_each_grid_once(expr, mode, monkeypatch):
    import gltlab.spectra as spectra_mod

    e = parse(expr)
    symbol = symbol_of(e)
    nodes = []
    surfaces = spectra_mod.spectral_surfaces

    def counted(s, x, theta, mode):
        nodes.append(len(x))
        return surfaces(s, x, theta, mode)

    monkeypatch.setattr(spectra_mod, "spectral_surfaces", counted)
    report = distribution_check(lambda n: materialize(e, n), symbol, [16, 32, 64], mode=mode)
    finest = max(entry["g"] for entry in report.metadata["quadrature"].values())
    grids = [g for g in (64, 128, 256, 512, 1024, 2048) if g <= finest]
    probe = nodes[0]
    assert nodes == [probe] + [spectra_mod._node_count(symbol, g) for g in grids]
    assert len(report.metadata["quadrature"]) == 5


BAND_SOLVERS = {"svd": "_band_singular_values", "eigvalsh": "_band_eigenvalues"}


def _recorded(monkeypatch, name):
    """Shapes of the matrices passed to np.linalg.<name> from now on, or to
    the band route that stands in for it."""
    import gltlab.spectra as spectra_mod

    shapes = []
    solve = getattr(np.linalg, name)
    monkeypatch.setattr(np.linalg, name, lambda a, **kw: shapes.append(a.shape) or solve(a, **kw))
    if name in BAND_SOLVERS:
        band = getattr(spectra_mod, BAND_SOLVERS[name])

        def spy(lapack, a, *widths):  # _band_eigenvalues takes the band storage
            shapes.append(a.shape if widths else (a.shape[1],) * 2)
            return band(lapack, a, *widths)

        monkeypatch.setattr(spectra_mod, BAND_SOLVERS[name], spy)
    return shapes


@pytest.mark.parametrize("expr, n", [
    ("T(exp(i*t1))", 255),
    ("T(exp(i*t1))", 256),
    ("D(x1)*T(2-2*cos(t1))-T(2-2*cos(t1))*D(x1)", 256),
])
def test_skew_centro_path_matches_the_full_svd(expr, n, monkeypatch):
    a = materialize(parse(expr), n).data
    if expr.startswith("T"):
        a = (a - a.T) / 2  # the skew part of the shift
    full = np.linalg.svd(a, compute_uv=False)
    shapes = _recorded(monkeypatch, "svd")
    values = spectrum(a, "sigma")
    assert shapes == [(n // 2, n // 2 + n % 2)]
    assert values.dtype == np.float64 and values.shape == (n,)
    assert np.all(np.diff(values) <= 0) and (n % 2 == 0 or values[-1] == 0.0)
    assert np.abs(values - full).max() <= 1e-13 * full[0]


def test_skew_matrices_without_the_structure_keep_the_plain_svd():
    rng = np.random.default_rng(12)
    g = rng.standard_normal((40, 40))
    h = g + 1j * rng.standard_normal((40, 40))
    shift = materialize(parse("T(exp(i*t1))"), 16).data
    skew_centro = (shift - shift.T) / 2
    for a in (g - g.T, h - h.conj().T, np.stack([skew_centro, 2.0 * skew_centro])):
        assert np.array_equal(spectrum(a, "sigma"), np.linalg.svd(a, compute_uv=False))


def test_lambda_similarity_path_on_the_product(monkeypatch):
    m = materialize(PRODUCT_EXPR, 256)
    assert m.symmetrizer is not None
    reference = np.sort(np.linalg.eigvals(m.data))
    shapes = _recorded(monkeypatch, "eigvals")
    values = spectrum(m, "lambda", hermitian=False)
    assert shapes == []
    assert values.dtype == np.complex128 and np.all(values.imag == 0.0)
    assert np.abs(values - reference).max() <= 1e-12 * np.linalg.norm(m.data, 2)


@pytest.mark.parametrize("case", ["D(x1-0.5)*T(2-2*cos(t1))", "D(x1)*T(exp(i*t1))", "bogus w"])
def test_lambda_similarity_falls_back_to_eigvals(case):
    if case == "bogus w":
        a = materialize(PRODUCT_EXPR, 64).data
        w = np.random.default_rng(3).uniform(0.5, 1.5, 64)
        m = BlockMatrix(a, 1, 64, symmetrizer=w)
    else:
        m = materialize(parse(case), 64)
        # a zero sample gets no symmetrizer; a non-Hermitian H gets one that fails
        assert (m.symmetrizer is None) == case.startswith("D(x1-0.5)")
    values = spectrum(m, "lambda", hermitian=False)
    assert np.array_equal(values, np.sort(np.linalg.eigvals(m.data).astype(complex)))


def _banded(rng, m, n, kl, ku, complex_=False):
    """A random real (or complex) m x n matrix with exactly kl subdiagonals
    and ku superdiagonals."""
    i, j = np.indices((m, n))
    a = rng.standard_normal((m, n)) + (1j * rng.standard_normal((m, n)) if complex_ else 0.0)
    return np.where((i - j <= kl) & (j - i <= ku), a, 0.0)


def _hermitian_band(rng, n, kd, complex_=False):
    """A random Hermitian n x n matrix with lower bandwidth exactly kd."""
    lower = np.tril(_banded(rng, n, n, kd, 0, complex_), -1)
    return lower + lower.conj().T + np.diag(rng.standard_normal(n))


def _band_calls(monkeypatch):
    """The names of the LAPACKE routines the band route calls from now on."""
    import gltlab.spectra as spectra_mod

    lapack, calls = spectra_mod._band_lapack(), []
    monkeypatch.setattr(spectra_mod, "_band_lapack", lambda: {
        name: lambda *args, name=name: calls.append(name) or lapack[name](*args)
        for name in lapack})
    return calls


def _band_only(monkeypatch):
    """Make the dense solvers fail, so that only the band route can answer."""
    def dense(a, **kw):
        raise AssertionError(f"dense solver called on shape {a.shape}")

    for name in ("svd", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, dense)


@pytest.mark.parametrize("n, kl, ku", [(64, 0, 3), (64, 3, 0), (96, 1, 4), (200, 5, 2),
                                       (32, 0, 0), (1024, 16, 15),
                                       (80, 2, 2)])  # (kl + ku + 1) * 16 == N: at the rule
def test_band_route_singular_values_match_the_svd(n, kl, ku, monkeypatch):
    a = _banded(np.random.default_rng(n + 7 * kl + ku), n, n, kl, ku)
    full = np.linalg.svd(a, compute_uv=False)
    _band_only(monkeypatch)
    values = spectrum(a, "sigma")
    assert values.dtype == np.float64 and np.all(np.diff(values) <= 0)
    assert np.abs(values - full).max() <= 1e-13 * full[0]


@pytest.mark.parametrize("n, kd", [(48, 1), (96, 2), (500, 7),  # each side of both two-stage cuts:
                                   (512, 31), (528, 32), (1472, 91), (1488, 92)])
def test_band_route_eigenvalues_match_eigvalsh(n, kd, monkeypatch):
    a = _banded(np.random.default_rng(n), n, n, kd, kd)
    a = np.tril(a) + np.tril(a, -1).T
    lam = np.linalg.eigvalsh(a)
    bound = 1e-13 * np.abs(lam).max()
    _band_only(monkeypatch)
    calls = _band_calls(monkeypatch)
    assert np.abs(spectrum(a, "lambda", hermitian=True) - lam).max() <= bound
    sigma = np.sort(np.abs(lam))[::-1]
    assert np.abs(spectrum(a, "sigma", hermitian=True) - sigma).max() <= bound
    assert calls == 2 * ["dsbevd_2stage" if 32 <= kd < 92 else "dsbevd"]


@pytest.mark.parametrize("n, kd", [(48, 1), (96, 3), (320, 15), (320, 16)])
def test_complex_band_route_eigenvalues_match_eigvalsh(n, kd, monkeypatch):
    """zhbevd of the lower band, in its two-stage form from kd = 16 on."""
    a = _hermitian_band(np.random.default_rng(n + kd), n, kd, complex_=True)
    lam = np.linalg.eigvalsh(a)
    _band_only(monkeypatch)
    calls = _band_calls(monkeypatch)
    values = spectrum(a, "lambda", hermitian=True)
    assert values.dtype == np.float64
    assert np.abs(values - lam).max() <= 1e-13 * np.abs(lam).max()
    assert calls == ["zhbevd_2stage" if kd >= 16 else "zhbevd"]


@pytest.mark.parametrize("m, n, kl, ku", [(64, 64, 0, 3), (200, 200, 5, 2), (80, 80, 2, 2),
                                          (96, 128, 1, 2)])
def test_complex_band_route_singular_values_match_the_svd(m, n, kl, ku, monkeypatch):
    a = _banded(np.random.default_rng(m + 7 * kl + ku), m, n, kl, ku, complex_=True)
    full = np.linalg.svd(a, compute_uv=False)
    _band_only(monkeypatch)
    calls = _band_calls(monkeypatch)
    values = spectrum(a, "sigma")
    assert values.dtype == np.float64 and np.all(np.diff(values) <= 0)
    assert np.abs(values - full).max() <= 1e-13 * full[0]
    assert calls == ["zgbbrd", "dbdsqr"]


def test_complex_centro_hermitian_band_matrix_takes_zhbevd_whole(monkeypatch):
    """A banded complex centro-Hermitian matrix skips Lee's real block, which
    is dense."""
    import gltlab.spectra as spectra_mod

    a = materialize(parse("T(2-2*cos(t1)+sin(t1))"), 256).data
    assert np.iscomplexobj(a) and spectra_mod._is_centro_hermitian(a)
    assert spectra_mod._bandwidths(spectra_mod._lee_block(a), lower=True) is None
    lam = np.linalg.eigvalsh(a)
    _band_only(monkeypatch)
    calls = _band_calls(monkeypatch)
    assert np.abs(spectrum(a, "lambda", hermitian=True) - lam).max() <= 1e-13 * np.abs(lam).max()
    assert calls == ["zhbevd"]


def _eigen_band_inputs(monkeypatch):
    """(routine, order, kd, band storage bytes) of each real LAPACKE
    eigenvalue call from now on, the storage read before the call
    overwrites it."""
    import gltlab.spectra as spectra_mod

    lapack, calls = spectra_mod._band_lapack(), []

    def spy(name):
        def call(layout, jobz, uplo, n, kd, ab, ldab, *rest):
            calls.append((name, n, kd, ctypes.string_at(ab, 8 * ldab * n)))
            return lapack[name](layout, jobz, uplo, n, kd, ab, ldab, *rest)
        return call

    monkeypatch.setattr(spectra_mod, "_band_lapack", lambda: {
        name: spy(name) if name.startswith("dsbevd") else lapack[name] for name in lapack})
    return calls


CANCELLED = "T(2-2*cos(t1)+cos(2*t1))-T(cos(2*t1))"  # band bound K = 2, exact kd = 1
CENTRO_BAND_CASES = (  # blocks that pass the rule for K: none, P's only, or both
    [("T(2-2*cos(t1))", n) for n in (62, 63, 64, 65, 2047, 2048)]  # floor and rule at 32
    + [("T(4-2*cos(t1)-2*cos(t2))", n)  # K = n2
       for n in ((39, 4), (40, 4), (33, 5), (39, 5), (33, 31), (48, 48))]
    + [("T(6-2*cos(t1)-2*cos(t2)-2*cos(t3))", n) for n in ((20, 3, 3), (40, 3, 3), (41, 3, 3))]
    + [(CANCELLED, n) for n in (64, 95, 96, 97)]
)


@pytest.mark.parametrize("expr, n", CENTRO_BAND_CASES)
def test_real_centro_blocks_are_built_in_band_storage(expr, n, monkeypatch):
    """A real reflection block whose order passes the Hermitian band rule for
    its kd bound is written straight into band storage, bit for bit the
    storage of the dense block at its exact kd, and LAPACK gets the same
    routine, kd and bytes as without the bound.  Only the blocks that fail
    the rule are built dense."""
    import gltlab.spectra as spectra_mod

    bm = materialize(parse(expr), n)
    plain = dataclasses.replace(bm)  # the same matrix with no bound
    sizes = bm.n  # every case commutes with each level's reversal
    assert all(spectra_mod._is_centro_hermitian(bm.data, None, sizes, (l,)) for l in range(len(sizes)))
    spans = spectra_mod._fold_spans(sizes, spectra_mod._band_nonzeros(bm.data, max(bm.band)))
    build, failing = spectra_mod._reflection_block, 0
    for signs in itertools.product((1, -1), repeat=len(sizes)):
        half = [(m + (s > 0)) // 2 for m, s in zip(sizes, signs)]
        order = math.prod(half)
        bound = sum(int(span) * math.prod(half[l + 1:]) for l, span in enumerate(spans))
        block = build(bm.data, sizes, signs)
        rows, cols = np.nonzero(np.tril(block))
        kd = int((rows - cols).max(initial=0))
        assert kd <= bound  # the bound holds
        cost = spectra_mod._BAND_COST  # the bound is read where K passes the rule for A
        if (max(bm.band) + 1) * cost <= bm.data.shape[0] and order >= spectra_mod._BAND_FLOOR \
                and (bound + 1) * cost <= order:
            ab = build(bm.data, sizes, signs, bound)
            assert ab.flags.f_contiguous and ab.shape == (kd + 1, order)
            assert ab.tobytes("F") == spectra_mod._band_storage(block, kd, 0).tobytes("F")
        else:
            failing += 1
    dense_blocks = []
    monkeypatch.setattr(spectra_mod, "_reflection_block", lambda a, sizes, signs, kd=None: (
        kd is None and dense_blocks.append(signs)) or build(a, sizes, signs, kd))
    calls = _eigen_band_inputs(monkeypatch)
    for mode in ("lambda", "sigma"):
        values = spectrum(bm, mode, hermitian=True)
        assert len(dense_blocks) == failing
        bounded = calls.copy()
        calls.clear()
        assert np.array_equal(values, spectrum(plain, mode, hermitian=True))
        assert [call[:3] for call in bounded] == [call[:3] for call in calls]
        assert bounded == calls
        calls.clear()
        dense_blocks.clear()
    assert np.array_equal(spectrum(bm, "lambda"), spectrum(plain, "lambda"))


def _block_count(monkeypatch) -> list:
    """The sign pattern of each reflection block built from now on."""
    import gltlab.spectra as spectra_mod

    build, signs = spectra_mod._reflection_block, []
    monkeypatch.setattr(spectra_mod, "_reflection_block", lambda a, sizes, s, kd=None: (
        signs.append(s) or build(a, sizes, s, kd)))
    return signs


@pytest.mark.parametrize("n", [(9, 10, 11), (12, 12, 12)])
def test_3_level_laplacian_splits_into_8_blocks_and_meets_its_closed_form(n, monkeypatch):
    bm = materialize(parse("T(6-2*cos(t1)-2*cos(t2)-2*cos(t3))"), n)
    grids = np.meshgrid(*(laplacian_eigenvalues(m) for m in n), indexing="ij")
    expect = np.sort(sum(grids).ravel())
    blocks = _block_count(monkeypatch)
    for matrix in (bm, dataclasses.replace(bm)):
        blocks.clear()
        assert np.abs(spectrum(matrix, "lambda") - expect).max() <= 1e-9
        assert len(blocks) == 8


def test_a_symbol_even_only_jointly_keeps_the_two_centro_blocks(monkeypatch):
    """cos(t1 + t2) is even in (t1, t2) but not in t1 alone: the matrix
    commutes with J, not with J_1 or J_2."""
    import gltlab.spectra as spectra_mod

    bm = materialize(parse("T(4-2*cos(t1)-2*cos(t2)+0.5*cos(t1+t2))"), (20, 21))
    nonzeros = spectra_mod._band_nonzeros(bm.data, max(bm.band))
    assert not any(spectra_mod._is_centro_hermitian(bm.data, nonzeros, bm.n, (l,)) for l in (0, 1))
    assert spectra_mod._is_centro_hermitian(bm.data, nonzeros)
    lam = np.linalg.eigvalsh(bm.data)
    blocks = _block_count(monkeypatch)
    assert np.abs(spectrum(bm, "lambda") - lam).max() <= 1e-13 * np.abs(lam).max()
    assert blocks == [(1,), (-1,)]


@pytest.mark.parametrize("expr, n", [("T(2-2*cos(t1))", n) for n in (7, 8, 63, 64, 65, 255, 256)]
                         + [(CANCELLED, n) for n in (95, 96)]
                         + [("T(1+cos(t1)+cos(9*t1))", n) for n in (64, 65, 300, 301)]
                         + [("T(2-2*cos(t1))*T(2-2*cos(t1))", n) for n in (64, 65)])
def test_1_level_spectra_are_the_cantoni_butler_bits(expr, n):
    """Every 1-level real centro-symmetric matrix, odd or even N, within its
    band bound or not, keeps the bits of the two Cantoni-Butler blocks."""
    import gltlab.spectra as spectra_mod

    bm = materialize(parse(expr), n)
    blocks = cantoni_butler_blocks(bm.data)
    lam = np.sort(np.concatenate([spectra_mod._values(b, True) for b in blocks]))
    for matrix in (bm, dataclasses.replace(bm), bm.data):
        assert np.array_equal(spectrum(matrix, "lambda", hermitian=True), lam)
        assert np.array_equal(spectrum(matrix, "sigma", hermitian=True), np.sort(np.abs(lam))[::-1])


@pytest.mark.parametrize("n", [63, 65, 255])
def test_an_odd_middle_row_is_read_from_its_column(n):
    """A real centro-symmetric matrix that is symmetric only within the
    Hermitian tolerance: the even block's middle row is √2 A[:m, m], read
    from column m as in Cantoni and Butler, in band storage and dense."""
    import gltlab.spectra as spectra_mod

    bm, m = materialize(parse("T(2-2*cos(t1))"), n), n // 2
    bm.data[m, m - 1] = bm.data[m, m + 1] = np.nextafter(-1.0, 0.0)  # a centro pair
    assert spectra_mod._is_centro_hermitian(bm.data) and is_hermitian(bm)
    blocks = cantoni_butler_blocks(bm.data)
    lam = np.sort(np.concatenate([spectra_mod._values(b, True) for b in blocks]))
    assert not np.array_equal(lam, spectrum(bm.data.T, "lambda", hermitian=True))
    for matrix in (bm, dataclasses.replace(bm), bm.data):
        assert np.array_equal(spectrum(matrix, "lambda", hermitian=True), lam)


@pytest.mark.parametrize("expr, n", [("T(4-2*cos(t1)-2*cos(t2))", (48, 48)),
                                     ("T(2+cos(t1+t2))", (40, 40)), ("T(2-2*cos(t1))", 2048)])
def test_a_spectrum_reads_the_in_band_nonzeros_once(expr, n, monkeypatch):
    """The structure tests and the blocks' kd bounds share one read."""
    import gltlab.spectra as spectra_mod

    bm, read, reads = materialize(parse(expr), n), spectra_mod._band_nonzeros, []
    monkeypatch.setattr(spectra_mod, "_band_nonzeros", lambda a, k: reads.append(k) or read(a, k))
    for mode, hermitian in (("lambda", None), ("sigma", True)):
        reads.clear()
        spectrum(bm, mode, hermitian)
        assert reads == [max(bm.band)]


def _traced_peak(run) -> int:
    """The peak of the memory that tracemalloc traces while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_banded_centro_spectrum_builds_no_dense_block():
    import gltlab.spectra as spectra_mod

    if spectra_mod._band_lapack() is None:
        pytest.skip("the band routines are not bound")
    bm = materialize(parse("T(2-2*cos(t1))"), 2048)
    peak = _traced_peak(lambda: spectrum(bm, "lambda", hermitian=True))
    assert peak < bm.data.nbytes / 8


def test_the_2_level_distribution_check_holds_one_matrix_and_no_block():
    import gltlab.spectra as spectra_mod

    if spectra_mod._band_lapack() is None:
        pytest.skip("the band routines are not bound")
    e = parse("T(4-2*cos(t1)-2*cos(t2))")
    peak = _traced_peak(lambda: distribution_check(
        lambda n: materialize(e, n), symbol_of(e), [(12, 12), (24, 24), (48, 48)], mode="lambda"))
    assert peak < 1.25 * 2304**2 * 8  # the (48,48) matrix's nbytes


MATRIX_FREE_RUNS = {  # run, the order N of its largest matrix
    "distribution-2048": (lambda: distribution_check(
        lambda n: materialize(parse("T(2-2*cos(t1))"), n), symbol_of(parse("T(2-2*cos(t1))")),
        [256, 512, 1024, 2048], mode="sigma"), 2048),
    # One test function: the default basket's quadrature alone traces 10.1 MB
    # here, within 5 % of this run's bound, 10.6 MB.
    "laplacian-2-level": (lambda: distribution_check(
        lambda n: materialize(parse("T(4-2*cos(t1)-2*cos(t2))"), n),
        symbol_of(parse("T(4-2*cos(t1)-2*cos(t2))")), [(12, 12), (24, 24), (48, 48)],
        mode="lambda", basket=[poly_on_window(1, 0.0, 8.0, "x")]), 2304),
    "product-sigma-2048": (lambda: spectrum(materialize(parse("D(x1)*T(2-2*cos(t1))"), 2048),
                                            "sigma"), 2048),
}


@pytest.mark.parametrize("run, order", MATRIX_FREE_RUNS.values(), ids=MATRIX_FREE_RUNS)
def test_a_banded_run_holds_no_dense_matrix(run, order):
    """Band storage, read in O(N k), leaves no N x N array: each run's
    traced peak stays below a quarter of one float64 matrix of its largest
    order."""
    import gltlab.spectra as spectra_mod

    if spectra_mod._band_lapack() is None:
        pytest.skip("the band routines are not bound")
    assert _traced_peak(run) < order**2 * 8 / 4


def test_band_route_takes_the_odd_skew_block(monkeypatch):
    import gltlab.spectra as spectra_mod

    a = materialize(parse("T(exp(i*t1))"), 255).data
    a = (a - a.T) / 2
    full = np.linalg.svd(a, compute_uv=False)
    block = spectra_mod._reflection_block(a, (255,), (1,))[:127]
    assert block.shape == (127, 128) and spectra_mod._bandwidths(block) == (1, 1)
    # Cantoni and Butler's C = A[:m, :m] + A[:m, N-m:] J with the column √2 A[:m, m]
    c = np.hstack([a[:127, :127] + a[:127, 128:][:, ::-1], np.sqrt(2.0) * a[:127, 127:128]])
    assert np.array_equal(block, c)
    _band_only(monkeypatch)
    values = spectrum(a, "sigma")
    assert values[-1] == 0.0 and np.abs(values - full).max() <= 1e-13 * full[0]


def test_band_route_rule_boundary_and_far_entry(monkeypatch):
    """Just outside the rule, or with one far entry, a banded matrix takes
    the dense call."""
    import gltlab.spectra as spectra_mod

    rng = np.random.default_rng(5)
    n = 5 * spectra_mod._BAND_COST  # kl = ku = 2 is exactly at the rule at order n
    outside = _banded(rng, n - 1, n - 1, 2, 2)
    far = _banded(rng, 128, 128, 1, 1)
    far[-1, 0] = 1.0
    assert spectra_mod._bandwidths(_banded(rng, n, n, 2, 2)) == (2, 2)
    expected = [np.linalg.svd(a, compute_uv=False) for a in (outside, far)]
    shapes = _recorded(monkeypatch, "svd")
    monkeypatch.setattr(spectra_mod, "_band_singular_values",
                        lambda *args: pytest.fail("band route taken"))
    for a, values in zip((outside, far), expected):
        assert np.array_equal(spectrum(a, "sigma"), values)
    assert shapes == [outside.shape, far.shape]


def test_band_route_hermitian_rule_boundary(monkeypatch):
    """A Hermitian matrix is admitted by its lower band alone, (kd + 1) * 16
    <= N, and takes the dense call one order below."""
    import gltlab.spectra as spectra_mod

    rng = np.random.default_rng(6)
    n = 5 * spectra_mod._BAND_COST  # kd = 4 is exactly at the rule at order n
    for complex_ in (False, True):
        at, outside = (_hermitian_band(rng, k, 4, complex_) for k in (n, n - 1))
        assert spectra_mod._bandwidths(at, lower=True) == (4, 0)
        assert spectra_mod._bandwidths(at) is None  # (kl + ku + 1) * 16 > N
        assert spectra_mod._bandwidths(outside, lower=True) is None
        lam, expected = np.linalg.eigvalsh(at), np.linalg.eigvalsh(outside)
        with monkeypatch.context() as m:
            _band_only(m)
            values = spectrum(at, "lambda", hermitian=True)
        assert np.abs(values - lam).max() <= 1e-13 * np.abs(lam).max()
        with monkeypatch.context() as m:
            m.setattr(spectra_mod, "_band_eigenvalues",
                      lambda *args: pytest.fail("band route taken"))
            assert np.array_equal(spectrum(outside, "lambda", hermitian=True), expected)


def test_complex_stack_is_routed_matrix_by_matrix():
    rng = np.random.default_rng(8)
    general = np.stack([_banded(rng, 64, 64, 1, 2, complex_=True),
                        rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))])
    hermitian = np.stack([_hermitian_band(rng, 64, 3, complex_=True),
                          general[1] + general[1].conj().T])
    for stack, flag in ((general, None), (hermitian, True)):
        values = spectrum(stack, "sigma", hermitian=flag)
        for row, a in zip(values, stack):
            assert np.array_equal(row, spectrum(a, "sigma", hermitian=flag))


@pytest.mark.parametrize("n, kd", [(96, 2), (320, 16)])
def test_complex_band_route_reads_the_lower_triangle(n, kd, monkeypatch):
    """Noise in the upper triangle and in the imaginary part of the diagonal
    is ignored, as ``eigvalsh`` ignores it."""
    rng = np.random.default_rng(n)
    lower = _hermitian_band(rng, n, kd, complex_=True)
    a = lower.copy()
    a[np.triu_indices(n, 1)] *= 1.0 + 1e-13
    a[np.diag_indices(n)] += 1e-13j * rng.standard_normal(n)
    assert is_hermitian(a) and not np.array_equal(a, a.conj().T)
    lam = np.linalg.eigvalsh(a)
    _band_only(monkeypatch)
    values = spectrum(a, "lambda", hermitian=True)
    assert np.array_equal(values, spectrum(lower, "lambda", hermitian=True))
    assert np.abs(values - lam).max() <= 1e-13 * np.abs(lam).max()


def test_band_route_reads_the_lower_triangle(monkeypatch):
    a = _banded(np.random.default_rng(9), 96, 96, 2, 2)
    a = np.tril(a) + np.tril(a, -1).T
    a[np.triu_indices(96, 1)] *= 1.0 + 1e-13  # within 1e-13 of symmetric
    assert is_hermitian(a) and not np.array_equal(a, a.T)
    lower = np.tril(a) + np.tril(a, -1).T
    upper = np.triu(a) + np.triu(a, 1).T
    lam = np.linalg.eigvalsh(a)
    _band_only(monkeypatch)
    values = spectrum(a, "lambda", hermitian=True)
    assert np.array_equal(values, spectrum(lower, "lambda", hermitian=True))
    assert not np.array_equal(values, spectrum(upper, "lambda", hermitian=True))
    assert np.abs(values - lam).max() <= 1e-13 * np.abs(lam).max()


@pytest.mark.parametrize("mode, hermitian", [("sigma", None), ("lambda", True)])
def test_band_route_failures(mode, hermitian, monkeypatch):
    import gltlab.spectra as spectra_mod

    real = toeplitz(LAP, 128).data  # its centro blocks, of order 64, are tridiagonal
    # a complex Hermitian tridiagonal matrix, which zhbevd and zgbbrd take whole
    complex_ = real + 1j * (np.eye(128, k=1) - np.eye(128, k=-1))
    for a in (real, complex_):
        monkeypatch.setattr(spectra_mod, "_band_lapack",
                            lambda: {name: lambda *args: 2 for name in spectra_mod._LAPACKE_ARGS})
        with pytest.raises(SolverError, match="did not converge") as info:
            spectrum(a, mode, hermitian=hermitian)
        assert f"shape=(128, 128), fro={np.linalg.norm(a):.6e}" in str(info.value)
        monkeypatch.setattr(spectra_mod, "_band_lapack",
                            lambda: {name: lambda *args: -3 for name in spectra_mod._LAPACKE_ARGS})
        with pytest.raises(RuntimeError, match="a bug"):
            spectrum(a, mode, hermitian=hermitian)


def test_a_band_solver_error_is_fingerprinted_from_band_storage(monkeypatch):
    """The message of a failed band solve reads the shape, norm and trace of
    a band-stored matrix from its storage: its N x N array stays unbuilt."""
    import gltlab.spectra as spectra_mod

    if spectra_mod._band_lapack() is None:
        pytest.skip("the band routines are not bound")

    def fail(*args):
        raise np.linalg.LinAlgError("dsbevd did not converge (info=1)")

    monkeypatch.setattr(spectra_mod, "_band_eigenvalues", fail)
    matrix = materialize(parse("T(2-2*cos(t1))"), 256)
    with pytest.raises(SolverError, match="did not converge") as info:
        spectrum(matrix, "lambda")
    assert info.value.exit_code == 3 and "data" not in vars(matrix)
    dense = toeplitz(LAP, 256).data
    assert (f"shape=(256, 256), fro={np.linalg.norm(dense):.6e}, "
            f"trace={np.trace(dense):.6e}") in str(info.value)


def test_without_the_band_binding_every_matrix_takes_the_dense_call(monkeypatch):
    import gltlab.spectra as spectra_mod

    def run():
        return distribution_check(lambda n: materialize(PRODUCT_EXPR, n), PRODUCT, [64, 128, 256],
                                  mode="sigma", basket=[WIDE_X, WIDE_X2])

    banded = run()
    a = materialize(PRODUCT_EXPR, 256).data
    monkeypatch.setattr(spectra_mod, "_band_lapack", lambda: None)
    assert np.array_equal(spectrum(a, "sigma"), np.linalg.svd(a, compute_uv=False))
    dense = run()
    assert dense.passed == banded.passed
    for b, d in zip(banded.rows, dense.rows):
        assert abs(b.empirical - d.empirical) <= 1e-13 * abs(d.empirical)


def test_the_band_binding_is_lazy():
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = ("import gltlab, gltlab.cli, gltlab.spectra as s; "
            "assert s._band_lapack.cache_info().currsize == 0; "
            "print(s._band_lapack() is not None)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0 and done.stdout.strip() in ("True", "False"), done.stderr
