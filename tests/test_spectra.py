import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    errors_for,
    laplacian_eigenvalues,
    midpoint_functional,
    quantile_compare,
    random_reflection,
    random_trig_polynomial,
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
from gltlab.matgen import toeplitz
from gltlab.spectra import (
    TestFunction,
    cosine_bump,
    default_basket,
    distribution_check,
    empirical_functional,
    non_increasing,
    poly_on_window,
    schatten_norm,
    spectrum,
    symbol_functional,
    trending_to_zero,
)
from gltlab.symbols import CoefficientFunction, TrigPolynomial

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
    for stack in (real, cplx, np.zeros((3, 5, 5))):
        values = spectrum(stack, "sigma")
        assert values.shape == stack.shape[:2]
        for row, a in zip(values, stack):
            assert np.array_equal(row, spectrum(a, "sigma"))
    herm = real + real.transpose(0, 2, 1)
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
    with pytest.raises(InvalidParameterError):
        schatten_norm(np.eye(2), 0.5)


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
    zero_f = TestFunction("zero", lambda x: np.zeros_like(x), ("window", 0, 1))
    assert empirical_functional(lam, zero_f) == 0.0
    assert abs(empirical_functional(lam, WIDE_X2) - (6.0 - 2.0 / 8.0)) < 1e-12
    with pytest.raises(InvalidParameterError):
        empirical_functional([], WIDE_X)


def test_trace_identity_random_hermitian():
    rng = np.random.default_rng(12)
    for n in (13, 37, 64):
        poly = random_trig_polynomial(rng, d=1, r=2, degree=2, hermitian=True)
        lam = spectrum(toeplitz(poly, n), "lambda")
        expect = np.trace(poly.coefficient((0,))).real / 2.0
        assert abs(empirical_functional(lam, WIDE_X) - expect) < 1e-12


def test_symbol_functional_examples():
    assert abs(symbol_functional(LAP, WIDE_X, "lambda") - 2.0) < 1e-10
    assert abs(symbol_functional(LAP, WIDE_X2, "lambda") - 6.0) < 1e-10
    a = CoefficientFunction.from_scalar(1, lambda x: x)
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


def test_symbol_functional_quadrature_error():
    bump = cosine_bump(2.0, 1.0)
    with pytest.raises(QuadratureError, match=r"last delta \d\.\d{3}e[+-]\d+ at g=32"):
        symbol_functional(LAP, bump, "lambda", grid_points_per_dim=64, max_nodes=32)
    # x-dependent: the Richardson test needs three grids, 8^2 nodes at the least
    with pytest.raises(QuadratureError, match="cannot fit the 3 grids"):
        symbol_functional(PRODUCT, bump, "sigma", max_nodes=63)
    with pytest.raises(QuadratureError, match=r"last delta \d\.\d{3}e[+-]\d+ at g=64"):
        symbol_functional(PRODUCT, cosine_bump(2.0, 1.0), "sigma", max_nodes=64**2)


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
    assert shapes[0] == (1, 2048) and max(np.prod(s) for s in shapes) <= spectra_mod._STRIP
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
                        lambda a: calls.append(a.shape[0]) or decide(a))
    for mode in ("sigma", "lambda"):
        calls.clear()
        distribution_check(lambda n: toeplitz(LAP, n), LAP, [16, 32, 64], mode=mode,
                           basket=[WIDE_X])
        assert calls == [16, 32, 64]


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
        assert symbol_functional(symbol, f, mode) == midpoint_functional(symbol, f, mode)
    sizes = [(4,) * symbol.d, (8,) * symbol.d]
    report = distribution_check(lambda n: toeplitz(symbol, n), symbol, sizes, mode=mode,
                                basket=basket, quad_tol=1e-7, grid_points_per_dim=16)
    for row in report.rows:
        f = next(f for f in basket if f.id == row.f_id)
        assert row.symbol == midpoint_functional(symbol, f, mode, 16, tol=1e-7)


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
