import numpy as np
import pytest

from helpers import random_trig_polynomial

from gltlab.errors import ConfigurationError, DomainError
from gltlab.gltcalc import Diag, Product, Toeplitz, symbol_of
from gltlab.symbols import (
    CoefficientFunction,
    ConstantSymbol,
    TrigPolynomial,
    evaluate,
    fourier_coefficients,
    frequency_grid,
    spectral_surfaces,
)

LAP = TrigPolynomial(1, 1, {(0,): [[2.0]], (1,): [[-1.0]], (-1,): [[-1.0]]})


def test_evaluate_trig_examples():
    assert abs(evaluate(LAP, [0.5], [0.0])[0, 0]) < 1e-15
    assert abs(evaluate(LAP, [0.5], [np.pi])[0, 0] - 4.0) < 1e-14


def test_evaluate_product_example():
    a = CoefficientFunction.from_scalar(1, lambda x: x)
    kappa = symbol_of(Product(Diag(a), Toeplitz(LAP)))
    val = evaluate(kappa, [0.5], [np.pi])
    assert abs(val[0, 0] - 2.0) < 1e-14


def test_evaluate_batch_shapes():
    pts = np.linspace(0, 1, 7).reshape(-1, 1)
    thetas = np.linspace(-np.pi, np.pi, 7).reshape(-1, 1)
    vals = evaluate(LAP, pts, thetas)
    assert vals.shape == (7, 1, 1)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(LAP, [1.5], [0.0])
    with pytest.raises(DomainError):
        evaluate(LAP, [0.5], [4.0])


def test_fourier_coefficients_laplacian():
    poly = fourier_coefficients(LAP, degree=1, samples_per_dim=16)
    assert abs(poly.coefficient((0,))[0, 0] - 2.0) < 1e-14
    assert abs(poly.coefficient((1,))[0, 0] + 1.0) < 1e-14
    assert abs(poly.coefficient((-1,))[0, 0] + 1.0) < 1e-14


def test_fourier_coefficients_constant():
    const = TrigPolynomial(1, 1, {(0,): [[1.0]]})
    poly = fourier_coefficients(const, degree=2, samples_per_dim=16)
    assert abs(poly.coefficient((0,))[0, 0] - 1.0) < 1e-14
    for k in (1, 2, -1, -2):
        assert abs(poly.coefficient((k,))[0, 0]) < 1e-15


def test_fourier_coefficients_abs_theta():
    # f = |theta| on [-pi, pi]: fhat_0 = pi/2, fhat_k = (cos(k pi) - 1)/(pi k^2).
    fn = lambda theta: np.abs(theta[:, 0]).reshape(-1, 1, 1).astype(complex)
    poly = fourier_coefficients(fn, degree=3, samples_per_dim=2**16, d=1, r=1)
    closed = {
        0: np.pi / 2,
        1: -2.0 / np.pi,
        2: 0.0,
        3: -2.0 / (9.0 * np.pi),
    }
    # independent oracle: trapezoid quadrature on 2^16 + 1 nodes
    grid = np.linspace(-np.pi, np.pi, 2**16 + 1)
    for k, expect in closed.items():
        oracle = np.trapezoid(np.abs(grid) * np.exp(-1j * k * grid), grid) / (2 * np.pi)
        assert abs(oracle - expect) < 1e-6
        assert abs(poly.coefficient((k,))[0, 0] - expect) < 1e-4
        assert abs(poly.coefficient((-k,))[0, 0] - expect) < 1e-4


def test_aliasing_guard():
    with pytest.raises(ConfigurationError):
        fourier_coefficients(LAP, degree=3, samples_per_dim=6)


def test_fourier_roundtrip_recovers_coefficients():
    rng = np.random.default_rng(7)
    for d, r in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        poly = random_trig_polynomial(rng, d=d, r=r, degree=2, hermitian=False)
        back = fourier_coefficients(poly, degree=2, samples_per_dim=11)
        for k, block in poly.coeffs.items():
            assert np.abs(back.coefficient(k) - block).max() < 1e-12


def test_hermitian_flag_and_pointwise_hermitian():
    rng = np.random.default_rng(11)
    poly = random_trig_polynomial(rng, d=2, r=2, degree=1, hermitian=True)
    assert poly.hermitian
    xs = rng.random((100, 2))
    thetas = rng.uniform(-np.pi, np.pi, (100, 2))
    vals = evaluate(poly, xs, thetas)
    assert np.abs(vals - np.conj(np.swapaxes(vals, -1, -2))).max() < 1e-13


def test_non_hermitian_flag():
    shift = TrigPolynomial(1, 1, {(1,): [[1.0]]})
    assert not shift.hermitian


def test_sigma_surfaces_sorted_nonnegative():
    rng = np.random.default_rng(3)
    poly = random_trig_polynomial(rng, d=1, r=3, degree=2, hermitian=False)
    thetas = rng.uniform(-np.pi, np.pi, (40, 1))
    xs = np.full((40, 1), 0.5)
    surf = spectral_surfaces(poly, xs, thetas, "sigma")
    assert surf.shape == (40, 3)
    assert np.all(surf >= 0)
    assert np.all(np.diff(surf, axis=1) <= 1e-12)


def test_block_eigen_surfaces_closed_form():
    # eigenvalue surfaces of [[0, 1+e^{-i t}], [1+e^{i t}, 0]] are +-2|cos(t/2)|
    f = TrigPolynomial(
        1, 2,
        {
            (0,): [[0.0, 1.0], [1.0, 0.0]],
            (1,): [[0.0, 0.0], [1.0, 0.0]],
            (-1,): [[0.0, 1.0], [0.0, 0.0]],
        },
    )
    thetas = np.linspace(-np.pi, np.pi, 64).reshape(-1, 1)
    xs = np.full((64, 1), 0.5)
    surf = spectral_surfaces(f, xs, thetas, "lambda")
    expect = 2.0 * np.abs(np.cos(thetas[:, 0] / 2.0))
    assert np.abs(surf[:, 0] + expect).max() < 1e-12
    assert np.abs(surf[:, 1] - expect).max() < 1e-12


def test_lambda_surfaces_do_not_trust_a_wrong_hermitian_flag():
    # from_scalar declares Hermitian by default; eigvalsh would read x + 1j as x.
    s = symbol_of(Diag(CoefficientFunction.from_scalar(1, lambda x: x + 1j)))
    assert s.hermitian
    xs = np.array([[0.25], [0.5]])
    surf = spectral_surfaces(s, xs, np.zeros((2, 1)), "lambda")
    assert np.array_equal(surf[:, 0], xs[:, 0] + 1j)
    # a truly Hermitian symbol still takes the symmetric solver: real values
    assert np.isrealobj(spectral_surfaces(LAP, xs, np.zeros((2, 1)), "lambda"))


def test_sigma_surface_value_example():
    xs = np.array([[0.5]])
    surf = spectral_surfaces(LAP, xs, np.array([[np.pi / 2]]), "sigma")
    assert abs(surf[0, 0] - 2.0) < 1e-14


def test_constant_identity_surfaces():
    sym = ConstantSymbol(1, np.eye(3))
    surf = spectral_surfaces(sym, np.array([[0.2]]), np.array([[0.1]]), "sigma")
    assert np.abs(surf - 1.0).max() < 1e-15


def test_frequency_grid_shape():
    grid = frequency_grid(8, 2)
    assert grid.shape == (64, 2)
    assert grid.min() >= -np.pi and grid.max() < np.pi


def test_coefficient_table_csv_roundtrip():
    import io

    rng = np.random.default_rng(13)
    poly = random_trig_polynomial(rng, d=2, r=2, degree=1, hermitian=False)
    buf = io.StringIO()
    poly.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "k_1,k_2,row,col,re,im"
    buf.seek(0)
    back = TrigPolynomial.read_csv(buf)
    assert back.d == 2 and back.r == 2
    assert set(back.coeffs) == set(poly.coeffs)
    for k in poly.coeffs:
        assert np.array_equal(back.coeffs[k], poly.coeffs[k])
