import itertools

import numpy as np
import pytest

from helpers import random_trig_polynomial

from gltlab.dsl import parse
from gltlab.errors import ConfigurationError, DomainError, SizeCapError
from gltlab.gltcalc import Diag, Product, Scalar, Toeplitz, symbol_of
from gltlab.symbols import (
    CoefficientFunction,
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


def test_fourier_grid_is_capped_before_it_is_allocated(monkeypatch):
    import gltlab.symbols as symbols_mod

    class GridBuilt(Exception):
        pass

    def grid(samples_per_dim, d):
        raise GridBuilt

    monkeypatch.setattr(symbols_mod, "frequency_grid", grid)
    with pytest.raises(SizeCapError, match="exceeds the cap 16777216"):
        fourier_coefficients(LAP, degree=1, samples_per_dim=2**24 + 1)
    # the cap itself, 256^3 nodes, is admitted
    with pytest.raises(GridBuilt):
        fourier_coefficients(LAP, degree=1, samples_per_dim=2**24)
    fn = lambda theta: np.ones(len(theta), dtype=complex)
    with pytest.raises(GridBuilt):
        fourier_coefficients(fn, degree=1, samples_per_dim=256, d=3, r=1)


@pytest.mark.parametrize("deg", [(2,), (1, 2), (1, 1, 1)])
def test_fourier_offsets_are_in_lexicographic_order(deg):
    # the offset box is enumerated with the last coordinate varying fastest
    f = random_trig_polynomial(np.random.default_rng(11), d=len(deg), degree=deg)
    g = fourier_coefficients(f, degree=deg, samples_per_dim=2 * max(deg) + 2)
    box = list(itertools.product(*(range(-v, v + 1) for v in deg)))
    assert list(g.coeffs) == box == sorted(box)
    assert box[:2] == [tuple(-v for v in deg), tuple(-v for v in deg[:-1]) + (1 - deg[-1],)]


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
    sym = symbol_of(Scalar(1.0), d=1, r=3)
    surf = spectral_surfaces(sym, np.array([[0.2]]), np.array([[0.1]]), "sigma")
    assert np.abs(surf - 1.0).max() < 1e-15


def test_frequency_grid_shape():
    grid = frequency_grid(8, 2)
    assert grid.shape == (64, 2)
    assert grid.min() >= -np.pi and grid.max() < np.pi


MIXED = TrigPolynomial(3, 2, {
    (0, 0, 0): [[2.0, 0.0], [0.0, 2.0]],
    (3, -2, 1): [[1.0, 2j], [0.5, -1.0]],
    (-5, 7, 2): [[0.25, -1j], [3.0, 1 + 1j]],
})


@pytest.mark.parametrize("poly", [
    *(parse(text).poly for text in ("T(2-2*cos(t1))", "T(4-2*cos(t1)-2*cos(t2))",
                                    "T(1+cos(t1)+0.25*cos(2*t1))", "T(exp(i*t1))")),
    MIXED,
])
def test_trig_eval_equals_the_complex_gemm_form_bit_for_bit(poly):
    rng = np.random.default_rng(11)
    for theta in (frequency_grid({1: 4096, 2: 64, 3: 16}[poly.d], poly.d),
                  rng.uniform(-np.pi, np.pi, (20000, poly.d))):
        complex_gemm = np.einsum("nk,kab->nab", np.exp(1j * theta @ poly._offsets.T),
                                 poly._blocks)
        values = poly._eval(None, theta)
        assert np.array_equal(values.view(np.int64), complex_gemm.view(np.int64))
