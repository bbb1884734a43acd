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
    assert abs(evaluate(LAP, [[0.5]], [[0.0]])[0, 0, 0]) < 1e-15
    assert abs(evaluate(LAP, [[0.5]], [[np.pi]])[0, 0, 0] - 4.0) < 1e-14


def test_evaluate_product_example():
    a = parse("D(x1)").coefficient
    kappa = symbol_of(Product(Diag(a), Toeplitz(LAP)))
    val = evaluate(kappa, [[0.5]], [[np.pi]])[0]
    assert abs(val[0, 0] - 2.0) < 1e-14


def test_evaluate_batch_shapes():
    pts = np.linspace(0, 1, 7).reshape(-1, 1)
    thetas = np.linspace(-np.pi, np.pi, 7).reshape(-1, 1)
    vals = evaluate(LAP, pts, thetas)
    assert vals.shape == (7, 1, 1)


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(LAP, [[1.5]], [[0.0]])
    with pytest.raises(DomainError):
        evaluate(LAP, [[0.5]], [[4.0]])


@pytest.mark.parametrize("x, theta", [
    ([[np.nan]], [[0.1]]),
    ([[0.5]], [[np.nan]]),
    ([[0.5], [np.nan]], [[0.1], [0.1]]),
])
def test_a_nan_coordinate_is_outside_the_domain(x, theta):
    kappa = symbol_of(parse("D(x1)*T(2-2*cos(t1))"))
    with pytest.raises(DomainError):
        evaluate(kappa, x, theta)
    with pytest.raises(DomainError):
        spectral_surfaces(kappa, x, theta)


@pytest.mark.parametrize("x,theta", [
    (0.5, 0.0),  # a 0-D point
    ([0.5], [0.0]),  # a 1-D point
    ([[0.5], [0.5]], np.zeros((3, 1))),  # two points against three
    (np.full((2, 1, 1), 0.5), np.zeros((3, 1, 1))),  # 2 x 1 points against 3 x 1
    ([[0.5, 0.5]], [[0.0, 0.0]]),  # two coordinates for a one-level symbol
])
def test_points_are_batches_of_matching_length(x, theta):
    with pytest.raises(DomainError):
        evaluate(LAP, x, theta)
    with pytest.raises(DomainError):
        spectral_surfaces(LAP, x, theta)


def test_one_point_broadcasts_against_a_batch():
    thetas = np.linspace(-3.0, 3.0, 3).reshape(-1, 1)
    assert np.array_equal(evaluate(LAP, [[0.5]], thetas), evaluate(LAP, np.full((3, 1), 0.5), thetas))
    assert evaluate(LAP, np.zeros((2, 1, 1)), thetas[None]).shape == (2, 3, 1, 1)


def values_of(poly):
    """The frequency-only callable of a trig polynomial."""
    return lambda theta: poly._eval(None, theta)


def test_fourier_coefficients_laplacian():
    poly = fourier_coefficients(values_of(LAP), degree=1, samples_per_dim=16, d=1, r=1)
    assert abs(poly.coeffs[(0,)][0, 0] - 2.0) < 1e-14
    assert abs(poly.coeffs[(1,)][0, 0] + 1.0) < 1e-14
    assert abs(poly.coeffs[(-1,)][0, 0] + 1.0) < 1e-14


def test_fourier_coefficients_constant():
    const = TrigPolynomial(1, 1, {(0,): [[1.0]]})
    poly = fourier_coefficients(values_of(const), degree=2, samples_per_dim=16, d=1, r=1)
    assert abs(poly.coeffs[(0,)][0, 0] - 1.0) < 1e-14
    for k in (1, 2, -1, -2):
        assert abs(poly.coeffs.get((k,), np.zeros((1, 1)))[0, 0]) < 1e-15


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
        assert abs(poly.coeffs.get((k,), np.zeros((1, 1)))[0, 0] - expect) < 1e-4
        assert abs(poly.coeffs.get((-k,), np.zeros((1, 1)))[0, 0] - expect) < 1e-4


def test_aliasing_guard():
    with pytest.raises(ConfigurationError):
        fourier_coefficients(values_of(LAP), degree=3, samples_per_dim=6, d=1, r=1)


def test_fourier_grid_is_capped_before_it_is_allocated(monkeypatch):
    import gltlab.symbols as symbols_mod

    class GridBuilt(Exception):
        pass

    def grid(samples_per_dim, d):
        raise GridBuilt

    monkeypatch.setattr(symbols_mod, "frequency_grid", grid)
    with pytest.raises(SizeCapError, match="exceeds the cap 16777216"):
        fourier_coefficients(values_of(LAP), degree=1, samples_per_dim=2**24 + 1, d=1, r=1)
    # the cap itself, 256^3 nodes, is admitted
    with pytest.raises(GridBuilt):
        fourier_coefficients(values_of(LAP), degree=1, samples_per_dim=2**24, d=1, r=1)
    fn = lambda theta: np.ones((len(theta), 1, 1), dtype=complex)
    with pytest.raises(GridBuilt):
        fourier_coefficients(fn, degree=1, samples_per_dim=256, d=3, r=1)


@pytest.mark.parametrize("deg", [(2,), (1, 2), (1, 1, 1)])
def test_fourier_offsets_are_in_lexicographic_order(deg):
    # the offset box is enumerated with the last coordinate varying fastest
    f = random_trig_polynomial(np.random.default_rng(11), d=len(deg), degree=deg)
    g = fourier_coefficients(values_of(f), degree=deg, samples_per_dim=2 * max(deg) + 2,
                             d=len(deg), r=1)
    box = list(itertools.product(*(range(-v, v + 1) for v in deg)))
    assert list(g.coeffs) == box == sorted(box)
    assert box[:2] == [tuple(-v for v in deg), tuple(-v for v in deg[:-1]) + (1 - deg[-1],)]


def test_fourier_roundtrip_recovers_coefficients():
    rng = np.random.default_rng(7)
    for d, r in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        poly = random_trig_polynomial(rng, d=d, r=r, degree=2, hermitian=False)
        back = fourier_coefficients(values_of(poly), degree=2, samples_per_dim=11, d=d, r=r)
        for k, block in poly.coeffs.items():
            assert np.abs(back.coeffs[k] - block).max() < 1e-12


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
    # a coefficient declared Hermitian wrongly; eigvalsh would read x + 1j as x.
    s = symbol_of(Diag(CoefficientFunction(1, 1, lambda x: x[:, :, None] + 1j,
                                           hermitian=True)))
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


def _table(values: np.ndarray, hermitian: bool) -> tuple:
    """An r = 1 coefficient symbol that takes ``values`` at a batch of as many
    points, with the batch, its points and its surfaces' expected dtype."""
    s = CoefficientFunction(1, 1, lambda x: values[:, None, None], hermitian=hermitian)
    xs = np.linspace(0.0, 1.0, len(values))[:, None]
    return s, xs, np.zeros_like(xs), evaluate(s, xs, np.zeros_like(xs))


def _same(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype and shape, zero parts equal by ==, every other part bit
    for bit (== is bit equality on nonzero floats)."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.real(got), np.real(want))
            and np.array_equal(np.imag(got), np.imag(want)))


ZEROS = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0)])


@pytest.mark.parametrize("gate", ["passes", "fails"])
def test_1x1_lambda_surfaces_are_the_entries_lapack_returns(gate):
    """r = 1 lambda surfaces skip LAPACK: each is its 1 x 1 block's entry
    (its real part behind the Hermitian gate), the values eigvals and
    eigvalsh return, for entry moduli from 1e-138 to 1e138.  zgeev rescales
    a block of modulus below ~6.7e-139 or above ~1.5e138 and rounds there."""
    rng = np.random.default_rng(2031)
    k = np.repeat(np.arange(-138.0, 137.0), 4)
    mantissa = rng.uniform(1.0, 10.0, (2, k.size)) * rng.choice([-1.0, 1.0], (2, k.size))
    parts = mantissa * 10.0**k
    tiny = 1e-14 if gate == "passes" else 1.0  # relative imaginary parts
    values = np.concatenate([parts[0] + 1j * tiny * parts[1], ZEROS,
                             [1e100 + 1e-200j, -3e-120 + 2e120j * tiny]])
    s, xs, thetas, batch = _table(values, hermitian=True)
    surf = spectral_surfaces(s, xs, thetas, "lambda")
    if gate == "passes":
        assert _same(surf, np.linalg.eigvalsh(batch)) and _same(surf[:, 0], values.real)
    else:
        assert _same(surf, np.sort(np.linalg.eigvals(batch), axis=-1))
        assert _same(surf[:, 0], values)
    undeclared = _table(values.real, hermitian=False)  # zero imaginary parts, eigvals' path
    assert _same(spectral_surfaces(*undeclared[:3], "lambda"),
                 np.sort(np.linalg.eigvals(undeclared[3]), axis=-1))


def test_1x1_lambda_surfaces_keep_the_entry_where_lapack_rescales():
    """Beyond zgeev's scaling thresholds the shortcut returns the exact entry,
    where eigvals may round it."""
    small = np.array([3e-150 - 7e-151j, 1.23e-160 + 4.56e-160j, -5e-145 + 1e-146j])
    large = np.array([7.7e150 + 1.1e151j, 2e160 - 3e159j, -4e170 + 1e169j])
    for values, hermitian in ((small, True), (small, False), (large, True), (large, False)):
        s, xs, thetas, _ = _table(values, hermitian)  # the gate fails: complex entries
        assert _same(spectral_surfaces(s, xs, thetas, "lambda")[:, 0], values)
        s, xs, thetas, _ = _table(values.real, hermitian)
        want = values.real if hermitian else values.real.astype(complex)
        assert _same(spectral_surfaces(s, xs, thetas, "lambda")[:, 0], want)


@pytest.mark.parametrize("b", [2e160, 1e-170])
def test_the_lambda_gate_rescales_norms_that_overflow_or_underflow(b):
    """A symbol declared Hermitian whose r = 2 values [[b, ib], [ib, b]] are
    not: past ~1e154 the gate's norms overflowed to inf (a RuntimeWarning,
    then inf <= 1e-12 * inf), and below ~1e-154 they underflowed to 0;
    either way the gate passed and eigvalsh returned real values.  A truly
    Hermitian [[b, ib], [-ib, b]] keeps its real eigenvalues 0 and 2b."""
    def table(sign):
        block = np.array([[b, 1j * b], [sign * 1j * b, b]])
        return CoefficientFunction(1, 2, lambda x: np.broadcast_to(block, (len(x), 2, 2)).copy(),
                                   hermitian=True)

    xs, thetas = np.array([[0.5]]), np.zeros((1, 1))
    surf = spectral_surfaces(table(1), xs, thetas, "lambda")
    assert np.iscomplexobj(surf) and np.allclose(surf, [[b * (1 - 1j), b * (1 + 1j)]], rtol=1e-15)
    surf = spectral_surfaces(table(-1), xs, thetas, "lambda")
    assert np.isrealobj(surf) and np.allclose(surf, [[0.0, 2 * b]], rtol=1e-15, atol=1e-15 * b)
