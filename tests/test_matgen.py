import itertools

import numpy as np
import pytest

from helpers import random_trig_polynomial, toeplitz_blockfill, toeplitz_kronecker

import gltlab.matgen as matgen_mod
from gltlab.dsl import parse
from gltlab.errors import ConfigurationError, InvalidParameterError, SizeCapError
from gltlab.matgen import (
    BlockMatrix,
    diag_sampling,
    is_hermitian,
    sampling_grid,
    toeplitz,
    zeros,
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


def test_toeplitz_tridiagonal():
    A = toeplitz(LAP, 4)
    expect = np.array(
        [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ],
        dtype=complex,
    )
    assert np.array_equal(A.data, expect)


def test_toeplitz_identity_two_level():
    one = TrigPolynomial(2, 1, {(0, 0): [[1.0]]})
    A = toeplitz(one, (2, 2))
    assert np.array_equal(A.data, np.eye(4))


def test_toeplitz_block_example():
    A = toeplitz(BLOCK_F, 2)
    f0 = np.array([[0, 1], [1, 0]])
    f1 = np.array([[0, 0], [1, 0]])
    fm1 = np.array([[0, 1], [0, 0]])
    expect = np.block([[f0, fm1], [f1, f0]]).astype(complex)
    assert np.array_equal(A.data, expect)
    assert np.array_equal(A.data[0:2, 2:4], fm1)  # block row 1, block column 2


def _assert_bit_identical(fast, oracle):
    """Same dtype by the real/complex rule and the same bytes."""
    if not np.any(oracle.imag):
        oracle = oracle.real
    assert fast.dtype == oracle.dtype
    assert fast.tobytes() == oracle.tobytes()


def test_blockfill_matches_kronecker_assembly():
    rng = np.random.default_rng(5)
    cases = [(1, 1, (8,)), (1, 2, (6,)), (2, 1, (4, 5)), (2, 2, (3, 3)), (3, 1, (2, 3, 4))]
    for d, r, n in cases:
        poly = random_trig_polynomial(rng, d=d, r=r, degree=1, hermitian=False)
        fast = toeplitz(poly, n).data
        _assert_bit_identical(fast, toeplitz_blockfill(poly, n))
        _assert_bit_identical(fast, toeplitz_kronecker(poly, n))


def test_real_toeplitz_is_float64_and_matches_oracles():
    two_level = TrigPolynomial(2, 1, {(0, 0): [[4.0]], (1, 0): [[-1.0]], (-1, 0): [[-1.0]],
                                      (0, 1): [[-1.0]], (0, -1): [[-1.0]]})
    wide = TrigPolynomial(1, 1, {(0,): [[2.0]], (3,): [[-0.5]], (-1,): [[0.25]]})
    for poly, n in [(LAP, (9,)), (LAP, (1,)), (wide, (2,)), (wide, (7,)), (BLOCK_F, (5,)),
                    (two_level, (4, 6)), (two_level, (1, 3))]:
        fast = toeplitz(poly, n).data
        assert fast.dtype == np.float64
        _assert_bit_identical(fast, toeplitz_blockfill(poly, n))
        _assert_bit_identical(fast, toeplitz_kronecker(poly, n))


def test_hermitian_iff_coefficient_symmetry():
    rng = np.random.default_rng(6)
    herm = random_trig_polynomial(rng, d=1, r=2, degree=2, hermitian=True)
    assert is_hermitian(toeplitz(herm, 6))
    skew = random_trig_polynomial(rng, d=1, r=2, degree=2, hermitian=False)
    assert not is_hermitian(toeplitz(skew, 6))
    assert not skew.hermitian


def test_trace_identity_exact():
    rng = np.random.default_rng(8)
    for d, r, n in [(1, 1, (17,)), (2, 2, (4, 6))]:
        poly = random_trig_polynomial(rng, d=d, r=r, degree=1, hermitian=False)
        A = toeplitz(poly, n)
        nu_n = A.data.shape[0] // r
        assert abs(np.trace(A.data) - nu_n * np.trace(poly.coeffs[(0,) * d])) < 1e-12


def test_diag_sampling_linear_grid():
    A = diag_sampling(parse("D(x1)").coefficient, 4)
    assert np.allclose(np.diag(A.data), [0.25, 0.5, 0.75, 1.0])


def test_diag_sampling_two_level_lexicographic():
    A = diag_sampling(parse("D(x1+x2)").coefficient, (2, 2))
    assert np.allclose(np.diag(A.data), [1.0, 1.5, 1.5, 2.0])


def test_diag_sampling_matrix_identity():
    a = CoefficientFunction(1, 2, lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)))
    A = diag_sampling(a, 3)
    assert np.array_equal(A.data, np.eye(6))


def test_diag_matrices_commute():
    a = diag_sampling(parse("D(sin(3*x1))").coefficient, 16).data
    b = diag_sampling(parse("D(x1^2+1)").coefficient, 16).data
    assert np.abs(a @ b - b @ a).max() == 0.0


def test_sampling_grid_order():
    grid = sampling_grid((2, 2))
    assert np.allclose(grid, [[0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [1.0, 1.0]])


def test_sampling_grid_equals_the_lexicographic_enumeration():
    for n in [(3, 4, 5), (7,), (1, 2, 1)]:
        nodes = np.array(list(itertools.product(*(range(1, v + 1) for v in n))), dtype=float)
        assert np.array_equal(sampling_grid(n), nodes / np.asarray(n, dtype=float))


def test_size_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        toeplitz(LAP, 10000)  # refused before anything is allocated
    # The same rule at a small cap, so the admitted matrix is small.
    monkeypatch.setattr(matgen_mod, "DEFAULT_SIZE_CAP", 16)
    with pytest.raises(SizeCapError):
        toeplitz(LAP, 17)
    with pytest.raises(SizeCapError):
        diag_sampling(parse("D(x1)").coefficient, 17)
    assert toeplitz(LAP, 16).data.shape == (16, 16)
    monkeypatch.setattr(matgen_mod, "DEFAULT_SIZE_CAP", 32)  # read at each call
    assert toeplitz(LAP, 17).data.shape == (17, 17)


def test_block_matrix_keeps_real_entries_as_float64():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((6, 6))
    exact = BlockMatrix(values + 0j, 1, 6)
    assert exact.data.dtype == np.float64
    assert exact.data.tobytes() == values.tobytes()
    mixed = values + 0j
    mixed[2, 3] += 1e-300j
    assert BlockMatrix(mixed, 1, 6).data.dtype == np.complex128


def test_diag_sampling_dtype_follows_samples():
    real = parse("D(x1)").coefficient
    assert diag_sampling(real, 4).data.dtype == np.float64
    a = diag_sampling(parse("D(x1+i)").coefficient, 4).data
    assert a.dtype == np.complex128
    assert np.array_equal(np.diag(a), [0.25 + 1j, 0.5 + 1j, 0.75 + 1j, 1.0 + 1j])


def test_zeros_helper():
    assert np.abs(zeros(5, 1).data).max() == 0.0
    assert zeros((2, 2), 2).data.shape == (8, 8)


@pytest.mark.parametrize("a", [lambda x: x, 2.0, np.eye(2)])
def test_diag_sampling_takes_only_a_symbol(a):
    with pytest.raises(ConfigurationError, match="CoefficientFunction"):
        diag_sampling(a, 4)


def test_diag_sampling_failure_names_node():
    from gltlab.errors import EvaluationError

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as err:
            diag_sampling(parse("D(1/(x1-0.5))").coefficient, 2)
    assert err.value.node == (1,)  # the grid node i/n = 1/2


def test_is_hermitian_agrees_with_the_whole_matrix_norms():
    def whole_matrix_rule(a, rtol=1e-12):
        return np.linalg.norm(a - a.conj().T) <= rtol * max(np.linalg.norm(a), 1e-300)

    rng = np.random.default_rng(8)
    g = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    h, s = g + g.conj().T, g - g.conj().T  # 300 rows span two tiles
    unit = s / np.linalg.norm(s)
    # ||(h + t unit) - (h + t unit)*|| = 2t and ||h + t unit|| = sqrt(||h||^2 + t^2)
    at = 0.5e-12 * np.linalg.norm(h)
    cases = [(h, True), (s, False), (g, False),
             (h + at * (1 - 1e-3) * unit, True), (h + at * (1 + 1e-3) * unit, False)]
    for a, hermitian in cases:
        assert is_hermitian(a) == whole_matrix_rule(a) == hermitian


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("order", [1, 255, 256, 257, 513])
def test_tiled_is_hermitian_agrees_with_the_whole_matrix_rule(order, dtype):
    def whole_matrix_rule(a, rtol=1e-12):
        return np.linalg.norm(a - a.conj().T) <= rtol * max(np.linalg.norm(a), 1e-300)

    rng = np.random.default_rng(order)
    g = rng.standard_normal((order, order))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((order, order))
    h = g + g.conj().T
    # Entry (N-1, N-2): for order 513 it lies in the last off-diagonal tile
    # pair, rows 256-511 against row 512.  Adding t (i t when complex) there
    # makes ||A - A*|| = sqrt(2) t, or 2 t on the diagonal of order 1, where
    # a real entry cannot break the symmetry.
    always = order == 1 and dtype is float
    at = 1e-12 * np.linalg.norm(h) / (2.0 if order == 1 else np.sqrt(2))
    cases = [(h, True), (g, always)]
    for t, hermitian in [(1e3 * at, False), (at * (1 - 1e-3), True), (at * (1 + 1e-3), False)]:
        a = h.copy()
        a[order - 1, max(order - 2, 0)] += t * (1j if dtype is complex else 1.0)
        cases.append((a, hermitian or always))
    for a, hermitian in cases:
        assert is_hermitian(a) == whole_matrix_rule(a) == hermitian
        assert is_hermitian(np.asfortranarray(a)) == hermitian


@pytest.mark.parametrize("dtype", [float, complex])
def test_is_hermitian_within_a_band_bound_agrees_with_the_whole_matrix(dtype):
    # 1100 rows span five tiles: the pairs two or more tiles apart lie wholly
    # outside the bound (4, 3).  A bound without band storage changes nothing
    # that is_hermitian reads.  Entry (256, 254) lies in the pair of tiles 0
    # and 1.
    n = 1100
    rng = np.random.default_rng(11)
    g = rng.standard_normal((n, n))
    if dtype is complex:
        g = g + 1j * rng.standard_normal((n, n))
    g = np.triu(np.tril(g, 3), -3)
    h = g + g.conj().T
    at = 1e-12 * np.linalg.norm(h) / np.sqrt(2)  # the threshold at entry (256, 254)
    cases = [(g, False)]
    for t, hermitian in [(0.0, True), (1e3 * at, False), (at * (1 - 1e-3), True),
                         (at * (1 + 1e-3), False)]:
        a = h.copy()
        a[256, 254] += t * (1j if dtype is complex else 1.0)
        cases.append((a, hermitian))
    for a, hermitian in cases:
        bm = BlockMatrix(a, 1, n)
        bm.band = 4
        assert is_hermitian(bm) == is_hermitian(a) == hermitian


def test_the_band_bound_is_not_a_constructor_argument():
    # only materialize, which derives it from the expression tree, sets it
    with pytest.raises(TypeError):
        BlockMatrix(np.eye(4), 1, 4, band=0)
    assert BlockMatrix(np.eye(4), 1, 4).band is None


@pytest.mark.parametrize("shape", [(3,), (3, 4), (4, 3), (2, 3, 3)])
def test_is_hermitian_rejects_input_that_is_not_a_square_matrix(shape):
    with pytest.raises(InvalidParameterError) as info:
        is_hermitian(np.ones(shape))
    assert info.value.exit_code == 2


def test_is_hermitian_rescales_sums_that_overflow_or_underflow():
    """Squared sums of entries above ~1e154 overflow to inf, and those of
    entries below ~1e-154 underflow to 0; either used to pass the rule
    (inf <= 1e-12 * inf, 0 <= 1e-12 * 1e-300), so a triangular matrix
    took the Hermitian route and lost its singular values."""
    from gltlab.gltcalc import materialize
    from gltlab.spectra import spectrum

    big, small = np.triu(np.ones((40, 40))) * 1e155, np.array([[0.0, 1e-170], [0.0, 0.0]])
    assert not is_hermitian(np.array([[1.0, 1e308], [-1e308, 1.0]]))  # A - A* overflows
    for a in (big, small):
        assert not is_hermitian(a)
        assert np.array_equal(spectrum(a, "sigma", hermitian=is_hermitian(a)),
                              np.linalg.svd(a, compute_uv=False))
    assert np.array_equal(spectrum(small, "sigma", hermitian=is_hermitian(small)), [1e-170, 0.0])
    g = np.random.default_rng(14).standard_normal((300, 300))
    for scale in (1e155, 1e-170):
        assert is_hermitian((g + g.T) * scale) and not is_hermitian((g - g.T) * scale)
        hermitian = materialize(parse(f"{scale}*T(2-2*cos(t1))"), 64)
        shift = materialize(parse(f"{scale}*T(exp(i*t1))"), 64)  # real, not symmetric
        assert hermitian.storage is not None and shift.storage is not None
        assert is_hermitian(hermitian) and not is_hermitian(shift)
