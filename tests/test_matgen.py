import io

import numpy as np
import pytest

from helpers import random_trig_polynomial, toeplitz_blockfill, toeplitz_kronecker

import gltlab.matgen as matgen_mod
from gltlab.errors import SizeCapError
from gltlab.matgen import (
    BlockMatrix,
    diag_sampling,
    identity,
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
    assert np.array_equal(A.block((1,), (2,)), fm1)


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
        nu_n = A.size // r
        assert abs(np.trace(A.data) - nu_n * np.trace(poly.coefficient((0,) * d))) < 1e-12


def test_diag_sampling_linear_grid():
    A = diag_sampling(lambda x: x, 4)
    assert np.allclose(np.diag(A.data), [0.25, 0.5, 0.75, 1.0])


def test_diag_sampling_two_level_lexicographic():
    A = diag_sampling(lambda x1, x2: x1 + x2, (2, 2))
    assert np.allclose(np.diag(A.data), [1.0, 1.5, 1.5, 2.0])


def test_diag_sampling_matrix_identity():
    a = CoefficientFunction.constant(1, np.eye(2))
    A = diag_sampling(a, 3)
    assert np.array_equal(A.data, np.eye(6))


def test_diag_matrices_commute():
    a = diag_sampling(lambda x: np.sin(3 * x), 16).data
    b = diag_sampling(lambda x: x**2 + 1, 16).data
    assert np.abs(a @ b - b @ a).max() == 0.0


def test_sampling_grid_order():
    grid = sampling_grid((2, 2))
    assert np.allclose(grid, [[0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [1.0, 1.0]])


def test_size_cap(monkeypatch):
    with pytest.raises(SizeCapError):
        toeplitz(LAP, 10000)  # refused before anything is allocated
    # The same rule at a small default cap, so the admitted matrix is small.
    monkeypatch.setattr(matgen_mod, "DEFAULT_SIZE_CAP", 16)
    with pytest.raises(SizeCapError):
        toeplitz(LAP, 17)
    assert toeplitz(LAP, 17, cap=32).data.shape == (17, 17)  # override allowed
    assert toeplitz(LAP, 16).data.shape == (16, 16)


def test_csv_export_header_and_indices():
    A = toeplitz(LAP, 2)
    buf = io.StringIO()
    A.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "i,j,re,im"
    assert lines[1].startswith("1,1,2.0,")
    assert len(lines) == 1 + 4


def test_binary_roundtrip():
    rng = np.random.default_rng(9)
    poly = random_trig_polynomial(rng, d=2, r=2, degree=1, hermitian=False)
    A = toeplitz(poly, (3, 4))
    buf = io.BytesIO()
    A.write_binary(buf)
    raw = buf.getvalue()
    assert raw[:4] == b"GLTM"
    buf.seek(0)
    B = BlockMatrix.read_binary(buf)
    assert B.r == A.r and B.n == A.n
    assert np.array_equal(A.data, B.data)


def test_block_matrix_keeps_real_entries_as_float64():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((6, 6))
    exact = BlockMatrix(values + 0j, 1, 6)
    assert exact.data.dtype == np.float64
    assert exact.data.tobytes() == values.tobytes()
    mixed = values + 0j
    mixed[2, 3] += 1e-300j
    assert BlockMatrix(mixed, 1, 6).data.dtype == np.complex128
    buf = io.BytesIO()
    exact.write_binary(buf)
    buf.seek(0)
    back = BlockMatrix.read_binary(buf)
    assert back.data.dtype == np.float64 and back.data.tobytes() == values.tobytes()


def test_diag_sampling_dtype_follows_samples():
    assert diag_sampling(lambda x: x, 4).data.dtype == np.float64
    a = diag_sampling(lambda x: x + 1j, 4).data
    assert a.dtype == np.complex128
    assert np.array_equal(np.diag(a), [0.25 + 1j, 0.5 + 1j, 0.75 + 1j, 1.0 + 1j])


def test_identity_and_zeros_helpers():
    assert np.array_equal(identity((2, 2), 2).data, np.eye(8))
    assert np.abs(zeros(5, 1).data).max() == 0.0


def test_diag_sampling_failure_names_node():
    from gltlab.errors import EvaluationError

    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(EvaluationError) as err:
            diag_sampling(lambda x: 1.0 / (x - 0.5), 2)
    assert err.value.node == (1,)  # the grid node i/n = 1/2


def test_is_hermitian_agrees_with_the_whole_matrix_norms():
    def whole_matrix_rule(a, rtol=1e-12):
        return np.linalg.norm(a - a.conj().T) <= rtol * max(np.linalg.norm(a), 1e-300)

    rng = np.random.default_rng(8)
    g = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    h, s = g + g.conj().T, g - g.conj().T  # 300 rows span three strips
    unit = s / np.linalg.norm(s)
    # ||(h + t unit) - (h + t unit)*|| = 2t and ||h + t unit|| = sqrt(||h||^2 + t^2)
    at = 0.5e-12 * np.linalg.norm(h)
    cases = [(h, True), (s, False), (g, False),
             (h + at * (1 - 1e-3) * unit, True), (h + at * (1 + 1e-3) * unit, False)]
    for a, hermitian in cases:
        assert is_hermitian(a) == whole_matrix_rule(a) == hermitian
