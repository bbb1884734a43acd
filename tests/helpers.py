"""Shared fixtures-by-hand for the test suite."""

import numpy as np

from gltlab.multiindex import MultiIndexInterval, check_size, iter_interval, nu, size_interval
from gltlab.symbols import TrigPolynomial


def random_trig_polynomial(rng, d=1, r=1, degree=1, hermitian=True, scale=1.0):
    """Random trig polynomial; Hermitian variants satisfy fhat_{-k} = fhat_k^*."""
    deg = (degree,) * d if isinstance(degree, int) else tuple(degree)
    box = MultiIndexInterval(tuple(-v for v in deg), deg)
    coeffs = {}
    for k in iter_interval(box):
        if k in coeffs:
            continue
        block = scale * (rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        if hermitian:
            if all(v == 0 for v in k):
                block = (block + block.conj().T) / 2
                coeffs[k] = block
            else:
                coeffs[k] = block
                coeffs[tuple(-v for v in k)] = block.conj().T
        else:
            coeffs[k] = block
    return TrigPolynomial(d, r, coeffs)


def random_reflection(dim, rng):
    """Householder reflection I - 2 v v^*."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = v / np.linalg.norm(v)
    return np.eye(dim) - 2.0 * np.outer(v, v.conj())


def laplacian_eigenvalues(n):
    """Closed form for the tridiagonal (2, -1) matrix of size n."""
    return 2.0 - 2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def shift_matrix(m, offset):
    """J^(l): (i, j) entry 1 when i - j = l (0 elsewhere)."""
    return np.eye(m, k=-offset)


def toeplitz_kronecker(f, n):
    """Oracle: T_n(f) as the sum over offsets k of (J^(k_1) x ... x J^(k_d)) x fhat_k."""
    n = check_size(n)
    out = np.zeros((f.r * nu(n), f.r * nu(n)), dtype=complex)
    for k, block in f.coeffs.items():
        if any(abs(kj) >= nj for kj, nj in zip(k, n)):
            continue
        shifts = np.ones((1, 1))
        for kj, nj in zip(k, n):
            shifts = np.kron(shifts, shift_matrix(nj, kj))
        out += np.kron(shifts, block)
    return out


def toeplitz_blockfill(f, n):
    """Oracle: T_n(f) filled block (i, j) = fhat_{i-j} one pair at a time."""
    n = check_size(n)
    indices = list(iter_interval(size_interval(n)))
    out = np.zeros((f.r * nu(n), f.r * nu(n)), dtype=complex)
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            block = f.coeffs.get(tuple(ii - jj for ii, jj in zip(i, j)))
            if block is not None:
                out[a * f.r : (a + 1) * f.r, b * f.r : (b + 1) * f.r] = block
    return out
