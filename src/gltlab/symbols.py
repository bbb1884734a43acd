"""Matrix-valued symbols on [0,1]^d x [-pi,pi]^d.

A symbol is an evaluable map kappa(x, theta) into r x r complex matrices.
This module holds the leaves: trigonometric polynomials (frequency-only)
and coefficient functions (space-only).  A constant c is the ``Scalar``
node of the expression tree, whose symbol is c times the identity.  The
pointwise algebra over the leaves (sums, products, adjoints, inverses,
continuous functions) and its one Hermitian rule live on the expression tree
of :mod:`gltlab.gltcalc`, whose ``symbol_of`` evaluates that tree.
Evaluation broadcasts: points are (..., d) arrays whose leading shapes
broadcast and values come back as (..., r, r) stacks, so on the (Nx, 1, d)
space and (1, Ntheta, d) frequency axes of a tensor grid a frequency-only
leaf is computed at Ntheta points and a space-only one at Nx.

Merely integrable generating functions have no canonical finite
representation; this module requires an evaluable closed form plus, for
non-band-limited frequency symbols, a declared truncation degree (see
:func:`fourier_coefficients`).
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, EvaluationError, SizeCapError
from .multiindex import MultiIndex, as_multiindex

_HERMITIAN_TOL = 1e-13
HERMITIAN_RTOL = 1e-12  # Hermitian when ||A - A*||_F <= HERMITIAN_RTOL ||A||_F
_DOMAIN_TOL = 1e-9
FOURIER_NODE_CAP = 2**24  # nodes of the numeric Fourier grid (256^3)


def _as_points(pts, d: int, name: str) -> np.ndarray:
    """A batch of points as a float (..., d) array with at least one batch axis."""
    arr = np.asarray(pts, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != d:
        raise DomainError(f"{name} points must have {d} coordinates, got shape {arr.shape}")
    return arr


class Symbol:
    """Base class; subclasses implement ``_eval(x, theta)`` of float (..., d)
    points whose leading shapes broadcast, giving (..., r, r) values that
    broadcast to theirs."""

    d: int
    r: int

    @property
    def hermitian(self) -> bool:
        return False

    @property
    def depends_space(self) -> bool:
        return False

    @property
    def depends_frequency(self) -> bool:
        return False

    def _eval(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class TrigPolynomial(Symbol):
    """Finite-support frequency symbol sum_k fhat_k exp(i k.theta).

    ``coeffs`` maps offset multi-indices to r x r complex blocks; zero blocks
    are dropped on construction so the support is canonical.
    """

    def __init__(self, d: int, r: int, coeffs: Mapping[Sequence[int], np.ndarray]):
        self.d = int(d)
        self.r = int(r)
        clean: dict[MultiIndex, np.ndarray] = {}
        for k, block in coeffs.items():
            k = as_multiindex(k)
            if len(k) != self.d:
                raise ConfigurationError(f"offset {k} does not have {self.d} entries")
            arr = np.array(block, dtype=complex).reshape(self.r, self.r)
            if np.any(arr != 0):
                arr.setflags(write=False)
                clean[k] = arr
        self.coeffs = clean
        self._offsets = np.array(sorted(clean), dtype=float).reshape(len(clean), self.d)
        self._blocks = (
            np.stack([clean[k] for k in sorted(clean)])
            if clean
            else np.zeros((0, self.r, self.r), dtype=complex)
        )

    @property
    def depends_frequency(self) -> bool:
        return any(k != (0,) * self.d for k in self.coeffs)

    @property
    def hermitian(self) -> bool:
        scale = max((np.abs(b).max() for b in self.coeffs.values()), default=0.0)
        tol = _HERMITIAN_TOL * max(scale, 1.0)
        for k, block in self.coeffs.items():
            mirror = self.coeffs.get(tuple(-v for v in k))
            if mirror is None:
                if np.abs(block).max() > tol:
                    return False
            elif np.abs(mirror - block.conj().T).max() > tol:
                return False
        return True

    def truncated(self, degree: int | Sequence[int]) -> "TrigPolynomial":
        deg = as_multiindex(degree)
        if len(deg) == 1 and self.d > 1:
            deg = deg * self.d
        kept = {
            k: b
            for k, b in self.coeffs.items()
            if all(abs(kj) <= dj for kj, dj in zip(k, deg))
        }
        return TrigPolynomial(self.d, self.r, kept)

    def _eval(self, x, theta):
        if not self.coeffs:
            return np.zeros(theta.shape[:-1] + (self.r, self.r), dtype=complex)
        # A real GEMM, exponentiated in place so that one (..., K) complex
        # array is live.  The complex GEMM of ``1j * theta`` gives the same
        # bits, but np.exp on its output ran ~10x slower: 0.11-0.14 s against
        # 0.01 s for 65,536 x 5 entries on a 2-core Skylake-X Xeon, with one
        # BLAS thread too.
        phases = np.multiply(theta @ self._offsets.T, 1j)  # (..., K)
        np.exp(phases, out=phases)
        return np.einsum("...k,kab->...ab", phases, self._blocks)


class CoefficientFunction(Symbol):
    """Space-only symbol a : [0,1]^d -> C^{r x r}.

    ``fn`` must be vectorized: it receives an (N, d) array and returns an
    (N, r, r) array; points of shape (..., d) reach it as their (N, d)
    reshape.  Riemann integrability is declared, not checked.
    """

    def __init__(self, d: int, r: int, fn: Callable[[np.ndarray], np.ndarray],
                 hermitian: bool = False, name: str = "a"):
        self.d = int(d)
        self.r = int(r)
        self._fn = fn
        self._hermitian = bool(hermitian)
        self.name = name

    @property
    def depends_space(self) -> bool:
        return True

    @property
    def hermitian(self) -> bool:
        return self._hermitian

    def _eval(self, x, theta):
        flat = x.reshape(-1, self.d)
        vals = np.asarray(self._fn(flat), dtype=complex)
        if vals.shape != (flat.shape[0], self.r, self.r):
            raise EvaluationError(
                f"coefficient function {self.name!r} returned shape {vals.shape}, "
                f"expected ({flat.shape[0]}, {self.r}, {self.r})"
            )
        return vals.reshape(x.shape[:-1] + (self.r, self.r))


def evaluate(s: Symbol, x, theta) -> np.ndarray:
    """Evaluate kappa at (..., d) space and frequency points whose leading
    shapes broadcast, e.g. paired (N, d) batches or the (Nx, 1, d) and
    (1, Ntheta, d) axes of a tensor grid; returns that shape + (r, r).

    Points must lie in [0,1]^d x [-pi,pi]^d; a NaN coordinate does not.
    """
    xp = _as_points(x, s.d, "space")
    tp = _as_points(theta, s.d, "frequency")
    try:
        shape = np.broadcast_shapes(xp.shape[:-1], tp.shape[:-1])
    except ValueError:
        raise DomainError(f"space points {xp.shape} and frequency points {tp.shape} "
                          "do not broadcast") from None
    if not np.all((xp >= -_DOMAIN_TOL) & (xp <= 1 + _DOMAIN_TOL)):
        raise DomainError("space point outside [0,1]^d")
    if not np.all(np.abs(tp) <= np.pi + _DOMAIN_TOL):
        raise DomainError("frequency point outside [-pi,pi]^d")
    return np.broadcast_to(s._eval(xp, tp), shape + (s.r, s.r))


def spectral_surfaces(s: Symbol, x, theta, mode: str = "sigma") -> np.ndarray:
    """Per-point singular values (descending) or eigenvalues (canonical order)
    at the points of :func:`evaluate`, as an (N, r) array, N the size of
    their broadcast leading shape, flattened in C order.

    Canonical eigenvalue order is ascending by real part, ties broken by
    imaginary part; symbols declared Hermitian go through the symmetric solver
    and yield real values when the sampled values are Hermitian too.
    """
    batch = evaluate(s, x, theta).reshape(-1, s.r, s.r)
    if not np.all(np.isfinite(batch)):
        flat = np.isfinite(batch.reshape(batch.shape[0], -1)).all(axis=1)
        i = int(np.argmin(flat))
        raise EvaluationError("non-finite symbol value", node=i)
    if mode == "sigma":
        if s.r == 1:
            return np.abs(batch[:, :, 0])
        return np.linalg.svd(batch, compute_uv=False)
    if mode == "lambda":
        # eigvalsh reads one triangle: trust the declared flag only when the
        # batch passes matgen.is_hermitian's relative Frobenius test.  A 1 x 1
        # block is its own eigenvalue, the real part of which eigvalsh reads.
        def norms(c):
            b = batch if c == 1.0 else batch / c
            return np.linalg.norm(b - np.conj(np.swapaxes(b, -1, -2))), np.linalg.norm(b)

        if s.hermitian and _hermitian_rule(norms, lambda: float(np.abs(batch).max(initial=0.0))):
            return batch[:, :, 0].real if s.r == 1 else np.linalg.eigvalsh(batch)
        return batch[:, :, 0] if s.r == 1 else np.sort(np.linalg.eigvals(batch), axis=-1)
    raise ConfigurationError(f"unknown mode {mode!r}")


def _hermitian_rule(norms: Callable[[float], tuple], top: Callable[[], float]) -> bool:
    """||A - A*||_F <= HERMITIAN_RTOL ||A||_F, from ``norms(s)``, the two
    norms of A / s, at s = 1.  Where a difference or a sum of squares
    overflows, or ||A||_F^2 falls below the smallest normal float, the
    norms are taken again at s = ``top()``, A's largest modulus, if it is
    positive and finite."""
    with np.errstate(over="ignore"):
        skew, scale = norms(1.0)
    if not np.isfinite(skew + scale) or scale < np.sqrt(np.finfo(float).tiny):
        s = top()
        if 0.0 < s < np.inf:
            skew, scale = norms(s)
    return bool(skew <= HERMITIAN_RTOL * max(scale, 1e-300))


def frequency_grid(samples_per_dim: int, d: int) -> np.ndarray:
    """Uniform tensor grid on [-pi, pi]^d with spacing 2 pi / N (period endpoint omitted)."""
    line = -np.pi + 2 * np.pi * np.arange(samples_per_dim) / samples_per_dim
    mesh = np.meshgrid(*([line] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def fourier_coefficients(f: Callable[[np.ndarray], np.ndarray], degree: int | Sequence[int],
                         samples_per_dim: int, d: int, r: int) -> TrigPolynomial:
    """Discrete-Fourier-rule coefficients (1/(2pi)^d) int f(theta) exp(-i k.theta).

    ``f`` is a vectorized callable mapping an (N, d) array of angles to
    (N, r, r) values.  The uniform-grid rule is exact (to roundoff) when f is
    a trig polynomial of degree < N/2, hence the aliasing guard
    ``samples_per_dim > 2 * max(degree)``.  A grid of more than
    ``FOURIER_NODE_CAP`` nodes is refused before it is allocated.
    """
    deg = as_multiindex(degree)
    if len(deg) == 1 and d > 1:
        deg = deg * d
    if len(deg) != d:
        raise ConfigurationError(f"degree {deg} does not match d={d}")
    if min(deg) < 0:
        raise ConfigurationError(f"degree {deg} has a negative entry")
    n = int(samples_per_dim)
    if n <= 2 * max(deg):
        raise ConfigurationError(
            f"samples_per_dim={n} violates the aliasing guard (> {2 * max(deg)} required)"
        )
    if n**d > FOURIER_NODE_CAP:
        raise SizeCapError(f"Fourier grid of {n}^{d} nodes exceeds the cap {FOURIER_NODE_CAP}")
    theta = frequency_grid(n, d)
    vals = np.asarray(f(theta), dtype=complex)
    weight = 1.0 / theta.shape[0]
    coeffs = {}
    for k in itertools.product(*(range(-v, v + 1) for v in deg)):
        phases = np.exp(-1j * theta @ np.asarray(k, dtype=float))
        coeffs[k] = weight * np.einsum("n,nab->ab", phases, vals)
    return TrigPolynomial(d, r, coeffs)
