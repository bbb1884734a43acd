"""Matrix-valued symbols on [0,1]^d x [-pi,pi]^d.

A symbol is an evaluable map kappa(x, theta) into r x r complex matrices.
This module holds the leaves: trigonometric polynomials (frequency-only)
and coefficient functions (space-only).  A constant c is the ``Scalar``
node of the expression tree, whose symbol is c times the identity.  The
pointwise algebra over the leaves (sums, products, adjoints, inverses,
continuous functions) and its one Hermitian rule live on the expression tree
of :mod:`gltlab.gltcalc`, whose ``symbol_of`` evaluates that tree.
Evaluation is vectorized: points are passed as (N, d) arrays and values
come back as (N, r, r) stacks.

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
    """Normalize a point or batch of points to shape (N, d)."""
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        # A single d-dimensional point.
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.shape[1] != d:
        raise DomainError(f"{name} points must have {d} coordinates, got shape {arr.shape}")
    return arr


class Symbol:
    """Base class; subclasses implement ``_eval(x, theta) -> (N, r, r)``."""

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
    def degree(self) -> MultiIndex:
        if not self.coeffs:
            return (0,) * self.d
        return tuple(
            max(abs(k[j]) for k in self.coeffs) for j in range(self.d)
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

    def coefficient(self, k: Sequence[int]) -> np.ndarray:
        k = as_multiindex(k)
        return np.array(self.coeffs.get(k, np.zeros((self.r, self.r), dtype=complex)))

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
            return np.zeros((theta.shape[0], self.r, self.r), dtype=complex)
        # A real GEMM, exponentiated in place so that one (N, K) complex
        # array is live.  The complex GEMM of ``1j * theta`` gives the same
        # bits, but np.exp on its output ran ~10x slower: 0.11-0.14 s against
        # 0.01 s for 65,536 x 5 entries on a 2-core Skylake-X Xeon, with one
        # BLAS thread too.
        phases = np.multiply(theta @ self._offsets.T, 1j)  # (N, K)
        np.exp(phases, out=phases)
        return np.einsum("nk,kab->nab", phases, self._blocks)


class CoefficientFunction(Symbol):
    """Space-only symbol a : [0,1]^d -> C^{r x r}.

    ``fn`` must be vectorized: it receives an (N, d) array and returns an
    (N, r, r) (or (N,) for r = 1) array.  Riemann integrability is declared,
    not checked.
    """

    def __init__(self, d: int, r: int, fn: Callable[[np.ndarray], np.ndarray],
                 hermitian: bool = False, name: str = "a"):
        self.d = int(d)
        self.r = int(r)
        self._fn = fn
        self._hermitian = bool(hermitian)
        self.name = name

    @classmethod
    def from_scalar(cls, d: int, fn: Callable[..., np.ndarray], hermitian: bool = True,
                    name: str = "a") -> "CoefficientFunction":
        """Wrap a scalar function of the d coordinate arrays."""

        def vec(x: np.ndarray) -> np.ndarray:
            vals = np.asarray(fn(*(x[:, j] for j in range(d))), dtype=complex)
            return np.broadcast_to(vals, (x.shape[0],)).reshape(-1, 1, 1)

        return cls(d, 1, vec, hermitian=hermitian, name=name)

    @property
    def depends_space(self) -> bool:
        return True

    @property
    def hermitian(self) -> bool:
        return self._hermitian

    def _eval(self, x, theta):
        vals = np.asarray(self._fn(x), dtype=complex)
        if vals.shape == (x.shape[0],):
            vals = vals.reshape(-1, 1, 1)
        if vals.shape != (x.shape[0], self.r, self.r):
            raise EvaluationError(
                f"coefficient function {self.name!r} returned shape {vals.shape}, "
                f"expected ({x.shape[0]}, {self.r}, {self.r})"
            )
        return vals


def evaluate(s: Symbol, x, theta) -> np.ndarray:
    """Evaluate kappa at one point (returns (r, r)) or a batch (returns (N, r, r)).

    Points must lie in [0,1]^d x [-pi,pi]^d.
    """
    single = np.asarray(x, dtype=float).ndim <= 1 and np.asarray(theta, dtype=float).ndim <= 1
    xp = _as_points(x, s.d, "space")
    tp = _as_points(theta, s.d, "frequency")
    if xp.shape[0] != tp.shape[0]:
        if xp.shape[0] == 1:
            xp = np.broadcast_to(xp, (tp.shape[0], s.d))
        elif tp.shape[0] == 1:
            tp = np.broadcast_to(tp, (xp.shape[0], s.d))
        else:
            raise DomainError("space and frequency batches differ in length")
    if np.any(xp < -_DOMAIN_TOL) or np.any(xp > 1 + _DOMAIN_TOL):
        raise DomainError("space point outside [0,1]^d")
    if np.any(np.abs(tp) > np.pi + _DOMAIN_TOL):
        raise DomainError("frequency point outside [-pi,pi]^d")
    vals = s._eval(xp, tp)
    return vals[0] if single else vals


def spectral_surfaces(s: Symbol, x, theta, mode: str = "sigma") -> np.ndarray:
    """Per-point singular values (descending) or eigenvalues (canonical order).

    Canonical eigenvalue order is ascending by real part, ties broken by
    imaginary part; symbols declared Hermitian go through the symmetric solver
    and yield real values when the sampled values are Hermitian too.
    """
    vals = evaluate(s, x, theta)
    batch = vals if vals.ndim == 3 else vals[None]
    if not np.all(np.isfinite(batch)):
        flat = np.isfinite(batch.reshape(batch.shape[0], -1)).all(axis=1)
        i = int(np.argmin(flat))
        raise EvaluationError("non-finite symbol value", node=i)
    if mode == "sigma":
        if s.r == 1:
            out = np.abs(batch[:, :, 0])
        else:
            out = np.linalg.svd(batch, compute_uv=False)
    elif mode == "lambda":
        # eigvalsh reads one triangle: trust the declared flag only when the
        # batch passes matgen.is_hermitian's relative Frobenius test.
        if s.hermitian and np.linalg.norm(batch - np.conj(np.swapaxes(batch, -1, -2))) \
                <= HERMITIAN_RTOL * max(np.linalg.norm(batch), 1e-300):
            out = np.linalg.eigvalsh(batch)
        else:
            out = np.sort(np.linalg.eigvals(batch), axis=-1)
    else:
        raise ConfigurationError(f"unknown mode {mode!r}")
    return out if vals.ndim == 3 else out[0]


def frequency_grid(samples_per_dim: int, d: int) -> np.ndarray:
    """Uniform tensor grid on [-pi, pi]^d with spacing 2 pi / N (period endpoint omitted)."""
    line = -np.pi + 2 * np.pi * np.arange(samples_per_dim) / samples_per_dim
    mesh = np.meshgrid(*([line] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def fourier_coefficients(f, degree: int | Sequence[int], samples_per_dim: int,
                         d: int | None = None, r: int | None = None) -> TrigPolynomial:
    """Discrete-Fourier-rule coefficients (1/(2pi)^d) int f(theta) exp(-i k.theta).

    ``f`` is a frequency-only :class:`Symbol` or a vectorized callable mapping
    an (N, d) array of angles to (N, r, r) values.  The uniform-grid rule is
    exact (to roundoff) when f is a trig polynomial of degree < N/2, hence the
    aliasing guard ``samples_per_dim > 2 * max(degree)``.  A grid of more
    than ``FOURIER_NODE_CAP`` nodes is refused before it is allocated.
    """
    if isinstance(f, Symbol):
        if f.depends_space:
            raise ConfigurationError("Fourier coefficients require a frequency-only symbol")
        d, r = f.d, f.r
        fn = lambda theta: evaluate(f, np.full((theta.shape[0], f.d), 0.5), theta)
    else:
        if d is None or r is None:
            raise ConfigurationError("callable input requires explicit d and r")
        fn = f
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
    vals = np.asarray(fn(theta), dtype=complex)
    if vals.shape == (theta.shape[0],):
        vals = vals.reshape(-1, 1, 1)
    weight = 1.0 / theta.shape[0]
    coeffs = {}
    for k in itertools.product(*(range(-v, v + 1) for v in deg)):
        phases = np.exp(-1j * theta @ np.asarray(k, dtype=float))
        coeffs[k] = weight * np.einsum("n,nab->ab", phases, vals)
    return TrigPolynomial(d, r, coeffs)
