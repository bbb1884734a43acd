"""Expression trees over the algebra generators and their symbol calculus.

Leaves are Toeplitz(f), Diag(a), Zero, and Scalar constants (a scalar c acts
as c times the identity, i.e. the Toeplitz sequence of the constant symbol);
internal nodes are Adjoint, LinComb, Product, PseudoInverse, and FunApply.
``symbol_of`` maps an expression structurally to its symbol; ``materialize``
produces the matrix at a given size with the corresponding matrix operations.

Hermitian-ness is inferred structurally (coefficient symmetry for Toeplitz
leaves, declared flags for coefficient functions, realness of scalars), never
detected numerically: the calculus gates eigenvalue-mode verification and
continuous-function application on that declaration.  The solver that
computes a spectrum is chosen from a numeric test instead (see
:func:`gltlab.spectra.spectrum`), because declared flags can be wrong:
``CoefficientFunction.from_scalar`` declares Hermitian by default.

Materialized matrices stay float64 while every leaf and scalar is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import CalculusError, ConfigurationError, ModeError
from .matgen import BlockMatrix, as_array, diag_sampling, is_hermitian, toeplitz, zeros
from .multiindex import MultiIndex, check_size, format_multiindex, nu
from .spectra import (
    LAMBDA,
    SIGMA,
    DistributionReport,
    _normalize_sizes,
    distribution_check,
    non_increasing,
    spectrum,
    trending_to_zero,
)
from .symbols import (
    CoefficientFunction,
    ConstantSymbol,
    Symbol,
    SymbolAdjoint,
    SymbolFunction,
    SymbolInverse,
    SymbolProduct,
    SymbolSum,
    TrigPolynomial,
)

PINV_RCOND = 1e-10

FUNCTION_CATALOGUE: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "id": lambda x: x,
    "sq": lambda x: x**2,
    "cube": lambda x: x**3,
}

class GLTExpression:
    """Base node; subclasses are plain dataclasses."""

    def dims(self) -> tuple[int | None, int | None]:
        """(d, r) resolved from the structural leaves, (None, None) if only
        scalars occur."""
        raise NotImplementedError

    @property
    def hermitian(self) -> bool:
        raise NotImplementedError

    def children(self) -> tuple["GLTExpression", ...]:
        return ()


@dataclass(eq=False)
class Toeplitz(GLTExpression):
    poly: TrigPolynomial

    def dims(self):
        return self.poly.d, self.poly.r

    @property
    def hermitian(self):
        return self.poly.hermitian


@dataclass(eq=False)
class Diag(GLTExpression):
    coefficient: CoefficientFunction
    # scalar-expression ASTs (matrix of dsl.ScalarExpr) when built by the DSL;
    # None for programmatic closures, which then cannot be formatted.
    exprs: tuple | None = None

    def dims(self):
        return self.coefficient.d, self.coefficient.r

    @property
    def hermitian(self):
        return self.coefficient.hermitian


@dataclass(eq=False)
class Zero(GLTExpression):
    def dims(self):
        return None, None

    @property
    def hermitian(self):
        return True


@dataclass(eq=False)
class Scalar(GLTExpression):
    value: complex

    def dims(self):
        return None, None

    @property
    def hermitian(self):
        return complex(self.value).imag == 0.0


@dataclass(eq=False)
class Adjoint(GLTExpression):
    child: GLTExpression

    def dims(self):
        return self.child.dims()

    @property
    def hermitian(self):
        return self.child.hermitian

    def children(self):
        return (self.child,)


@dataclass(eq=False)
class LinComb(GLTExpression):
    alpha: complex
    left: GLTExpression
    beta: complex
    right: GLTExpression

    def dims(self):
        return _merge_dims(self.left.dims(), self.right.dims())

    @property
    def hermitian(self):
        return (
            complex(self.alpha).imag == 0.0
            and complex(self.beta).imag == 0.0
            and self.left.hermitian
            and self.right.hermitian
        )

    def children(self):
        return (self.left, self.right)


@dataclass(eq=False)
class Product(GLTExpression):
    left: GLTExpression
    right: GLTExpression

    def dims(self):
        return _merge_dims(self.left.dims(), self.right.dims())

    @property
    def hermitian(self):
        # A B is Hermitian in general only when one factor is a real scalar.
        for a, b in ((self.left, self.right), (self.right, self.left)):
            if isinstance(a, Scalar) and a.hermitian and b.hermitian:
                return True
        return False

    def children(self):
        return (self.left, self.right)


@dataclass(eq=False)
class PseudoInverse(GLTExpression):
    child: GLTExpression
    invertible_ae: bool = True

    def dims(self):
        return self.child.dims()

    @property
    def hermitian(self):
        return self.child.hermitian

    def children(self):
        return (self.child,)


@dataclass(eq=False)
class FunApply(GLTExpression):
    name: str
    child: GLTExpression
    assume_hermitian: bool = False

    def dims(self):
        return self.child.dims()

    @property
    def hermitian(self):
        return True

    def children(self):
        return (self.child,)


def _merge_dims(a, b):
    d = a[0] if a[0] is not None else b[0]
    r = a[1] if a[1] is not None else b[1]
    if a[0] is not None and b[0] is not None and a != b:
        raise ConfigurationError(f"leaves disagree on (d, r): {a} vs {b}")
    return d, r


def structurally_equal(a: GLTExpression, b: GLTExpression) -> bool:
    """Structural tree equality (coefficient tables compared exactly)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Toeplitz):
        pa, pb = a.poly, b.poly
        if (pa.d, pa.r) != (pb.d, pb.r) or set(pa.coeffs) != set(pb.coeffs):
            return False
        return all(np.array_equal(pa.coeffs[k], pb.coeffs[k]) for k in pa.coeffs)
    if isinstance(a, Diag):
        if a.exprs is None or b.exprs is None:
            return a.coefficient is b.coefficient
        return a.exprs == b.exprs
    if isinstance(a, Zero):
        return True
    if isinstance(a, Scalar):
        return complex(a.value) == complex(b.value)
    if isinstance(a, Adjoint):
        return structurally_equal(a.child, b.child)
    if isinstance(a, LinComb):
        return (
            complex(a.alpha) == complex(b.alpha)
            and complex(a.beta) == complex(b.beta)
            and structurally_equal(a.left, b.left)
            and structurally_equal(a.right, b.right)
        )
    if isinstance(a, Product):
        return structurally_equal(a.left, b.left) and structurally_equal(a.right, b.right)
    if isinstance(a, PseudoInverse):
        return structurally_equal(a.child, b.child)
    if isinstance(a, FunApply):
        return (
            a.name == b.name
            and a.assume_hermitian == b.assume_hermitian
            and structurally_equal(a.child, b.child)
        )
    return False


def map_toeplitz_leaves(e: GLTExpression,
                        fn: Callable[[TrigPolynomial], TrigPolynomial]) -> GLTExpression:
    """Rebuild the tree with every Toeplitz coefficient table transformed."""
    if isinstance(e, Toeplitz):
        return Toeplitz(fn(e.poly))
    if isinstance(e, Adjoint):
        return Adjoint(map_toeplitz_leaves(e.child, fn))
    if isinstance(e, LinComb):
        return LinComb(e.alpha, map_toeplitz_leaves(e.left, fn),
                       e.beta, map_toeplitz_leaves(e.right, fn))
    if isinstance(e, Product):
        return Product(map_toeplitz_leaves(e.left, fn), map_toeplitz_leaves(e.right, fn))
    if isinstance(e, PseudoInverse):
        return replace(e, child=map_toeplitz_leaves(e.child, fn))
    if isinstance(e, FunApply):
        return replace(e, child=map_toeplitz_leaves(e.child, fn))
    return e


def truncate_toeplitz(e: GLTExpression, degree: int) -> GLTExpression:
    """Degree-m truncation of every Toeplitz leaf (the canonical a.c.s. family)."""
    return map_toeplitz_leaves(e, lambda poly: poly.truncated(degree))


# ---------------------------------------------------------------------------
# symbol assignment


def _resolve_dims(e: GLTExpression, d: int | None, r: int | None) -> tuple[int, int]:
    ed, er = e.dims()
    d = ed if ed is not None else d
    r = er if er is not None else r
    if d is None or r is None:
        raise ConfigurationError(
            "expression has no structural leaf; pass explicit d and r"
        )
    return d, r


def symbol_of(e: GLTExpression, d: int | None = None, r: int | None = None) -> Symbol:
    """Structural symbol map: Toeplitz(f) -> f(theta), Diag(a) -> a(x),
    Zero -> O_r, with the node operations acting pointwise."""
    d, r = _resolve_dims(e, d, r)
    return _symbol_of(e, d, r)


def _symbol_of(e: GLTExpression, d: int, r: int) -> Symbol:
    if isinstance(e, Toeplitz):
        return e.poly
    if isinstance(e, Diag):
        return e.coefficient
    if isinstance(e, Zero):
        return ConstantSymbol(d, np.zeros((r, r)))
    if isinstance(e, Scalar):
        return ConstantSymbol(d, complex(e.value) * np.eye(r))
    if isinstance(e, Adjoint):
        return SymbolAdjoint(_symbol_of(e.child, d, r))
    if isinstance(e, LinComb):
        return SymbolSum(e.alpha, _symbol_of(e.left, d, r), e.beta, _symbol_of(e.right, d, r))
    if isinstance(e, Product):
        return SymbolProduct(_symbol_of(e.left, d, r), _symbol_of(e.right, d, r))
    if isinstance(e, PseudoInverse):
        if not e.invertible_ae:
            raise CalculusError(
                "pseudo-inverse requires an invertible-a.e. declaration on its child"
            )
        return SymbolInverse(_symbol_of(e.child, d, r))
    if isinstance(e, FunApply):
        if e.name not in FUNCTION_CATALOGUE:
            raise CalculusError(f"unknown function {e.name!r}")
        child = _symbol_of(e.child, d, r)
        if not (child.hermitian or e.assume_hermitian):
            raise CalculusError(
                "continuous-function application requires a Hermitian-declared child"
            )
        return SymbolFunction(e.name, FUNCTION_CATALOGUE[e.name], child,
                              assume_hermitian=e.assume_hermitian)
    raise ConfigurationError(f"unknown expression node {type(e).__name__}")


# ---------------------------------------------------------------------------
# materialization


def materialize(e: GLTExpression, n, r: int | None = None,
                cap: int | None = None) -> BlockMatrix:
    """The matrix of the expression at size n (node-wise matrix operations)."""
    n = check_size(n)
    _, rr = _resolve_dims(e, len(n), r if r is not None else 1)
    notes: list[str] = []
    data = _materialize(e, n, rr, cap, notes)
    return BlockMatrix(data, rr, n, notes=tuple(notes))


def _coefficient(value: complex) -> float | complex:
    """A scalar as float when its imaginary part is exactly zero, so that real
    sums and products stay in float64."""
    value = complex(value)
    return value.real if value.imag == 0.0 else value


def _materialize(e: GLTExpression, n: MultiIndex, r: int, cap, notes: list[str]) -> np.ndarray:
    if isinstance(e, Toeplitz):
        return toeplitz(e.poly, n, cap=cap).data
    if isinstance(e, Diag):
        return diag_sampling(e.coefficient, n, cap=cap).data
    if isinstance(e, Zero):
        return zeros(n, r).data
    if isinstance(e, Scalar):
        return _coefficient(e.value) * np.eye(r * nu(n))
    if isinstance(e, Adjoint):
        return _materialize(e.child, n, r, cap, notes).conj().T
    if isinstance(e, LinComb):
        return _coefficient(e.alpha) * _materialize(e.left, n, r, cap, notes) + _coefficient(
            e.beta
        ) * _materialize(e.right, n, r, cap, notes)
    if isinstance(e, Product):
        return _materialize(e.left, n, r, cap, notes) @ _materialize(e.right, n, r, cap, notes)
    if isinstance(e, PseudoInverse):
        child = _materialize(e.child, n, r, cap, notes)
        # np.linalg.pinv(child, rcond=PINV_RCOND) step by step, so that its
        # one SVD also serves the truncation note.
        u, sv, vt = np.linalg.svd(child.conj(), full_matrices=False)
        kept = sv > PINV_RCOND * sv[0]
        if not kept.all():
            notes.append(
                f"pseudo-inverse at n={format_multiindex(n)} truncated "
                f"{int(np.sum(~kept))} singular values below {PINV_RCOND:g} * sigma_1"
            )
        inv_sv = np.divide(1, sv, where=kept, out=np.zeros_like(sv))
        return vt.T @ (inv_sv[:, None] * u.T)
    if isinstance(e, FunApply):
        if e.name not in FUNCTION_CATALOGUE:
            raise CalculusError(f"unknown function {e.name!r}")
        child = _materialize(e.child, n, r, cap, notes)
        # Declared flags are not reliable (``from_scalar`` declares Hermitian
        # by default) and eigh reads only one triangle: test the matrix.
        if not (e.assume_hermitian or is_hermitian(child)):
            raise CalculusError(
                f"matrix function requires a Hermitian child; the child at "
                f"n={format_multiindex(n)} is not Hermitian"
            )
        w, v = np.linalg.eigh(child)
        fw = np.asarray(FUNCTION_CATALOGUE[e.name](w))
        return (v * fw[None, :]) @ v.conj().T
    raise ConfigurationError(f"unknown expression node {type(e).__name__}")


# ---------------------------------------------------------------------------
# verification


@dataclass
class QuasiHermitianSplitReport:
    """Per-size norms of the split A = X + Y and the boundedness/vanishing verdict."""

    sizes: list[MultiIndex]
    norm_x: list[float]
    norm_y: list[float]
    trace_norm_y_normalized: list[float]
    passed: bool
    metadata: dict = field(default_factory=dict)


def glt5_split_check(seq, sizes: Sequence, hermitian_part=None,
                     growth_slack: float = 1.1, trend_slack: float = 1.5,
                     decay: float = 0.5) -> QuasiHermitianSplitReport:
    """Split A = X + Y with X Hermitian and test: both spectral norms bounded
    (no growth beyond ``growth_slack`` per size step) and nu(n)^{-1} ||Y||_1
    trending to zero.

    ``hermitian_part(n)`` may supply a user-declared Hermitian X (checked
    numerically); the default is (A + A*)/2.  ||X|| comes from the Hermitian
    eigensolver, ||Y|| and ||Y||_1 from one SVD of Y.
    """
    norm_sizes = _normalize_sizes(sizes)
    nx: list[float] = []
    ny: list[float] = []
    ty: list[float] = []
    for n in norm_sizes:
        a = as_array(seq(n))
        if hermitian_part is not None:
            x = as_array(hermitian_part(n))
            if not is_hermitian(x):
                raise ModeError(f"declared Hermitian part at n={n} is not Hermitian")
        else:
            x = (a + a.conj().T) / 2.0
        y = a - x
        nx.append(float(spectrum(x, SIGMA, hermitian=True)[0]))
        sv_y = spectrum(y, SIGMA)
        ny.append(float(sv_y[0]))
        ty.append(float(np.sum(sv_y)) / nu(n))
    bounded = non_increasing(nx, slack=growth_slack) and non_increasing(ny, slack=growth_slack)
    vanishing = trending_to_zero(ty, slack=trend_slack, decay=decay)
    return QuasiHermitianSplitReport(
        sizes=norm_sizes,
        norm_x=nx,
        norm_y=ny,
        trace_norm_y_normalized=ty,
        passed=bounded and vanishing,
        metadata={
            "growth_slack": growth_slack,
            "trend_slack": trend_slack,
            "decay": decay,
        },
    )


def glt1_verify(e: GLTExpression, sizes: Sequence, mode: str = "sigma",
                basket=None, r: int | None = None, **kwargs) -> DistributionReport:
    """Verify the singular value (or, for Hermitian sequences, eigenvalue)
    distribution of the materialized expression against its symbol.

    Eigenvalue mode on a non-Hermitian expression first runs the
    quasi-Hermitian split check over the same sizes; a passing split grants
    the waiver, a failing one raises ModeError.
    """
    sym = symbol_of(e, r=r)
    # On the waiver path both checks read every size: the split check keeps
    # each matrix and the distribution check takes it back, so every size is
    # materialized once and dropped after its second use.
    kept: dict[MultiIndex, BlockMatrix] = {}

    def seq(n):
        return kept.pop(n) if n in kept else materialize(e, n, r=r)

    if mode == LAMBDA and not e.hermitian:
        def split_seq(n):
            kept[n] = materialize(e, n, r=r)
            return kept[n]

        split = glt5_split_check(split_seq, sizes)
        if not split.passed:
            raise ModeError(
                "eigenvalue mode requires Hermitian matrices or a passing "
                "quasi-Hermitian split check"
            )
        kwargs.setdefault("allow_non_hermitian", True)
    return distribution_check(seq, sym, sizes, mode=mode, basket=basket, **kwargs)
