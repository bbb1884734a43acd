"""Expression trees over the algebra generators and their symbol calculus.

Leaves are Toeplitz(f), Diag(a), Zero, and Scalar constants (a scalar c acts
as c times the identity, i.e. the Toeplitz sequence of the constant symbol);
internal nodes are Adjoint, LinComb, Product, PseudoInverse, and FunApply.
This tree is the only operator tree: the symbol map is a *-homomorphism, so
``symbol_of`` returns an :class:`ExpressionSymbol` that evaluates the same
tree with each node's operation applied pointwise to the leaf symbols of
:mod:`gltlab.symbols`, while ``materialize`` produces the matrix at a given
size with the corresponding matrix operations.

Hermitian-ness is inferred structurally (coefficient symmetry for Toeplitz
leaves, declared flags for coefficient functions, realness of scalars) by
``_hermitian``, the one rule that every node's ``hermitian`` property and
the symbol read; it is never detected numerically: the calculus gates
eigenvalue-mode verification and continuous-function application on that
declaration.  The solver that computes a spectrum is chosen from a numeric
test instead (see :func:`gltlab.spectra.spectrum`), because declared flags
can be wrong: a ``CoefficientFunction`` may be constructed with
``hermitian=True`` for a function that is not.

Materialized matrices stay float64 while every leaf and scalar is real.  A
tree whose band bound (:func:`_band`) passes the band rule is materialized
into LAPACK band storage and its dense array is built only if a route reads it.

``glt5_split_check`` and ``glt1_verify`` return a
:class:`~gltlab.reports.Report`; the split check's facts carry the per-size
norms, and every check records the materialization notes (pseudo-inverse
truncation) of the matrices it read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import CalculusError, ConfigurationError, ModeError, SingularEvaluationError
from .matgen import (
    BlockMatrix,
    _adjoint_band,
    _band_rows,
    _check_cap,
    _exact_dtype,
    _fitting_offsets,
    _stored,
    _take_notes,
    as_array,
    diag_samples,
    diag_sampling,
    diagonal_band,
    is_hermitian,
    toeplitz,
    toeplitz_band,
    zeros,
)
from .multiindex import MultiIndex, check_size, format_multiindex, nu
from .reports import Report
from .spectra import (
    DECAY,
    LAMBDA,
    SIGMA,
    SLACK,
    _check_basket,
    _finite,
    _fits,
    _hermitian_norm,
    _normalize_sizes,
    _spectrum,
    distribution_check,
    non_increasing,
    trending_to_zero,
)
from .symbols import CoefficientFunction, Symbol, TrigPolynomial

PINV_RCOND = 1e-10
GROWTH_SLACK = 1.1  # growth per size step that still counts as a bounded norm
_SINGULAR_TOL = 1e-13  # |symbol| at or below this is singular (r = 1)

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
    """Base node; subclasses are plain dataclasses whose
    :class:`GLTExpression` fields are their children."""

    def children(self) -> tuple["GLTExpression", ...]:
        return tuple(_child_fields(self).values())

    def dims(self) -> tuple[int | None, int | None]:
        """(d, r) resolved from the structural leaves, (None, None) if only
        scalars occur."""
        out = (None, None)
        for child in self.children():
            out = _merge_dims(out, child.dims())
        return out

    @property
    def hermitian(self) -> bool:
        """The structural Hermitian declaration of :func:`_hermitian`."""
        return _hermitian(self)


def _child_fields(e: GLTExpression) -> dict[str, GLTExpression]:
    return {f.name: getattr(e, f.name) for f in fields(e)
            if isinstance(getattr(e, f.name), GLTExpression)}


@dataclass(eq=False)
class Toeplitz(GLTExpression):
    poly: TrigPolynomial

    def dims(self):
        return self.poly.d, self.poly.r


@dataclass(eq=False)
class Diag(GLTExpression):
    coefficient: CoefficientFunction
    # scalar-expression ASTs (matrix of dsl.ScalarExpr) when built by the DSL;
    # None for programmatic closures, which then cannot be formatted.
    exprs: tuple | None = None

    def dims(self):
        return self.coefficient.d, self.coefficient.r


@dataclass(eq=False)
class Zero(GLTExpression):
    pass


@dataclass(eq=False)
class Scalar(GLTExpression):
    value: complex


@dataclass(eq=False)
class Adjoint(GLTExpression):
    child: GLTExpression


@dataclass(eq=False)
class LinComb(GLTExpression):
    alpha: complex
    left: GLTExpression
    beta: complex
    right: GLTExpression


@dataclass(eq=False)
class Product(GLTExpression):
    left: GLTExpression
    right: GLTExpression


@dataclass(eq=False)
class PseudoInverse(GLTExpression):
    child: GLTExpression


@dataclass(eq=False)
class FunApply(GLTExpression):
    name: str
    child: GLTExpression


def _merge_dims(a, b):
    d = a[0] if a[0] is not None else b[0]
    r = a[1] if a[1] is not None else b[1]
    if a[0] is not None and b[0] is not None and a != b:
        raise ConfigurationError(f"leaves disagree on (d, r): {a} vs {b}")
    return d, r


def truncate_toeplitz(e: GLTExpression, degree: int) -> GLTExpression:
    """Degree-m truncation of every Toeplitz leaf (the canonical a.c.s. family)."""
    if isinstance(e, Toeplitz):
        return Toeplitz(e.poly.truncated(degree))
    return replace(e, **{name: truncate_toeplitz(child, degree)
                         for name, child in _child_fields(e).items()})


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
    return ExpressionSymbol(e, d, r)


def _scan(e: GLTExpression) -> tuple[bool, bool]:
    """(depends_space, depends_frequency) of the symbol of ``e``; raises
    CalculusError where the calculus assigns no symbol."""
    if isinstance(e, FunApply) and e.name not in FUNCTION_CATALOGUE:
        raise CalculusError(f"unknown function {e.name!r}")
    if isinstance(e, (Toeplitz, Diag)):
        leaf = e.poly if isinstance(e, Toeplitz) else e.coefficient
        return leaf.depends_space, leaf.depends_frequency
    if not isinstance(e, (Zero, Scalar, Adjoint, LinComb, Product, PseudoInverse, FunApply)):
        raise ConfigurationError(f"unknown expression node {type(e).__name__}")
    flags = [_scan(child) for child in e.children()]
    if isinstance(e, FunApply) and not _hermitian(e.child):
        raise CalculusError(
            "continuous-function application requires a Hermitian-declared child"
        )
    return any(s for s, _ in flags), any(f for _, f in flags)


def _hermitian(e: GLTExpression) -> bool:
    """Whether ``e`` is Hermitian-declared: a Hermitian leaf, a real scalar,
    ``Zero``, any ``FunApply``, the adjoint or pseudo-inverse of a Hermitian
    node, a real combination of Hermitian nodes, or a real scalar times a
    Hermitian node (a product is Hermitian in general only then)."""
    if isinstance(e, Toeplitz):
        return e.poly.hermitian
    if isinstance(e, Diag):
        return e.coefficient.hermitian
    if isinstance(e, Scalar):
        return complex(e.value).imag == 0.0
    if isinstance(e, (Zero, FunApply)):
        return True
    if isinstance(e, (Adjoint, PseudoInverse)):
        return _hermitian(e.child)
    if isinstance(e, LinComb):
        return (complex(e.alpha).imag == 0.0 and complex(e.beta).imag == 0.0
                and _hermitian(e.left) and _hermitian(e.right))
    if isinstance(e, Product):
        return any(isinstance(a, Scalar) and _hermitian(a) and _hermitian(b)
                   for a, b in ((e.left, e.right), (e.right, e.left)))
    raise ConfigurationError(f"unknown expression node {type(e).__name__}")


class ExpressionSymbol(Symbol):
    """The symbol of an expression, evaluated on the expression itself: each
    node applies its operation pointwise to the values of its children, and
    the structural rule :func:`_hermitian` says whether the symbol is Hermitian."""

    def __init__(self, e: GLTExpression, d: int, r: int):
        self.expression, self.d, self.r = e, d, r
        self._space, self._frequency = _scan(e)

    hermitian = property(lambda self: self.expression.hermitian)
    depends_space = property(lambda self: self._space)
    depends_frequency = property(lambda self: self._frequency)

    def _eval(self, x, theta):
        return self._values(self.expression, x, theta)

    def _values(self, e: GLTExpression, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        r = self.r
        if isinstance(e, Toeplitz):
            return e.poly._eval(x, theta)
        if isinstance(e, Diag):
            return e.coefficient._eval(x, theta)
        if isinstance(e, (Zero, Scalar)):
            return (complex(e.value) if isinstance(e, Scalar) else 0j) * np.eye(r)
        if isinstance(e, Adjoint):
            return np.conj(np.swapaxes(self._values(e.child, x, theta), -1, -2))
        if isinstance(e, LinComb):
            return (complex(e.alpha) * self._values(e.left, x, theta)
                    + complex(e.beta) * self._values(e.right, x, theta))
        if isinstance(e, Product):
            return self._values(e.left, x, theta) @ self._values(e.right, x, theta)
        vals = self._values(e.child, x, theta)
        if isinstance(e, FunApply):
            # f(kappa) through the pointwise spectral calculus.
            fn = FUNCTION_CATALOGUE[e.name]
            if r == 1:
                return np.asarray(fn(vals[..., 0, 0].real), dtype=complex)[..., None, None]
            w, v = np.linalg.eigh(vals)
            fw = np.asarray(fn(w), dtype=complex)
            return np.einsum("...ab,...b,...cb->...ac", v, fw, v.conj())
        # PseudoInverse: the pointwise inverse, valid for symbols invertible a.e.
        if r == 1:
            flat = vals[..., 0, 0]
            bad = np.abs(flat) <= _SINGULAR_TOL
            if np.any(bad):
                raise SingularEvaluationError(f"symbol vanishes at {_node(bad, x, theta)}")
            return (1.0 / flat)[..., None, None]
        try:
            out = np.linalg.inv(vals)
        except np.linalg.LinAlgError as exc:
            raise SingularEvaluationError(f"pointwise inverse failed: {exc}") from exc
        bad = ~np.isfinite(out).all(axis=(-2, -1))
        if np.any(bad):
            raise SingularEvaluationError(f"pointwise inverse non-finite at {_node(bad, x, theta)}")
        return out


def _node(bad: np.ndarray, x: np.ndarray, theta: np.ndarray) -> str:
    """The point of the first true entry of ``bad`` in the C order of the
    broadcast leading shape of the points x and theta."""
    shape = np.broadcast_shapes(x.shape[:-1], theta.shape[:-1])
    i = np.unravel_index(int(np.argmax(np.broadcast_to(bad, shape))), shape)
    xi, ti = (np.broadcast_to(p, shape + p.shape[-1:])[i] for p in (x, theta))
    return f"x={xi}, theta={ti}"


# ---------------------------------------------------------------------------
# materialization


def materialize(e: GLTExpression, n, r: int | None = None) -> BlockMatrix:
    """The matrix of the expression at size n (node-wise matrix operations).

    A root ``Product`` with r = 1 ``Diag`` factors whose samples are all real
    and strictly positive, D_a H D_b (a missing factor counting as the
    identity), gets the symmetrizer w = sqrt(a / b):
    W^-1 D_a H D_b W = D_sqrt(ab) H D_sqrt(ab) is Hermitian whenever H is.
    The matrix carries the band bound K of :func:`_band`; where it passes
    the band rule, ``_fits(K, N)``, the tree is written into band storage
    in O(N K) and its dense array is built only on first access.
    """
    n = check_size(n)
    _, rr = _resolve_dims(e, len(n), r if r is not None else 1)
    # Every node's matrix has this order: one cap check before any allocation.
    _check_cap(rr * nu(n))
    band, w = _band(e, n), _symmetrizer(e, n)
    if band is not None and _fits(band, rr * nu(n)):
        matrix = BlockMatrix(lambda: _exact_dtype(_materialize(e, n, rr, [])), rr, n,
                             symmetrizer=w)
        matrix.storage = _stored(_materialize(e, n, rr, [], band))
    else:
        notes: list[str] = []
        matrix = BlockMatrix(_materialize(e, n, rr, notes), rr, n, notes=tuple(notes),
                             symmetrizer=w)
    matrix.band = band
    return matrix


def _diagonal_factor(e: GLTExpression) -> bool:
    """Whether a product takes ``e`` as the vector of its diagonal: an r = 1
    ``Diag``, a ``Scalar`` or ``Z``."""
    return isinstance(e, (Scalar, Zero)) or isinstance(e, Diag) and e.coefficient.r == 1


def _band(e: GLTExpression, n: MultiIndex) -> int | None:
    """The band bound K of the matrix of ``e`` (see ``BlockMatrix``): for a
    Toeplitz leaf r times the largest |flat offset| that fits, plus r - 1
    within a block; r - 1 for a Diag, 0 for a scalar or Z.  An adjoint or a
    combination takes the largest of its children, a product with a
    diagonal factor (:func:`_diagonal_factor`) the sum.  A pseudo-inverse, a
    matrix function or a GEMM, a product of two matrices whose summation
    order belongs to the BLAS kernel, gives None (unknown): band storage
    repeats the elementwise operations of the other nodes."""
    if isinstance(e, Toeplitz):
        r = e.poly.r
        return r * max((abs(s) for _, s, _ in _fitting_offsets(e.poly.coeffs, n)), default=0) + r - 1
    if isinstance(e, (Diag, Zero, Scalar)):
        return e.coefficient.r - 1 if isinstance(e, Diag) else 0
    if isinstance(e, (Adjoint, LinComb)) or isinstance(e, Product) and any(
            map(_diagonal_factor, e.children())):
        bands = [_band(child, n) for child in e.children()]
        return None if None in bands else (sum if isinstance(e, Product) else max)(bands)
    return None


def _factor(e: GLTExpression, n: MultiIndex, r: int, notes: list[str],
            k: int | None = None) -> np.ndarray:
    """A product's factor: the sample vector of an r = 1 ``Diag``, the constant
    vector of a ``Scalar`` or ``Zero``, else its matrix (its band storage of
    half-width k when k is given)."""
    if isinstance(e, Diag) and _diagonal_factor(e):
        return diag_samples(e.coefficient, n)[:, 0, 0]
    if isinstance(e, (Scalar, Zero)):
        return np.full(r * nu(n), _coefficient(e.value) if isinstance(e, Scalar) else 0.0)
    return _materialize(e, n, r, notes, k)


def _product(left: np.ndarray, right: np.ndarray, k: int | None = None) -> np.ndarray:
    """left @ right, a 1-D factor standing for the diagonal matrix of its
    samples: it scales rows or columns, each entry the one nonzero product of
    the matmul, with no N x N diagonal and no O(N^3) work.  With k the matrix
    factor is band storage of half-width k, and so is the result."""
    if left.ndim == right.ndim == 2:
        return left @ right
    if left.ndim == right.ndim == 1:
        return np.diag(left * right) if k is None else diagonal_band(
            (left * right)[:, None, None], k)
    a, b = left, right
    if left.ndim == 1:
        a = left[:, None] if k is None else _band_rows(left, k)
    matrix = right if left.ndim == 1 else left
    # _materialize returns arrays that nothing else holds, so the matrix
    # factor takes the result in place whenever its dtype can.
    return np.multiply(a, b, out=matrix if np.result_type(a, b) == matrix.dtype else None)


def _symmetrizer(e: GLTExpression, n: MultiIndex) -> np.ndarray | None:
    """sqrt(a / b) for the samples a (left) and b (right) of the r = 1
    ``Diag`` factors of a root product, any other factor counting as 1 (a
    constant one too: its W is constant); None unless some factor is such a
    diagonal and every one is real and strictly positive."""
    if not isinstance(e, Product):
        return None
    a, b = (diag_samples(x.coefficient, n)[:, 0, 0]
            if isinstance(x, Diag) and _diagonal_factor(x) else 1.0 for x in (e.left, e.right))
    diagonals = [f for f in (a, b) if np.ndim(f) == 1]
    if not diagonals or any(np.iscomplexobj(f) or not np.all(f > 0) for f in diagonals):
        return None
    return np.sqrt(a / b)


def _coefficient(value: complex) -> float | complex:
    """A scalar as float when its imaginary part is exactly zero, so that real
    sums and products stay in float64."""
    value = complex(value)
    return value.real if value.imag == 0.0 else value


def _materialize(e: GLTExpression, n: MultiIndex, r: int, notes: list[str],
                 k: int | None = None) -> np.ndarray:
    """The matrix of ``e``, or with k (a tree with a :func:`_band` bound, k
    at least every node's) its diagonals -k..k in band storage,
    AB[k + i - j, j] = A[i, j], each entry from the float operations that
    give the dense matrix's, so the two agree bit for bit there."""
    if isinstance(e, Toeplitz):
        return toeplitz(e.poly, n).data if k is None else toeplitz_band(e.poly, n, k)
    if isinstance(e, Diag):
        return diag_sampling(e.coefficient, n).data if k is None else diagonal_band(
            diag_samples(e.coefficient, n), k)
    if isinstance(e, Zero):
        return zeros(n, r).data if k is None else np.zeros((2 * k + 1, r * nu(n)))
    if isinstance(e, Scalar):
        eye = np.eye(r * nu(n)) if k is None else diagonal_band(np.ones((r * nu(n), 1, 1)), k)
        return _coefficient(e.value) * eye
    if isinstance(e, Adjoint):
        child = _materialize(e.child, n, r, notes, k)
        return child.conj().T if k is None else _adjoint_band(child).conj()
    if isinstance(e, LinComb):
        return _coefficient(e.alpha) * _materialize(e.left, n, r, notes, k) + _coefficient(
            e.beta
        ) * _materialize(e.right, n, r, notes, k)
    if isinstance(e, Product):
        return _product(_factor(e.left, n, r, notes, k), _factor(e.right, n, r, notes, k), k)
    if isinstance(e, PseudoInverse):
        child = _materialize(e.child, n, r, notes)
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
        child = _materialize(e.child, n, r, notes)
        # Declared flags are not reliable (a CoefficientFunction may declare
        # Hermitian wrongly) and eigh reads only one triangle: test the matrix.
        if not is_hermitian(child):
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


class SplitRow(NamedTuple):
    n: MultiIndex
    norm_x: float
    norm_y: float
    trace_norm_y_over_nu: float
    verdict: str


def glt5_split_check(seq, sizes: Sequence) -> Report:
    """Split A = X + Y with X Hermitian and test: both spectral norms bounded
    (no growth beyond ``GROWTH_SLACK`` per size step) and nu(n)^{-1} ||Y||_1
    trending to zero.

    X = (A + A*)/2 and Y = (A - A*)/2 (:func:`_halves`), each read for
    finiteness (A + A* or A - A* of a finite A may overflow).  ||X|| comes
    from X's two extreme eigenvalues, bisected on the tridiagonal that X's
    band reduces to, or from the Hermitian eigensolver where that band
    takes the two-stage solver or none
    (:func:`~gltlab.spectra._hermitian_norm`); ||Y|| and ||Y||_1 from one
    SVD of Y (of half its order when Y is real and J Y J = -Y; see
    :func:`~gltlab.spectra.spectrum`).  The report's facts
    ``norm_x``, ``norm_y`` and ``trace_norm_y_over_nu`` hold the per-size
    series.
    """
    norm_sizes = _normalize_sizes(sizes)
    notes: list[str] = []
    nx: list[float] = []
    ny: list[float] = []
    ty: list[float] = []
    for n in norm_sizes:
        matrix = seq(n)
        _finite(matrix)  # before A + A* and A - A*, which turn inf into nan
        x, y = _halves(matrix, notes)  # y is skew by construction
        for half in (x, y):
            _finite(half)
        nx.append(_hermitian_norm(x))
        sv_y = _spectrum(y, SIGMA, None)
        ny.append(float(sv_y[0]))
        ty.append(float(np.sum(sv_y)) / nu(n))
    bounded = non_increasing(nx, slack=GROWTH_SLACK) and non_increasing(ny, slack=GROWTH_SLACK)
    vanishing = trending_to_zero(ty)
    passed = bounded and vanishing
    verdict = "PASS" if passed else "FAIL"
    return Report(
        passed=passed,
        columns=("n", "norm_x", "norm_y", "trace_norm_y_over_nu", "verdict"),
        rows=[SplitRow(*line, verdict) for line in zip(norm_sizes, nx, ny, ty)],
        checks=[{"name": "quasi-Hermitian split: bounded norms, vanishing trace norm"}],
        facts={"norm_x": nx, "norm_y": ny, "trace_norm_y_over_nu": ty},
        metadata={
            "growth_slack": GROWTH_SLACK,
            "trend_slack": SLACK,
            "decay": DECAY,
        },
        notes=notes,
    )


def _halves(matrix, notes: list[str]) -> list:
    """(A + A*)/2 and (A - A*)/2, each entry a_ij ± conj(a_ji) halved.  From
    band storage each is a 1-level matrix of A's order (so that the spectra
    take the dense arrays' routes) with band storage at A's bound K, taken
    from A's storage, that builds its dense array from A's on first
    access."""
    _take_notes(matrix, notes)

    def dense(op):  # halved in place: A's array and one more
        a = as_array(matrix)
        with np.errstate(over="ignore"):  # an overflow is the caller's to refuse
            out = op(a, a.conj().T)
        out /= 2.0
        return out

    if getattr(matrix, "storage", None) is None:
        return [dense(op) for op in (np.add, np.subtract)]
    star, halves = _adjoint_band(matrix.storage).conj(), []
    for op in (np.add, np.subtract):
        half = BlockMatrix(lambda op=op: dense(op), 1, matrix.shape[:1])
        with np.errstate(over="ignore"):
            half.band, half.storage = matrix.band, op(matrix.storage, star) / 2.0
        halves.append(half)
    return halves


def glt1_verify(e: GLTExpression, sizes: Sequence, mode: str = "sigma",
                basket=None, r: int | None = None, **kwargs) -> Report:
    """Verify the singular value (or, for Hermitian sequences, eigenvalue)
    distribution of the materialized expression against its symbol.

    Eigenvalue mode on a non-Hermitian expression first runs the
    quasi-Hermitian split check over the same sizes; a passing split grants
    the waiver, a failing one raises ModeError.  An empty basket raises
    InvalidParameterError before any matrix is built.
    """
    _check_basket(basket, kwargs.get("basket_ids"))
    sizes = _normalize_sizes(sizes)
    # d and r as materialize resolves them, so a leafless expression has a symbol
    sym = symbol_of(e, len(sizes[0]), 1 if r is None else r)
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
        kwargs["_read"] = frozenset(kept)  # the split check read each for finiteness
    return distribution_check(seq, sym, sizes, mode=mode, basket=basket, **kwargs)
