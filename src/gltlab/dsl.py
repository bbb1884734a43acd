"""Surface syntax for symbols and expressions over the algebra generators.

Grammar (EBNF)::

    expr   := ["-"] term { ("+"|"-") term } ;
    term   := factor { "*" factor } ;
    factor := atom { "'" | "^-1" } ;                 # adjoint, pseudo-inverse
    atom   := "T" "(" matfun ")" | "D" "(" matfun ")" | "Z"
            | "fun" "(" ident "," expr ")" | number | "i" | "(" expr ")" ;
    matfun := scalarexpr | "[" row { ";" row } "]" ;
    row    := scalarexpr { "," scalarexpr } ;

with scalarexpr the usual arithmetic over x1..xd, t1..td, numbers, i, cos,
sin, exp, abs, ^ and unary minus.  T-arguments may reference only t
variables, D-arguments only x variables.

Tokens (one regular expression): input is ASCII.  A number is digits and
dots, beginning with a digit or with a dot and a digit, with an optional
exponent (e or E, an optional sign, digits); one that float() refuses, such
as 1.2.3, is a bad number literal.  An identifier is a letter or underscore,
then letters, digits and underscores.  Whitespace is space, tab, CR and LF;
a tab is one column.  Any other character is unexpected.

Nesting is bounded: no tree may be deeper than _MAX_DEPTH = 120 levels.  The
whole expression, each parenthesis and each call (cos, sin, exp, abs, fun,
or the argument of T or D) take two levels; each operand after the first in
a chain of + - * /, each unary minus, each ^ exponent and each postfix ' or
^-1 take one more.  A constant that complex arithmetic cannot fold, such as
exp(1000), is refused.

Normalization (fixed, so that parse(format(e)) is structurally identical to
e): numeric literals fold (products/sums of pure scalars collapse to one
scalar), a leading minus folds into the first scalar factor, and T-arguments
are expanded symbolically to exponential (coefficient) form: one dict from
term to coefficient, where an offset tuple k is exp(i k.t), the zero tuple
the constant, and an int j the linear term t_{j+1}.  Sums merge their terms,
but a linear term beside a non-constant exponential term is not band-limited;
a product without linear terms is multiplied out, and a linear form is only
multiplied by a constant; division is only by a nonzero constant; an exponent
is a constant integer, and a linear form takes only ^0 or ^1; cos, sin and
exp read a linear form (integer frequencies, any constant) or a constant; abs
of a non-constant is not band-limited, nor is a T-argument that ends as a
linear form.  A linear term stays when its coefficient cancels, so
T((t1-t1)*t1) is not band-limited.  A one-term argument takes an integer power
in one step, a longer one is multiplied out; one that would take over
_MAX_EXPANSION coefficient products is out of range.
Non-band-limited T-arguments fall back to numeric Fourier coefficients with a
declared truncation degree; a non-finite coefficient is refused.  The
formatter writes each entry of a Toeplitz leaf from its coefficient table,
one term per coefficient in offset order: ``T(-exp(-i*t1)+2-exp(i*t1))``.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DslSyntaxError
from .gltcalc import (
    Adjoint,
    Diag,
    FunApply,
    FUNCTION_CATALOGUE,
    GLTExpression,
    LinComb,
    Product,
    PseudoInverse,
    Scalar,
    Toeplitz,
    Zero,
)
from .symbols import CoefficientFunction, TrigPolynomial, fourier_coefficients

_MAX_DEPTH = 120
_MAX_EXPANSION = 1 << 22  # coefficient products that multiplying out one power may take
_INT_TOL = 1e-9


# ---------------------------------------------------------------------------
# lexer


@dataclass(frozen=True)
class Token:
    kind: str  # 'num', 'ident', punctuation text, or 'eof'
    text: str
    value: float
    line: int
    col: int


# One alternative per token kind; whitespace matches no named group.  The
# classes are ASCII, so any other character is unexpected.
_TOKEN = re.compile(r"""(?P<newline>\n) | [ \t\r]+
    | (?P<num>(?:[0-9]|\.[0-9])[0-9.]*(?:[eE][+-]?[0-9]+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>[-+*/^'()\[\],;])
    | (?P<other>.)""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(text):
        kind, lexeme, col = match.lastgroup, match.group(), match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "other":
            raise DslSyntaxError(f"unexpected character {lexeme!r}", line, col)
        elif kind == "num":
            try:
                value = float(lexeme)
            except ValueError:
                raise DslSyntaxError(f"bad number literal {lexeme!r}", line, col)
            tokens.append(Token("num", lexeme, value, line, col))
        elif kind:
            tokens.append(Token("ident" if kind == "ident" else lexeme, lexeme, 0.0, line, col))
    tokens.append(Token("eof", "", 0.0, line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# scalar expression AST (arguments of T(...) and D(...))


@dataclass(frozen=True)
class SNum:
    value: complex


@dataclass(frozen=True)
class SVar:
    kind: str  # 'x' or 't'
    index: int  # 1-based


@dataclass(frozen=True)
class SBin:
    op: str  # + - * / ^
    left: "ScalarExpr"
    right: "ScalarExpr"


@dataclass(frozen=True)
class SCall:
    name: str  # cos sin exp abs
    arg: "ScalarExpr"


ScalarExpr = SNum | SVar | SBin | SCall

_SCALAR_CALLS = {"cos": cmath.cos, "sin": cmath.sin, "exp": cmath.exp, "abs": abs}

# The binary operators, for complex constants and for numpy arrays alike.
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
        "^": operator.pow}


def _fold_bin(op: str, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr:
    if isinstance(left, SNum) and isinstance(right, SNum):
        # ZeroDivisionError and OverflowError are handled by the parser
        return SNum(_OPS[op](left.value, right.value))
    return SBin(op, left, right)


def _fold_call(name: str, arg: ScalarExpr) -> ScalarExpr:
    if isinstance(arg, SNum):
        return SNum(complex(_SCALAR_CALLS[name](arg.value)))
    return SCall(name, arg)


def _fold_neg(arg: ScalarExpr) -> ScalarExpr:
    if isinstance(arg, SNum):
        return SNum(-arg.value)
    return SBin("*", SNum(-1.0 + 0.0j), arg)


# ---------------------------------------------------------------------------
# scalar formatter (canonical, invertible on parser-normal trees)

# Binding strength in both formatters; the postfix ' and ^-1 bind like ^.
_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5
_PREC = {"+": _P_ADD, "-": _P_ADD, "*": _P_MUL, "/": _P_MUL, "^": _P_POW}


def _num_repr(v: float) -> str:
    if abs(v) < 1e15 and v == int(v):
        return str(int(v))
    return repr(v)


def _fmt_snum(v: complex) -> tuple[str, int]:
    re, im = v.real, v.imag
    if im == 0.0:
        if re >= 0:
            return _num_repr(re), _P_ATOM
        return "-" + _num_repr(-re), _P_UNARY
    if re == 0.0:
        if im == 1.0:
            return "i", _P_ATOM
        if im == -1.0:
            return "-i", _P_UNARY
        if im > 0:
            return _num_repr(im) + "*i", _P_MUL
        return "-" + _num_repr(-im) + "*i", _P_UNARY
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    istr = "i" if mag == 1.0 else _num_repr(mag) + "*i"
    return f"({_num_repr(re) if re >= 0 else '-' + _num_repr(-re)}{sign}{istr})", _P_ATOM


def _fmt_scalar(e: ScalarExpr) -> tuple[str, int]:
    if isinstance(e, SNum):
        return _fmt_snum(e.value)
    if isinstance(e, SVar):
        return f"{e.kind}{e.index}", _P_ATOM
    if isinstance(e, SCall):
        inner, _ = _fmt_scalar(e.arg)
        return f"{e.name}({inner})", _P_ATOM
    if isinstance(e, SBin):
        if e.op == "*" and e.left == SNum(-1.0 + 0.0j):
            return "-" + _wrap(_fmt_scalar(e.right), _P_UNARY), _P_UNARY
        prec = _PREC[e.op]
        left, right = (_P_ATOM, _P_UNARY) if e.op == "^" else (prec, prec + 1)
        return _wrap(_fmt_scalar(e.left), left) + e.op + _wrap(_fmt_scalar(e.right), right), prec
    raise DslSyntaxError(f"cannot format scalar node {e!r}")


def _wrap(formatted: tuple[str, int], context: int) -> str:
    """Parenthesize a formatted (text, precedence) that binds looser than its context."""
    text, prec = formatted
    return "(" + text + ")" if prec < context else text


# ---------------------------------------------------------------------------
# Laurent expansion of band-limited scalar expressions


class _NotBandLimited(Exception):
    pass


# An expansion is the dict of terms of the module docstring.  An exponential
# term whose coefficient is zero goes; a linear term stays.


def _terms(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if v != 0 or isinstance(k, int)}


def _linear(a: dict) -> bool:
    return any(isinstance(k, int) for k in a)


def _waves(a: dict) -> bool:
    """Whether ``a`` holds a non-constant exponential term."""
    return any(isinstance(k, tuple) and any(k) for k in a)


def _const(a: dict, d: int) -> complex | None:
    """The value of a constant expansion; None for any other."""
    zero = (0,) * d
    return None if any(k != zero for k in a) else a.get(zero, 0.0 + 0.0j)


def _add(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + sign * v
    if _linear(out) and _waves(out):
        raise _NotBandLimited
    return _terms(out)


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return _terms(out)


def _scale(a: dict, c: complex) -> dict:
    return _terms({k: v * c for k, v in a.items()})


def _int_power(v: complex, p: int) -> complex:
    """v ** p by binary powering, with one reciprocal for p < 0; for |p| <= 100
    the same steps as Python's complex ``**``, whose polar formula beyond
    that is inexact even for v = -1 or i."""
    out, square = 1 + 0j, v
    for bit in bin(abs(p))[:1:-1]:
        if bit == "1":
            out *= square
        square *= square
    if p < 0 and out == 0:  # v ** -p underflowed, so v ** p overflows
        raise OverflowError
    return 1 / out if p < 0 else out


def _as_int(v: float) -> int:
    if not cmath.isfinite(v):
        raise _NotBandLimited  # no integer frequency; round() would raise
    r = round(v)
    if abs(v - r) > _INT_TOL:
        raise _NotBandLimited
    return int(r)


def _frequency(a: dict, d: int) -> tuple:
    """Integer frequency vector of the real-integer linear terms of ``a``."""
    k = [0] * d
    for j, v in a.items():
        if isinstance(j, int):
            if abs(v.imag) > _INT_TOL:
                raise _NotBandLimited
            k[j] = _as_int(v.real)
    return tuple(k)


def _expand(e: ScalarExpr, d: int) -> dict:
    """Expand to one dict of terms (above), or raise _NotBandLimited."""
    zero = (0,) * d
    if isinstance(e, SNum):
        return _terms({zero: e.value})
    if isinstance(e, SVar):
        return {e.index - 1: 1.0 + 0.0j}
    if isinstance(e, SCall):
        arg = _expand(e.arg, d)
        if e.name == "abs" or _waves(arg):  # abs of a non-constant is not band-limited
            raise _NotBandLimited
        c = arg.get(zero, 0.0 + 0.0j)
        if e.name == "exp":  # exp(c + i sum k_j t_j) with integer k
            return _terms({_frequency(_scale(arg, -1j), d): cmath.exp(c)})
        k, plus, minus = _frequency(arg, d), cmath.exp(1j * c), cmath.exp(-1j * c)
        half, minus = (2.0, minus) if e.name == "cos" else (2.0j, -minus)
        out: dict = {}
        for kk, vv in ((k, plus / half), (tuple(-v for v in k), minus / half)):
            out[kk] = out.get(kk, 0.0) + vv
        return _terms(out)
    left, right = _expand(e.left, d), _expand(e.right, d)
    if e.op in "+-":
        return _add(left, right, 1 if e.op == "+" else -1)
    if e.op == "*":
        if not (_linear(left) or _linear(right)):
            return _mul(left, right)
        # a linear form may only be multiplied by a constant
        form, c = (right, _const(left, d)) if _linear(right) else (left, _const(right, d))
        if c is None:
            raise _NotBandLimited
        return _scale(form, c)
    c = _const(right, d)
    if e.op == "/":
        if c is None or c == 0:
            raise _NotBandLimited
        if _linear(left):
            return _scale(left, 1.0 / c)
        return _terms({k: v / c for k, v in left.items()})
    # ^: a constant integer exponent; a linear form only takes ^0 or ^1
    if c is None or abs(c.imag) > _INT_TOL:
        raise _NotBandLimited
    power = _as_int(c.real)
    if _linear(left):
        if power not in (0, 1):
            raise _NotBandLimited
        return left if power == 1 else {zero: 1.0 + 0.0j}
    if len(left) == 1:  # a monomial (or constant): one step
        ((k, v),) = left.items()
        return _terms({tuple(power * kj for kj in k): _int_power(v, power)})
    # Negative powers survive only on monomials.
    if power < 0:
        raise _NotBandLimited
    if power * len(left) * math.prod(  # steps * products per term * terms
            power * (max(k) - min(k)) + 1 for k in zip(*left)) > _MAX_EXPANSION:
        raise OverflowError
    out = {zero: 1.0 + 0.0j}
    for _ in range(power):
        out = _mul(out, left)
    return out


# ---------------------------------------------------------------------------
# vectorized compilation of scalar expressions


def _compile_scalar(e: ScalarExpr) -> Callable[[np.ndarray], np.ndarray]:
    """Compile to a vectorized function of the (N, d) point array."""
    if isinstance(e, SNum):
        v = e.value
        return lambda pts: np.full(pts.shape[0], v, dtype=complex)
    if isinstance(e, SVar):
        j = e.index - 1
        return lambda pts: pts[:, j].astype(complex)
    if isinstance(e, SBin):
        lf, rf, op = _compile_scalar(e.left), _compile_scalar(e.right), _OPS[e.op]
        return lambda pts: op(lf(pts), rf(pts))
    if isinstance(e, SCall):
        af = _compile_scalar(e.arg)
        fn = {"cos": np.cos, "sin": np.sin, "exp": np.exp, "abs": np.abs}[e.name]
        return lambda pts: fn(af(pts)).astype(complex)
    raise DslSyntaxError(f"cannot compile scalar node {e!r}")


def _compile_matrix(entries) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized r x r matfun: (N, d) points to (N, r, r) complex values."""
    r = len(entries)
    fns = [[_compile_scalar(e) for e in row] for row in entries]

    def evaluate(points: np.ndarray) -> np.ndarray:
        out = np.empty((points.shape[0], r, r), dtype=complex)
        for a in range(r):
            for b in range(r):
                out[:, a, b] = fns[a][b](points)
        return out

    return evaluate


def _is_real_expr(e: ScalarExpr) -> bool:
    """Structural realness: no imaginary literals and only real-closed ops."""
    if isinstance(e, SNum):
        return e.value.imag == 0.0
    if isinstance(e, SVar):
        return True
    if isinstance(e, SBin):
        if not (_is_real_expr(e.left) and _is_real_expr(e.right)):
            return False
        if e.op == "^":
            return isinstance(e.right, SNum) and e.right.value.imag == 0.0 and \
                float(e.right.value.real).is_integer()
        return True
    if isinstance(e, SCall):
        return _is_real_expr(e.arg)
    return False


# ---------------------------------------------------------------------------
# parser


def _nested(method):
    """Parse with ``method`` one level below the caller, in a scope of its own."""

    @functools.wraps(method)
    def nested(self, *args):
        return self._under(method, self, *args)

    return nested


class _Parser:
    def __init__(self, tokens: list[Token], d: int, r_declared: int | None,
                 numeric_degree: int | None):
        self.tokens = tokens
        self.pos = 0
        self.d = d
        self.r_declared = r_declared
        self.r_seen: int | None = None
        self.numeric_degree = numeric_degree
        self.depth = 0  # level of the subtree being parsed
        self.peak = 0  # deepest level that the current scope has reached

    # --- token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
        return self.advance()

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise DslSyntaxError(msg, tok.line, tok.col)

    def _enclosed(self, parse: Callable, *args):
        """``"(" parse ")"``."""
        self.expect("(")
        node = parse(*args)
        self.expect(")")
        return node

    # --- nesting bound: ``depth`` is the level being parsed and ``peak`` the deepest
    # level of the current scope, which a node put above it (``_lift``) deepens.

    def _check(self, level: int) -> int:
        if level > _MAX_DEPTH:
            self.error("expression nesting too deep")
        return level

    def _under(self, parse: Callable, *args):
        """Parse a child one level below the current node, in a scope of its own."""
        depth, peak = self.depth, self.peak
        self.depth = self.peak = self._check(depth + 1)
        node = parse(*args)
        self.depth, self.peak = depth, max(peak, self.peak)
        return node

    def _lift(self):
        """A new node goes above everything that the current scope has parsed."""
        self.peak = self._check(self.peak + 1)

    def _chain(self, ops: str, operand: Callable, combine: Callable, node=None):
        """``operand {op operand}`` for op in ``ops``, combined from the left;
        ``node``, when given, is the first operand."""
        node = operand() if node is None else node
        while self.peek().kind in ops:
            self._lift()
            op = self.advance()
            node = combine(op, node, self._under(operand))
        return node

    # --- GLT grammar

    @_nested
    def parse_expression(self) -> GLTExpression:
        node = None
        if self.peek().kind == "-":
            self.advance()
            node = _negate(self.parse_term())
            self._lift()
        return self._chain("+-", self.parse_term, _sum, node)

    @_nested
    def parse_term(self) -> GLTExpression:
        return self._chain("*", self.parse_factor, _product)

    def parse_factor(self) -> GLTExpression:
        node = self.parse_atom()
        while self.peek().kind in ("'", "^"):
            self._lift()
            if self.advance().kind == "'":
                node = Adjoint(node)
                continue
            self.expect("-")
            one = self.expect("num")
            if one.value != 1.0:
                self.error("only ^-1 (pseudo-inverse) is supported", one)
            node = PseudoInverse(node)
        return node

    def parse_atom(self) -> GLTExpression:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Scalar(complex(tok.value))
        if tok.kind == "(":
            return self._enclosed(self.parse_expression)
        if tok.kind == "ident":
            if tok.text == "Z":
                self.advance()
                return Zero()
            if tok.text == "i":
                self.advance()
                return Scalar(1j)
            if tok.text in ("T", "D"):
                self.advance()
                entries = self._enclosed(self.parse_matfun, "t" if tok.text == "T" else "x")
                return self._build_toeplitz(entries, tok) if tok.text == "T" \
                    else self._build_diag(entries, tok)
            if tok.text == "fun":
                self.advance()
                self.expect("(")
                name_tok = self.expect("ident")
                if name_tok.text not in FUNCTION_CATALOGUE:
                    self.error(
                        f"unknown function {name_tok.text!r} (choose from "
                        f"{sorted(FUNCTION_CATALOGUE)})", name_tok)
                self.expect(",")
                child = self.parse_expression()
                self.expect(")")
                return FunApply(name_tok.text, child)
            self.error(f"unexpected identifier {tok.text!r}", tok)
        self.error(f"expected an atom, found {tok.text or 'end of input'!r}", tok)

    # --- matrix arguments

    def _separated(self, sep: str, item: Callable) -> tuple:
        items = [item()]
        while self.peek().kind == sep:
            self.advance()
            items.append(item())
        return tuple(items)

    def parse_matfun(self, kind: str) -> tuple[tuple[ScalarExpr, ...], ...]:
        if self.peek().kind == "[":
            self.advance()
            scalar = functools.partial(self.parse_scalar, kind)
            rows = self._separated(";", lambda: self._separated(",", scalar))
            self.expect("]")
            width = len(rows[0])
            if any(len(row) != width for row in rows) or len(rows) != width:
                self.error(f"matrix argument must be square, got rows of sizes "
                           f"{[len(r) for r in rows]}")
            return rows
        return ((self.parse_scalar(kind),),)

    def _register_r(self, r: int, tok: Token):
        if self.r_declared is not None and r != self.r_declared:
            self.error(f"matrix argument has block size {r}, declared r={self.r_declared}", tok)
        if self.r_seen is None:
            self.r_seen = r
        elif self.r_seen != r:
            self.error(f"leaves disagree on block size: {self.r_seen} vs {r}", tok)

    def _build_toeplitz(self, entries, tok: Token) -> Toeplitz:
        r = len(entries)
        self._register_r(r, tok)

        def expand_entry(e: ScalarExpr) -> dict:
            out = _expand(e, self.d)
            if _linear(out):
                raise _NotBandLimited  # a linear form in theta
            return out

        try:
            dicts = [[expand_entry(e) for e in row] for row in entries]
            offsets = sorted({k for row in dicts for dd in row for k in dd})
            poly = TrigPolynomial(self.d, r, {
                k: np.array([[dd.get(k, 0.0) for dd in row] for row in dicts], dtype=complex)
                for k in offsets})
        except _NotBandLimited:
            poly = self._numeric_coefficients(entries, tok)
        except ZeroDivisionError:
            self.error("division by zero in symbol argument", tok)
        except (OverflowError, ValueError):
            self.error("symbol argument out of range", tok)
        # Complex arithmetic overflows to inf (and inf - inf to nan) without raising.
        if not all(np.isfinite(c).all() for c in poly.coeffs.values()):
            self.error("symbol argument out of range", tok)
        return Toeplitz(poly)

    def _numeric_coefficients(self, entries, tok: Token) -> TrigPolynomial:
        if self.numeric_degree is None:
            self.error(
                "T-argument is not band-limited; declare a truncation degree "
                "(numeric_degree)", tok)
        samples = max(4 * self.numeric_degree + 1, 256)
        # Samples that overflow leave non-finite coefficients, refused by the caller.
        with np.errstate(over="ignore", invalid="ignore"):
            return fourier_coefficients(_compile_matrix(entries), self.numeric_degree, samples,
                                        d=self.d, r=len(entries))

    def _build_diag(self, entries, tok: Token) -> Diag:
        r = len(entries)
        self._register_r(r, tok)
        real = all(_is_real_expr(e) for row in entries for e in row)
        symmetric = all(
            entries[a][b] == entries[b][a] for a in range(r) for b in range(r)
        )
        coefficient = CoefficientFunction(
            self.d, r, _compile_matrix(entries), hermitian=real and symmetric,
            name=format_matfun(entries),
        )
        return Diag(coefficient, exprs=entries)

    # --- scalar grammar

    @_nested
    def parse_scalar(self, kind: str) -> ScalarExpr:
        return self._chain("+-", functools.partial(self.parse_sterm, kind), self._fold)

    @_nested
    def parse_sterm(self, kind: str) -> ScalarExpr:
        return self._chain("*/", functools.partial(self.parse_sunary, kind), self._fold)

    def parse_sunary(self, kind: str) -> ScalarExpr:
        if self.peek().kind == "-":
            self.advance()
            return _fold_neg(self._under(self.parse_sunary, kind))
        base = self.parse_satom(kind)
        if self.peek().kind != "^":
            return base
        self._lift()
        op = self.advance()
        return self._fold(op, base, self._under(self.parse_sunary, kind))

    def _fold(self, tok: Token, *args: ScalarExpr) -> ScalarExpr:
        """The operator or function call ``tok`` over ``args``, folded if constant."""
        try:
            if tok.kind == "ident":
                return _fold_call(tok.text, *args)
            return _fold_bin(tok.kind, *args)
        except ZeroDivisionError:
            self.error("division by zero in constant expression", tok)
        except (OverflowError, ValueError):
            self.error("constant expression out of range", tok)

    def parse_satom(self, kind: str) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return SNum(complex(tok.value))
        if tok.kind == "(":
            return self._enclosed(self.parse_scalar, kind)
        if tok.kind == "ident":
            text = tok.text
            if text == "i":
                self.advance()
                return SNum(1j)
            if text in _SCALAR_CALLS:
                self.advance()
                return self._fold(tok, self._enclosed(self.parse_scalar, kind))
            if variable := _variable(text):
                var_kind, index = variable
                if var_kind != kind:
                    inside = "T(...)" if kind == "t" else "D(...)"
                    self.error(
                        f"{var_kind}-variables are not allowed inside {inside}", tok)
                if not 1 <= index <= self.d:
                    self.error(
                        f"variable {text!r} exceeds the {self.d}-level domain", tok)
                self.advance()
                return SVar(var_kind, index)
            self.error(f"unexpected identifier {text!r}", tok)
        self.error(f"expected a scalar atom, found {tok.text or 'end of input'!r}", tok)


def _negate(node: GLTExpression) -> GLTExpression:
    if isinstance(node, Scalar):
        return Scalar(-complex(node.value))
    if isinstance(node, Product) and isinstance(node.left, Scalar):
        return Product(Scalar(-complex(node.left.value)), node.right)
    return Product(Scalar(-1.0 + 0.0j), node)


def _sum(op: Token, left: GLTExpression, right: GLTExpression) -> GLTExpression:
    beta = 1.0 if op.kind == "+" else -1.0
    if isinstance(left, Scalar) and isinstance(right, Scalar):
        return Scalar(complex(left.value) + beta * complex(right.value))
    return LinComb(1.0, left, complex(beta), right)


def _product(op: Token, left: GLTExpression, right: GLTExpression) -> GLTExpression:
    if isinstance(left, Scalar) and isinstance(right, Scalar):
        return Scalar(complex(left.value) * complex(right.value))
    return Product(left, right)


def _variable(text: str) -> tuple[str, int] | None:
    """(kind, index) of a variable name, ``x`` or ``t`` and a decimal index."""
    if len(text) >= 2 and text[0] in "xt" and text[1:].isdecimal():
        return text[0], int(text[1:])
    return None


def _infer_d(tokens: list[Token]) -> int:
    variables = (_variable(tok.text) for tok in tokens)
    return max([1, *(variable[1] for variable in variables if variable)])


def levels(text: str) -> int:
    """The level count d that :func:`parse` infers for ``text``: the largest
    variable index it mentions (1 when it mentions none)."""
    return _infer_d(_tokenize(text))


def parse(text: str, d: int | None = None, r: int | None = None,
          numeric_degree: int | None = None) -> GLTExpression:
    """Parse DSL source into an expression tree.

    ``d`` defaults to the largest variable index mentioned; ``r`` (when given)
    is validated against matrix-argument sizes.  ``numeric_degree`` enables
    the numeric-coefficient fallback for non-band-limited T-arguments.
    """
    if not text.strip():
        raise DslSyntaxError("empty expression")
    tokens = _tokenize(text)
    d = d if d is not None else _infer_d(tokens)
    parser = _Parser(tokens, d, r, numeric_degree)
    node = parser.parse_expression()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.error(f"unexpected trailing input {tok.text!r}", tok)
    node.dims()  # surfaces (d, r) disagreements between leaves
    return node


# ---------------------------------------------------------------------------
# formatter


def _fmt_signed(terms: list[tuple], fmt_term: Callable) -> str:
    """``fmt_term(key, c)`` for the first term, then ``+`` and ``fmt_term(key, c)``
    for each later one, or ``-`` and ``fmt_term(key, -c)`` where c is negative."""
    parts = [fmt_term(*terms[0])]
    for key, c in terms[1:]:
        negative = c.real < 0 or (c.real == 0 and c.imag < 0)
        parts.append("-" + fmt_term(key, -c) if negative else "+" + fmt_term(key, c))
    return "".join(parts)


def _fmt_term(k: tuple, c: complex) -> str:
    """c*exp(i*(k_1*t1+...+k_d*td)), or c alone at offset zero."""
    if not any(k):
        return _fmt_snum(c)[0]
    frequency = _fmt_signed([(j, kj) for j, kj in enumerate(k, 1) if kj],
                            lambda j, kj: _wrap(_fmt_snum(complex(0, kj)), _P_MUL) + f"*t{j}")
    base = "exp(" + frequency + ")"
    if c == 1:
        return base
    if c == -1:
        return "-" + base
    return _wrap(_fmt_snum(c), _P_MUL) + "*" + base


def format_matfun(entries, fmt: Callable = lambda e: _fmt_scalar(e)[0]) -> str:
    """The text of an r x r argument: its one entry, or ``[a,b;c,d]``."""
    if len(entries) == 1:
        return fmt(entries[0][0])
    return "[" + ";".join(",".join(fmt(e) for e in row) for row in entries) + "]"


def _fmt_expr(e: GLTExpression) -> tuple[str, int]:
    if isinstance(e, Toeplitz):
        # Each entry's nonzero (offset, coefficient) terms in offset order.
        coeffs, offsets, r = e.poly.coeffs, sorted(e.poly.coeffs), e.poly.r
        entries = [[[(k, complex(coeffs[k][a, b])) for k in offsets if coeffs[k][a, b] != 0]
                    for b in range(r)] for a in range(r)]
        text = format_matfun(entries, lambda terms: _fmt_signed(terms, _fmt_term) if terms else "0")
        return "T(" + text + ")", _P_ATOM
    if isinstance(e, Diag):
        if e.exprs is None:
            raise DslSyntaxError(
                "diagonal leaf was not built from source text and cannot be formatted")
        return "D(" + format_matfun(e.exprs) + ")", _P_ATOM
    if isinstance(e, Zero):
        return "Z", _P_ATOM
    if isinstance(e, Scalar):
        return _wrap(_fmt_snum(complex(e.value)), _P_ATOM), _P_ATOM
    if isinstance(e, Adjoint):
        return _wrap(_fmt_expr(e.child), _P_POW) + "'", _P_POW
    if isinstance(e, PseudoInverse):
        return _wrap(_fmt_expr(e.child), _P_POW) + "^-1", _P_POW
    if isinstance(e, FunApply):
        return f"fun({e.name},{_fmt_expr(e.child)[0]})", _P_ATOM
    if isinstance(e, Product):
        left, right = _wrap(_fmt_expr(e.left), _P_MUL), _wrap(_fmt_expr(e.right), _P_MUL + 1)
        return left + "*" + right, _P_MUL
    if isinstance(e, LinComb):
        alpha, beta = complex(e.alpha), complex(e.beta)
        left = e.left if alpha == 1 else _scaled(alpha, e.left)
        op, c = ("-", -beta) if beta.imag == 0 and beta.real < 0 else ("+", beta)
        right = e.right if c == 1 else _scaled(c, e.right)
        return _wrap(_fmt_expr(left), _P_ADD) + op + _wrap(_fmt_expr(right), _P_ADD + 1), _P_ADD
    raise DslSyntaxError(f"cannot format node {type(e).__name__}")


def _scaled(c: complex, node: GLTExpression) -> GLTExpression:
    if isinstance(node, Scalar):
        return Scalar(c * complex(node.value))
    if isinstance(node, Product) and isinstance(node.left, Scalar):
        return Product(Scalar(c * complex(node.left.value)), node.right)
    return Product(Scalar(c), node)


def format_expression(e: GLTExpression) -> str:
    """Canonical text: coefficient (exponential) form for Toeplitz leaves,
    minimal parentheses, shortest round-trip decimals."""
    return _fmt_expr(e)[0]
