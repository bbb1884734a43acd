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

Normalization (fixed, so that parse(format(e)) is structurally identical to
e): numeric literals fold (products/sums of pure scalars collapse to one
scalar), a leading minus folds into the first scalar factor, and T-arguments
are expanded symbolically to exponential (coefficient) form.  Non-band-limited
T-arguments fall back to numeric Fourier coefficients with a declared
truncation degree.  The formatter prints Toeplitz leaves in coefficient form,
e.g. ``T(2-exp(i*t1)-exp(-i*t1))``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

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


_PUNCT = set("+-*/^'()[],;")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdigit() or (ch == "." and i + 1 < len(text) and text[i + 1].isdigit()):
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < len(text) and text[j] in "eE":
                k = j + 1
                if k < len(text) and text[k] in "+-":
                    k += 1
                if k < len(text) and text[k].isdigit():
                    j = k
                    while j < len(text) and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise DslSyntaxError(f"bad number literal {lexeme!r}", line, start_col)
            tokens.append(Token("num", lexeme, value, line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], 0.0, line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(Token(ch, ch, 0.0, line, start_col))
            i += 1
            col += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", 0.0, line, col))
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


def _fold_bin(op: str, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr:
    if isinstance(left, SNum) and isinstance(right, SNum):
        a, b = left.value, right.value
        if op == "+":
            return SNum(a + b)
        if op == "-":
            return SNum(a - b)
        if op == "*":
            return SNum(a * b)
        if op == "/":
            return SNum(a / b)  # ZeroDivisionError handled by the parser
        if op == "^":
            return SNum(a**b)
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

_P_ADD, _P_MUL, _P_UNARY, _P_POW, _P_ATOM = 1, 2, 3, 4, 5


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
            return "-" + _fmt_child(e.right, _P_UNARY), _P_UNARY
        if e.op in "+-":
            return (
                _fmt_child(e.left, _P_ADD) + e.op + _fmt_child(e.right, _P_ADD + 1),
                _P_ADD,
            )
        if e.op in "*/":
            return (
                _fmt_child(e.left, _P_MUL) + e.op + _fmt_child(e.right, _P_MUL + 1),
                _P_MUL,
            )
        if e.op == "^":
            return (
                _fmt_child(e.left, _P_ATOM) + "^" + _fmt_child(e.right, _P_UNARY),
                _P_POW,
            )
    raise DslSyntaxError(f"cannot format scalar node {e!r}")


def _fmt_child(e: ScalarExpr, context: int) -> str:
    text, prec = _fmt_scalar(e)
    if prec < context:
        return "(" + text + ")"
    return text


def format_scalar(e: ScalarExpr) -> str:
    return _fmt_scalar(e)[0]


# ---------------------------------------------------------------------------
# Laurent expansion of band-limited scalar expressions


class _NotBandLimited(Exception):
    pass


class _Poly:
    """Laurent polynomial in z_j = exp(i t_j): dict offset tuple -> complex."""

    __slots__ = ("coeffs", "d")

    def __init__(self, d: int, coeffs: dict):
        self.d = d
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    @classmethod
    def const(cls, d: int, v: complex) -> "_Poly":
        return cls(d, {(0,) * d: complex(v)})

    @property
    def is_const(self) -> bool:
        return all(all(kj == 0 for kj in k) for k in self.coeffs)

    def const_value(self) -> complex:
        return self.coeffs.get((0,) * self.d, 0.0 + 0.0j)


class _Linear:
    """Complex linear form sum_j coeff_j t_j + const."""

    __slots__ = ("coeffs", "const", "d")

    def __init__(self, d: int, coeffs: dict, const: complex):
        self.d = d
        self.coeffs = {j: v for j, v in coeffs.items() if v != 0}
        self.const = complex(const)


def _poly_add(a: _Poly, b: _Poly, sign: int = 1) -> _Poly:
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        out[k] = out.get(k, 0.0) + sign * v
    return _Poly(a.d, out)


def _poly_mul(a: _Poly, b: _Poly) -> _Poly:
    out: dict = {}
    for ka, va in a.coeffs.items():
        for kb, vb in b.coeffs.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return _Poly(a.d, out)


def _lin_scale(a: _Linear, c: complex) -> _Linear:
    return _Linear(a.d, {j: v * c for j, v in a.coeffs.items()}, a.const * c)


def _as_int(v: float) -> int:
    r = round(v)
    if abs(v - r) > _INT_TOL:
        raise _NotBandLimited
    return int(r)


def _lin_offset(a: _Linear) -> tuple:
    # Integer frequency vector of a real-integer linear form.
    k = [0] * a.d
    for j, v in a.coeffs.items():
        if abs(v.imag) > _INT_TOL:
            raise _NotBandLimited
        k[j] = _as_int(v.real)
    return tuple(k)


def _expand(e: ScalarExpr, d: int):
    """Expand to _Poly where possible; _Linear for bare linear forms."""
    if isinstance(e, SNum):
        return _Poly.const(d, e.value)
    if isinstance(e, SVar):
        return _Linear(d, {e.index - 1: 1.0 + 0.0j}, 0.0)
    if isinstance(e, SBin):
        left = _expand(e.left, d)
        right = _expand(e.right, d)
        if e.op in "+-":
            sign = 1 if e.op == "+" else -1
            if isinstance(left, _Poly) and isinstance(right, _Poly):
                return _poly_add(left, right, sign)
            if isinstance(left, _Linear) and isinstance(right, _Linear):
                coeffs = dict(left.coeffs)
                for j, v in right.coeffs.items():
                    coeffs[j] = coeffs.get(j, 0.0) + sign * v
                return _Linear(d, coeffs, left.const + sign * right.const)
            if isinstance(left, _Poly) and left.is_const and isinstance(right, _Linear):
                scaled = _lin_scale(right, complex(sign))
                return _Linear(d, scaled.coeffs, scaled.const + left.const_value())
            if isinstance(left, _Linear) and isinstance(right, _Poly) and right.is_const:
                return _Linear(d, left.coeffs, left.const + sign * right.const_value())
            raise _NotBandLimited
        if e.op == "*":
            if isinstance(left, _Poly) and isinstance(right, _Poly):
                return _poly_mul(left, right)
            if isinstance(left, _Poly) and left.is_const and isinstance(right, _Linear):
                return _lin_scale(right, left.const_value())
            if isinstance(right, _Poly) and right.is_const and isinstance(left, _Linear):
                return _lin_scale(left, right.const_value())
            raise _NotBandLimited
        if e.op == "/":
            if isinstance(right, _Poly) and right.is_const:
                c = right.const_value()
                if c == 0:
                    raise _NotBandLimited
                if isinstance(left, _Poly):
                    return _Poly(d, {k: v / c for k, v in left.coeffs.items()})
                return _lin_scale(left, 1.0 / c)
            raise _NotBandLimited
        if e.op == "^":
            if not (isinstance(right, _Poly) and right.is_const):
                raise _NotBandLimited
            p = right.const_value()
            if abs(p.imag) > _INT_TOL:
                raise _NotBandLimited
            power = _as_int(p.real)
            if isinstance(left, _Linear):
                if power == 1:
                    return left
                if power == 0:
                    return _Poly.const(d, 1.0)
                raise _NotBandLimited
            if power >= 0:
                out = _Poly.const(d, 1.0)
                for _ in range(power):
                    out = _poly_mul(out, left)
                return out
            # Negative powers survive only on monomials (including constants).
            if len(left.coeffs) != 1:
                raise _NotBandLimited
            ((k, v),) = left.coeffs.items()
            return _Poly(d, {tuple(power * kj for kj in k): v ** power})
    if isinstance(e, SCall):
        arg = _expand(e.arg, d)
        if isinstance(arg, _Poly) and arg.is_const:
            arg = _Linear(d, {}, arg.const_value())
        if e.name in ("cos", "sin"):
            if not isinstance(arg, _Linear):
                raise _NotBandLimited
            k = _lin_offset(arg)
            c = arg.const
            mk = tuple(-v for v in k)
            plus = cmath.exp(1j * c)
            minus = cmath.exp(-1j * c)
            out: dict = {}
            if e.name == "cos":
                pairs = ((k, plus / 2.0), (mk, minus / 2.0))
            else:
                pairs = ((k, plus / 2.0j), (mk, -minus / 2.0j))
            for kk, vv in pairs:
                out[kk] = out.get(kk, 0.0) + vv
            return _Poly(d, out)
        if e.name == "exp":
            if isinstance(arg, _Poly):
                raise _NotBandLimited
            # exp(c + i sum k_j t_j) with integer k
            k = [0] * d
            for j, v in arg.coeffs.items():
                ratio = v / 1j
                if abs(ratio.imag) > _INT_TOL:
                    raise _NotBandLimited
                k[j] = _as_int(ratio.real)
            return _Poly(d, {tuple(k): cmath.exp(arg.const)})
        raise _NotBandLimited  # abs of a non-constant is not band-limited
    raise _NotBandLimited


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
        lf, rf = _compile_scalar(e.left), _compile_scalar(e.right)
        op = e.op
        if op == "+":
            return lambda pts: lf(pts) + rf(pts)
        if op == "-":
            return lambda pts: lf(pts) - rf(pts)
        if op == "*":
            return lambda pts: lf(pts) * rf(pts)
        if op == "/":
            return lambda pts: lf(pts) / rf(pts)
        if op == "^":
            return lambda pts: np.power(lf(pts), rf(pts))
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


class _Parser:
    def __init__(self, tokens: list[Token], d: int, r_declared: int | None,
                 numeric_degree: int | None):
        self.tokens = tokens
        self.pos = 0
        self.d = d
        self.r_declared = r_declared
        self.r_seen: int | None = None
        self.numeric_degree = numeric_degree
        self.depth = 0

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
            raise DslSyntaxError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        return self.advance()

    def error(self, msg: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise DslSyntaxError(msg, tok.line, tok.col)

    def _enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            self.error("expression nesting too deep")

    def _leave(self):
        self.depth -= 1

    # --- GLT grammar

    def parse_expression(self) -> GLTExpression:
        self._enter()
        try:
            negate_first = False
            if self.peek().kind == "-":
                self.advance()
                negate_first = True
            node = self.parse_term()
            if negate_first:
                node = _negate(node)
            while self.peek().kind in "+-":
                op = self.advance().kind
                right = self.parse_term()
                node = _make_lincomb(node, 1.0 if op == "+" else -1.0, right)
            return node
        finally:
            self._leave()

    def parse_term(self) -> GLTExpression:
        node = self.parse_factor()
        while self.peek().kind == "*":
            self.advance()
            right = self.parse_factor()
            if isinstance(node, Scalar) and isinstance(right, Scalar):
                node = Scalar(complex(node.value) * complex(right.value))
            else:
                node = Product(node, right)
        return node

    def parse_factor(self) -> GLTExpression:
        node = self.parse_atom()
        while True:
            tok = self.peek()
            if tok.kind == "'":
                self.advance()
                node = Adjoint(node)
            elif tok.kind == "^":
                self.advance()
                self.expect("-")
                one = self.expect("num")
                if one.value != 1.0:
                    self.error("only ^-1 (pseudo-inverse) is supported", one)
                node = PseudoInverse(node, invertible_ae=True)
            else:
                return node

    def parse_atom(self) -> GLTExpression:
        self._enter()
        try:
            tok = self.peek()
            if tok.kind == "num":
                self.advance()
                return Scalar(complex(tok.value))
            if tok.kind == "(":
                self.advance()
                node = self.parse_expression()
                self.expect(")")
                return node
            if tok.kind == "ident":
                if tok.text == "Z":
                    self.advance()
                    return Zero()
                if tok.text == "i":
                    self.advance()
                    return Scalar(1j)
                if tok.text in ("T", "D"):
                    self.advance()
                    self.expect("(")
                    entries = self.parse_matfun("t" if tok.text == "T" else "x")
                    self.expect(")")
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
        finally:
            self._leave()

    # --- matrix arguments

    def parse_matfun(self, kind: str) -> tuple[tuple[ScalarExpr, ...], ...]:
        if self.peek().kind == "[":
            self.advance()
            rows = [self.parse_row(kind)]
            while self.peek().kind == ";":
                self.advance()
                rows.append(self.parse_row(kind))
            self.expect("]")
            width = len(rows[0])
            if any(len(row) != width for row in rows) or len(rows) != width:
                self.error(f"matrix argument must be square, got rows of sizes "
                           f"{[len(r) for r in rows]}")
            return tuple(rows)
        return ((self.parse_scalar(kind),),)

    def parse_row(self, kind: str) -> tuple[ScalarExpr, ...]:
        row = [self.parse_scalar(kind)]
        while self.peek().kind == ",":
            self.advance()
            row.append(self.parse_scalar(kind))
        return tuple(row)

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
            if not isinstance(out, _Poly):
                raise _NotBandLimited  # a bare linear form in theta
            return out.coeffs

        try:
            dicts = [[expand_entry(e) for e in row] for row in entries]
        except _NotBandLimited:
            return self._numeric_toeplitz(entries, tok)
        except ZeroDivisionError:
            self.error("division by zero in symbol argument", tok)
        offsets = sorted({k for row in dicts for dd in row for k in dd})
        coeffs = {}
        for k in offsets:
            block = np.zeros((r, r), dtype=complex)
            for a in range(r):
                for b in range(r):
                    block[a, b] = dicts[a][b].get(k, 0.0)
            coeffs[k] = block
        return Toeplitz(TrigPolynomial(self.d, r, coeffs))

    def _numeric_toeplitz(self, entries, tok: Token) -> Toeplitz:
        if self.numeric_degree is None:
            self.error(
                "T-argument is not band-limited; declare a truncation degree "
                "(numeric_degree)", tok)
        samples = max(4 * self.numeric_degree + 1, 256)
        poly = fourier_coefficients(_compile_matrix(entries), self.numeric_degree, samples,
                                    d=self.d, r=len(entries))
        return Toeplitz(poly)

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

    def parse_scalar(self, kind: str) -> ScalarExpr:
        self._enter()
        try:
            node = self.parse_sterm(kind)
            while self.peek().kind in "+-":
                op = self.advance()
                right = self.parse_sterm(kind)
                node = self._fold(op, node, right)
            return node
        finally:
            self._leave()

    def parse_sterm(self, kind: str) -> ScalarExpr:
        node = self.parse_sunary(kind)
        while self.peek().kind in "*/":
            op = self.advance()
            right = self.parse_sunary(kind)
            node = self._fold(op, node, right)
        return node

    def parse_sunary(self, kind: str) -> ScalarExpr:
        if self.peek().kind == "-":
            self.advance()
            return _fold_neg(self.parse_sunary(kind))
        return self.parse_spow(kind)

    def parse_spow(self, kind: str) -> ScalarExpr:
        base = self.parse_satom(kind)
        if self.peek().kind == "^":
            op = self.advance()
            exponent = self.parse_sunary(kind)
            return self._fold(op, base, exponent)
        return base

    def _fold(self, op: Token, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr:
        try:
            return _fold_bin(op.kind, left, right)
        except ZeroDivisionError:
            self.error("division by zero in constant expression", op)

    def parse_satom(self, kind: str) -> ScalarExpr:
        self._enter()
        try:
            tok = self.peek()
            if tok.kind == "num":
                self.advance()
                return SNum(complex(tok.value))
            if tok.kind == "(":
                self.advance()
                node = self.parse_scalar(kind)
                self.expect(")")
                return node
            if tok.kind == "ident":
                text = tok.text
                if text == "i":
                    self.advance()
                    return SNum(1j)
                if text in _SCALAR_CALLS:
                    self.advance()
                    self.expect("(")
                    arg = self.parse_scalar(kind)
                    self.expect(")")
                    return _fold_call(text, arg)
                if len(text) >= 2 and text[0] in "xt" and text[1:].isdecimal():
                    var_kind, index = text[0], int(text[1:])
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
        finally:
            self._leave()


def _negate(node: GLTExpression) -> GLTExpression:
    if isinstance(node, Scalar):
        return Scalar(-complex(node.value))
    if isinstance(node, Product) and isinstance(node.left, Scalar):
        return Product(Scalar(-complex(node.left.value)), node.right)
    return Product(Scalar(-1.0 + 0.0j), node)


def _make_lincomb(left: GLTExpression, beta: float, right: GLTExpression) -> GLTExpression:
    if isinstance(left, Scalar) and isinstance(right, Scalar):
        return Scalar(complex(left.value) + beta * complex(right.value))
    return LinComb(1.0, left, complex(beta), right)


def _infer_d(tokens: list[Token]) -> int:
    best = 1
    for tok in tokens:
        if tok.kind == "ident" and len(tok.text) >= 2 and tok.text[0] in "xt" \
                and tok.text[1:].isdecimal():
            best = max(best, int(tok.text[1:]))
    return best


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


def _negative_ish(c: complex) -> bool:
    return c.real < 0 or (c.real == 0 and c.imag < 0)


def _linear_ast(k: Sequence[int]) -> ScalarExpr:
    terms = [(j + 1, kj) for j, kj in enumerate(k) if kj != 0]
    ast: ScalarExpr | None = None
    for index, kj in terms:
        part = SBin("*", SNum(complex(0.0, float(kj))), SVar("t", index))
        if ast is None:
            ast = part
        elif kj > 0:
            ast = SBin("+", ast, part)
        else:
            ast = SBin("-", ast, SBin("*", SNum(complex(0.0, float(-kj))), SVar("t", index)))
    assert ast is not None
    return ast


def _poly_entry_ast(items: list[tuple[tuple, complex]], d: int) -> ScalarExpr:
    """Canonical scalar AST for one matrix entry of a trig polynomial."""
    if not items:
        return SNum(0.0 + 0.0j)

    def term_ast(k: tuple, c: complex) -> ScalarExpr:
        if all(v == 0 for v in k):
            return SNum(c)
        base = SCall("exp", _linear_ast(k))
        if c == 1:
            return base
        return SBin("*", SNum(c), base)

    first_k, first_c = items[0]
    ast = term_ast(first_k, first_c)
    for k, c in items[1:]:
        if _negative_ish(c):
            ast = SBin("-", ast, term_ast(k, -c))
        else:
            ast = SBin("+", ast, term_ast(k, c))
    return ast


def format_matfun(entries: tuple[tuple[ScalarExpr, ...], ...]) -> str:
    r = len(entries)
    if r == 1:
        return format_scalar(entries[0][0])
    rows = [",".join(format_scalar(e) for e in row) for row in entries]
    return "[" + ";".join(rows) + "]"


def _toeplitz_entries(poly: TrigPolynomial) -> tuple[tuple[ScalarExpr, ...], ...]:
    offsets = sorted(poly.coeffs)
    rows = []
    for a in range(poly.r):
        row = []
        for b in range(poly.r):
            items = [(k, complex(poly.coeffs[k][a, b])) for k in offsets
                     if poly.coeffs[k][a, b] != 0]
            row.append(_poly_entry_ast(items, poly.d))
        rows.append(tuple(row))
    return tuple(rows)


_GP_ADD, _GP_MUL, _GP_FACTOR, _GP_ATOM = 1, 2, 3, 4


def _fmt_expr(e: GLTExpression) -> tuple[str, int]:
    if isinstance(e, Toeplitz):
        return "T(" + format_matfun(_toeplitz_entries(e.poly)) + ")", _GP_ATOM
    if isinstance(e, Diag):
        if e.exprs is None:
            raise DslSyntaxError(
                "diagonal leaf was not built from source text and cannot be formatted")
        return "D(" + format_matfun(e.exprs) + ")", _GP_ATOM
    if isinstance(e, Zero):
        return "Z", _GP_ATOM
    if isinstance(e, Scalar):
        return _fmt_child(SNum(complex(e.value)), _P_ATOM), _GP_ATOM
    if isinstance(e, Adjoint):
        return _fmt_glt_child(e.child, _GP_FACTOR) + "'", _GP_FACTOR
    if isinstance(e, PseudoInverse):
        return _fmt_glt_child(e.child, _GP_FACTOR) + "^-1", _GP_FACTOR
    if isinstance(e, FunApply):
        return f"fun({e.name},{_fmt_expr(e.child)[0]})", _GP_ATOM
    if isinstance(e, Product):
        return (
            _fmt_glt_child(e.left, _GP_MUL) + "*" + _fmt_glt_child(e.right, _GP_MUL + 1),
            _GP_MUL,
        )
    if isinstance(e, LinComb):
        alpha, beta = complex(e.alpha), complex(e.beta)
        left = e.left if alpha == 1 else _scaled(alpha, e.left)
        if beta == 1:
            return _fmt_glt_child(left, _GP_ADD) + "+" + _fmt_glt_child(e.right, _GP_ADD + 1), _GP_ADD
        if beta == -1:
            return _fmt_glt_child(left, _GP_ADD) + "-" + _fmt_glt_child(e.right, _GP_ADD + 1), _GP_ADD
        if beta.imag == 0 and beta.real < 0:
            right = _scaled(-beta, e.right)
            return _fmt_glt_child(left, _GP_ADD) + "-" + _fmt_glt_child(right, _GP_ADD + 1), _GP_ADD
        right = _scaled(beta, e.right)
        return _fmt_glt_child(left, _GP_ADD) + "+" + _fmt_glt_child(right, _GP_ADD + 1), _GP_ADD
    raise DslSyntaxError(f"cannot format node {type(e).__name__}")


def _scaled(c: complex, node: GLTExpression) -> GLTExpression:
    if isinstance(node, Scalar):
        return Scalar(c * complex(node.value))
    if isinstance(node, Product) and isinstance(node.left, Scalar):
        return Product(Scalar(c * complex(node.left.value)), node.right)
    return Product(Scalar(c), node)


def _fmt_glt_child(e: GLTExpression, context: int) -> str:
    text, prec = _fmt_expr(e)
    if prec < context:
        return "(" + text + ")"
    return text


def format_expression(e: GLTExpression) -> str:
    """Canonical text: coefficient (exponential) form for Toeplitz leaves,
    minimal parentheses, shortest round-trip decimals."""
    return _fmt_expr(e)[0]
