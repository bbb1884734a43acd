import hashlib
import random
import string
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import structurally_equal

from gltlab import dsl
from gltlab.cli import main
from gltlab.dsl import format_expression, parse
from gltlab.errors import DslSyntaxError
from gltlab.gltcalc import (
    Adjoint,
    Diag,
    FunApply,
    FUNCTION_CATALOGUE,
    LinComb,
    Product,
    PseudoInverse,
    Scalar,
    Toeplitz,
    materialize,
    symbol_of,
)
from gltlab.symbols import evaluate

# Every corpus entry with its canonical text, as printed by format_expression.
CORPUS = {
    "T(2-2*cos(t1))": "T(-exp(-i*t1)+2-exp(i*t1))",
    "D(x1)": "D(x1)",
    "Z": "Z",
    "T(2-2*cos(t1))*D(x1)": "T(-exp(-i*t1)+2-exp(i*t1))*D(x1)",
    "D(x1)*T(2-2*cos(t1))+Z": "D(x1)*T(-exp(-i*t1)+2-exp(i*t1))+Z",
    "T([0,1+exp(-i*t1);1+exp(i*t1),0])": "T([0,exp(-i*t1)+1;1+exp(i*t1),0])",
    "T(4-2*cos(t1)-2*cos(t2))": "T(-exp(-i*t1)-exp(-i*t2)+4-exp(i*t2)-exp(i*t1))",
    "fun(exp,T(2-2*cos(t1)))": "fun(exp,T(-exp(-i*t1)+2-exp(i*t1)))",
    "T(2-2*cos(t1))^-1": "T(-exp(-i*t1)+2-exp(i*t1))^-1",
    "T(exp(i*t1))'": "T(exp(i*t1))'",
    "2*T(2-2*cos(t1))-3*D(x1)": "2*T(-exp(-i*t1)+2-exp(i*t1))-3*D(x1)",
    "(D(x1)+D(x2))*T(cos(t1)+cos(t2))":
        "(D(x1)+D(x2))*T(0.5*exp(-i*t1)+0.5*exp(-i*t2)+0.5*exp(i*t2)+0.5*exp(i*t1))",
    "T(sin(t1))-T(sin(t1))":
        "T(0.5*i*exp(-i*t1)-0.5*i*exp(i*t1))-T(0.5*i*exp(-i*t1)-0.5*i*exp(i*t1))",
    "D(x1^2)": "D(x1^2)",
    "D([x1,x2;x2,x1])": "D([x1,x2;x2,x1])",
    "T(1+cos(2*t1))": "T(0.5*exp(-2*i*t1)+1+0.5*exp(2*i*t1))",
    "i*T(sin(t1))": "i*T(0.5*i*exp(-i*t1)-0.5*i*exp(i*t1))",
    "fun(abs,T(2-2*cos(t1)))+0.5*Z": "fun(abs,T(-exp(-i*t1)+2-exp(i*t1)))+0.5*Z",
    "T((1+cos(t1))^2)": "T(0.25*exp(-2*i*t1)+exp(-i*t1)+1.5+exp(i*t1)+0.25*exp(2*i*t1))",
    "D(exp(x1))*T(2-2*cos(t1))*D(exp(x1))": "D(exp(x1))*T(-exp(-i*t1)+2-exp(i*t1))*D(exp(x1))",
    "T(cos(t1)/2)": "T(0.25*exp(-i*t1)+0.25*exp(i*t1))",
    "T(cos(t1^1))": "T(0.5*exp(-i*t1)+0.5*exp(i*t1))",
    "T(cos(exp(i*t1)*exp(-i*t1)*t1))": "T(0.5*exp(-i*t1)+0.5*exp(i*t1))",
    "T(exp(i*t1)^-2)": "T(exp(-2*i*t1))",
    "T(sin(2+t1))": "T((0.45464871341284085-0.2080734182735712*i)*exp(-i*t1)"
                    "+(0.45464871341284085+0.2080734182735712*i)*exp(i*t1))",
    "-2*T(2-2*cos(t1))": "(-2)*T(-exp(-i*t1)+2-exp(i*t1))",
    "T(6-2*cos(t1)-2*cos(t2)-2*cos(t3)+exp(i*(t1-2*t2+3*t3)))":
        "T(-exp(-i*t1)-exp(-i*t2)-exp(-i*t3)+6-exp(i*t3)-exp(i*t2)"
        "+exp(i*t1-2*i*t2+3*i*t3)-exp(i*t1))",
    "T([2-2*cos(t1),0;0,exp(i*t2)])": "T([-exp(-i*t1)+2-exp(i*t1),0;0,exp(i*t2)])",
    "T(exp(i*t1)^100000000)": "T(exp(100000000*i*t1))",
    "T((-exp(i*t1))^-200)": "T(exp(-200*i*t1))",
    "T((i*exp(i*t1))^-101)": "T(-i*exp(-101*i*t1))",
}

# The README and benchmark expressions that the corpus lacks, with their canonical text.
DOCUMENTED = {
    "D(x1)*T(2-2*cos(t1))": "D(x1)*T(-exp(-i*t1)+2-exp(i*t1))",
    "T(1+cos(t1)+0.25*cos(2*t1))":
        "T(0.125*exp(-2*i*t1)+0.5*exp(-i*t1)+1+0.5*exp(i*t1)+0.125*exp(2*i*t1))",
    "T(exp(i*t1))": "T(exp(i*t1))",
    "D(x1)*T(2-2*cos(t1))-T(2-2*cos(t1))*D(x1)":
        "D(x1)*T(-exp(-i*t1)+2-exp(i*t1))-T(-exp(-i*t1)+2-exp(i*t1))*D(x1)",
    "fun(exp,-T(2-2*cos(t1)))": "fun(exp,(-1)*T(-exp(-i*t1)+2-exp(i*t1)))",
    "fun(exp,2*T(2-2*cos(t1)))": "fun(exp,2*T(-exp(-i*t1)+2-exp(i*t1)))",
}

# Malformed inputs with the exact message, line and column of their error.
ERRORS = [
    ("1.2.3", "bad number literal '1.2.3'", 1, 1),
    ("T(cos(t1)", "expected ')', found 'end of input'", 1, 10),
    ("T([1,2;3])", "matrix argument must be square, got rows of sizes [2, 1]", 1, 10),
    ("T([1,2])", "matrix argument must be square, got rows of sizes [2]", 1, 8),
    ("fun(foo,Z)", "unknown function 'foo' (choose from "
                   "['abs', 'cos', 'cube', 'exp', 'id', 'sin', 'sq'])", 1, 5),
    ("fun(exp Z)", "expected ',', found 'Z'", 1, 9),
    ("Z^-2", "only ^-1 (pseudo-inverse) is supported", 1, 4),
    ("T(x1)", "x-variables are not allowed inside T(...)", 1, 3),
    ("T([x1,0;0,1])", "x-variables are not allowed inside T(...)", 1, 4),
    ("(" * 130 + "Z" + ")" * 130, "expression nesting too deep", 1, 61),
    ("T(2-2*cos(t1))\n\t+ $", "unexpected character '$'", 2, 4),
    ("Z\n  *\tT(\n\tt2+)", "expected a scalar atom, found ')'", 3, 5),
    ("D(x2)*", "expected an atom, found 'end of input'", 1, 7),
    ("T(1/0)", "division by zero in constant expression", 1, 4),
    ("D(y1)", "unexpected identifier 'y1'", 1, 3),
    ("T(abs(t1))", "T-argument is not band-limited; declare a truncation degree "
                   "(numeric_degree)", 1, 1),
    ("T(exp(i*t1)/0)", "T-argument is not band-limited; declare a truncation degree "
                       "(numeric_degree)", 1, 1),
    ("T((t1-t1)*t1)", "T-argument is not band-limited; declare a truncation degree "
                      "(numeric_degree)", 1, 1),
    # a linear term stays a linear term when its coefficient is zero
    ("T(0*t1+cos(t1))", "T-argument is not band-limited; declare a truncation degree "
                        "(numeric_degree)", 1, 1),
    ("T(cos(t1)+t1-t1)", "T-argument is not band-limited; declare a truncation degree "
                         "(numeric_degree)", 1, 1),
    ("Z Z", "unexpected trailing input 'Z'", 1, 3),
    ("T([1,0;0,1])+T(1)", "leaves disagree on block size: 2 vs 1", 1, 14),
    ("", "empty expression", 1, 1),
]

# Inputs deeper than the nesting bound, one per way of building a deep tree.
DEEP = {
    "unary minus": "T(" + "-" * 3000 + "t1)",
    "exponents": "D(" + "x1^" * 1500 + "x1)",
    "T sum": "T(" + "+".join(["cos(t1)"] * 1500) + ")",
    "D sum": "D(" + "+".join(["x1"] * 1500) + ")",
    "GLT sum": "+".join(["Z"] * 1500),
    "product": "*".join(["D(x1)"] * 1500),
    "adjoints": "Z" + "'" * 1500,
    "pseudo-inverses": "Z" + "^-1" * 1500,
}

# T arguments whose frequency is not finite: not band-limited.
NON_FINITE = ["T(cos(1e999*t1))", "T(cos(t1*1e999))", "T(exp(i*t1)^1e999)",
              "T(exp(i*t1)^-1e999)", "T(exp(1e999*i*t1))"]

# Constants that complex arithmetic cannot fold, with their error.
OUT_OF_RANGE = [
    ("T(exp(1000))", "1:3: constant expression out of range"),
    ("T(cos(1e999))", "1:3: constant expression out of range"),
    ("D(10^999*x1)", "1:5: constant expression out of range"),
    ("T(exp(i*t1+1000))", "1:1: symbol argument out of range"),
    ("T(abs(exp(i*t1+1000)))", "1:1: symbol argument out of range"),
    ("T(1e999)", "1:1: symbol argument out of range"),
    ("T((1+exp(i*t1))^1100)", "1:1: symbol argument out of range"),
    ("T(exp(1e308*i*t1)*exp(1e308*i*t1))", "1:1: symbol argument out of range"),
    ("T((1e-200*exp(i*t1))^-2)", "1:1: symbol argument out of range"),  # 1e-400 underflows
]

# The structural Hermitian flag of one tree per node kind.
HERMITIAN = {
    "T(2-2*cos(t1))": True, "T(exp(i*t1))": False,
    "D(x1)": True, "D([x1,x2;x2,x1])": True, "D(i*x1)": False,
    "Z": True, "2": True, "i": False,
    "T(2-2*cos(t1))'": True, "T(exp(i*t1))'": False,
    "T(2-2*cos(t1))^-1": True, "T(exp(i*t1))^-1": False, "Z^-1": True,
    "fun(exp,T(2-2*cos(t1)))": True, "fun(abs,T(exp(i*t1)))": True,
    "T(2-2*cos(t1))-D(x1)": True, "T(2-2*cos(t1))+T(exp(i*t1))": False,
    "2*T(2-2*cos(t1))": True, "T(2-2*cos(t1))*2": True, "-T(2-2*cos(t1))": True,
    "i*T(2-2*cos(t1))": False, "T(2-2*cos(t1))*i": False,
    "D(x1)*T(2-2*cos(t1))": False, "Z*Z": False,
}


def test_parse_laplacian_coefficients():
    e = parse("T(2-2*cos(t1))")
    assert isinstance(e, Toeplitz)
    assert set(e.poly.coeffs) == {(-1,), (0,), (1,)}
    assert abs(e.poly.coeffs[(0,)][0, 0] - 2.0) < 1e-15
    assert abs(e.poly.coeffs[(1,)][0, 0] + 1.0) < 1e-15
    assert abs(e.poly.coeffs[(-1,)][0, 0] + 1.0) < 1e-15


def test_parse_product_structure():
    e = parse("D(x1)*T(2-2*cos(t1))")
    assert isinstance(e, Product)
    assert isinstance(e.left, Diag)
    assert isinstance(e.right, Toeplitz)


def test_parse_error_positions():
    with pytest.raises(DslSyntaxError) as err:
        parse("T(")
    assert err.value.line == 1 and err.value.col == 3

    with pytest.raises(DslSyntaxError) as err:
        parse("T(2-2*cos(t1)")
    assert err.value.col == 14


def test_scope_violations():
    with pytest.raises(DslSyntaxError, match="x-variables"):
        parse("T(x1)")
    with pytest.raises(DslSyntaxError, match="t-variables"):
        parse("D(t1)")


def test_domain_bounds_checked():
    with pytest.raises(DslSyntaxError, match="exceeds"):
        parse("D(x2)", d=1)
    parse("D(x2)")  # d inferred as 2


def test_declared_r_mismatch():
    with pytest.raises(DslSyntaxError, match="block size"):
        parse("T([0,1;1,0])", r=1)


def test_format_examples():
    assert format_expression(parse("Z")) == "Z"
    assert format_expression(parse("T(2-2*cos(t1))")) == "T(-exp(-i*t1)+2-exp(i*t1))"
    adjoint = format_expression(parse("T(exp(i*t1))'"))
    assert adjoint.endswith("'")
    assert format_expression(parse("T(0)")) == "T(0)"
    lap, x = parse("T(2-2*cos(t1))"), parse("D(x1)")
    assert format_expression(LinComb(2.0, lap, 3.0, x)) == "2*T(-exp(-i*t1)+2-exp(i*t1))+3*D(x1)"
    assert format_expression(LinComb(2.0, parse("2*D(x1)"), -3.0, parse("5"))) == "4*D(x1)-15"
    assert format_expression(LinComb(-1.0, parse("Z"), 1j, parse("Z"))) == "(-1)*Z+i*Z"


def test_two_level_exponential_form():
    e = parse("T(4-2*cos(t1)-2*cos(t2))")
    assert isinstance(e, Toeplitz)
    assert e.poly.d == 2
    assert abs(e.poly.coeffs[(0, 0)][0, 0] - 4.0) < 1e-15
    assert abs(e.poly.coeffs[(1, 0)][0, 0] + 1.0) < 1e-15
    assert abs(e.poly.coeffs[(0, -1)][0, 0] + 1.0) < 1e-15
    again = parse(format_expression(e))
    assert structurally_equal(e, again)


@pytest.mark.parametrize("text", CORPUS)
def test_roundtrip_corpus(text):
    e = parse(text)
    canonical = format_expression(e)
    again = parse(canonical)
    assert structurally_equal(e, again), canonical
    # canonicalization is idempotent
    assert format_expression(again) == canonical


@pytest.mark.parametrize("text,canonical", [*CORPUS.items(), *DOCUMENTED.items()])
def test_canonical_form_is_pinned(text, canonical):
    assert format_expression(parse(text)) == canonical


@pytest.mark.parametrize("text,message,line,col", ERRORS)
def test_error_message_and_position_are_pinned(text, message, line, col):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert str(err.value) == f"{line}:{col}: {message}"
    assert (err.value.line, err.value.col) == (line, col)


def test_roundtrip_random_trees():
    rng = random.Random(20260808)
    leaf_pool = [
        "T(2-2*cos(t1))",
        "T(sin(t1))",
        "T([0,1+exp(-i*t1);1+exp(i*t1),0])",
        "D(x1)",
        "D(1+x1^2)",
        "D([x1,0;0,x1])",
        "Z",
        "3.5",
        "i",
        "(-2.25)",
    ]
    names = sorted(FUNCTION_CATALOGUE)

    def leaf():
        return parse(rng.choice(leaf_pool))

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return leaf()
        kind = rng.choice(["lin", "prod", "adj", "pinv", "fun"])
        if kind == "lin":
            left, right = build(depth - 1), build(depth - 1)
            if isinstance(left, Scalar) and isinstance(right, Scalar):
                return left
            return LinComb(1.0, left, rng.choice([1.0, -1.0]), right)
        if kind == "prod":
            left, right = build(depth - 1), build(depth - 1)
            if isinstance(left, Scalar) and isinstance(right, Scalar):
                return Scalar(complex(left.value) * complex(right.value))
            return Product(left, right)
        if kind == "adj":
            return Adjoint(build(depth - 1))
        if kind == "pinv":
            return PseudoInverse(build(depth - 1))
        return FunApply(rng.choice(names), build(depth - 1))

    count = 0
    for _ in range(200):
        tree = build(5)
        try:
            tree.dims()
        except Exception:
            continue  # mixed-r draws are not well-formed; skip
        text = format_expression(tree)
        again = parse(text)
        assert structurally_equal(tree, again), text
        count += 1
    assert count >= 150


def test_fuzz_parser_total():
    rng = random.Random(99)
    alphabet = string.printable
    for _ in range(2000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 48)))
        start = time.time()
        try:
            parse(text)
        except DslSyntaxError:
            pass
        assert time.time() - start < 1.0


@given(text=st.text(max_size=48))
@example(text="t\u00b2")  # a superscript two is a digit but not a decimal
@example(text="x1\u00b2")
@settings(max_examples=300, deadline=None)
def test_fuzz_parser_total_hypothesis(text):
    try:
        parse(text)
    except DslSyntaxError:
        pass


def test_deep_nesting_is_reported_not_crashed():
    with pytest.raises(DslSyntaxError, match="nesting"):
        parse("(" * 500 + "Z" + ")" * 500)


@pytest.mark.parametrize("text", DEEP.values(), ids=DEEP.keys())
def test_a_tree_deeper_than_the_bound_is_refused(text):
    with pytest.raises(DslSyntaxError, match="expression nesting too deep"):
        parse(text)


@pytest.mark.parametrize("make,longest", [
    (lambda n: "*".join(["D(x1)"] * n), 117),
    (lambda n: "D(" + "-" * n + "x1)", 116),
    (lambda n: "D(" + "x1^" * n + "x1)", 116),
    (lambda n: "D(x1)" + "'" * n, 116),
    (lambda n: "T(" + "+".join(["cos(t1)"] * n) + ")", 115),
], ids=["product", "unary minus", "exponents", "adjoints", "T sum"])
def test_the_deepest_accepted_trees_format_materialize_and_evaluate(make, longest):
    e = parse(make(longest))
    assert structurally_equal(parse(format_expression(e)), e)
    assert materialize(e, 4).data.shape == (4, 4)
    assert evaluate(symbol_of(e), [[0.5]], [[1.0]]).shape == (1, 1, 1)
    with pytest.raises(DslSyntaxError, match="expression nesting too deep"):
        parse(make(longest + 1))


def test_canonical_text_longer_than_the_bound_is_refused():
    # One term per Fourier coefficient: 111 at degree 55, 113 at degree 56.
    e = parse("T(abs(t1))", numeric_degree=55)
    assert structurally_equal(parse(format_expression(e)), e)
    with pytest.raises(DslSyntaxError, match="expression nesting too deep"):
        parse(format_expression(parse("T(abs(t1))", numeric_degree=56)))


@pytest.mark.parametrize("text", NON_FINITE)
def test_a_non_finite_frequency_asks_for_a_truncation_degree(text):
    with pytest.raises(DslSyntaxError, match="declare a truncation degree"):
        parse(text)


@pytest.mark.parametrize("text,message", OUT_OF_RANGE)
def test_a_constant_out_of_range_is_a_syntax_error(text, message):
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert str(err.value) == message


def test_non_finite_numeric_coefficients_are_out_of_range():
    with pytest.raises(DslSyntaxError) as err:
        parse("T(exp(1000*cos(t1)))", numeric_degree=2)
    assert str(err.value) == "1:1: symbol argument out of range"


def test_a_one_term_power_takes_one_exact_step():
    start = time.perf_counter()
    e = parse("T(exp(i*t1)^100000000)")
    assert time.perf_counter() - start < 1.0
    assert list(e.poly.coeffs) == [(100000000,)] and e.poly.coeffs[(100000000,)][0, 0] == 1
    # the steps of Python's complex ** up to |p| = 100, to the bit
    rng = random.Random(23)
    for _ in range(2000):
        v, p = complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.randint(-100, 100)
        try:
            expected = v ** p
        except (OverflowError, ZeroDivisionError):
            continue
        assert np.array(dsl._int_power(v, p)).tobytes() == np.array(expected).tobytes(), (v, p)


def test_a_multi_term_power_within_the_expansion_cap_keeps_its_canonical_text():
    text = format_expression(parse("T((0.5+0.5*exp(i*t1))^1000)"))
    assert len(text) == 36536 and text.endswith("+9.332636185032189e-302*exp(1000*i*t1))")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "98ff9093eb524a41e9eb6894742de44eed06fcffbee68289c8af3c7ebafe1fde")


@pytest.mark.parametrize("text", ["T((0.5+0.5*exp(i*t1))^4000)", "T(1+((1+exp(i*t1))^100)^100)"])
def test_a_multi_term_power_past_the_expansion_cap_is_refused_at_once(text, capsys):
    start = time.perf_counter()
    with pytest.raises(DslSyntaxError) as err:
        parse(text)
    assert time.perf_counter() - start < 0.1
    assert str(err.value) == "1:1: symbol argument out of range"
    assert main(["parse", "--expr", text]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_numeric_fallback_for_non_band_limited():
    with pytest.raises(DslSyntaxError, match="band-limited"):
        parse("T(abs(t1))")
    e = parse("T(abs(t1))", numeric_degree=3)
    assert isinstance(e, Toeplitz)
    assert abs(e.poly.coeffs[(0,)][0, 0] - np.pi / 2) < 1e-2
    assert abs(e.poly.coeffs[(1,)][0, 0] + 2 / np.pi) < 1e-2


def _band_limited(rng: random.Random, d: int, depth: int):
    """A random band-limited T argument: sums, products, integer powers and
    division by constants over cos, sin and exp of integer-frequency linear
    forms with a phase."""
    def constant():
        return dsl.SNum(complex(rng.choice([-2, -1, 0.5, 1, 3]), rng.choice([0, 0, 0.25, -1])))

    r = rng.random()
    if depth == 0 or r < 0.25:
        form = dsl.SNum(complex(rng.uniform(-np.pi, np.pi)))
        for j in range(1, d + 1):
            k = rng.randint(-3, 3)
            if k:
                form = dsl.SBin("+", dsl.SBin("*", dsl.SNum(complex(k)), dsl.SVar("t", j)), form)
        name = rng.choice(["cos", "sin", "exp"])
        if name == "exp":
            form = dsl.SBin("*", dsl.SNum(1j), form)
            if rng.random() < 0.3:  # a monomial takes a negative power
                return dsl.SBin("^", dsl.SCall(name, form), dsl.SNum(complex(rng.randint(-3, -1))))
        return dsl.SCall(name, form)
    if r < 0.3:
        return constant()
    if r < 0.55:
        return dsl.SBin(rng.choice("+-"), _band_limited(rng, d, depth - 1),
                        _band_limited(rng, d, depth - 1))
    if r < 0.75:
        return dsl.SBin("*", _band_limited(rng, d, depth - 1), _band_limited(rng, d, depth - 1))
    if r < 0.9:
        return dsl.SBin("^", _band_limited(rng, d, depth - 1), dsl.SNum(complex(rng.randint(0, 3))))
    return dsl.SBin("/", _band_limited(rng, d, depth - 1), constant())


@pytest.mark.parametrize("d", [1, 2])
def test_a_band_limited_argument_expands_to_its_own_values(d):
    # The expansion and the numeric fallback's evaluator are separate code paths.
    rng = random.Random(20261021 + d)
    for _ in range(300):
        tree = _band_limited(rng, d, rng.randint(1, 3))
        text = f"T({dsl._fmt_scalar(tree)[0]})"
        leaf = parse(text, d=d)
        assert isinstance(leaf, Toeplitz), text
        theta = np.array([[rng.uniform(-np.pi, np.pi) for _ in range(d)] for _ in range(8)])
        want = dsl._compile_scalar(tree)(theta)
        got = evaluate(leaf.poly, np.full((1, d), 0.5), theta)[:, 0, 0]
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max()), text


def test_scalar_folding():
    e = parse("2*3*T(sin(t1))")
    assert isinstance(e, Product) and isinstance(e.left, Scalar)
    assert e.left.value == 6.0
    assert isinstance(parse("2+3*i"), Scalar)
    assert parse("2+3*i").value == 2 + 3j
    assert parse("i*i").value == -1.0 + 0j


def test_pseudo_inverse_suffix():
    e = parse("T(2-2*cos(t1))^-1")
    assert isinstance(e, PseudoInverse)
    with pytest.raises(DslSyntaxError, match="\\^-1"):
        parse("Z^-2")


def test_fun_apply_catalogue_gate():
    with pytest.raises(DslSyntaxError, match="unknown function"):
        parse("fun(tanh,Z)")
    e = parse("fun(sq,T(2-2*cos(t1)))")
    assert isinstance(e, FunApply) and e.name == "sq"


def test_hermitian_inference_through_dsl():
    for text, flag in HERMITIAN.items():
        assert parse(text).hermitian is flag, text
    # a complex coefficient on either side of a combination
    assert not LinComb(1j, parse("Z"), 1.0, parse("Z")).hermitian
    assert not LinComb(1.0, parse("Z"), 1j, parse("Z")).hermitian


def test_parsed_expression_evaluates():
    e = parse("D(x1)*T(2-2*cos(t1))")
    sym = symbol_of(e)
    assert abs(evaluate(sym, [[0.5]], [[np.pi]])[0, 0, 0] - 2.0) < 1e-14
    mat = materialize(e, 4)
    assert mat.data.shape == (4, 4)


def test_matrix_argument_rows_checked():
    with pytest.raises(DslSyntaxError, match="square"):
        parse("T([1,2;3])")
    with pytest.raises(DslSyntaxError, match="square"):
        parse("T([1,2])")


def test_empty_input():
    with pytest.raises(DslSyntaxError):
        parse("")
    with pytest.raises(DslSyntaxError):
        parse("   ")


def test_overflowed_literal_does_not_crash_formatter():
    e = parse("1e999")  # folds to an infinite scalar
    format_expression(e)  # must not raise a non-syntax error


def test_format_alias_exported():
    assert dsl.format_expression is not None
    e = parse("Z")
    assert dsl.format_expression(e) == "Z"
