import random
import string
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gltlab import dsl
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
    structurally_equal,
    symbol_of,
)
from gltlab.symbols import evaluate

CORPUS = [
    "T(2-2*cos(t1))",
    "D(x1)",
    "Z",
    "T(2-2*cos(t1))*D(x1)",
    "D(x1)*T(2-2*cos(t1))+Z",
    "T([0,1+exp(-i*t1);1+exp(i*t1),0])",
    "T(4-2*cos(t1)-2*cos(t2))",
    "fun(exp,T(2-2*cos(t1)))",
    "T(2-2*cos(t1))^-1",
    "T(exp(i*t1))'",
    "2*T(2-2*cos(t1))-3*D(x1)",
    "(D(x1)+D(x2))*T(cos(t1)+cos(t2))",
    "T(sin(t1))-T(sin(t1))",
    "D(x1^2)",
    "D([x1,x2;x2,x1])",
    "T(1+cos(2*t1))",
    "i*T(sin(t1))",
    "fun(abs,T(2-2*cos(t1)))+0.5*Z",
    "T((1+cos(t1))^2)",
    "D(exp(x1))*T(2-2*cos(t1))*D(exp(x1))",
]


def test_parse_laplacian_coefficients():
    e = parse("T(2-2*cos(t1))")
    assert isinstance(e, Toeplitz)
    assert abs(e.poly.coefficient((0,))[0, 0] - 2.0) < 1e-15
    assert abs(e.poly.coefficient((1,))[0, 0] + 1.0) < 1e-15
    assert abs(e.poly.coefficient((-1,))[0, 0] + 1.0) < 1e-15
    assert e.poly.degree == (1,)


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


def test_two_level_exponential_form():
    e = parse("T(4-2*cos(t1)-2*cos(t2))")
    assert isinstance(e, Toeplitz)
    assert e.poly.d == 2
    assert abs(e.poly.coefficient((0, 0))[0, 0] - 4.0) < 1e-15
    assert abs(e.poly.coefficient((1, 0))[0, 0] + 1.0) < 1e-15
    assert abs(e.poly.coefficient((0, -1))[0, 0] + 1.0) < 1e-15
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


def test_numeric_fallback_for_non_band_limited():
    with pytest.raises(DslSyntaxError, match="band-limited"):
        parse("T(abs(t1))")
    e = parse("T(abs(t1))", numeric_degree=3)
    assert isinstance(e, Toeplitz)
    assert abs(e.poly.coefficient((0,))[0, 0] - np.pi / 2) < 1e-2
    assert abs(e.poly.coefficient((1,))[0, 0] + 2 / np.pi) < 1e-2


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
    assert parse("T(2-2*cos(t1))").hermitian
    assert not parse("T(exp(i*t1))").hermitian
    assert parse("D(x1)").hermitian
    assert parse("D([x1,x2;x2,x1])").hermitian
    assert not parse("D(i*x1)").hermitian


def test_parsed_expression_evaluates():
    e = parse("D(x1)*T(2-2*cos(t1))")
    sym = symbol_of(e)
    assert abs(evaluate(sym, [0.5], [np.pi])[0, 0] - 2.0) < 1e-14
    mat = materialize(e, 4)
    assert mat.size == 4


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
