"""Unit tests for the exact bivariate Laurent polynomial type."""

from __future__ import annotations

import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from polytutte import bipoly
from polytutte.bipoly import BiPoly, X, X_PLUS_Y_MINUS_1, Y, parse, render
from polytutte.errors import ParseError, ReversalRange, ValidationError

ONE = BiPoly.one()
ZERO = BiPoly.zero()
XY1 = X_PLUS_Y_MINUS_1


def P(text: str) -> BiPoly:
    return parse(text)


# -- addition -----------------------------------------------------------------


def test_add_zero_is_identity():
    assert XY1 + ZERO == XY1


def test_add_cancels_terms():
    # (x^2 + 2xy + y^2 - x - y) + (x + y) = x^2 + 2xy + y^2
    p = P("x^2 + 2*x*y + y^2 - x - y")
    assert p + P("x + y") == P("x^2 + 2*x*y + y^2")


def test_add_distributes_over_common_factor():
    # x(x+y-1) + y(x+y-1) = (x+y)(x+y-1)
    assert X * XY1 + Y * XY1 == P("x + y") * XY1
    assert X * XY1 + Y * XY1 == P("x^2 + 2*x*y + y^2 - x - y")


# -- multiplication -----------------------------------------------------------


def test_mul_one_is_identity():
    assert XY1 * ONE == XY1


def test_mul_square():
    assert XY1 * XY1 == P("x^2 + 2*x*y + y^2 - 2*x - 2*y + 1")
    assert XY1 ** 2 == XY1 * XY1


def test_mul_difference_of_squares():
    assert P("x + y + 1") * XY1 == P("x^2 + 2*x*y + y^2 - 1")


# -- coefficient extraction ----------------------------------------------------


def test_coeff_reads_stored_term():
    assert P("x^2 + 2*x*y + y^2 - x - y").coeff(1, 1) == 2


def test_coeff_constant_term():
    assert XY1.coeff(0, 0) == -1


def test_coeff_absent_term_is_zero():
    assert XY1.coeff(2, 0) == 0


# -- substitution and reversal ---------------------------------------------------


def test_reverse_x_after_y_substitution():
    # x^3 * t(1/x) for t = x^3 + 2x^2 gives 1 + 2x
    t = P("x^3 + 2*x^2")
    assert t.reversed_in("x", 3) == P("2*x + 1")


def test_reverse_y_after_x_substitution():
    # y^2 * t(1, 1/y) for t = x^2 + 2xy + y^2 - x - y gives 1 + y
    t = P("x^2 + 2*x*y + y^2 - x - y")
    at_x1 = t.substitute_one("x")
    assert at_x1 == P("y^2 + y")
    assert at_x1.reversed_in("y", 2) == P("y + 1")


def test_substitute_y_one():
    assert XY1.substitute_one("y") == X


def test_reverse_bound_too_small_raises():
    with pytest.raises(ReversalRange):
        P("x^3 + 1").reversed_in("x", 2)


def test_reverse_rejects_laurent_input():
    with pytest.raises(ReversalRange):
        BiPoly.monomial(1, -1, 0).reversed_in("x", 3)


# -- divisibility by x + y - 1 --------------------------------------------------


def test_divisible_product():
    assert P("x^2 + 2*x*y + y^2 - x - y").divisible_by_x_plus_y_minus_1()


def test_not_divisible_x_plus_y():
    assert not P("x + y").divisible_by_x_plus_y_minus_1()


def test_divisible_square():
    assert (XY1 ** 2).divisible_by_x_plus_y_minus_1()


def random_poly(rng: Random) -> BiPoly:
    """Up to six terms with exponents 0..5 and coefficients -9..9."""
    return BiPoly({(rng.randint(0, 5), rng.randint(0, 5)): rng.randint(-9, 9)
                   for _ in range(rng.randint(0, 6))})


def test_divisibility_by_evaluation_seeded():
    rng = Random(5)
    for _ in range(300):
        multiple = random_poly(rng) * XY1
        assert multiple.divisible_by_x_plus_y_minus_1()
        # x^i y^j is t^i (1 - t)^j on the line y = 1 - x, never zero there
        i, j = rng.randint(0, 7), rng.randint(0, 7)
        for c in (1, -1):
            assert not (multiple + BiPoly.monomial(c, i, j)).divisible_by_x_plus_y_minus_1()


def test_zero_is_divisible():
    assert ZERO.divisible_by_x_plus_y_minus_1()


def test_divisibility_rejects_negative_exponents():
    for p in (BiPoly.monomial(1, -1, 0), XY1 * BiPoly.monomial(1, 0, -2)):
        with pytest.raises(ValidationError):
            p.divisible_by_x_plus_y_minus_1()


# -- cached powers and the zero filter ---------------------------------------------


def test_cached_power_matches_repeated_products():
    for base in (XY1, X + Y - X * Y, X - ONE):
        expected = ONE
        for k in range(8):
            assert bipoly.cached_power(base, k) == expected
            expected = expected * base


def test_accumulators_drop_cancelled_terms():
    for p in (
        parse("x + y - x"),
        bipoly.from_json([[1, 0, "1"], [0, 1, "1"], [1, 0, "-1"]]),
        P("x*y^2 - y^2 + y").substitute_one("x"),
    ):
        assert p == Y and len(p) == 1 and p.support() == {(0, 1)}
    assert len(P("x*y - x").substitute_one("y")) == 0


# -- rendering and parsing -------------------------------------------------------


def test_render_canonical_order():
    p = P("y^2 - x + x^2 + 2*x*y - y")
    assert str(p) == "x^2 + 2*x*y + y^2 - x - y"


def test_render_zero():
    assert str(ZERO) == "0"
    assert parse("0") == ZERO


def test_render_leading_negative_and_units():
    assert str(P("-x + 1")) == "-x + 1"
    assert str(BiPoly.constant(-3)) == "-3"
    assert str(BiPoly.monomial(-1, 1, 1)) == "-x*y"


def test_render_laurent_exponents():
    p = BiPoly.monomial(1, 1, -4)
    assert str(p) == "x*y^-4"
    assert parse("x*y^-4") == p


def test_parse_compact_spacing():
    assert parse("x^2+2*x*y+y^2-1") == P("x^2 + 2*x*y + y^2 - 1")


def test_parse_rejects_junk():
    # the last rows: products outside the three term shapes, numbers one
    # digit past the interpreter's conversion limit, and non-ASCII digits
    long = "1" * 4301
    for bad in ["", "x +", "* x", "x * ", "2x", "x ^", "z + 1", "--x", "x ^2", "x y", "x**y",
                "2*", "y*x", "x*x", "2*3", "x*2", "x*y*y", long, "x^" + long, long + "*x",
                "y^-" + long, "\u0663*x", "x^\u0663"]:
        with pytest.raises(ParseError):
            parse(bad)


@pytest.mark.parametrize(
    "text, terms",
    [
        ("7", {(0, 0): 7}),
        ("x", {(1, 0): 1}),
        ("y^3", {(0, 3): 1}),
        ("x^2*y", {(2, 1): 1}),
        ("5*x", {(1, 0): 5}),
        ("5*y^2", {(0, 2): 5}),
        ("5*x^2*y^3", {(2, 3): 5}),
        ("5 * x^2 * y^3", {(2, 3): 5}),
        ("  5*x  -  y  ", {(1, 0): 5, (0, 1): -1}),
        ("+x", {(1, 0): 1}),
        ("- x", {(1, 0): -1}),
        ("x^-2*y^-3 - 4*y^-1", {(-2, -3): 1, (0, -1): -4}),
        ("x^0", {(0, 0): 1}),
        ("1*x", {(1, 0): 1}),
        ("x + x - 3*x*y + 1 + x*y", {(1, 0): 2, (1, 1): -2, (0, 0): 1}),
        ("x - x", {}),
    ],
)
def test_parse_accepts_every_term_shape(text, terms):
    assert parse(text) == BiPoly(terms)


@settings(max_examples=500)
@given(st.text(alphabet="0123456789xy^*+- ", max_size=30))
def test_parse_ends_in_a_polynomial_or_a_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass


def test_parse_is_linear_in_the_text():
    for bad in (" " * 200_000 + "x^", "x" + " " * 200_000 + "?", "2 *" + " " * 200_000 + "z"):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse(bad)
        assert time.perf_counter() - start < 1
    text = " + ".join(f"{k}*x^{k % 7}*y^-{k}" for k in range(1, 50_001))
    start = time.perf_counter()
    assert len(parse(text)) == 50_000
    assert time.perf_counter() - start < 1


def test_json_round_trip():
    p = P("x^2 + 2*x*y + y^2 - x - y")
    data = bipoly.to_json(p)
    assert data[0] == [2, 0, "1"]
    assert bipoly.from_json(data) == p


# -- algebraic properties (randomized) -------------------------------------------


def small_polys():
    exponent = st.integers(min_value=-3, max_value=4)
    coeff = st.integers(min_value=-9, max_value=9)
    return st.dictionaries(
        st.tuples(exponent, exponent), coeff, max_size=6
    ).map(BiPoly)


@given(small_polys(), small_polys())
def test_add_commutes(p, q):
    assert p + q == q + p


@given(small_polys(), small_polys())
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(small_polys(), small_polys(), small_polys())
def test_add_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(small_polys(), small_polys(), small_polys())
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(small_polys(), small_polys(), small_polys())
def test_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(small_polys(), small_polys())
def test_coeff_is_additive(p, q):
    s = p + q
    for i, j in p.support() | q.support():
        assert s.coeff(i, j) == p.coeff(i, j) + q.coeff(i, j)


@given(small_polys())
def test_parse_render_round_trip(p):
    assert parse(render(p)) == p


@given(small_polys())
def test_json_round_trip_random(p):
    assert bipoly.from_json(bipoly.to_json(p)) == p


@given(small_polys())
def test_subtraction_and_negation(p):
    assert p - p == ZERO
    assert p + (-p) == ZERO


def test_no_zero_coefficients_stored():
    p = BiPoly({(0, 0): 0, (1, 0): 2})
    assert p.support() == {(1, 0)}


def test_immutability():
    with pytest.raises(AttributeError):
        XY1._terms = {}


def test_rejects_non_integer_coefficients():
    with pytest.raises(ValidationError):
        BiPoly({(0, 0): 1.5})


@pytest.mark.parametrize(
    "terms",
    [{(True, 0): 1}, {(1, False): 1}, {(1, 0): True}, {(True, 0): True}],
    ids=["bool-x-exponent", "bool-y-exponent", "bool-coefficient", "all-bool"],
)
def test_rejects_bools(terms):
    # bool is an int subclass; True must not pass for 1 (or the term for x)
    with pytest.raises(ValidationError):
        BiPoly(terms)


def test_evaluate_at_one_one():
    assert P("x^2 + 2*x*y + y^2 - x - y").evaluate(1, 1) == 2
    assert BiPoly.monomial(3, 1, -4).evaluate(1, 1) == 3


def test_swap_vars():
    assert P("x^2 - y").swap_vars() == P("y^2 - x")
