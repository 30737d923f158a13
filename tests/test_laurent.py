from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylmds.laurent import LaurentPoly


def variable(nvars, idx, power=1):
    """x_idx^power in a ring of nvars variables."""
    return LaurentPoly.monomial(nvars, [power if m == idx else 0
                                        for m in range(nvars)])


def eval_at(poly, values):
    """poly evaluated exactly, as an int when the value is integral;
    `values[idx]` (a Fraction or int) must be supplied for every variable
    appearing with nonzero exponent."""
    total = Fraction(0)
    for e, c in poly.terms.items():
        for idx, power in enumerate(e):
            if power:
                c *= Fraction(values[idx]) ** power
        total += c
    return total.numerator if total.denominator == 1 else total


def V(i, p=1):
    return variable(3, i, p)


def test_ring_operations():
    x, y = V(0), V(1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + 1) * (x + 1) * (x + 1) == V(0, 3) + 3 * x * x + 3 * x + 1
    assert (p - p).is_zero()


def test_laurent_negative_exponents():
    x = V(0)
    xinv = V(0, -1)
    assert x * xinv == LaurentPoly.const(3, 1)


def test_exact_division():
    x, y = V(0), V(1)
    num = V(0, 3) - V(1, 3)
    quot = num.exact_div(x - y)
    assert quot == x * x + x * y + y * y
    assert (quot * (x - y)) == num


def test_division_with_laurent_divisor():
    x = V(0)
    num = x - V(0, -1)
    quot = num.exact_div(x - V(0, -1))
    assert quot == LaurentPoly.const(3, 1)


def test_eval_and_substitute():
    x, y = V(0), V(1)
    p = x * x * y + 2
    assert eval_at(p, {0: Fraction(3), 1: Fraction(1, 2), 2: 0}) \
        == Fraction(13, 2)




def test_json_terms_sorted():
    p = V(1) + V(0) * 2
    assert p.to_json() == [{"exp": [0, 1, 0], "coeff": "1/1"},
                           {"exp": [1, 0, 0], "coeff": "2/1"}]


# -- property tests: integer coefficients ----------------------------------

_poly = st.dictionaries(
    st.tuples(*[st.integers(-2, 2)] * 3), st.integers(-5, 5),
    max_size=4).map(lambda terms: LaurentPoly(3, terms))


def _canonical(p):
    return all(c and type(c) is int for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(_poly, _poly, _poly)
def test_ring_axioms(a, b, c):
    zero, one = LaurentPoly.zero(3), LaurentPoly.const(3, 1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a - a).is_zero()
    for p in (a + b, a - b, a * b, -c, a * a, 2 * a + 3):
        assert _canonical(p)


@settings(max_examples=150, deadline=None)
@given(_poly, _poly)
def test_exact_div_round_trip(a, b):
    if b.is_zero():
        return
    quot = (a * b).exact_div(b)
    assert quot == a and _canonical(quot)


def test_coefficients_are_integers():
    x = V(0)
    with pytest.raises(ValueError):  # the quotient would be (x - 1) / 2
        (x * x - 1).exact_div(2 * x + 2)
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 1.0):
        with pytest.raises(TypeError):
            LaurentPoly(3, {(1, 0, 0): bad})
        with pytest.raises(TypeError):
            x + bad
    assert type(eval_at(x, {0: 3})) is int
    assert eval_at(V(0, -1), {0: 3}) == Fraction(1, 3)
