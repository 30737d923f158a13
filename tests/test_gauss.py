import math

import pytest
from hypothesis import given, settings, strategies as st

from weylmds.gauss import (ArithContext, GaussValue, gauss_brute, gauss_eval,
                           numeric_eval)


def test_residue_symbol_identity_and_vanishing():
    ctx = ArithContext(3, 7)
    assert ctx.chi_index(1) == 0
    assert ctx.chi_index(8) == 0
    assert ctx.chi_index(7) is None


def test_residue_symbol_order_and_multiplicativity():
    ctx = ArithContext(3, 7)
    s = ctx.chi_index(2)
    assert s is not None and s % 3 != 0  # chi(2) != 1
    # chi(2)^3 = 1 is automatic for an index mod 3; check multiplicativity
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            lhs = ctx.chi_index(d1 * d2)
            rhs = (ctx.chi_index(d1) + ctx.chi_index(d2)) % 3
            assert lhs == rhs


def test_brute_ramanujan_and_empty_modulus():
    ctx = ArithContext(1, 5)
    assert abs(gauss_brute(1, 0, 1, ctx) - (-1)) < 1e-12
    assert gauss_brute(1, 3, 0, ctx) == 1.0


def test_brute_absolute_value():
    ctx = ArithContext(3, 7)
    assert abs(abs(gauss_brute(1, 0, 1, ctx)) - math.sqrt(7)) < 1e-9


def test_brute_overflow_guard():
    ctx = ArithContext(1, 5)
    with pytest.raises(OverflowError):
        gauss_brute(1, 0, 11, ctx)


def test_gauss_eval_rules():
    n1 = gauss_eval(2, 3, 4, 1)
    assert n1 == GaussValue.q_power(1, 3, -1)  # -q^{L-1} at L = 4
    n3 = gauss_eval(2, 1, 2, 3)
    assert n3 == GaussValue.symbol(3, 1, q_exp=1)  # q G[1]
    assert gauss_eval(1, 0, 2, 3).is_zero()
    assert gauss_eval(5, 2, 0, 7) == GaussValue.one(7)


def test_gauss_eval_large_modulus_cases():
    # c >= v: phi(p^v) when n | t v, else 0
    assert gauss_eval(3, 4, 2, 3) == GaussValue.phi(3, 2)
    assert gauss_eval(1, 4, 2, 3).is_zero()


def test_numeric_eval_examples():
    ctx = ArithContext(3, 7)
    assert numeric_eval(GaussValue.one(3), ctx) == 1.0
    assert abs(numeric_eval(GaussValue.q_power(3, 2, -1), ctx) + 49) < 1e-9
    prod = (GaussValue.symbol(3, 1, q_exp=1)
            * GaussValue.symbol(3, 2))
    assert abs(numeric_eval(prod, ctx) - 49) < 1e-6


def test_symbol_folding_only_for_conjugate_pairs():
    v = GaussValue.symbol(3, 1) * GaussValue.symbol(3, 2)
    assert v == GaussValue.q_power(3, 1)
    v2 = GaussValue.symbol(3, 1) * GaussValue.symbol(3, 1)
    assert v2.terms == (((1, 1), 0, 1),)


def test_oracle_equivalence_grid():
    for n, p in ((1, 5), (3, 7), (5, 11)):
        ctx = ArithContext(n, p)
        for t in (1, 2):
            for c in range(6):
                for v in range(5):
                    sym = numeric_eval(gauss_eval(t, c, v, n), ctx)
                    brute = gauss_brute(t, c, v, ctx)
                    assert abs(sym - brute) <= 1e-9 * p ** v, (n, p, t, c, v)


def test_primitive_sum_magnitudes():
    for n, p in ((3, 7), (5, 11)):
        ctx = ArithContext(n, p)
        for s in range(1, n):
            g = gauss_brute(s, 0, 1, ctx)
            assert abs(abs(g) - math.sqrt(p)) < 1e-9


def test_context_validation():
    with pytest.raises(ValueError):
        ArithContext(3, 8)
    with pytest.raises(ValueError):
        ArithContext(3, 5)  # 5 != 1 mod 3


def test_json_canonical_form():
    assert GaussValue.one(3).to_json() == [{"c": "1", "q": 0, "g": []}]
    v = GaussValue.symbol(3, 2, q_exp=1, coeff=-4) + GaussValue.q_power(3, 0)
    blob = v.to_json()
    assert GaussValue.from_json(3, blob) == v


# g_t(p^c, p^v) with c in {v - 1, v, v + 1}: every evaluation rule except
# c <= v - 2, which is always 0
_factor = st.tuples(st.integers(1, 2), st.integers(-1, 1), st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from((1, 3, 5, 7)), factors=st.lists(_factor, max_size=7),
       data=st.data())
def test_gauss_eval_product_ignores_factor_order(n, factors, data):
    values = [gauss_eval(t, max(v + dc, 0), v, n) for t, dc, v in factors]
    shuffled = data.draw(st.permutations(values))

    def product(vals):
        out = GaussValue.one(n)
        for g in vals:
            out = out * g
        return out

    assert product(shuffled).to_json() == product(values).to_json()
