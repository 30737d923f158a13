from itertools import combinations

import pytest

from weylmds.coeffs import gamma_a, gamma_b, h_table, pattern_G, verify_k_sum
from weylmds.gauss import ArithContext, GaussValue, gauss_eval, numeric_eval
from weylmds.patterns import (GTPattern, LambdaTwist, entry_bounds_flags,
                              enumerate_patterns, is_strict)

from test_patterns import FIG1


def gamma_b_long(P: GTPattern, i: int, j: int, n: int) -> GaussValue:
    """Oracle: the factor attached to b_{i,j}, spelled out case by case."""
    r = P.rank
    is_min, is_max = entry_bounds_flags(P, ("b", i, j))
    if is_min and is_max:
        return GaussValue.zero(n)
    v = P.v_data(i, j)
    t = 2 if j == r else 1
    if is_max:
        return gauss_eval(t, v - 1, v, n)
    if is_min:
        return GaussValue.q_power(n, v)
    if (v * t) % n == 0:
        return GaussValue.phi(n, v)
    return GaussValue.zero(n)


def gamma_a_long(P: GTPattern, i: int, j: int, n: int) -> GaussValue:
    """Oracle: the factor attached to a_{i,j}, spelled out case by case."""
    is_min, is_max = entry_bounds_flags(P, ("a", i, j))
    u = P.u_data(i, j)
    if is_min:
        return GaussValue.q_power(n, u)
    if is_max:
        return gauss_eval(1, u - 1, u, n)
    if u % n == 0:
        return GaussValue.phi(n, u)
    return GaussValue.zero(n)


def test_gamma_b_minimal_is_unit():
    P = GTPattern(2, ((2, 1), (1,)), ((2, 1), (1,)))
    assert gamma_b(P, 1, 1, 1) == GaussValue.one(1)


def test_gamma_b_rank1_maximal():
    P = GTPattern(1, ((1,),), ((0,),))
    assert gamma_b(P, 1, 1, 1) == GaussValue.q_power(1, 0, -1)  # -1
    assert gamma_b(P, 1, 1, 3) == GaussValue.symbol(3, 2)       # G[2]


def test_gamma_b_generic_n1_is_phi():
    P = GTPattern(1, ((2,),), ((1,),))
    assert gamma_b(P, 1, 1, 1) == GaussValue.phi(1, 1)


def test_gamma_a_cases():
    # top (2,1), b1 = (2,0): a12 = 2 maximal, a12 = 0 minimal, a12 = 1 generic
    P_max = GTPattern(2, ((2, 1), (2,)), ((2, 0), (1,)))
    u = P_max.u_data(1, 2)
    assert gamma_a(P_max, 1, 2, 1) == GaussValue.q_power(1, u - 1, -1)
    P_min = GTPattern(2, ((2, 1), (0,)), ((2, 0), (0,)))
    assert gamma_a(P_min, 1, 2, 1) == GaussValue.q_power(
        1, P_min.u_data(1, 2))
    P_gen = GTPattern(2, ((2, 1), (1,)), ((2, 0), (1,)))
    assert P_gen.u_data(1, 2) == 2
    assert gamma_a(P_gen, 1, 2, 3).is_zero()          # 3 does not divide 2
    assert gamma_a(P_gen, 1, 2, 1) == GaussValue.phi(1, 2)


def test_degenerate_right_edge_coincidence_kills_pattern():
    # b_{2,2} = a_{1,2} = 0 meets both equalities; its factor must vanish
    P = GTPattern(2, ((2, 1), (0,)), ((1, 0), (0,)))
    assert gamma_b(P, 2, 2, 1).is_zero()
    assert pattern_G(P, 1).is_zero()
    assert pattern_G(P, 3).is_zero()


def test_pattern_G_nonstrict_is_zero():
    P = GTPattern(2, ((2, 1), (1,)), ((1, 1), (1,)))
    assert pattern_G(P, 1).is_zero()


def test_pattern_G_all_minimal_is_one():
    P = GTPattern(2, ((2, 1), (1,)), ((2, 1), (1,)))
    assert pattern_G(P, 1) == GaussValue.one(1)
    assert pattern_G(P, 5) == GaussValue.one(5)


def test_pattern_G_rank1_generic():
    P = GTPattern(1, ((2,),), ((1,),))
    assert pattern_G(P, 1) == GaussValue.phi(1, 1)  # q - 1


def test_long_and_short_forms_agree_everywhere():
    for top in [(2, 1), (3, 1), (3, 2, 1)]:
        r = len(top)
        for P in enumerate_patterns(top):
            for n in (1, 3):
                for i in range(1, r + 1):
                    for j in range(i, r + 1):
                        assert gamma_b(P, i, j, n) == gamma_b_long(P, i, j, n)
                for i in range(1, r):
                    for j in range(i + 1, r + 1):
                        assert gamma_a(P, i, j, n) == gamma_a_long(P, i, j, n)


def test_h_table_rank1_twisted():
    table = h_table(LambdaTwist((1,)), 1)
    assert table.value((0,)) == GaussValue.one(1)
    assert table.value((1,)) == GaussValue.phi(1, 1)
    assert table.value((2,)) == GaussValue.q_power(1, 1, -1)
    assert table.keys() == [(0,), (1,), (2,)]


def test_h_table_key_zero_is_one():
    for l, n in [((0,), 1), ((2,), 3), ((0, 0), 3), ((1, 0), 5)]:
        table = h_table(LambdaTwist(l), n)
        assert table.value((0,) * len(l)) == GaussValue.one(n)


def test_h_table_r2_long_element_value():
    table = h_table(LambdaTwist((0, 0)), 3)
    expected = (GaussValue.q_power(3, 3, -1)
                * GaussValue.symbol(3, 1) * GaussValue.symbol(3, 1)
                * GaussValue.symbol(3, 2))
    assert table.value((3, 4)) == expected


def test_verify_k_sum_examples():
    P = GTPattern(1, ((1,),), ((0,),))
    assert P.k_vec == (1,) and P.v_data(1, 1) == 1
    assert verify_k_sum(P)
    assert verify_k_sum(FIG1) and sum(FIG1.k_vec) == 71


def test_verify_k_sum_exhaustive_small():
    for top in [(2, 1), (4, 2), (3, 2, 1), (5, 3, 1)]:
        for P in enumerate_patterns(top):
            assert verify_k_sum(P)


def test_pattern_G_magnitude_bound():
    ctx = ArithContext(1, 5)
    for P in enumerate_patterns((3, 1)):
        g = pattern_G(P, 1)
        total = sum(P.k_vec)
        mag = abs(numeric_eval(g, ctx))
        if total == 0:
            assert mag <= 1.0 + 1e-9
        else:
            assert mag < float(5 ** total)


def _weight_from_support(k, L):
    """lambda+rho - sum k_i alpha_i in Euclidean coordinates."""
    r = len(L)
    kk = tuple(k) + (0,)
    diff = [2 * kk[0] - kk[1] if r > 1 else 2 * kk[0]]
    diff += [kk[j] - kk[j + 1] for j in range(1, r)]
    return tuple(Lj - d for Lj, d in zip(L, diff))


def test_h_table_support_inside_weight_multiset():
    for l in [(0, 0), (1, 0)]:
        twist = LambdaTwist(l)
        weights = {P.wgt for P in enumerate_patterns(twist.top_row)}
        table = h_table(twist, 1)
        for k in table.keys():
            vec = _weight_from_support(k, twist.L)
            # the weight multiset is symmetric under negation
            assert tuple(-x for x in vec) in weights
