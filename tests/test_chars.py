from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

import pytest

from weylmds.chars import (character_gt, character_weyl_oracle, deformation_D,
                           euler_product_n1, gauss_to_q_poly,
                           h_generating_function, h_tilde_table, hk_rhs,
                           q_index, ring_size, scale_x_by_t, t_index,
                           verify_deformation_identity, verify_euler_bridge,
                           verify_euler_factor_identity, verify_h_tilde,
                           weyl_dimension, x_monomial)
from weylmds.coeffs import h_table
from weylmds.laurent import LaurentPoly
from weylmds.patterns import LambdaTwist
from weylmds.tableaux import standard_tableaux, tableau_stats


def _mono(r, exps, coeff=1, t=0, q=0):
    return x_monomial(r, exps, coeff=coeff, t_exp=t, q_exp=q)


def test_character_rank1_standard():
    c = character_gt((1,), 1)
    assert c == _mono(1, (1,)) + _mono(1, (-1,))


def test_character_r2_standard_rep():
    c = character_gt((1, 0), 2)
    expected = (_mono(2, (1, 0)) + _mono(2, (-1, 0))
                + _mono(2, (0, 1)) + _mono(2, (0, -1)))
    assert c == expected


def test_character_trivial():
    assert character_weyl_oracle((0, 0), 2) == LaurentPoly.const(4, 1)


def test_character_oracles_agree():
    cases = [((p,), 1) for p in range(5)]
    for r in (2, 3):
        cases += [(lam, r) for lam in combinations_with_replacement(
            range(4, -1, -1), r)]
    for lam, r in cases:
        assert character_gt(lam, r) == character_weyl_oracle(lam, r), (lam, r)


def test_character_dimension_at_one():
    for lam, r in [((2, 1), 2), ((1, 1, 0), 3), ((4, 4, 4), 3)]:
        c = character_gt(lam, r)
        ones = {i: Fraction(1) for i in range(ring_size(r))}
        assert c.eval_at(ones) == weyl_dimension(lam, r)
    assert weyl_dimension((2, 1), 2) == 16


def test_character_signed_permutation_invariance():
    r = 2
    c = character_gt((2, 1), r)
    for sigma in permutations(range(r)):
        for signs in product((1, -1), repeat=r):
            moved = {}
            for e, coeff in c.terms.items():
                ne = [0] * ring_size(r)
                for i in range(r):
                    ne[i] = signs[i] * e[sigma[i]]
                moved[tuple(ne)] = moved.get(tuple(ne), 0) + coeff
            assert LaurentPoly(ring_size(r), moved) == c


def test_deformation_examples():
    r1 = deformation_D(1)
    assert r1 == _mono(1, (1,)) + _mono(1, (-1,), t=1)
    r2 = deformation_D(2)
    t0 = LaurentPoly(ring_size(2),
                     {e: c for e, c in r2.terms.items() if e[t_index(2)] == 0})
    assert t0 == _mono(2, (2, 1))
    vals = {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1), 3: Fraction(1)}
    assert r2.eval_at(vals) == 0  # t = -1, x = 1 kills (1 + t)


def test_hk_rhs_rank1_matches_deformation():
    twist = LambdaTwist((0,))
    rhs = hk_rhs(1, [tableau_stats(S)
                     for S in standard_tableaux(twist.top_row)])
    # the two single-box tableaux give x^{-1} + t x
    assert rhs == _mono(1, (-1,)) + _mono(1, (1,), t=1)
    assert rhs == scale_x_by_t(deformation_D(1), 1) * character_gt((0,), 1)


def test_deformation_identity_small():
    for l in [(0,), (2,), (0, 0), (1, 0), (1, 1)]:
        ok, diff = verify_deformation_identity(LambdaTwist(l))
        assert ok and diff.is_zero(), l


def test_h_tilde_rank1():
    twist = LambdaTwist((1,))
    tilde = h_tilde_table(twist)
    n = ring_size(1)
    qi = q_index(1)
    one = LaurentPoly.const(n, 1)
    qinv = LaurentPoly.variable(n, qi, -1)
    assert tilde[(0,)] == one
    assert tilde[(1,)] == one - qinv
    assert tilde[(2,)] == -qinv
    ok, bad = verify_h_tilde(twist)
    assert ok and not bad


def test_h_tilde_exhaustive_small():
    for l in [(0, 0), (1, 1), (0, 0, 0)]:
        ok, bad = verify_h_tilde(LambdaTwist(l))
        assert ok, (l, bad)


def test_euler_bridge_small_ranks():
    for r in (1, 2, 3):
        ok, diff = verify_euler_bridge(r)
        assert ok and diff.is_zero()


def test_euler_identity_rank1_hand_values():
    twist = LambdaTwist((0,))
    gen = h_generating_function(twist)
    # 1 - q^{-2s_1} written as 1 - x^2/q
    expected = LaurentPoly.const(3, 1) - _mono(1, (2,), q=-1)
    assert gen == expected
    ok, diff = verify_euler_factor_identity(twist)
    assert ok and diff.is_zero()


def test_euler_identity_r2():
    for l in [(0, 0), (1, 0), (2, 1)]:
        ok, diff = verify_euler_factor_identity(LambdaTwist(l))
        assert ok, l


def test_gauss_to_q_poly_rejects_symbols():
    from weylmds.gauss import GaussValue
    with pytest.raises(ValueError):
        gauss_to_q_poly(GaussValue.symbol(3, 1), 1)


def test_euler_product_trivial_m():
    table = euler_product_n1((1, 1), 6)
    assert table[(1, 1)] == 1


def test_euler_product_rank1_matches_tables():
    bound = 50
    table = euler_product_n1((1,), bound)
    for p in (2, 3, 5, 7):
        block = h_table(LambdaTwist((0,)), 1)
        for k, val in block.entries:
            c = p ** k[0]
            if c <= bound:
                num = gauss_to_q_poly(val, 1).eval_at({2: Fraction(p)})
                assert table.get((c,), 0) == num, (p, k)


def test_euler_product_multiplicative():
    table = euler_product_n1((1,), 400)
    for c1, c2 in [(2, 3), (4, 25), (8, 9), (5, 49)]:
        assert table.get((c1 * c2,), 0) == \
            table.get((c1,), 0) * table.get((c2,), 0)


def test_euler_product_twisted_rank1():
    # at l = ord_p(m): support reaches k = l + 1 with value -p^l
    table = euler_product_n1((4,), 40)
    assert table.get((2,), 0) == 1       # phi(2) at p = 2, l = 2
    assert table.get((4,), 0) == 2       # phi(4)
    assert table.get((8,), 0) == -4      # k = l + 1
    assert table.get((16,), 0) == 0      # beyond the support
    assert table.get((3,), 0) == -1      # untwisted prime, k = 1
    assert table.get((9,), 0) == 0       # untwisted support stops at k = 1
    assert table.get((6,), 0) == table[(2,)] * table[(3,)]
