from collections import Counter
from itertools import combinations, product
from operator import add

import pytest

from hypothesis import given, settings, strategies as st

from weylmds.chars import _reduced_factor
from weylmds.coeffs import (HTable, gamma_a, gamma_b, h_table, k_sum_classes,
                            pair_G, pattern_G)
from weylmds.gauss import ArithContext, GaussValue, gauss_eval, numeric_eval
from weylmds.patterns import (GTPattern, enumerate_patterns, is_strict,
                              pair_classes, pair_entries, pair_rows,
                              pair_sums)
from weylmds.roots import LambdaTwist, support_vector

from stable_lemmas import record, records
from test_patterns import FIG1, bound_flags_long, u_long, v_long, wgt_slot


def gamma_b_long(P: GTPattern, i: int, j: int, n: int) -> GaussValue:
    """Oracle: the factor attached to b_{i,j}, spelled out case by case."""
    r = P.rank
    is_min, is_max = bound_flags_long(P, ("b", i, j))
    if is_min and is_max:
        return GaussValue.zero(n)
    v = v_long(P, i, j)
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
    is_min, is_max = bound_flags_long(P, ("a", i, j))
    u = u_long(P, i, j)
    if is_min:
        return GaussValue.q_power(n, u)
    if is_max:
        return gauss_eval(1, u - 1, u, n)
    if u % n == 0:
        return GaussValue.phi(n, u)
    return GaussValue.zero(n)


def pattern_G_long(P: GTPattern, n: int) -> GaussValue:
    """Oracle: zero unless strict, else the product of every entry factor,
    entry by entry."""
    if not is_strict(P):
        return GaussValue.zero(n)
    out = GaussValue.one(n)
    for e in records(P):
        gamma = gamma_b if e.pos[0] == "b" else gamma_a
        out = out * gamma(e, n)
        if out.is_zero():
            return out
    return out


def h_table_long(twist: LambdaTwist, n: int):
    """Oracle: every pattern's G(P) added into its k bucket, zeros included;
    also returns the keys that only zero products reach."""
    acc, nonzero = {}, set()
    for P in enumerate_patterns(twist.top_row):
        k = P.k_vec
        g = pattern_G_long(P, n)
        acc[k] = acc[k] + g if k in acc else g
        if not g.is_zero():
            nonzero.add(k)
    return HTable(twist, n, tuple(sorted(acc.items()))), set(acc) - nonzero


def test_gamma_b_minimal_is_unit():
    P = GTPattern(2, ((2, 1), (1,)), ((2, 1), (1,)))
    assert gamma_b(record(P, ("b", 1, 1)), 1) == GaussValue.one(1)


def test_gamma_b_rank1_maximal():
    P = GTPattern(1, ((1,),), ((0,),))
    e = record(P, ("b", 1, 1))
    assert gamma_b(e, 1) == GaussValue.q_power(1, 0, -1)  # -1
    assert gamma_b(e, 3) == GaussValue.symbol(3, 2)       # G[2]


def test_gamma_b_generic_n1_is_phi():
    P = GTPattern(1, ((2,),), ((1,),))
    assert gamma_b(record(P, ("b", 1, 1)), 1) == GaussValue.phi(1, 1)


def test_gamma_a_cases():
    # top (2,1), b1 = (2,0): a12 = 2 maximal, a12 = 0 minimal, a12 = 1 generic
    P_max = GTPattern(2, ((2, 1), (2,)), ((2, 0), (1,)))
    u = u_long(P_max, 1, 2)
    assert gamma_a(record(P_max, ("a", 1, 2)), 1) == GaussValue.q_power(
        1, u - 1, -1)
    P_min = GTPattern(2, ((2, 1), (0,)), ((2, 0), (0,)))
    assert gamma_a(record(P_min, ("a", 1, 2)), 1) == GaussValue.q_power(
        1, u_long(P_min, 1, 2))
    P_gen = GTPattern(2, ((2, 1), (1,)), ((2, 0), (1,)))
    assert u_long(P_gen, 1, 2) == 2
    e = record(P_gen, ("a", 1, 2))
    assert gamma_a(e, 3).is_zero()          # 3 does not divide 2
    assert gamma_a(e, 1) == GaussValue.phi(1, 2)


def test_degenerate_right_edge_coincidence_kills_pattern():
    # b_{2,2} = a_{1,2} = 0 meets both equalities; its factor must vanish
    P = GTPattern(2, ((2, 1), (0,)), ((1, 0), (0,)))
    assert gamma_b(record(P, ("b", 2, 2)), 1).is_zero()
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
                        e = record(P, ("b", i, j))
                        assert gamma_b(e, n) == gamma_b_long(P, i, j, n)
                for i in range(1, r):
                    for j in range(i + 1, r + 1):
                        e = record(P, ("a", i, j))
                        assert gamma_a(e, n) == gamma_a_long(P, i, j, n)


def test_pattern_G_equals_entry_by_entry_product():
    # n varies fastest, so a pair factor cached under a key without n is
    # read back at the wrong degree
    tops = [(2, 1), (5, 3), (3, 2, 1), (6, 5, 3),        # strict
            (2, 2), (2, 2, 0), (3, 1, 1), (1, 1, 1, 0)]  # not strict
    for top in tops:
        for P in enumerate_patterns(top):
            for n in (1, 2, 3, 4, 5, 9):
                assert pattern_G(P, n) == pattern_G_long(P, n)


def test_pair_G_is_zero_on_a_tie_in_any_of_its_rows():
    # pattern_G cannot see a pair that ignores a tie in its lower a-row:
    # the next pair squeezes an entry below that tie to a zero factor
    for top in [(5, 3, 1), (4, 4, 1), (4, 2, 2)]:
        for P in enumerate_patterns(top):
            for i in (1, 2, 3):
                rows = (P.a[i - 1], P.b[i - 1], P.a[i] if i < 3 else ())
                if any(x == y for row in rows for x, y in zip(row, row[1:])):
                    assert pair_G(3, i, *rows, 1).is_zero()
                    assert pair_G(3, i, *rows, 3).is_zero()


def test_row_pair_caches_are_bounded():
    # one entry per distinct row triple: hcoeff --rank 1 --l 99999 meets
    # 100,001 of them, and an unbounded cache holds every value to the end
    assert pair_G.cache_info().maxsize == 2 ** 14
    assert pair_classes.cache_info().maxsize == 2 ** 14


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3),
       st.sampled_from([1, 2, 3, 4, 5, 6, 9]))
def test_pattern_G_equals_oracle_on_random_tops(parts, n):
    for P in enumerate_patterns(sorted(parts, reverse=True)):
        assert pattern_G(P, n) == pattern_G_long(P, n)


def test_h_table_equals_sum_of_every_product():
    # (keys only zero products reach, all keys): such keys must stay keys
    zero_only = {((0, 0), 3): (4, 12), ((0, 0, 0), 3): (79, 135)}
    cases = [(l, n) for r in (1, 2, 3) for l in product((0, 1), repeat=r)
             for n in (1, 3, 4, 5)] + [((0, 0, 0, 0), 3)]
    for l, n in cases:
        twist = LambdaTwist(l)
        long, only_zero = h_table_long(twist, n)
        assert h_table(twist, n) == long
        if (l, n) in zero_only:
            assert (len(only_zero), len(long.keys())) == zero_only[l, n]


def h_table_fold(twist: LambdaTwist, n: int) -> tuple:
    """h_table's entries from the row-pair fold: each pair contributes its
    wgt slot and the factor pair_G, and lambda+rho + wgt = sum k_i alpha_i."""
    sums = pair_sums(twist.top_row, lambda r, i, *rows: (
        wgt_slot(r, i, *rows), pair_G(r, i, *rows, n)))
    return tuple(sorted((support_vector(tuple(map(add, twist.L, wgt))), value)
                        for wgt, value in sums.items()))


# every twist of rank <= 2 with l_i <= 2 and of rank 3 with l_i <= 1
FOLD_GRID = [l for r in (1, 2) for l in product(range(3), repeat=r)]
FOLD_GRID += list(product((0, 1), repeat=3))


@pytest.mark.parametrize("n", [1, 3, 5, 7])
@pytest.mark.parametrize("l", FOLD_GRID)
def test_row_pair_fold_equals_h_table(l, n):
    twist = LambdaTwist(l)
    assert h_table_fold(twist, n) == h_table(twist, n).entries


def test_row_pair_fold_keeps_the_keys_of_zero_sums():
    # at (0,0), n = 3, 4 of the 12 keys are reached by zero products only
    fold = h_table_fold(LambdaTwist((0, 0)), 3)
    assert (sum(v.is_zero() for _, v in fold), len(fold)) == (4, 12)


# l_1 + ... + l_r <= 8, 4, 2 at rank 1, 2, 3: at most 8,316 patterns
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_row_pair_fold_equals_h_table_on_random_tops(data):
    r = data.draw(st.integers(1, 3), label="rank")
    most = 8 >> (r - 1)
    l = data.draw(st.lists(st.integers(0, most), min_size=r, max_size=r)
                  .filter(lambda l: sum(l) <= most), label="l")
    n = data.draw(st.sampled_from([1, 3, 5, 7]), label="n")
    twist = LambdaTwist(tuple(l))
    assert h_table_fold(twist, n) == h_table(twist, n).entries


def test_n1_pair_factor_is_a_q_power_times_the_reduced_factor():
    # H = q^{|k|} Htilde row pair by row pair: at n = 1, pair_G of every
    # strictly decreasing row triple of ranks 1-4 with entries <= 7 is q^e
    # (e the sum of the pair's entry exponents, which sum to |k| over a
    # pattern) times t^m (1+t)^g at t = -1/q of its entry classes, zero
    # at a degenerate entry.  So a fold by either factor gives the other
    # table, and verify_h_tilde's whole-table check follows pair by pair
    triples = 0
    for r in range(1, 5):
        for i in range(1, r + 1):
            for above in combinations(range(7, -1, -1), r - i + 1):
                for b, below in pair_rows(above, strict=True):
                    rows = (r, i, above, b, below)
                    e = sum(x.exp for x in pair_entries(*rows))
                    assert pair_G(*rows, 1) == GaussValue.q_power(1, e) \
                        * _reduced_factor(*pair_classes(*rows)), rows
                    triples += 1
    assert triples == 35037


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


def verify_k_sum(P: GTPattern) -> bool:
    """Oracle, lemma 3 on one pattern: sum k_i = sum v_{i,j} + sum u_{i,j},
    exactly."""
    return sum(P.k_vec) == sum(e.exp for e in records(P))


def k_sum_classes_long(twist: LambdaTwist) -> list:
    """Oracle: k_sum_classes pattern by pattern, from the k each pattern
    carries out of the enumeration and the exponents of its records."""
    classes = Counter((P.k_vec, sum(e.exp for e in records(P)))
                      for P in enumerate_patterns(twist.top_row))
    return sorted((k, exp, count) for (k, exp), count in classes.items())


def test_verify_k_sum_examples():
    P = GTPattern(1, ((1,),), ((0,),))
    assert P.k_vec == (1,) and v_long(P, 1, 1) == 1
    assert verify_k_sum(P)
    assert verify_k_sum(FIG1) and sum(FIG1.k_vec) == 71


def test_verify_k_sum_exhaustive_small():
    for top in [(2, 1), (4, 2), (3, 2, 1), (5, 3, 1)]:
        for P in enumerate_patterns(top):
            assert verify_k_sum(P)


def test_k_sum_classes_match_the_per_pattern_oracle_at_rank_4():
    # all 65,536 patterns of (4,3,2,1), each in the class of its k and
    # exponent sum, and lemma 3 in every class
    twist = LambdaTwist((0, 0, 0, 0))
    classes = k_sum_classes(twist)
    assert classes == k_sum_classes_long(twist)
    assert sum(count for *_, count in classes) == 65536
    assert all(sum(k) == exp for k, exp, _ in classes)


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


def weight_from_support(k, L):
    """lambda+rho - sum k_i alpha_i in Euclidean coordinates."""
    r = len(L)
    kk = tuple(k) + (0,)
    diff = [2 * kk[0] - kk[1]] + [kk[j] - kk[j + 1] for j in range(1, r)]
    return tuple(Lj - d for Lj, d in zip(L, diff))


def test_h_table_support_inside_weight_multiset():
    for l in [(0, 0), (1, 0)]:
        twist = LambdaTwist(l)
        weights = {P.wgt for P in enumerate_patterns(twist.top_row)}
        table = h_table(twist, 1)
        for k in table.keys():
            vec = weight_from_support(k, twist.L)
            # the weight multiset is symmetric under negation
            assert tuple(-x for x in vec) in weights


def test_h_table_rank1_is_one_gauss_sum_at_every_odd_n():
    # at rank 1, H(p^k; p^l) is g_2(p^l, p^k): below the stability bound
    # too (l = 3 at n = 3, say), with no pattern product in the check
    for l in range(12):
        for n in range(1, 16, 2):
            table = h_table(LambdaTwist((l,)), n)
            for k in range(l + 4):
                assert table.value((k,)) == gauss_eval(2, l, k, n), (l, n, k)


@pytest.mark.parametrize("l, threshold", [
    ((1, 0), 13), ((2, 1), 11), ((0, 0, 0), 13), ((1, 0, 0), 17)])
def test_h_table_repeats_one_table_from_a_sharp_threshold_in_n(l, threshold):
    def shape(n):
        return [(k, v.terms) for k, v in h_table(LambdaTwist(l), n).entries]
    stable = shape(threshold)
    for n in (threshold + 2, threshold + 4, 79):
        assert shape(n) == stable, n
    assert shape(threshold - 2) != stable
