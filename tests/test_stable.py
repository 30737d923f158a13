from collections import Counter
from itertools import product
from math import factorial
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from weylmds.chars import character_gt
from weylmds.coeffs import h_table, pair_G, pattern_G
from weylmds.gauss import ArithContext, GaussValue
from weylmds.patterns import (_slot, enumerate_patterns, is_strict, pair_sums,
                              pair_weight)
from weylmds.roots import (LambdaTwist, build_root_system, d_lambda, norm_sq,
                           stability_bound, support_vector)
from weylmds.stable import h_stable, verify_stable_match, weyl_orbit

from stable_lemmas import (WeylElement, d_sets, h_stable_long,
                           identity_element, k_of_weyl, long_element,
                           maximal_count, maximal_count_formula, phi_w,
                           phi_w_typed, records, stability_min_n,
                           stable_pattern_for, weyl_from_stable)
from test_coeffs import nonzero_fold


def test_h_stable_identity_is_empty_product():
    twist = LambdaTwist((0, 0))
    assert h_stable(twist.L, 3) == h_stable_long(identity_element(2), twist,
                                                 3) == GaussValue.one(3)


def test_h_stable_rank1():
    w, twist = long_element(1), LambdaTwist((0,))
    assert h_stable(w.act(twist.L), 1) == h_stable_long(w, twist, 1) \
        == GaussValue.q_power(1, 0, -1)


def test_h_stable_r2_long_element():
    w, twist = long_element(2), LambdaTwist((0, 0))
    expected = (GaussValue.q_power(3, 3, -1)
                * GaussValue.symbol(3, 1) * GaussValue.symbol(3, 1)
                * GaussValue.symbol(3, 2))
    assert h_stable(w.act(twist.L), 3) == h_stable_long(w, twist, 3) \
        == expected


def test_verify_stable_match_rejects_a_degree_below_the_bound_or_even():
    # h_stable is a product at any degree; the harness refuses the degrees
    # the stable-case formula does not cover
    for n, text in ((1, "degree below the stability bound"),
                    (4, "degree below the stability bound"),
                    (0, "degree must be positive")):
        with pytest.raises(ValueError, match=text):
            verify_stable_match(LambdaTwist((0, 0)), n)


def orbit_walk(twist, n):
    return [(sigma, eps, k, h_stable(v, n))
            for sigma, eps, v, k in weyl_orbit(twist)]


def orbit_oracle(twist, n):
    return [(w.sigma, w.eps, k_of_weyl(w, twist), h_stable_long(w, twist, n))
            for w in WeylElement.all_elements(twist.rank)]


# every twist of rank 1 with l <= 6, rank 2 with l_i <= 3, rank 3 with
# l_i <= 2 and rank 4 with l_i <= 1, at the first two odd n at or above the
# stability bound: 66 twists, 132 cases
ORBIT_GRID = [(l, stability_min_n(LambdaTwist(l)) + step)
              for r, top in ((1, 6), (2, 3), (3, 2), (4, 1))
              for l in product(range(top + 1), repeat=r) for step in (0, 2)]


def test_orbit_walk_equals_the_per_element_oracle():
    # v = w(lambda+rho) read as a signed permutation of L gives the same
    # (sigma, eps, k, value) as the Weyl-group path, element by element and
    # in order, with the same terms, so the same report bytes
    assert len(ORBIT_GRID) == 132
    for l, n in ORBIT_GRID:
        twist = LambdaTwist(l)
        walk, oracle = orbit_walk(twist, n), orbit_oracle(twist, n)
        assert walk == oracle, (l, n)
        assert [h.terms for *_, h in walk] == [h.terms for *_, h in oracle]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(lambda r: st.tuples(
    st.lists(st.integers(0, 8 // r), min_size=r, max_size=r),
    st.integers(0, 8))))
def test_orbit_walk_equals_the_per_element_oracle_on_random_twists(drawn):
    # any odd n, below the bound too: both sides are the product over Phi(w)
    l, step = drawn
    twist = LambdaTwist(tuple(l))
    n = 2 * step + 1
    assert orbit_walk(twist, n) == orbit_oracle(twist, n)


def test_phi_w_typed_partitions_phi_w():
    for r in (2, 3):
        for w in WeylElement.all_elements(r):
            parts = phi_w_typed(w)
            roots = [tr.root for part in parts.values() for tr in part]
            assert len(roots) == len(set(roots))
            assert sorted(roots) == sorted(phi_w(w))


def test_typed_identity_empty_and_long_type_root():
    parts = phi_w_typed(identity_element(3))
    assert all(not part for part in parts.values())
    w = WeylElement((1, 2, 3), (-1, 1, 1))
    assert sum(1 for tr in phi_w_typed(w)[1] if tr.kind == "L") == 1


def test_d_set_closed_forms():
    # long: L_{s(i)}; minus: |L_{s(j)} - L_{s(i)}|; plus: sum
    for l in [(0, 0), (1, 0), (0, 1, 0)]:
        twist = LambdaTwist(l)
        r = twist.rank
        L = twist.L
        for w in WeylElement.all_elements(r):
            D = d_sets(w, twist)
            for i, part in phi_w_typed(w).items():
                si = w.sigma_inv(i)
                for tr in part:
                    d = d_lambda(twist, tr.root)
                    if tr.kind == "L":
                        assert d == L[si - 1]
                    elif tr.kind == "S_plus":
                        assert d == L[si - 1] + L[w.sigma_inv(tr.j) - 1]
                    else:
                        assert d == abs(L[si - 1] - L[w.sigma_inv(tr.j) - 1])
                assert D[i] == sorted(d_lambda(twist, tr.root)
                                      for tr in part)


def test_maximal_counts_match_formula():
    for top in [(2, 1), (3, 2, 1)]:
        r = len(top)
        for w in WeylElement.all_elements(r):
            P = stable_pattern_for(w, top)
            for i in range(1, r + 1):
                assert maximal_count(P, i) == maximal_count_formula(w, i)
            assert sum(len(part) for part in phi_w_typed(w).values()) \
                == sum(maximal_count(P, i) for i in range(1, r + 1))


def test_long_element_maximal_counts():
    r = 3
    w = long_element(r)
    P = stable_pattern_for(w, (3, 2, 1))
    counts = [maximal_count(P, i) for i in range(1, r + 1)]
    assert counts == [2 * i - 1 for i in range(1, r + 1)]
    assert sum(counts) == r * r


def test_maximal_count_rejects_unstable():
    P = next(p for p in enumerate_patterns((2, 1))
             if is_strict(p) and not weyl_ok(p))
    with pytest.raises(ValueError):
        maximal_count(P, 1)


def weyl_ok(P):
    try:
        weyl_from_stable(P)
        return True
    except ValueError:
        return False


def test_generic_entries_vanish_at_stable_degree():
    twist = LambdaTwist((0, 0))
    for P in enumerate_patterns(twist.top_row):
        if any(e.tag == "generic" for e in records(P)):
            assert pattern_G(P, 3).is_zero()


def test_k_of_weyl_matches_stable_pattern():
    twist = LambdaTwist((1, 0))
    for w in WeylElement.all_elements(2):
        P = stable_pattern_for(w, twist.top_row)
        assert k_of_weyl(w, twist) == P.k_vec


def test_verify_stable_match_examples():
    rep = verify_stable_match(LambdaTwist((0,)), 1)
    assert rep == {"checked": 2, "mismatches": []}
    rep = verify_stable_match(LambdaTwist((0, 0)), 3, ArithContext(3, 7))
    assert rep["checked"] == 8 and not rep["mismatches"]
    rep = verify_stable_match(LambdaTwist((1, 0)), 5, ArithContext(5, 11))
    assert rep["checked"] == 8 and not rep["mismatches"]


def test_verify_stable_match_refuses_its_numeric_budget_before_the_table(
        monkeypatch):
    # the context refuses its 104 primitive sums of 9999991 terms when it
    # is built, so no table is made for it
    from weylmds import stable

    def never(*args):
        pytest.fail("h_table called")

    monkeypatch.setattr(stable, "h_table", never)
    with pytest.raises(OverflowError, match="^numeric evaluation needs "
                       "1039999064 brute-force terms"):
        verify_stable_match(LambdaTwist((0, 0, 0, 0)), 105,
                            ArithContext(105, 9999991))


def test_stability_bound_is_largest_d_lambda_and_suffices():
    rs = build_root_system(2)
    for l in product(range(4), repeat=2):
        twist = LambdaTwist(l)
        assert stability_bound(twist) == max(
            d_lambda(twist, alpha) for alpha in rs.positive_roots)
        report = verify_stable_match(twist, stability_min_n(twist))
        assert report["checked"] == 8 and report["mismatches"] == [], l


SHARP_TWISTS = [(l,) for l in range(5)] + [
    l for r, top in ((2, 3), (3, 1)) for l in product(range(top + 1), repeat=r)]


def off_orbit_count(orbit, n, values) -> int:
    """The number of keys of `values`, {k: nonzero H(p^k)} at degree n, off
    `orbit`, {k: v}, once each orbit value is checked to be h_stable(v, n)."""
    for k, v in orbit.items():
        assert values.get(k, GaussValue.zero(n)) == h_stable(v, n), (n, v)
    return sum(k not in orbit for k in values)


def test_stability_bound_is_sharp_and_orbit_values_match_below_it():
    # rank 1 with l <= 4, rank 2 with l_i <= 3, rank 3 with l_i <= 1 and
    # rank 4 at l = 0 (bound 7) through h_table, and rank 4 at (1,0,0,0)
    # and (0,2,1,0), where h_table is slow, through the fold pruned at zero
    # factors, at every odd n up to the first odd n at or above the bound.
    # That the orbit values match below the bound too is observed on these
    # twists, not proved
    assert len(SHARP_TWISTS) == 29
    folded = [(1, 0, 0, 0), (0, 2, 1, 0)]
    off_orbit = {}
    for l in SHARP_TWISTS + [(0, 0, 0, 0)] + folded:
        twist, r = LambdaTwist(l), len(l)
        bound = stability_bound(twist)
        orbit = {k: v for _, _, v, k in weyl_orbit(twist)}
        assert len(orbit) == 2 ** r * factorial(r), l
        for n in range(1, bound + 2, 2):
            if l in folded:
                values = nonzero_fold(twist, n)
            else:
                table = h_table(twist, n)
                values = {k: table.value(k) for k in table.nonzero_keys()}
            outside = off_orbit_count(orbit, n, values)
            assert (outside > 0) == (n < bound), (l, n, outside)
            off_orbit[l, n] = outside
    pins = {((1, 1), 3): 6, ((1, 1), 5): 4, ((0, 0, 0), 3): 8,
            ((1, 1, 1), 3): 228, ((1, 1, 1), 5): 90, ((1, 1, 1), 7): 48,
            ((1, 1, 1), 9): 24, ((0, 0, 0, 0), 1): 1881,
            ((0, 0, 0, 0), 3): 272, ((0, 0, 0, 0), 5): 64,
            ((0, 0, 0, 0), 7): 0}
    # the count need not fall as n grows: 240 at n = 7, 576 at n = 9
    pins |= {((1, 0, 0, 0), n): c for n, c in
             {1: 5409, 3: 1290, 5: 304, 7: 64, 9: 0}.items()}
    pins |= {((0, 2, 1, 0), n): c for n, c in
             {1: 19545, 3: 4152, 5: 903, 7: 240, 9: 576, 11: 64,
              13: 0}.items()}
    assert {key: off_orbit[key] for key in pins} == pins


def test_stability_bound_is_sharp_at_rank_5():
    # rank 5 at l = 0 (bound 9) through the fold pruned at zero factors, at
    # every odd n up to the bound; verify stable refuses this twist, whose
    # top row has 2^25 patterns
    twist = LambdaTwist((0,) * 5)
    assert stability_bound(twist) == 9
    orbit = {k: v for _, _, v, k in weyl_orbit(twist)}
    assert {n: off_orbit_count(orbit, n, nonzero_fold(twist, n))
            for n in range(1, 10, 2)} == {1: 46734, 3: 7492, 5: 2048,
                                          7: 640, 9: 0}


@pytest.mark.parametrize("l", SHARP_TWISTS + [
    (0, 0, 0, 0), (1, 0, 0, 0), (0, 2, 1, 0), (0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0)])
def test_at_the_bound_each_orbit_key_has_one_nonzero_pattern(l):
    # the stable case at pattern level: at the first odd n at or above the
    # bound, the strict patterns whose row-pair factors are all nonzero
    # number exactly 2^r r!, one at each orbit key, folded over the row
    # pairs without visiting a pattern.  Checked on each of these twists,
    # not proved
    twist, r = LambdaTwist(l), len(l)
    n = stability_min_n(twist)

    def weigh(r, i, *rows):
        if pair_G(r, i, *rows, n).is_zero():
            return None
        return _slot(r, i, pair_weight(*rows)), 1

    sums = pair_sums(twist.top_row, weigh, strict=True)
    assert sum(sums.values()) == 2 ** r * factorial(r)
    keys = [support_vector(tuple(map(add, twist.L, wgt))) for wgt in sums]
    assert sorted(keys) == sorted(k for *_, k in weyl_orbit(twist))
    assert set(sums.values()) == {1}


def test_each_orbit_key_has_exactly_one_pattern():
    # the first step of the stable case: k(w) is reached by one pattern only,
    # the stable pattern of w, whose maximal entries are the roots of Phi(w)
    # and whose other entries are minimal with exponent 0.  Uniqueness is
    # checked on each of these twists, not proved
    for l in SHARP_TWISTS + [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0, 0)]:
        twist, r = LambdaTwist(l), len(l)
        count = Counter()  # patterns per k: lambda+rho+wgt = sum k_i alpha_i
        for e, c in character_gt(twist.top_row).terms.items():
            count[support_vector(tuple(map(add, twist.L, e[:r])))] += c
        for w in WeylElement.all_elements(r):
            k = k_of_weyl(w, twist)
            assert count[k] == 1, (l, w)
            P = stable_pattern_for(w, twist.top_row)
            assert P.k_vec == k, (l, w)
            entries = list(records(P))
            assert sorted((e.t, e.exp) for e in entries if not e.slack) == \
                sorted((norm_sq(a), d_lambda(twist, a)) for a in phi_w(w)), \
                (l, w)
            assert all(e.is_min and not e.exp for e in entries if e.slack), \
                (l, w)
