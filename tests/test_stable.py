from itertools import product

import pytest

from weylmds.coeffs import h_table, pattern_G
from weylmds.gauss import ArithContext, GaussValue
from weylmds.patterns import (LambdaTwist, enumerate_patterns, is_strict,
                              pattern_data, stable_pattern_for,
                              weyl_from_stable)
from weylmds.roots import (WeylElement, build_root_system, d_lambda, phi_w,
                           stability_bound, stability_min_n)
from weylmds.stable import (d_sets, h_stable, k_of_weyl, maximal_count,
                            maximal_count_formula, phi_w_typed,
                            verify_stable_match)


def test_h_stable_identity_is_empty_product():
    assert h_stable(WeylElement.identity(2), LambdaTwist((0, 0)), 3) \
        == GaussValue.one(3)


def test_h_stable_rank1():
    w = WeylElement.long_element(1)
    assert h_stable(w, LambdaTwist((0,)), 1) == GaussValue.q_power(1, 0, -1)


def test_h_stable_r2_long_element():
    val = h_stable(WeylElement.long_element(2), LambdaTwist((0, 0)), 3)
    expected = (GaussValue.q_power(3, 3, -1)
                * GaussValue.symbol(3, 1) * GaussValue.symbol(3, 1)
                * GaussValue.symbol(3, 2))
    assert val == expected


def test_h_stable_rejects_below_bound():
    with pytest.raises(ValueError):
        h_stable(WeylElement.identity(2), LambdaTwist((0, 0)), 1)


def test_phi_w_typed_partitions_phi_w():
    for r in (2, 3):
        rs = build_root_system(r)
        for w in WeylElement.all_elements(r):
            parts = phi_w_typed(w)
            roots = [tr.root for part in parts.values() for tr in part]
            assert len(roots) == len(set(roots))
            assert sorted(roots) == sorted(phi_w(rs, w))


def test_typed_identity_empty_and_long_type_root():
    parts = phi_w_typed(WeylElement.identity(3))
    assert all(not part for part in parts.values())
    w = WeylElement((1, 2, 3), (-1, 1, 1))
    assert sum(1 for tr in phi_w_typed(w)[1] if tr.kind == "L") == 1


def test_d_set_closed_forms():
    # long: L_{s(i)}; minus: |L_{s(j)} - L_{s(i)}|; plus: sum
    for l in [(0, 0), (1, 0), (0, 1, 0)]:
        twist = LambdaTwist(l)
        r = twist.rank
        rs = build_root_system(r)
        L = twist.L
        for w in WeylElement.all_elements(r):
            for i, part in phi_w_typed(w).items():
                si = w.sigma_inv(i)
                for tr in part:
                    d = d_lambda(rs, twist, tr.root)
                    if tr.kind == "L":
                        assert d == L[si - 1]
                    elif tr.kind == "S_plus":
                        assert d == L[si - 1] + L[w.sigma_inv(tr.j) - 1]
                    else:
                        assert d == abs(L[si - 1] - L[w.sigma_inv(tr.j) - 1])


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
    w = WeylElement.long_element(r)
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
        data = pattern_data(P)
        if "generic" in data.entry_class.values():
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


def test_stability_bound_is_largest_d_lambda_and_suffices():
    rs = build_root_system(2)
    for l in product(range(4), repeat=2):
        twist = LambdaTwist(l)
        assert stability_bound(twist) == max(
            d_lambda(rs, twist, alpha) for alpha in rs.positive_roots)
        report = verify_stable_match(twist, stability_min_n(twist))
        assert report["checked"] == 8 and report["mismatches"] == [], l
