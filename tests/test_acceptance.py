"""Acceptance checks, one per criterion, at their stated tolerances.

Each test prints a single PASS line on success (pytest -s shows them);
assertion failures identify the offending case.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from weylmds.chars import (verify_deformation_identity, verify_euler_bridge,
                           verify_euler_factor_identity, verify_h_tilde)
from weylmds.coeffs import h_table, k_sum_classes
from weylmds.gauss import (ArithContext, GaussValue, gauss_brute, gauss_eval,
                           numeric_eval)
from weylmds.patterns import enumerate_patterns, is_strict
from weylmds.roots import LambdaTwist, weyl_dimension
from weylmds.stable import REL_TOL, verify_stable_match
from weylmds.tableaux import tableau_from_pattern

from stable_lemmas import is_stable
from test_coeffs import k_sum_classes_long, weight_from_support
from test_patterns import FIG1, count_patterns
from test_tableaux import (FIG1_ROWS, pattern_from_tableau, twist_of,
                           verify_tableau_stats_long)


def _tops(max_entry, rank):
    return [tuple(sorted(c, reverse=True))
            for c in combinations(range(1, max_entry + 1), rank)]


def test_criterion_1_stable_agreement():
    assert REL_TOL == 1e-6
    cases = [((0,), 1, 5), ((1,), 3, 7), ((0, 0), 3, 7),
             ((1, 0), 5, 11), ((0, 0, 0), 7, 29)]
    for l, n, p in cases:
        report = verify_stable_match(LambdaTwist(l), n, ArithContext(n, p))
        assert report["mismatches"] == [], (l, n, p, report["mismatches"])
        assert report["checked"] == 2 ** len(l) * math.factorial(len(l))
    print("PASS criterion 1: stable-case agreement, symbolic and numeric")


def test_criterion_2_stable_census():
    tops_by_rank = {1: [(1,), (4,)],
                    2: [(2, 1), (5, 2)],
                    3: [(3, 2, 1), (6, 4, 1)],
                    4: [(4, 3, 2, 1), (5, 4, 3, 2)]}
    for r, tops in tops_by_rank.items():
        expected = 2 ** r * math.factorial(r)
        for top in tops:
            got = sum(1 for P in enumerate_patterns(top) if is_stable(P))
            assert got == expected, (top, got, expected)
    print("PASS criterion 2: stable pattern census = 2^r r! through rank 4")


def test_criterion_3_hamel_king_identity():
    cases = [(l,) for l in range(4)]
    cases += list(product((0, 1, 2), repeat=2))
    cases += list(product((0, 1), repeat=3))
    for l in cases:
        ok, diff = verify_deformation_identity(LambdaTwist(tuple(l)))
        assert ok, (l, diff.to_json()[:4])
    print("PASS criterion 3: deformed character identity (exact)")


def test_criterion_4_euler_factor_identity():
    for r in (1, 2, 3, 4):
        ok, diff = verify_euler_bridge(r)
        assert ok, (r, diff.to_json()[:4])
    cases = [(l,) for l in range(3)]
    cases += list(product((0, 1, 2), repeat=2))
    cases += [(0, 0, 0)]
    for l in cases:
        ok, diff = verify_euler_factor_identity(
            h_table(LambdaTwist(tuple(l)), 1))
        assert ok, (l, diff.to_json()[:4])
    print("PASS criterion 4: Euler-factor identity, bridge and full (exact)")


def test_criterion_5_support_sum_identity():
    # lemma 3 on every pattern, through its class of (k, exponent sum), and
    # the classes of the walk against the row-pair fold
    for r in (1, 2, 3):
        for top in _tops(6, r):
            twist = twist_of(top)
            assert twist.top_row == top
            classes = k_sum_classes_long(twist)
            assert all(sum(k) == exp for k, exp, _ in classes), top
            assert classes == k_sum_classes(twist), top
    print("PASS criterion 5: support-sum identity, exhaustive to rank 3")


def test_criterion_6_tableau_statistics_and_bijection():
    S = tableau_from_pattern(FIG1)
    assert S.to_json()["rows"] == FIG1_ROWS
    assert pattern_from_tableau(S) == FIG1
    assert verify_tableau_stats_long(FIG1)
    for r in (1, 2, 3):
        for top in _tops(5, r):
            for P in enumerate_patterns(top):
                if not is_strict(P):
                    continue
                assert verify_tableau_stats_long(P), (top, P.to_json())
                assert pattern_from_tableau(tableau_from_pattern(P)) == P
    print("PASS criterion 6: tableau statistics and bijection, exhaustive")


def test_criterion_7_census_matches_dimension():
    assert count_patterns((2, 1)) == 16
    for r in (1, 2, 3):
        for top in _tops(6, r):
            assert count_patterns(top) == weyl_dimension(top), top
    print("PASS criterion 7: pattern census equals the dimension formula")


def test_criterion_8_gauss_oracle():
    for n, p in ((1, 5), (3, 7), (5, 11)):
        ctx = ArithContext(n, p)
        for s in range(1, n):
            g = gauss_brute(s, 0, 1, ctx)
            assert abs(abs(g) - math.sqrt(p)) < 1e-9, (n, p, s)
        for t in (1, 2):
            for c in range(6):
                for v in range(5):
                    sym = numeric_eval(gauss_eval(t, c, v, n), ctx)
                    brute = gauss_brute(t, c, v, ctx)
                    assert abs(sym - brute) <= 1e-9 * p ** v, (n, p, t, c, v)
    print("PASS criterion 8: symbolic Gauss sums match brute force")


def test_criterion_9_rank1_classical_reduction():
    for l in range(5):
        table = h_table(LambdaTwist((l,)), 1)
        for k in range(l + 3):
            val = table.value((k,))
            if k <= l:
                assert val == GaussValue.phi(1, k), (l, k)
            elif k == l + 1:
                assert val == GaussValue.q_power(1, l, -1), (l, k)
            else:
                assert val.is_zero(), (l, k)
    print("PASS criterion 9: rank-1 tables reduce to the classical values")


def test_criterion_10_reduced_table_and_support():
    for r in (1, 2, 3):
        for l in product((0, 1), repeat=r):
            twist = LambdaTwist(l)
            table = h_table(twist, 1)
            ok, bad = verify_h_tilde(table)
            assert ok, (l, bad)
            weights = {P.wgt for P in enumerate_patterns(twist.top_row)}
            kk_all = table.keys()
            L = twist.L
            for k in kk_all:
                vec = weight_from_support(k, L)
                assert tuple(-x for x in vec) in weights, (l, k)
    print("PASS criterion 10: reduced-table relation and support containment")
