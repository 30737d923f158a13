from fractions import Fraction

import pytest

from weylmds.roots import (LambdaTwist, WeylElement, build_root_system,
                           d_lambda, inv_pr_counts, norm_sq, phi_w, s_action,
                           simple_reflection_weyl, stability_bound,
                           stability_min_n)


def test_simple_roots_r2():
    rs = build_root_system(2)
    assert set(rs.simple_roots) == {(2, 0), (-1, 1)}


def test_rank_one_positive_roots():
    rs = build_root_system(1)
    assert rs.positive_roots == ((2,),)
    assert norm_sq((2,)) == 2


def test_r3_root_counts():
    rs = build_root_system(3)
    longs = [a for a in rs.positive_roots if norm_sq(a) == 2]
    shorts = [a for a in rs.positive_roots if norm_sq(a) == 1]
    assert len(rs.positive_roots) == 9
    assert sorted(longs) == [(0, 0, 2), (0, 2, 0), (2, 0, 0)]
    assert len(shorts) == 6


def test_rejects_rank_zero():
    with pytest.raises(ValueError):
        build_root_system(0)


def test_fundamental_weights_kronecker():
    for r in (1, 2, 3):
        rs = build_root_system(r)
        for i, eps in enumerate(rs.fundamental_weights, start=1):
            for j, alpha in enumerate(rs.simple_roots, start=1):
                from weylmds.roots import inner
                val = 2 * inner(eps, alpha) / inner(alpha, alpha)
                assert val == (1 if i == j else 0)


def test_rho_is_weight_sum():
    rs = build_root_system(3)
    total = tuple(sum(col) for col in zip(*rs.fundamental_weights))
    assert total == rs.rho == (1, 2, 3)
    half = tuple(Fraction(sum(col), 2)
                 for col in zip(*rs.positive_roots))
    assert half == rs.rho


def test_d_lambda_values_r2():
    rs = build_root_system(2)
    twist = LambdaTwist((0, 0))  # L = (1, 2)
    assert d_lambda(rs, twist, (2, 0)) == 1
    assert d_lambda(rs, twist, (-1, 1)) == 1
    assert d_lambda(rs, twist, (1, 1)) == 3


def test_d_lambda_rejects_non_roots():
    rs = build_root_system(2)
    with pytest.raises(ValueError):
        d_lambda(rs, LambdaTwist((0, 0)), (1, 0))


def test_d_lambda_positive_everywhere():
    for r in (1, 2, 3):
        rs = build_root_system(r)
        for l in [(0,) * r, tuple(range(r)), (2,) * r]:
            twist = LambdaTwist(l)
            assert all(d_lambda(rs, twist, a) > 0 for a in rs.positive_roots)


def test_stability_bounds():
    assert stability_bound(LambdaTwist((0, 0))) == 3
    assert stability_min_n(LambdaTwist((0, 0))) == 3
    assert stability_min_n(LambdaTwist((0,))) == 1
    assert stability_bound(LambdaTwist((1, 0, 2))) == 9
    assert stability_min_n(LambdaTwist((1, 0, 2))) == 9


def test_phi_w_examples():
    rs = build_root_system(2)
    assert phi_w(rs, WeylElement.identity(2)) == ()
    assert len(phi_w(rs, WeylElement.long_element(2))) == 4
    w = WeylElement((1, 2), (-1, 1))
    assert phi_w(rs, w) == ((2, 0),)


def test_inv_pr_counts():
    w = WeylElement.identity(3)
    for i in (1, 2, 3):
        assert inv_pr_counts(w, i) == (0, i - 1)
    rev = WeylElement((3, 2, 1), (1, 1, 1))
    assert inv_pr_counts(rev, 3) == (2, 0)
    for w in WeylElement.all_elements(3):
        for i in (1, 2, 3):
            inv, pr = inv_pr_counts(w, i)
            assert inv + pr == i - 1


def test_weyl_group_laws():
    for r in (2, 3):
        import math
        elems = list(WeylElement.all_elements(r))
        assert len(elems) == 2 ** r * math.factorial(r)
        vec = tuple(range(1, r + 1))
        for w in elems[:10]:
            assert w.inverse().act(w.act(vec)) == vec
        w1, w2 = elems[3], elems[-2]
        assert (w1 * w2).act(vec) == w1.act(w2.act(vec))


def test_phi_w_length_matches_cayley_distance():
    for r in (2, 3):
        rs = build_root_system(r)
        gens = [simple_reflection_weyl(r, i) for i in range(1, r + 1)]
        dist = {WeylElement.identity(r): 0}
        frontier = [WeylElement.identity(r)]
        while frontier:
            new = []
            for w in frontier:
                for g in gens:
                    nxt = g * w
                    if nxt not in dist:
                        dist[nxt] = dist[w] + 1
                        new.append(nxt)
            frontier = new
        assert len(dist) == len(list(WeylElement.all_elements(r)))
        for w, d in dist.items():
            assert len(phi_w(rs, w)) == d


def test_s_action_fixed_point_and_involution():
    rs = build_root_system(2)
    s = (Fraction(1, 2), Fraction(3, 7))
    assert s_action(rs, 1, s) == s
    generic = (Fraction(2, 3), Fraction(5, 11))
    for i in (1, 2):
        assert s_action(rs, i, s_action(rs, i, generic)) == generic


def test_s_action_explicit_r2():
    rs = build_root_system(2)
    s1, s2 = Fraction(1, 3), Fraction(2, 7)
    assert s_action(rs, 1, (s1, s2)) == (1 - s1, s1 + s2 - Fraction(1, 2))


def test_s_action_orbit_size():
    for r in (1, 2, 3):
        rs = build_root_system(r)
        start = tuple(Fraction(k * k + 3, 17 + k) for k in range(1, r + 1))
        seen = {start}
        frontier = [start]
        while frontier:
            new = []
            for s in frontier:
                for i in range(1, r + 1):
                    img = s_action(rs, i, s)
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            frontier = new
        assert len(seen) == 2 ** r * [0, 1, 2, 6][r]
