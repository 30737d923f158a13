from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from weylmds.roots import (LambdaTwist, _partial_counts, build_root_system,
                           check_pattern_count, d_lambda, inner, norm_sq,
                           stability_bound, support_vector, weyl_dimension)

from stable_lemmas import (WeylElement, compose, d_lambda_fraction,
                           fundamental_weights, identity_element,
                           inv_pr_counts, inverse, long_element, phi_w,
                           s_action, stability_min_n)


def simple_coords(r: int, alpha):
    """Oracle: solve alpha = c_1(2e_1) + sum_{i>=2} c_i(e_i - e_{i-1}) for
    integer c, one coordinate at a time from the last."""
    c = [0] * r
    for j in range(r - 1, 0, -1):
        c[j] = alpha[j] + (c[j + 1] if j + 1 < r else 0)
    t = alpha[0] + (c[1] if r > 1 else 0)
    if t % 2:
        raise ValueError(f"{alpha} is not in the root lattice of C_{r}")
    c[0] = t // 2
    return tuple(c)


def weyl_dimension_by_roots(lam):
    """Oracle: the Weyl dimension formula as a product over the positive
    root vectors, prod <lam + rho, alpha> / prod <rho, alpha>, with lam
    read in increasing order."""
    rs = build_root_system(len(lam))
    shifted = tuple(a + b for a, b in zip(reversed(lam), rs.rho))
    num = den = 1
    for alpha in rs.positive_roots:
        num *= inner(shifted, alpha)
        den *= inner(rs.rho, alpha)
    dim, rem = divmod(num, den)
    assert not rem
    return dim


def simple_reflection(alpha_i, beta):
    """sigma_{alpha_i}(beta) = beta - (2<beta,a_i>/<a_i,a_i>) a_i, exactly."""
    coeff = Fraction(2) * inner(beta, alpha_i) / inner(alpha_i, alpha_i)
    assert coeff.denominator == 1
    return tuple(b - int(coeff) * a for b, a in zip(beta, alpha_i))


def positive_roots_by_closure(r):
    """Close the simple roots under the simple reflections and keep the
    roots with nonnegative simple-root coordinates."""
    simple = build_root_system(r).simple_roots
    roots, frontier = set(simple), set(simple)
    while frontier:
        frontier = {simple_reflection(a, b) for b in frontier
                    for a in simple} - roots
        roots |= frontier
    return tuple(sorted(v for v in roots
                        if min(simple_coords(r, v)) >= 0))


def simple_reflection_weyl(r, i):
    """The simple reflection sigma_{alpha_i} as a signed permutation."""
    if i == 1:
        return WeylElement(tuple(range(1, r + 1)),
                           tuple(-1 if k == 0 else 1 for k in range(r)))
    sigma = list(range(1, r + 1))
    sigma[i - 2], sigma[i - 1] = sigma[i - 1], sigma[i - 2]
    return WeylElement(tuple(sigma), (1,) * r)


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


def test_listed_roots_equal_the_reflection_closure():
    for r in range(1, 7):
        positives = build_root_system(r).positive_roots
        assert positives == positive_roots_by_closure(r), r
        assert len(positives) == r * r


def test_root_system_is_built_once_per_rank():
    assert build_root_system(3) is build_root_system(3)


def test_rejects_rank_zero():
    with pytest.raises(ValueError):
        build_root_system(0)


def partitions(parts, size):
    """Every weakly decreasing tuple of `parts` entries in 0..size."""
    if not parts:
        yield ()
        return
    for head in range(size + 1):
        for tail in partitions(parts - 1, head):
            yield (head, *tail)


def test_weyl_dimension_equals_the_root_product_exhaustively():
    # every partition with at most 5 parts, each at most 4
    for r in range(1, 6):
        for lam in partitions(r, 4):
            assert weyl_dimension(lam) == weyl_dimension_by_roots(lam), lam


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=8))
def test_weyl_dimension_equals_the_root_product_random(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert weyl_dimension(lam) == weyl_dimension_by_roots(lam)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=8))
def test_partial_counts_rise_to_the_weyl_dimension(parts):
    # the count of the last j parts for each j, so never decreasing: what
    # lets check_pattern_count stop at the first count past 4,300 digits
    lam = tuple(sorted(parts, reverse=True))
    counts = list(_partial_counts(lam))
    assert counts == sorted(counts)
    assert counts == [weyl_dimension_by_roots(lam[-j:])
                      for j in range(1, len(lam) + 1)]


@pytest.mark.parametrize("r", [119, 120])
def test_pattern_count_refusal_either_side_of_4300_digits(r):
    # (r, .., 1) has 2^(r^2) patterns: 4,263 digits at rank 119, written
    # out, and 4,335 at rank 120, left out
    top = tuple(range(r, 0, -1))
    count = 2 ** (r * r)
    assert weyl_dimension(top) == count
    has = (f"{count} patterns, more than 10^7" if r == 119
           else "more than 10^7 patterns")
    with pytest.raises(ValueError) as refused:
        check_pattern_count(top)
    assert str(refused.value) == f"top row {','.join(map(str, top))} has {has}"


def test_weyl_dimension_refuses_rank_zero_and_non_partitions():
    for lam in ((), (1, 2), (-1,)):
        with pytest.raises(ValueError):
            weyl_dimension(lam)


def test_fundamental_weights_kronecker():
    for r in (1, 2, 3):
        rs = build_root_system(r)
        for i, eps in enumerate(fundamental_weights(r), start=1):
            for j, alpha in enumerate(rs.simple_roots, start=1):
                val = 2 * inner(eps, alpha) / inner(alpha, alpha)
                assert val == (1 if i == j else 0)


def test_rho_is_weight_sum():
    rs = build_root_system(3)
    total = tuple(sum(col) for col in zip(*fundamental_weights(3)))
    assert total == rs.rho == (1, 2, 3)
    half = tuple(Fraction(sum(col), 2)
                 for col in zip(*rs.positive_roots))
    assert half == rs.rho


def test_twist_rows_are_the_closed_form_of_their_partial_sums():
    # L_j = l_1 + ... + l_j + j, the top row reverses L, and
    # lambda_j = l_1 + ... + l_{r+1-j} = L_{r+1-j} - (r+1-j)
    for r in range(1, 5):
        for l in product(range(4), repeat=r):
            twist = LambdaTwist(l)
            L = tuple(sum(l[:j]) + j for j in range(1, r + 1))
            assert twist.L == L, l
            assert twist.top_row == L[::-1], l
            assert twist.partition == tuple(
                L[r - j] - (r + 1 - j) for j in range(1, r + 1)), l


def test_d_lambda_values_r2():
    twist = LambdaTwist((0, 0))  # L = (1, 2)
    assert d_lambda(twist, (2, 0)) == 1
    assert d_lambda(twist, (-1, 1)) == 1
    assert d_lambda(twist, (1, 1)) == 3


def test_d_lambda_rejects_non_roots():
    with pytest.raises(ValueError):
        d_lambda(LambdaTwist((0, 0)), (1, 0))
    with pytest.raises(ValueError):  # a negative root
        d_lambda(LambdaTwist((0, 0)), (-2, 0))


def test_d_lambda_is_the_integer_of_its_definition():
    for r in range(1, 6):
        if r <= 3:
            twists = product(range(4), repeat=r)
        else:
            twists = [(0,) * r, tuple(range(r)), (3,) * r,
                      tuple(range(r, 0, -1))]
        for l in twists:
            twist = LambdaTwist(tuple(l))
            for alpha in build_root_system(r).positive_roots:
                d = d_lambda(twist, alpha)
                assert type(d) is int
                assert d == d_lambda_fraction(twist, alpha), (l, alpha)


def test_d_lambda_positive_everywhere():
    for r in (1, 2, 3):
        rs = build_root_system(r)
        for l in [(0,) * r, tuple(range(r)), (2,) * r]:
            twist = LambdaTwist(l)
            assert all(d_lambda(twist, a) > 0 for a in rs.positive_roots)


def test_stability_bounds():
    assert stability_bound(LambdaTwist((0, 0))) == 3
    assert stability_min_n(LambdaTwist((0, 0))) == 3
    assert stability_min_n(LambdaTwist((0,))) == 1
    assert stability_bound(LambdaTwist((1, 0, 2))) == 9
    assert stability_min_n(LambdaTwist((1, 0, 2))) == 9


def test_stability_bound_closed_form():
    # L_{r-1} + L_r from e_{r-1} + e_r, or L_1 at rank 1
    for r in (1, 2, 3):
        for l in product(range(4), repeat=r):
            closed = l[-1] + 1 + sum(2 * (li + 1) for li in l[:-1])
            assert stability_bound(LambdaTwist(l)) == closed, l


def test_phi_w_examples():
    assert phi_w(identity_element(2)) == ()
    assert len(phi_w(long_element(2))) == 4
    w = WeylElement((1, 2), (-1, 1))
    assert phi_w(w) == ((2, 0),)


def test_inv_pr_counts():
    w = identity_element(3)
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
            assert inverse(w).act(w.act(vec)) == vec
        w1, w2 = elems[3], elems[-2]
        assert compose(w1, w2).act(vec) == w1.act(w2.act(vec))


def test_phi_w_length_matches_cayley_distance():
    for r in (2, 3):
        gens = [simple_reflection_weyl(r, i) for i in range(1, r + 1)]
        dist = {identity_element(r): 0}
        frontier = [identity_element(r)]
        while frontier:
            new = []
            for w in frontier:
                for g in gens:
                    nxt = compose(g, w)
                    if nxt not in dist:
                        dist[nxt] = dist[w] + 1
                        new.append(nxt)
            frontier = new
        assert len(dist) == len(list(WeylElement.all_elements(r)))
        for w, d in dist.items():
            assert len(phi_w(w)) == d


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


def test_support_vector_refuses_negative_coordinates():
    assert support_vector((0, 2)) == (1, 2)  # alpha_1 + 2 alpha_2
    with pytest.raises(AssertionError,
                       match=r"^negative support vector \(-1, -2\)$"):
        support_vector((0, -2))
    with pytest.raises(ValueError,  # an odd first tail sum
                       match=r"^\(1, 0, 2\) is not in the root lattice "
                             r"of C_3$"):
        support_vector((1, 0, 2))
    with pytest.raises(ValueError):  # not in the root lattice
        support_vector((1,))


def test_support_vector_is_the_simple_root_solve():
    # every weight in [-3, 3]^r: the solve where it is nonnegative, and a
    # refusal with the solve's text (odd first tail sum) or a negative k
    for r in range(1, 5):
        for w in product(range(-3, 4), repeat=r):
            try:
                k = simple_coords(r, w)
            except ValueError as err:
                kind, text = ValueError, str(err)
            else:
                if min(k) >= 0:
                    assert support_vector(w) == k, w
                    continue
                kind, text = AssertionError, f"negative support vector {k}"
            with pytest.raises(kind) as refused:
                support_vector(w)
            assert str(refused.value) == text, w

