from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, permutations, product
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from weylmds import chars
from weylmds.chars import (character_gt, class_weight, deformation_factors,
                           euler_factors, euler_product_n1,
                           h_generating_function, h_tilde_table,
                           ring_size, t_to_minus_one_over_q,
                           tableau_classes, tableau_side,
                           verify_deformation_identity, verify_euler_bridge,
                           verify_euler_factor_identity, verify_h_tilde)
from weylmds.coeffs import h_table
from weylmds.gauss import GaussValue
from weylmds.laurent import LaurentPoly
from weylmds.patterns import enumerate_patterns
from weylmds.roots import LambdaTwist, weyl_dimension
from weylmds.tableaux import standard_tableaux, tableau_stats

from stable_lemmas import WeylElement, records, sign
from test_laurent import eval_at, variable


def t_index(r: int) -> int:
    return r


def q_index(r: int) -> int:
    return r + 1


def _mono(r, exps, coeff=1, t=0, q=0):
    return LaurentPoly.monomial(ring_size(r), list(exps) + [t, q], coeff)


def character_weyl_oracle(lam, r):
    """Alternant quotient: sum_w det(w) x^{w(lam+rho)} over the analogous
    rho-alternant; exact Laurent division with zero remainder."""
    rho = tuple(range(1, r + 1))
    shifted = tuple(a + b for a, b in zip(reversed(lam), rho))

    def alternant(vec):
        out = LaurentPoly.zero(ring_size(r))
        for w in WeylElement.all_elements(r):
            out = out + _mono(r, w.act(vec), coeff=sign(w))
        return out

    return alternant(shifted).exact_div(alternant(rho))


def test_character_rank1_standard():
    c = character_gt((1,))
    assert c == _mono(1, (1,)) + _mono(1, (-1,))


def test_character_r2_standard_rep():
    c = character_gt((1, 0))
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
        assert character_gt(lam) == character_weyl_oracle(lam, r), (lam, r)


def test_character_dimension_at_one():
    for lam, r in [((2, 1), 2), ((1, 1, 0), 3), ((4, 4, 4), 3)]:
        c = character_gt(lam)
        ones = {i: Fraction(1) for i in range(ring_size(r))}
        assert eval_at(c, ones) == weyl_dimension(lam)
    assert weyl_dimension((2, 1)) == 16


def test_character_signed_permutation_invariance():
    r = 2
    c = character_gt((2, 1))
    for sigma in permutations(range(r)):
        for signs in product((1, -1), repeat=r):
            moved = {}
            for e, coeff in c.terms.items():
                ne = [0] * ring_size(r)
                for i in range(r):
                    ne[i] = signs[i] * e[sigma[i]]
                moved[tuple(ne)] = moved.get(tuple(ne), 0) + coeff
            assert LaurentPoly(ring_size(r), moved) == c


def deformation_D_long(r, scaled=False):
    """Hamel-King's deformed denominator written out factor by factor:
    D(x; t) = prod x_i^{r-i+1} prod (1 + t x_i^{-2})
    prod_{i<j} (1 + t x_i^{-1} x_j)(1 + t x_i^{-1} x_j^{-1}); scaled,
    D(tx; t) = t^{r(r+1)/2} prod x_i^{r-i+1} prod (1 + t^{-1} x_i^{-2})
    prod_{i<j} (1 + t x_i^{-1} x_j)(1 + t^{-1} x_i^{-1} x_j^{-1})."""
    one = LaurentPoly.const(ring_size(r), 1)
    long_t = -1 if scaled else 1  # the t power of x^{-2} binomials

    def tfactor(t, *exp_pairs):
        mono = [0] * r
        for i, p in exp_pairs:
            mono[i - 1] += p
        return one + _mono(r, mono, t=t)

    out = _mono(r, range(r, 0, -1), t=r * (r + 1) // 2 if scaled else 0)
    for i in range(1, r + 1):
        out = out * tfactor(long_t, (i, -2))
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            out = (out * tfactor(1, (i, -1), (j, 1))
                   * tfactor(long_t, (i, -1), (j, -1)))
    return out


def deformation_D(r):
    """Hamel-King's D(tx; t), the fold of its factor list."""
    return reduce(mul, deformation_factors(r))


@pytest.mark.parametrize("r", range(1, 6))
def test_deformation_D_equals_explicit_product(r):
    D = deformation_D(r)
    assert D == deformation_D_long(r, scaled=True)
    if r <= 4:  # the oracle takes 21 s on rank 5's 250,606 terms
        assert D == substitute_long(deformation_D_long(r), scale_mapping(r))


def euler_factors_long(r):
    """The positive-root Euler product written out from the roots:
    prod (1 - q^{-1} x_i^2) prod_{i<j} (1 - q^{-1} x_j x_i^{-1})
    (1 - q^{-1} x_j x_i)."""
    one = LaurentPoly.const(ring_size(r), 1)

    def qfactor(*exp_pairs):
        mono = [0] * r
        for i, p in exp_pairs:
            mono[i - 1] += p
        return one - _mono(r, mono, q=-1)

    out = one
    for i in range(1, r + 1):
        out = out * qfactor((i, 2))
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            out = out * qfactor((j, 1), (i, -1)) * qfactor((j, 1), (i, 1))
    return out


@pytest.mark.parametrize("r", range(1, 6))
def test_euler_factors_fold_to_the_explicit_product(r):
    assert len(euler_factors(r)) == r * r
    assert reduce(mul, euler_factors(r)) == euler_factors_long(r)


def test_deformation_examples():
    r1 = deformation_D(1)
    assert r1 == _mono(1, (1,), t=1) + _mono(1, (-1,))
    r2 = deformation_D(2)
    # x^{rev rho} comes only from the empty choice of binomials
    lead = LaurentPoly(ring_size(2), {e: c for e, c in r2.terms.items()
                                      if e[:2] == (2, 1)})
    assert lead == _mono(2, (2, 1), t=3)
    vals = {0: Fraction(1), 1: Fraction(1), 2: Fraction(-1), 3: Fraction(1)}
    assert eval_at(r2, vals) == 0  # t = -1, x = 1 kills (1 + t x_1^{-1} x_2)


def test_scale_x_by_t():
    # the factors of D(x; t) with x_i -> t x_i, written out at ranks 1, 2
    x2, t = variable(4, 1), variable(4, 2)
    x1inv, x2inv, tinv = (variable(4, i, -1) for i in range(3))
    assert deformation_factors(1) == [_mono(1, (1,), t=1),
                                      1 + _mono(1, (-2,), t=-1)]
    assert deformation_factors(2) == [
        _mono(2, (2, 1), t=3), 1 + t * x1inv * x2,
        1 + tinv * x1inv * x1inv, 1 + tinv * x1inv * x2inv,
        1 + tinv * x2inv * x2inv]


def substitute_long(poly, mapping):
    """Oracle: map variable idx -> (coeff, exponent tuple); unmapped
    variables stay themselves.  Negative powers of a substituted monomial
    invert it, so the arithmetic is rational, but every map here has
    coefficient +-1 and every image coefficient is an integer."""
    out = {}
    for e, c in poly.terms.items():
        coeff = c
        exps = [0] * poly.nvars
        for idx, power in enumerate(e):
            if power == 0:
                continue
            if idx in mapping:
                mc, mexp = mapping[idx]
                coeff = coeff * Fraction(mc) ** power
                for k, me in enumerate(mexp):
                    exps[k] += me * power
            else:
                exps[idx] += power
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    assert all(c.denominator == 1 for c in out.values())
    return LaurentPoly(poly.nvars, {e: int(c) for e, c in out.items()})


def scale_mapping(r):
    """x_i -> t x_i."""
    ti = t_index(r)
    return {i: (1, tuple(int(k in (i, ti)) for k in range(ring_size(r))))
            for i in range(r)}


def t_mapping(r):
    """t -> -1/q."""
    n, qi = ring_size(r), q_index(r)
    return {t_index(r): (-1, tuple(-(k == qi) for k in range(n)))}


def bridge_mapping(r):
    """x_i -> -x_i / q and t -> -1/q."""
    n, qi = ring_size(r), q_index(r)
    return {i: (-1, tuple(int(k == i) - (k == qi) for k in range(n)))
            for i in range(r)} | t_mapping(r)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exponent_maps_equal_the_substitution(data):
    r = data.draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-3, 3)] * ring_size(r))
    poly = LaurentPoly(ring_size(r),
                       data.draw(st.dictionaries(exps, st.integers(-5, 5),
                                                max_size=8)))
    image = t_to_minus_one_over_q(poly)
    assert image == substitute_long(poly, t_mapping(r))
    assert all(type(c) is int for c in image.terms.values())


@pytest.mark.parametrize("r", range(1, 6))
def test_exponent_maps_of_the_deformed_denominator(r):
    # D(tx; t) at t = -1/q, folded factor by factor as the bridge does, is
    # the map of the whole product, and is D(-x/q; -1/q)
    bridged = reduce(mul, map(t_to_minus_one_over_q, deformation_factors(r)))
    assert bridged == t_to_minus_one_over_q(deformation_D_long(r, scaled=True))
    if r <= 4:  # the oracle takes 21 s on rank 5's 250,606 terms
        assert bridged == substitute_long(deformation_D_long(r),
                                          bridge_mapping(r))


def hk_rhs(r, stats):
    """Oracle: sum over the statistics of the standard tableaux, one
    tableau at a time, of t^{height + r(r+1)/2} (1 + t)^{str - r} x^{wgt}."""
    offset = r * (r + 1) // 2
    acc = {}
    for st in stats:
        for j, c in class_weight(st.height + offset, st.str_total - r):
            e = st.wgt + (j, 0)
            acc[e] = acc.get(e, 0) + c
    return LaurentPoly(ring_size(r), acc)


def test_hk_rhs_rank1_matches_deformation():
    twist = LambdaTwist((0,))
    rhs = hk_rhs(1, [tableau_stats(S)
                     for S in standard_tableaux(twist.top_row)])
    # the two single-box tableaux give x^{-1} + t x, which is D(tx; t)
    assert rhs == _mono(1, (-1,)) + _mono(1, (1,), t=1)
    assert rhs == deformation_D(1) * character_gt((0,))


def test_deformation_identity_small():
    for l in [(0,), (2,), (0, 0), (1, 0), (1, 1)]:
        ok, diff = verify_deformation_identity(LambdaTwist(l))
        assert ok and diff.is_zero(), l


def test_h_tilde_rank1():
    twist = LambdaTwist((1,))
    tilde = h_tilde_table(twist)
    one = GaussValue.one(1)
    qinv = GaussValue.q_power(1, -1)
    assert tilde[(0,)] == one
    assert tilde[(1,)] == one - qinv
    assert tilde[(2,)] == -qinv
    ok, bad = verify_h_tilde(h_table(twist, 1))
    assert ok and not bad


def test_h_tilde_exhaustive_small():
    for l in [(0, 0), (1, 1), (0, 0, 0)]:
        ok, bad = verify_h_tilde(h_table(LambdaTwist(l), 1))
        assert ok, (l, bad)


def reduced_pattern_weight(P):
    """Product over entries of the reduced factors 1, 1 - 1/q, -1/q for
    minimal, generic, maximal entries (zero at the degenerate right-edge
    coincidence), an n = 1 Gauss value."""
    one = GaussValue.one(1)
    qinv = GaussValue.q_power(1, -1)
    factors = {"minimal": one, "generic": one - qinv, "maximal": -qinv}
    out = one
    for e in records(P):
        if e.is_min and not e.slack:
            return GaussValue.zero(1)
        out = out * factors[e.tag]
    return out


def is_degenerate(P):
    return any(e.is_min and not e.slack for e in records(P))


# every twist with entries <= 1 at ranks 1-3, and rank 4 at l = 0
H_TILDE_GRID = [l for r in (1, 2, 3) for l in product((0, 1), repeat=r)]
H_TILDE_GRID.append((0, 0, 0, 0))


def test_h_tilde_table_equals_the_per_entry_product():
    degenerate = {}
    for l in H_TILDE_GRID:
        twist = LambdaTwist(l)
        zero = GaussValue.zero(1)
        oracle = {}
        strict = list(enumerate_patterns(twist.top_row, strict=True))
        for P in strict:
            oracle[P.k_vec] = (oracle.get(P.k_vec, zero)
                               + reduced_pattern_weight(P))
        degenerate[l] = sum(map(is_degenerate, strict))
        tilde = h_tilde_table(twist)
        assert tilde == oracle, l  # the same keys and values
    # the zero weight of the degenerate coincidence is exercised, though no
    # key of this grid sums to zero (see the test below)
    assert degenerate[(0, 0)] == 2 and degenerate[(0, 0, 0)] == 92


# every twist of rank 1 with l <= 8, of rank 2 with l_i <= 3 and of rank 3
# with l_i <= 1
N1_KEY_GRID = ([(l,) for l in range(9)] + list(product(range(4), repeat=2))
               + list(product((0, 1), repeat=3)))


def test_n1_tables_have_the_same_keys_and_no_zero_value():
    # verify_h_tilde compares values on the union of the keys, so it does
    # not see a key that one table lacks when the other's value there is
    # zero; at n = 1 no key on this grid has a zero value in either table
    # (the zero-key rule at n = 3 is pinned by the fold tests of
    # tests/test_coeffs.py)
    keys = 0
    for l in N1_KEY_GRID:
        twist = LambdaTwist(l)
        tilde = h_tilde_table(twist)
        table = h_table(twist, 1)
        assert set(tilde) == set(table.keys()), l
        assert not any(v.is_zero() for v in tilde.values()), l
        assert table.nonzero_keys() == table.keys(), l
        keys += len(tilde)
    assert len(N1_KEY_GRID) == 33 and keys == 4390


def test_tableau_side_equals_the_per_tableau_sum():
    for l in H_TILDE_GRID:
        twist = LambdaTwist(l)
        r = twist.rank
        stats = [tableau_stats(S) for S in standard_tableaux(twist.top_row)]
        classes = tableau_classes(twist)
        assert tableau_side(r, classes) == hk_rhs(r, stats), l
        # no pair marks the weight-barred bridge, and each tableau obeys it
        # summed, |wgt| = |lambda+rho| - 2 barred
        assert not any(key[-2] for key in classes), l
        assert all(sum(s.wgt) == sum(twist.top_row) - 2 * s.barred
                   for s in stats), l


def test_euler_bridge_small_ranks():
    for r in (1, 2, 3):
        ok, diff = verify_euler_bridge(r)
        assert ok and diff.is_zero()


def test_euler_identity_rank1_hand_values():
    twist = LambdaTwist((0,))
    gen = h_generating_function(h_table(twist, 1))
    # 1 - q^{-2s_1} written as 1 - x^2/q
    expected = LaurentPoly.const(3, 1) - _mono(1, (2,), q=-1)
    assert gen == expected
    ok, diff = verify_euler_factor_identity(h_table(twist, 1))
    assert ok and diff.is_zero()


def test_euler_identity_r2():
    for l in [(0, 0), (1, 0), (2, 1)]:
        ok, diff = verify_euler_factor_identity(h_table(LambdaTwist(l), 1))
        assert ok, l


def test_n1_identities_refuse_a_table_of_another_degree():
    table = h_table(LambdaTwist((1, 0)), 3)
    for check in (verify_h_tilde, verify_euler_factor_identity,
                  h_generating_function):
        with pytest.raises(ValueError, match="n = 3"):
            check(table)


def gauss_to_q_poly(value: GaussValue, r: int) -> LaurentPoly:
    """A symbol-free value as a Laurent polynomial in q, in the ring of the
    rank-r identities."""
    if any(syms for syms, _, _ in value.terms):
        raise ValueError("value still contains primitive symbols")
    return LaurentPoly(ring_size(r), {(0,) * (r + 1) + (e,): c
                                      for _, e, c in value.terms})


def test_gauss_to_q_poly_rejects_symbols():
    with pytest.raises(ValueError):
        gauss_to_q_poly(GaussValue.symbol(3, 1), 1)


def test_euler_product_trivial_m():
    table = dict(euler_product_n1((1, 1), 6))
    assert table[(1, 1)] == 1


def test_euler_product_rank1_matches_tables():
    bound = 50
    table = dict(euler_product_n1((1,), bound))
    for p in (2, 3, 5, 7):
        block = h_table(LambdaTwist((0,)), 1)
        for k, val in block.entries:
            c = p ** k[0]
            if c <= bound:
                num = eval_at(gauss_to_q_poly(val, 1), {2: Fraction(p)})
                assert table.get((c,), 0) == num, (p, k)


def test_euler_product_multiplicative():
    table = dict(euler_product_n1((1,), 400))
    for c1, c2 in [(2, 3), (4, 25), (8, 9), (5, 49)]:
        assert table.get((c1 * c2,), 0) == \
            table.get((c1,), 0) * table.get((c2,), 0)


def test_euler_product_twisted_rank1():
    # at l = ord_p(m): support reaches k = l + 1 with value -p^l
    table = dict(euler_product_n1((4,), 40))
    assert table.get((2,), 0) == 1       # phi(2) at p = 2, l = 2
    assert table.get((4,), 0) == 2       # phi(4)
    assert table.get((8,), 0) == -4      # k = l + 1
    assert table.get((16,), 0) == 0      # beyond the support
    assert table.get((3,), 0) == -1      # untwisted prime, k = 1
    assert table.get((9,), 0) == 0       # untwisted support stops at k = 1
    assert table.get((6,), 0) == table[(2,)] * table[(3,)]


def euler_product_n1_long(m, bound):
    """Per-prime merge: multiply each prime's coefficient block into the
    whole table, one prime p <= bound at a time."""
    r = len(m)
    table = {(1,) * r: 1}
    for p in range(2, bound + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        l = []
        for mi in m:
            e = 0
            while mi % p == 0:
                mi //= p
                e += 1
            l.append(e)
        block = {}
        for k, val in h_table(LambdaTwist(tuple(l)), 1).entries:
            if all(p ** ki <= bound for ki in k):
                num = eval_at(gauss_to_q_poly(val, r), {q_index(r): p})
                if num:
                    block[k] = num
        new = {}
        for c, h in table.items():
            for k, v in block.items():
                cc = tuple(ci * p ** ki for ci, ki in zip(c, k))
                if all(x <= bound for x in cc):
                    new[cc] = new.get(cc, 0) + h * v
        table = new
    return {c: v for c, v in table.items() if v}


@pytest.mark.parametrize("m, bound", [
    ((1,), 1), ((1,), 300), ((12,), 400), ((64,), 100), ((30,), 250),
    ((2 * 53,), 50),             # 53 > bound divides m
    ((1, 1), 30), ((4, 8), 20), ((6, 4), 40), ((9, 1), 28), ((2 * 37, 3), 25),
    ((1, 1, 1), 8), ((2, 1, 3), 10), ((4, 2, 1), 9), ((1, 1, 11), 7)])
def test_euler_product_matches_per_prime_merge(m, bound):
    table = dict(euler_product_n1(m, bound))
    assert table == euler_product_n1_long(m, bound)
    assert all(type(v) is int for v in table.values())


@pytest.mark.parametrize("m, bound", [
    ((12,), 1000), ((1, 1), 30), ((6, 4), 40), ((2, 1, 3), 10)])
def test_euler_product_yields_nonzero_ints_in_lexicographic_order(m, bound):
    keys, values = zip(*euler_product_n1(m, bound))
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert all(type(v) is int and v for v in values)


# rank 3 stays with the fixed cases above: a twist like (2,2,2) alone takes
# seconds to tabulate, and the per-prime merge tabulates it once per prime
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_euler_product_matches_per_prime_merge_random(data):
    rank = data.draw(st.integers(1, 2), label="rank")
    m_max, bound_max = {1: (200, 120), 2: (64, 20)}[rank]
    m = tuple(data.draw(st.lists(st.integers(1, m_max), min_size=rank,
                                 max_size=rank), label="m"))
    bound = data.draw(st.integers(1, bound_max), label="bound")
    assert dict(euler_product_n1(m, bound)) == \
        euler_product_n1_long(m, bound)


def test_euler_product_refuses_block_without_unit_constant(monkeypatch,
                                                           capsys):
    def doubled_constant(twist, n):
        table = h_table(twist, n)
        return SimpleNamespace(entries=tuple(
            (k, v + v if not any(k) else v) for k, v in table.entries))

    monkeypatch.setattr(chars, "h_table", doubled_constant)
    with pytest.raises(AssertionError, match="H\\(1; p\\^l\\) is not 1"):
        euler_product_n1((1,), 10)
    from weylmds.cli import main
    assert main(["euler", "--rank", "1", "--m", "1", "--bound", "10"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: internal check")


@pytest.mark.parametrize("corrupt, text", [
    (lambda k, v: v + v if not any(k) else v, "H\\(1; p\\^l\\) is not 1"),
    # q^{-1} at k = 2, in the block l = 1 that p = 2 reads only up to k = 1
    (lambda k, v: GaussValue.q_power(1, -1) if k == (2,) else v,
     "coefficient must be integral")],
    ids=["doubled-constant", "negative-q-exponent"])
def test_euler_product_checks_every_block_before_any_entry(monkeypatch,
                                                           corrupt, text):
    def corrupted(twist, n):
        return SimpleNamespace(entries=tuple(
            (k, corrupt(k, v)) for k, v in h_table(twist, n).entries))

    monkeypatch.setattr(chars, "h_table", corrupted)
    with pytest.raises(AssertionError, match=text):
        euler_product_n1((2,), 3)  # raised by the call: nothing is iterated


def test_euler_product_refuses_rank_zero_before_the_sieve(monkeypatch):
    # bound ** 0 == 1, so the size cap admits any bound at rank 0
    def no_sieve(bound):
        pytest.fail("the sieve was built")

    monkeypatch.setattr(chars, "_smallest_prime_factors", no_sieve)
    for bound in (1, 10):
        with pytest.raises(ValueError,
                           match="^rank must be a positive integer$"):
            euler_product_n1((), bound)
