import cmath
import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from weylmds import gauss
from weylmds.coeffs import h_table
from weylmds.gauss import (BRUTE_FORCE_LIMIT, NUMERIC_TERMS_LIMIT,
                           ArithContext, GaussValue, gauss_brute, gauss_eval,
                           numeric_eval)
from weylmds.roots import LambdaTwist
from weylmds.stable import verify_stable_match


def gauss_from_json(n, obj) -> GaussValue:
    """Inverse of GaussValue.to_json; a term's symbols may be unsorted or
    unfolded, and GaussValue.symbol checks each."""
    out = GaussValue.zero(n)
    for t in obj:
        term = GaussValue.q_power(n, int(t["q"]), int(t["c"]))
        for s in t["g"]:
            term = term * GaussValue.symbol(n, s)
        out = out + term
    return out


def chi_index(ctx, d: int):
    """Exponent s in Z/n with chi(d) = e^{2 pi i s / n}, or None if p | d."""
    d %= ctx.p
    return ctx.chi_table[d] if d else None


def test_residue_symbol_identity_and_vanishing():
    ctx = ArithContext(3, 7)
    assert chi_index(ctx, 1) == 0
    assert chi_index(ctx, 8) == 0
    assert chi_index(ctx, 7) is None


def test_residue_symbol_order_and_multiplicativity():
    ctx = ArithContext(3, 7)
    s = chi_index(ctx, 2)
    assert s is not None and s % 3 != 0  # chi(2) != 1
    # chi(2)^3 = 1 is automatic for an index mod 3; check multiplicativity
    for d1 in range(1, 7):
        for d2 in range(1, 7):
            lhs = chi_index(ctx, d1 * d2)
            rhs = (chi_index(ctx, d1) + chi_index(ctx, d2)) % 3
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
    # even n: chi(-1) may be -1, so G[s]G[n-s] stays formal
    v3 = GaussValue.symbol(4, 1) * GaussValue.symbol(4, 3)
    assert v3.terms == (((1, 3), 0, 1),)
    v4 = GaussValue.symbol(4, 2) * GaussValue.symbol(4, 2)
    assert v4.terms == (((2, 2), 0, 1),)


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
    assert gauss_from_json(3, blob) == v
    # raw input is folded: G[1]G[2] = q at n = 3, in either order
    q = GaussValue.q_power(3, 1)
    assert gauss_from_json(3, [{"c": "1", "q": 0, "g": [1, 2]}]) == q
    assert gauss_from_json(3, [{"c": "1", "q": 0, "g": [2, 1]}]) == q


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


def test_context_refuses_prime_above_limit():
    # refused up front: a brute-force sum would tabulate chi on all p residues
    with pytest.raises(ValueError, match="10\\^7"):
        ArithContext(1, 10_000_019)


def cached_tables(ctx):
    """Every table and held sum ctx holds: chi_table, each additive table
    and each brute-force sum of `sums`, the last two read out of their
    dicts."""
    out = []
    for v in vars(ctx).values():
        if isinstance(v, dict):
            out.extend(v.values())
        elif hasattr(v, "__len__"):
            out.append(v)
    return out


def test_numeric_term_limit_is_checked_when_the_context_is_built(
        monkeypatch):
    # (5, 101): 4 primitive sums of 101 terms, each summed once per context
    # however many values it evaluates
    from weylmds import gauss
    assert NUMERIC_TERMS_LIMIT == 10 ** 9
    monkeypatch.setattr(gauss, "NUMERIC_TERMS_LIMIT", 4 * 101)
    ArithContext(5, 101)
    monkeypatch.setattr(gauss, "NUMERIC_TERMS_LIMIT", 4 * 101 - 1)
    with pytest.raises(OverflowError, match="^numeric evaluation needs 404 "
                       "brute-force terms, above the limit 10\\^9$"):
        ArithContext(5, 101)
    ArithContext(1, 101)  # no symbols at n = 1, so no terms


def test_context_builds_no_p_entry_table_for_symbol_free_values():
    # hcoeff --p at n = 1: values without symbols need no character
    p = 9_999_991
    ctx = ArithContext(1, p)
    assert cached_tables(ctx) == []
    assert numeric_eval(GaussValue.phi(1, 2), ctx) == p * p - p
    for _, value in h_table(LambdaTwist((1,)), 1).entries:
        numeric_eval(value, ctx)
    assert cached_tables(ctx) == []


def test_context_builds_one_additive_table_for_symbol_values():
    p = 7
    ctx = ArithContext(3, p)
    value = GaussValue.symbol(3, 1, q_exp=1)
    first = numeric_eval(value, ctx)
    assert [len(t) for t in ctx.additive_tables.values()] == [p]
    assert sorted(ctx.sums) == [(1, 0, 1), (2, 0, 1)]
    tables = cached_tables(ctx)
    assert numeric_eval(value, ctx) == first
    assert [id(t) for t in cached_tables(ctx)] == [id(t) for t in tables]


def test_symbol_and_from_json_refuse_out_of_range_indices():
    for n in (1, 3, 4):
        for s in (0, n):
            with pytest.raises(ValueError):
                GaussValue.symbol(n, s)
            with pytest.raises(ValueError):
                gauss_from_json(n, [{"c": "1", "q": 0, "g": [s]}])


# -- the ring against an expand-then-fold oracle --------------------------

def fold_long(n, raw):
    """Canonical terms of raw (syms, q_exp, coeff) triples: count every
    term's symbols, fold G[s]G[n-s] -> q at odd n, merge and sort."""
    acc = {}
    for syms, q_exp, coeff in raw:
        cnt = Counter(syms)
        extra = 0
        if n > 1 and n % 2 == 1:
            for s in range(1, (n + 1) // 2):
                pairs = min(cnt[s], cnt[n - s])
                extra += pairs
                cnt[s] -= pairs
                cnt[n - s] -= pairs
        key = (tuple(sorted(cnt.elements())), q_exp + extra)
        acc[key] = acc.get(key, 0) + coeff
    return tuple(sorted((s, e, c) for (s, e), c in acc.items() if c != 0))


def mul_long(x, y):
    return fold_long(x.n, [(s1 + s2, e1 + e2, c1 * c2)
                           for s1, e1, c1 in x.terms
                           for s2, e2, c2 in y.terms])


def is_canonical(v):
    keys = [(s, e) for s, e, _ in v.terms]
    return (keys == sorted(set(keys))
            and all(c != 0 for _, _, c in v.terms)
            and all(list(s) == sorted(s) and all(1 <= x < v.n for x in s)
                    for s, _, _ in v.terms)
            and not (v.n % 2 and any(v.n - x in s
                                     for s, _, _ in v.terms for x in s)))


_degree = st.sampled_from((1, 2, 3, 4, 5, 7))


@st.composite
def raw_terms(draw, n):
    syms = st.lists(st.integers(1, n - 1), max_size=4) if n > 1 \
        else st.just([])
    return draw(st.lists(st.tuples(syms.map(tuple), st.integers(0, 3),
                                   st.integers(-3, 3)), max_size=4))


@st.composite
def values(draw, n):
    return GaussValue(n, fold_long(n, draw(raw_terms(n))))


@settings(max_examples=200, deadline=None)
@given(n=_degree, data=st.data())
def test_ring_operations_match_expand_then_fold(n, data):
    x, y = data.draw(values(n)), data.draw(values(n))
    raw = data.draw(raw_terms(n))
    blob = [{"c": str(c), "q": e, "g": list(s)} for s, e, c in raw]
    assert gauss_from_json(n, blob).terms == fold_long(n, raw)
    assert (x * y).terms == mul_long(x, y)
    assert (x + y).terms == fold_long(n, x.terms + y.terms)
    assert (x - y).terms == fold_long(
        n, x.terms + tuple((s, e, -c) for s, e, c in y.terms))
    for v in (x * y, x + y, x - y, gauss_from_json(n, blob)):
        assert is_canonical(v)
    assert gauss_from_json(n, x.to_json()) == x


# the shapes that pick a path of GaussValue.__mul__: c q^e with no symbol
# (shift and scale), a q-polynomial of several terms (collect by q
# exponent), and every other value, a single symbol term among them
_coeff = st.integers(-3, 3).filter(bool)


def shaped(n, shape):
    if shape == "zero":
        return st.just(GaussValue.zero(n))
    if shape == "monomial":
        return st.builds(GaussValue.q_power, st.just(n), st.integers(-3, 3),
                         _coeff)
    if shape == "q-polynomial":
        return st.dictionaries(st.integers(-3, 3), _coeff, min_size=2,
                               max_size=4).map(lambda terms: GaussValue(
                                   n, tuple(((), e, c) for e, c
                                            in sorted(terms.items()))))
    if shape == "symbol term":  # a nonempty symbol list left after folding
        syms = st.lists(st.integers(1, n - 1), min_size=1, max_size=4)
        return st.tuples(syms.map(tuple), st.integers(-3, 3), _coeff).map(
            lambda term: GaussValue(n, fold_long(n, [term]))).filter(
            lambda v: v.terms[0][0])
    return values(n)


_SHAPES = ("zero", "monomial", "q-polynomial", "symbol term")


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("left", [True, False])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_product_paths_match_expand_then_fold(shape, left, data):
    n = data.draw(st.sampled_from((3, 5, 7) if shape == "symbol term"
                                  else (1, 3, 5, 7)), label="n")
    x = data.draw(shaped(n, shape), label="forced")
    y = data.draw(st.sampled_from(_SHAPES + ("any",)).flatmap(
        lambda other: shaped(n, other) if n > 1 or other != "symbol term"
        else values(n)), label="other")
    if not left:
        x, y = y, x
    assert (x * y).terms == mul_long(x, y)
    assert is_canonical(x * y)


@settings(max_examples=150, deadline=None)
@given(n=_degree, data=st.data())
def test_ring_axioms(n, data):
    x, y, z = (data.draw(values(n)) for _ in range(3))
    one, zero = GaussValue.one(n), GaussValue.zero(n)
    assert (x * y) * z == x * (y * z)
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x and x + y == y + x
    assert x * (y + z) == x * y + x * z
    assert x * one == x and x + zero == x
    assert (x * zero).is_zero() and (x - x).is_zero()


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(((3, 7), (5, 11))), data=st.data())
def test_numeric_eval_is_multiplicative(case, data):
    n, p = case
    ctx = ArithContext(n, p)
    x, y = data.draw(values(n)), data.draw(values(n))

    def size(v):  # |G[s]| = sqrt(p)
        return sum(abs(c) * p ** (e + len(s) / 2) for s, e, c in v.terms)

    lhs = numeric_eval(x * y, ctx)
    rhs = numeric_eval(x, ctx) * numeric_eval(y, ctx)
    assert abs(lhs - rhs) <= 1e-9 * (1 + size(x) * size(y))


# -- gauss_brute against the literal per-term sum --------------------------

def gauss_brute_long(t, c_exp, v_exp, ctx):
    """Every term chi^{t v}(d) exp(2 pi i d p^c / p^v) computed on its own,
    added over d = 1 .. p^v - 1 in increasing order, non-units skipped."""
    if v_exp < 0:
        raise ValueError("negative modulus exponent")
    if v_exp == 0:
        return complex(1.0)
    n, p = ctx.n, ctx.p
    modulus = p ** v_exp
    if modulus > BRUTE_FORCE_LIMIT:
        raise OverflowError("modulus too large for brute-force summation")
    chi = ctx.chi_table
    tv = t * v_exp
    chi_tv = [cmath.exp(2j * cmath.pi * ((s * tv) % n) / n) for s in range(n)]
    total = 0.0 + 0.0j
    for d in range(1, modulus):
        if d % p == 0:
            continue
        phase = (d * p ** c_exp) % modulus
        total += chi_tv[chi[d % p]] * cmath.exp(2j * cmath.pi * phase / modulus)
    return total


def brute_or_overflow(brute, t, c, v, ctx):
    try:
        return brute(t, c, v, ctx)
    except OverflowError:
        return OverflowError


# the verify gauss pool pairs of the oracle workload, and two larger n
@pytest.mark.parametrize("n, p", [(1, 7), (1, 11), (1, 13), (3, 7), (3, 13),
                                  (5, 11), (7, 29), (9, 19)])
def test_brute_equals_long_sum_bit_for_bit_on_verify_gauss_grid(n, p):
    ctx = ArithContext(n, p)
    for t in (1, 2):
        for c in range(6):
            for v in range(5):
                assert brute_or_overflow(gauss_brute, t, c, v, ctx) \
                    == brute_or_overflow(gauss_brute_long, t, c, v, ctx), \
                    (t, c, v)


@pytest.mark.parametrize("n, p", [(3, 1009), (5, 3001), (7, 3011), (9, 9001)])
def test_brute_equals_long_sum_bit_for_bit_on_primitive_sums(n, p):
    ctx = ArithContext(n, p)
    for s in range(1, n):
        assert gauss_brute(s, 0, 1, ctx) == gauss_brute_long(s, 0, 1, ctx)


_small_primes = {n: [p for p in range(3, 60) if (p - 1) % n == 0
                     and all(p % d for d in range(2, p))]
                 for n in range(1, 7)}


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 6), t=st.integers(0, 8), c=st.integers(0, 6),
       data=st.data())
def test_brute_equals_long_sum_bit_for_bit(n, t, c, data):
    p = data.draw(st.sampled_from(_small_primes[n]))
    v = data.draw(st.integers(0, int(math.log(10 ** 4, p))))
    ctx = ArithContext(n, p)
    assert gauss_brute(t, c, v, ctx) == gauss_brute_long(t, c, v, ctx)


def test_brute_refuses_negative_exponents():
    ctx = ArithContext(3, 7)
    for c, v in ((0, -1), (-1, 1)):
        with pytest.raises(ValueError):
            gauss_brute(1, c, v, ctx)


# -- each brute-force sum summed once per context --------------------------

def count_blocks(monkeypatch):
    """Count the blocks gauss_brute sums, one reduce over p - 1 units each,
    so p^(v-1) per sum over Z/p^v."""
    blocks, reduce = Counter(), gauss.reduce

    def counted(*args):
        blocks["reduce"] += 1
        return reduce(*args)

    monkeypatch.setattr(gauss, "reduce", counted)
    return blocks


def test_repeated_brute_requests_are_summed_once_with_the_same_bits(
        monkeypatch):
    blocks = count_blocks(monkeypatch)
    p = 101
    ctx = ArithContext(5, p)
    grid = [(t, c, v) for t in (1, 2, 3, 4) for c in range(3)
            for v in (1, 2)]
    once = sum(p ** (v - 1) for *_, v in grid)  # blocks of one pass
    first = {key: gauss_brute_long(*key, ctx) for key in grid}
    for _ in range(3):
        for key in grid:
            assert gauss_brute(*key, ctx) == first[key], key
    assert sorted(ctx.sums) == sorted(grid)
    assert blocks["reduce"] == once
    # an equal context holds none of them and sums again
    fresh = ArithContext(5, p)
    assert fresh == ctx and not fresh.sums
    for key in grid:
        assert gauss_brute(*key, fresh) == first[key], key
    assert blocks["reduce"] == 2 * once


def test_stable_match_sums_each_primitive_sum_once(monkeypatch):
    # 48 signed permutations, two values each, 4 primitive sums per value
    blocks = count_blocks(monkeypatch)
    requests, brute = Counter(), gauss.gauss_brute

    def counted(t, c, v, ctx):
        requests[t, c, v] += 1
        return brute(t, c, v, ctx)

    monkeypatch.setattr(gauss, "gauss_brute", counted)
    ctx = ArithContext(5, 3001)
    report = verify_stable_match(LambdaTwist((0, 0, 0)), 5, ctx)
    assert report == {"checked": 48, "mismatches": []}
    assert requests == {(s, 0, 1): 96 for s in range(1, 5)}
    assert blocks["reduce"] == 4
    for s in range(1, 5):
        assert ctx.sums[s, 0, 1] == gauss_brute_long(s, 0, 1, ctx)
