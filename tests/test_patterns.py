import json
from collections import Counter
from itertools import (combinations, combinations_with_replacement, islice,
                       permutations, product)
from math import prod

import pytest

from hypothesis import given, settings, strategies as st

from weylmds.patterns import (GTPattern, enumerate_patterns, interleave_bounds,
                              is_degenerate, is_strict, pair_classes,
                              pair_entries, pair_positions, pair_rows,
                              pair_sums, pair_weight)
from weylmds.roots import support_vector, weyl_dimension

from stable_lemmas import (WeylElement, identity_element, is_stable,
                           long_element, pair_records, record, records,
                           stable_pattern_for, weyl_from_stable)


FIG1 = GTPattern(
    5,
    a=((9, 6, 5, 3, 2), (7, 5, 4, 2), (5, 3, 1), (4, 2), (3,)),
    b=((7, 6, 5, 3, 2), (5, 4, 3, 1), (4, 2, 1), (3, 2), (1,)))


def pattern_from_json(obj) -> GTPattern:
    """Inverse of GTPattern.to_json, checked by the constructor."""
    return GTPattern(int(obj["rank"]),
                     tuple(tuple(int(x) for x in row) for row in obj["a"]),
                     tuple(tuple(int(x) for x in row) for row in obj["b"]))


# Entry accessors with the paper-style 1-based (i, j) indices.
def a_entry(P, i, j, default=None):
    if i == 0:
        return P.a[0][j - 1] if 1 <= j <= P.rank else default
    if 1 <= i <= P.rank - 1 and i + 1 <= j <= P.rank:
        return P.a[i][j - i - 1]
    return default


def b_entry(P, i, j, default=None):
    if 1 <= i <= P.rank and i <= j <= P.rank:
        return P.b[i - 1][j - i]
    return default


# Oracles: v, u and the bound equalities from their definitions.
def v_long(P, i, j):
    """v_{i,j} = sum_{m=i}^{j} (a_{i-1,m} - b_{i,m})."""
    return sum(a_entry(P, i - 1, m, 0) - b_entry(P, i, m, 0)
               for m in range(i, j + 1))


def u_long(P, i, j):
    """u_{i,j} = v_{i,r} + sum_{m=j}^{r} (a_{i,m} - b_{i,m})."""
    return v_long(P, i, P.rank) + sum(
        a_entry(P, i, m, 0) - b_entry(P, i, m, 0)
        for m in range(j, P.rank + 1))


def k_vec_long(P):
    """k from the row sums s(a_m), s(b_m) directly (a_r is empty):
    k_1 = s(a_0) - sum_m (s(b_m) - s(a_m)), and for i >= 2 with m = r+1-i,
    k_i = s(a_0) - 2 sum_{m'<=m} (s(b_m') - s(a_m')) - s(a_m)
          + (a_{0,1} + ... + a_{0,m})."""
    r = P.rank
    s_a = [sum(row) for row in P.a] + [0]
    diffs = [sum(P.b[m - 1]) - s_a[m] for m in range(1, r + 1)]
    k = [s_a[0] - sum(diffs)]
    for i in range(2, r + 1):
        m = r + 1 - i
        k.append(s_a[0] - 2 * sum(diffs[:m]) - s_a[m] + sum(P.a[0][:m]))
    return tuple(k)


# Oracles: the recursive enumerator, and wgt and k from their definitions.
def enumerate_patterns_long(top_row):
    """Every pattern below top_row, one row at a time, each candidate row
    in descending-lex order."""
    top = tuple(top_row)
    r = len(top)

    def row_choices(above, pad):
        return product(*[range(hi, lo - 1, -1)
                         for hi, lo in interleave_bounds(above, pad)])

    def descend(rows_a, rows_b):
        i = len(rows_b)
        if i == r:
            yield GTPattern(r, tuple(rows_a), tuple(rows_b))
            return
        for brow in row_choices(rows_a[i], (0,)):
            if i == r - 1:
                yield from descend(rows_a, rows_b + [brow])
            else:
                for arow in row_choices(brow, ()):
                    yield from descend(rows_a + [arow], rows_b + [brow])

    yield from descend([top], [])


def wgt_long(P):
    """wgt_i = s(a_{r-i}) - 2 s(b_{r+1-i}) + s(a_{r+1-i}), a_r empty."""
    s_a = [sum(row) for row in P.a] + [0]
    s_b = [sum(row) for row in P.b]
    return tuple(s_a[m - 1] - 2 * s_b[m - 1] + s_a[m]
                 for m in range(P.rank, 0, -1))


def k_vec_support(P):
    """k as the simple-root coordinates of lambda+rho + wgt."""
    L = reversed(P.a[0])
    return support_vector([x + y for x, y in zip(L, wgt_long(P))])


def wgt_slot(r, i, above, b, below):
    """wgt as a pair_sums statistic: only the slot of row pair i set."""
    wgt = [0] * r
    wgt[r - i] = pair_weight(above, b, below)
    return tuple(wgt)


def count_patterns(top_row):
    return sum(1 for _ in enumerate_patterns(top_row))


def stable_patterns(top_row):
    """The stable patterns within the enumeration, in canonical order."""
    return [P for P in enumerate_patterns(top_row) if is_stable(P)]


def bound_flags_long(P, pos):
    """(is minimal, is maximal) from the entry's neighbours."""
    kind, i, j = pos
    if kind == "b":
        x = b_entry(P, i, j)
        low = 0 if j == P.rank else a_entry(P, i - 1, j + 1)
        return x == a_entry(P, i - 1, j), x == low
    x = a_entry(P, i, j)
    return x == b_entry(P, i, j), x == b_entry(P, i, j - 1)


def test_rank1_enumeration():
    pats = list(enumerate_patterns((1,)))
    assert len(pats) == 2
    assert [P.b[0][0] for P in pats] == [1, 0]


def test_r2_enumeration_count_matches_nested_loops():
    # independent nested-loop oracle for top row (2, 1)
    count = 0
    for b11 in range(1, 3):
        for b12 in range(0, 2):
            for a12 in range(b12, b11 + 1):
                for b22 in range(0, a12 + 1):
                    count += 1
    assert count == 16
    assert count_patterns((2, 1)) == 16


def test_enumeration_is_descending_lex_and_deterministic():
    def flat(P):
        rows = []
        for i in range(P.rank):
            rows.append(P.b[i])
            if i + 1 < P.rank:
                rows.append(P.a[i + 1])
        return tuple(x for row in rows for x in row)

    run1 = [flat(P) for P in enumerate_patterns((3, 1))]
    run2 = [flat(P) for P in enumerate_patterns((3, 1))]
    assert run1 == run2 == sorted(run1, reverse=True)


@pytest.mark.parametrize("top", [(1, 2), ()])
def test_enumeration_rejects_increasing_top(top):
    with pytest.raises(ValueError):
        list(enumerate_patterns(top))


@pytest.mark.parametrize("top", [(1, 2), (2, -1), ()])
def test_pair_sums_rejects_a_bad_top_row(top):
    with pytest.raises(ValueError):
        pair_sums(top, wgt_slot)


def test_figure1_pattern_is_valid_with_its_top_row():
    assert FIG1.top_row == (9, 6, 5, 3, 2)
    assert is_strict(FIG1)


def test_figure1_weight_and_support():
    assert FIG1.wgt == (1, -1, 1, 1, -3)
    assert FIG1.k_vec == (12, 21, 19, 13, 6)


def test_k_vec_matches_row_sum_oracle():
    assert k_vec_long(FIG1) == FIG1.k_vec
    for top in [(1,), (3,), (2, 1), (3, 1), (4, 2), (2, 2), (5, 3), (3, 2, 1),
                (4, 2, 1), (2, 2, 0), (3, 1, 1), (1, 1, 1, 0)]:
        for P in enumerate_patterns(top):
            assert P.k_vec == k_vec_long(P), P.to_json()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_k_vec_matches_row_sum_oracle_random(data):
    # one random pattern below a random top row of rank 3 or 4, drawn row by
    # row inside the interleaving bounds
    r = data.draw(st.integers(3, 4))
    top = tuple(sorted(data.draw(st.lists(st.integers(0, 12), min_size=r,
                                          max_size=r)), reverse=True))
    rows_a, rows_b = [top], []
    for i in range(r):
        rows_b.append(tuple(data.draw(st.integers(lo, hi)) for hi, lo
                            in interleave_bounds(rows_a[i], (0,))))
        if i < r - 1:
            rows_a.append(tuple(data.draw(st.integers(lo, hi)) for hi, lo
                                in interleave_bounds(rows_b[i], ())))
    P = GTPattern(r, tuple(rows_a), tuple(rows_b))
    assert P.k_vec == k_vec_long(P)


def test_rank1_weights_and_support():
    up, down = enumerate_patterns((1,))
    assert (up.wgt, up.k_vec) == ((-1,), (0,))
    assert (down.wgt, down.k_vec) == ((1,), (1,))


def test_mutating_an_entry_fails_validation():
    with pytest.raises(ValueError):
        GTPattern(5, FIG1.a, ((10, 6, 5, 3, 2),) + FIG1.b[1:])
    with pytest.raises(ValueError):
        GTPattern(5, FIG1.a[:2] + ((6, 3, 1),) + FIG1.a[3:], FIG1.b)
    with pytest.raises(ValueError):
        GTPattern(2, ((2, 1), (-1,)), ((1, 0), (0,)))


def test_classify_entries():
    P = GTPattern(2, ((2, 1), (1,)), ((2, 1), (0,)))
    assert record(P, ("b", 1, 1)).tag == "minimal"
    assert record(P, ("b", 2, 2)).tag == "maximal"
    single = GTPattern(1, ((1,),), ((0,),))
    assert record(single, ("b", 1, 1)).tag == "maximal"
    Pg = GTPattern(1, ((2,),), ((1,),))
    assert record(Pg, ("b", 1, 1)).tag == "generic"


def test_entry_records_bundle_everything():
    by_pos = {e.pos: e for e in records(FIG1)}
    assert all(e.exp >= 0 for e in by_pos.values())
    assert sum(FIG1.k_vec) == sum(e.exp for e in by_pos.values())
    assert by_pos[("b", 1, 1)].tag == "generic"
    assert by_pos[("b", 1, 2)].tag == "minimal"
    assert by_pos[("b", 2, 2)].tag == "maximal"


def test_entry_records_match_the_definitions():
    for top in [(2, 1), (3, 1), (4, 2), (2, 2), (3, 2, 1), (4, 2, 1)]:
        r = len(top)
        for P in enumerate_patterns(top):
            below = P.a[1:] + ((),)
            for i in range(1, r + 1):
                records = list(pair_records(P, i))
                assert records == list(pair_entries(
                    r, i, P.a[i - 1], P.b[i - 1], below[i - 1]))
                assert [e.pos for e in records] == list(pair_positions(r, i))
                for e in records:
                    kind, _, j = e.pos
                    exp = v_long(P, i, j) if kind == "b" else u_long(P, i, j)
                    is_min, is_max = bound_flags_long(P, e.pos)
                    assert (e.exp, e.is_min, e.slack == 0) == (
                        exp, is_min, is_max)
                    assert e.t == (2 if e.pos == ("b", i, r) else 1)
                    assert record(P, e.pos) == e


def classes_long(records):
    """Oracle: (#maximal, #generic, #degenerate) from the tag of every
    record, a degenerate entry (minimal at zero slack) being tagged
    maximal."""
    records = list(records)
    tags = [e.tag for e in records]
    degenerate = [e for e in records if e.is_min and not e.slack]
    assert all(e.tag == "maximal" for e in degenerate)
    return tags.count("maximal"), tags.count("generic"), len(degenerate)


def test_pair_classes_equal_the_per_record_tag_count():
    # pair by pair and summed over the pairs; on a strict pattern the
    # degenerate entries are the pairs below an a-row that ends in 0
    tops = [(2, 1), (3, 1), (4, 2), (2, 2), (1, 0), (3, 2, 1), (4, 2, 1),
            (3, 1, 0), (2, 2, 1), (1, 1, 1), (0, 0, 0)]
    seen = set()  # (strict, class) of every class some pattern has
    for top in tops:
        r = len(top)
        for P in enumerate_patterns(top):
            pairs = [pair_classes(r, i, *rows)
                     for i, rows in enumerate(P.row_pairs(), 1)]
            assert pairs == [classes_long(pair_records(P, i))[:2]
                             for i in range(1, r + 1)]
            counts = classes_long(records(P))
            assert tuple(map(sum, zip(*pairs))) == counts[:2]
            if is_strict(P):
                assert counts[2] == sum(map(is_degenerate, P.a))
            seen |= {(is_strict(P), c) for c, x in enumerate(counts) if x}
    assert len(seen) == 6


def has_degenerate_record(r, i, above, b, below) -> bool:
    """Oracle: some entry of the row pair is minimal at zero slack, the
    case where coeffs.gamma_b is zero by definition."""
    return any(e.is_min and not e.slack
               for e in pair_entries(r, i, above, b, below))


def test_is_degenerate_equals_a_record_minimal_at_zero_slack():
    # every strict row triple that the strict walks below the strict top
    # rows of ranks 1-4 with entries <= 6 meet, once per top row
    triples = 0
    for r in range(1, 5):
        for top in combinations(range(6, -1, -1), r):
            rows = {top}
            for i in range(1, r + 1):
                reached = set()
                for above in rows:
                    for b, below in pair_rows(above, strict=True):
                        assert is_degenerate(above) == has_degenerate_record(
                            r, i, above, b, below), (r, i, above, b, below)
                        reached.add(below)
                        triples += 1
                rows = reached
    assert triples == 83191


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_is_degenerate_equals_a_record_minimal_at_zero_slack_on_random_rows(
        data):
    r = data.draw(st.integers(1, 5), label="rank")
    i = data.draw(st.integers(1, r), label="pair")
    above = tuple(sorted(data.draw(st.sets(st.integers(0, 9),
                                           min_size=r - i + 1,
                                           max_size=r - i + 1)),
                         reverse=True))
    b, below = data.draw(st.sampled_from(list(pair_rows(above, strict=True))),
                         label="rows")
    assert is_degenerate(above) == has_degenerate_record(r, i, above, b,
                                                         below)


def _rows(r, flat):
    """Split a flat entry list into the a-rows and b-rows of rank r."""
    flat, rows = list(flat), []
    for length in list(range(r, 0, -1)) * 2:
        rows.append(tuple(flat[:length]))
        del flat[:length]
    return tuple(rows[:r]), tuple(rows[r:])


def _constructs(r, a, b):
    try:
        GTPattern(r, a, b)
        return True
    except ValueError:
        return False


def _enumerated(a, b):
    try:
        return any(P.a == a and P.b == b for P in enumerate_patterns(a[0]))
    except ValueError:  # not a valid top row
        return False


def test_validation_agrees_with_enumeration_exhaustively():
    for r, box in ((1, 5), (2, 3)):
        candidates = [_rows(r, flat)
                      for flat in product(range(box), repeat=r * (r + 1))]
        valid = {(a, b) for a, b in candidates if _constructs(r, a, b)}
        tops = {a[0] for a, _ in candidates
                if list(a[0]) == sorted(a[0], reverse=True)}
        assert valid == {(P.a, P.b) for top in tops
                         for P in enumerate_patterns(top)}


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.integers(0, 10 ** 6), st.integers(0, 11), st.integers(-1, 1))
def test_validation_agrees_with_enumeration_rank3(top, pick, where, delta):
    # a pattern with one entry nudged: valid, or just across a bound
    pats = list(enumerate_patterns(tuple(sorted(top, reverse=True))))
    P = pats[pick % len(pats)]
    flat = [x for row in P.a + P.b for x in row]
    flat[where] += delta
    a, b = _rows(3, flat)
    assert _constructs(3, a, b) == _enumerated(a, b)


def test_strictness():
    assert is_strict(FIG1)
    assert not is_strict(GTPattern(2, ((2, 1), (1,)), ((1, 1), (1,))))
    for P in enumerate_patterns((3,)):
        assert is_strict(P)


def test_stable_counts():
    assert len(stable_patterns((2, 1))) == 8
    assert len(stable_patterns((4, 2))) == 8
    assert len(stable_patterns((3, 2, 1))) == 48


def test_all_minimal_pattern_is_stable_and_identity():
    # b-rows copy the a-row above, a-rows copy the b-row above
    P = GTPattern(2, ((2, 1), (1,)), ((2, 1), (1,)))
    assert is_stable(P)
    assert weyl_from_stable(P) == identity_element(2)
    assert P.k_vec == (0, 0)


def test_all_maximal_pattern_is_long_element():
    w = long_element(2)
    P = stable_pattern_for(w, (2, 1))
    assert P.wgt == (1, 2)  # -wgt_i = eps^(i) L_i = -L_i
    assert weyl_from_stable(P) == w


def test_stable_roundtrip_r2():
    for w in WeylElement.all_elements(2):
        P = stable_pattern_for(w, (2, 1))
        assert weyl_from_stable(P) == w
    pats = {stable_pattern_for(w, (2, 1)) for w in WeylElement.all_elements(2)}
    assert pats == set(stable_patterns((2, 1)))


def test_weyl_from_stable_rejects_unstable():
    Pg = GTPattern(1, ((2,),), ((1,),))
    with pytest.raises(ValueError):
        weyl_from_stable(Pg)


def test_stable_entries_all_minimal_or_maximal():
    for P in stable_patterns((3, 2, 1)):
        assert all(e.tag != "generic" for e in records(P))


def test_support_recursion_links_weight_and_k():
    # k_i - k_{i+1} = L_i + wgt_i for i >= 2 and 2k_1 - k_2 = L_1 + wgt_1
    for top in [(2, 1), (4, 2), (3, 2, 1)]:
        L = tuple(reversed(top))
        r = len(top)
        for P in enumerate_patterns(top):
            k = P.k_vec + (0,)
            assert 2 * k[0] - k[1] == L[0] + P.wgt[0]
            for i in range(2, r + 1):
                assert k[i - 1] - k[i] == L[i - 1] + P.wgt[i - 1]


def test_weight_multiset_is_weyl_invariant():
    from collections import Counter
    for top in [(2, 1), (3, 1), (3, 2, 1)]:
        r = len(top)
        weights = Counter(P.wgt for P in enumerate_patterns(top))
        for sigma in permutations(range(r)):
            for signs in product((1, -1), repeat=r):
                moved = Counter(
                    tuple(signs[i] * wgt[sigma[i]] for i in range(r))
                    for wgt in weights.elements())
                assert moved == weights


def test_json_roundtrip():
    blob = json.dumps(FIG1.to_json())
    assert pattern_from_json(json.loads(blob)) == FIG1


def test_entry_positions_list_every_entry_in_pair_order():
    def reading_order(pos):
        kind, i, j = pos
        return (i, 0, j) if kind == "b" else (i, 1, -j)

    for r in range(1, 6):
        P = next(enumerate_patterns(tuple(range(r, 0, -1))))
        positions = [e.pos for e in records(P)]
        assert len(set(positions)) == len(positions) == r * r
        assert set(positions) == (
            {("b", i, j) for i in range(1, r + 1) for j in range(i, r + 1)}
            | {("a", i, j) for i in range(1, r) for j in range(i + 1, r + 1)})
        assert positions == sorted(positions, key=reading_order)
        assert positions == [pos for i in range(1, r + 1)
                             for pos in pair_positions(r, i)]
    for pos in [("a", 0, 1), ("b", 2, 1), ("a", 5, 5), ("c", 1, 1)]:
        with pytest.raises(ValueError):
            record(FIG1, pos)  # not a weighted entry


def _small_tops():
    """Every top row with entries <= 4 at ranks 1-3 and <= 2 at rank 4."""
    for r, box in ((1, 4), (2, 4), (3, 4), (4, 2)):
        yield from combinations_with_replacement(range(box, -1, -1), r)


def _assert_same_patterns(fast, slow):
    """The same rows in the same order, with wgt and the carried k equal to
    both oracles."""
    assert [(P.a, P.b) for P in fast] == [(P.a, P.b) for P in slow]
    for P in fast:
        assert P.wgt == wgt_long(P), P.to_json()
        assert P.k_vec == k_vec_support(P) == k_vec_long(P), P.to_json()


def test_enumeration_matches_recursive_oracle_exhaustively():
    for top in _small_tops():
        _assert_same_patterns(list(enumerate_patterns(top)),
                              list(enumerate_patterns_long(top)))


def test_strict_enumeration_is_the_strict_filter_exhaustively():
    for top in _small_tops():
        _assert_same_patterns(
            list(enumerate_patterns(top, strict=True)),
            list(filter(is_strict, enumerate_patterns_long(top))))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=5), st.booleans())
def test_enumeration_matches_recursive_oracle_random(parts, strict):
    # the first 2,000 patterns of the oracle, and the patterns of the fast
    # walk up to the same place: all of them, or with `strict` the strict
    # ones (and none past the end when the oracle ends within 2,000)
    top = tuple(sorted(parts, reverse=True))
    slow = list(islice(enumerate_patterns_long(top), 2001))
    slow, ended = slow[:2000], len(slow) <= 2000
    if strict:
        slow = list(filter(is_strict, slow))
    fast = list(islice(enumerate_patterns(top, strict), len(slow) + ended))
    _assert_same_patterns(fast, slow)


def _count_pair_rows(monkeypatch):
    from weylmds import patterns
    calls = []

    def counted(above, strict=False):
        calls.append(above)
        return pair_rows(above, strict)

    monkeypatch.setattr(patterns, "pair_rows", counted)
    return calls


def test_walk_lists_no_level_ahead_of_the_first_pattern(monkeypatch):
    calls = _count_pair_rows(monkeypatch)
    top = (6, 5, 4, 3, 2, 1)
    assert next(enumerate_patterns(top)).a[0] == top
    assert len(calls) <= len(top) - 1


@pytest.mark.parametrize("strict", [False, True])
def test_walk_lists_each_a_row_once(monkeypatch, strict):
    # each a-row a_0 .. a_{r-2} that the walk reaches, once; the last
    # a-row, a_{r-1}, closes pair r without a listing
    calls = _count_pair_rows(monkeypatch)
    pats = list(enumerate_patterns((4, 2, 1, 0), strict))
    assert sorted(calls) == sorted({row for P in pats for row in P.a[:-1]})


def test_constructed_pattern_folds_the_same_weight_and_support():
    for top in [(2, 1), (4, 2, 1), (2, 1, 1, 0)]:
        for P in enumerate_patterns(top):
            Q = GTPattern(P.rank, P.a, P.b)
            assert (Q.wgt, Q.k_vec) == (P.wgt, P.k_vec)
            assert vars(pattern_from_json(P.to_json())) == vars(P)


def test_walked_patterns_hold_only_their_rows_and_k():
    # wgt is read off the row pairs when asked; the walk carries only k
    for top in [(3,), (2, 1), (3, 1, 0), (2, 1, 1, 0), (3, 2, 1, 0)]:
        for strict in (False, True):
            for P in enumerate_patterns(top, strict):
                assert set(vars(P)) == {"rank", "a", "b", "k_vec"}


# rank 4 stays at entries <= 3 (at most 13,728 patterns): the oracle
# enumerates every pattern
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_sums_count_and_weigh_the_enumerated_patterns(data):
    r = data.draw(st.integers(1, 4), label="rank")
    most = {1: 9, 2: 6, 3: 4, 4: 3}[r]
    top = tuple(sorted(data.draw(st.lists(st.integers(0, most), min_size=r,
                                          max_size=r), label="top"),
                       reverse=True))
    strict = data.draw(st.booleans(), label="strict")
    wgts = Counter(P.wgt for P in enumerate_patterns(top, strict))
    counts = pair_sums(top, lambda *pair: ((), 1), strict)
    assert sum(counts.values()) == sum(wgts.values())
    if not strict:
        assert counts == {(): weyl_dimension(top)}
    assert pair_sums(top, lambda *pair: (wgt_slot(*pair), 1), strict) == wgts

    # a valued fold: each wgt holds the sum of its patterns' products of
    # per-pair factors in {-1, 0, 1, 2}, zero sums included
    def factor(r, i, above, b, below):
        return (3 * sum(b) + sum(below) + i) % 4 - 1

    values = dict.fromkeys(wgts, 0)
    for P in enumerate_patterns(top, strict):
        values[P.wgt] += prod(factor(P.rank, i, *pair)
                              for i, pair in enumerate(P.row_pairs(), 1))
    assert pair_sums(top, lambda *pair: (wgt_slot(*pair), factor(*pair)),
                     strict) == values

