import json
from itertools import combinations, permutations, product

import pytest

from weylmds.patterns import (GTPattern, LambdaTwist, classify_entry,
                              count_patterns, entry_bounds_flags,
                              entry_positions, enumerate_patterns, is_stable,
                              is_strict, pair_positions, pattern_data,
                              stable_pattern_for, stable_patterns,
                              weyl_from_stable)
from weylmds.roots import WeylElement


FIG1 = GTPattern(
    5,
    a=((9, 6, 5, 3, 2), (7, 5, 4, 2), (5, 3, 1), (4, 2), (3,)),
    b=((7, 6, 5, 3, 2), (5, 4, 3, 1), (4, 2, 1), (3, 2), (1,)))


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


def test_enumeration_rejects_increasing_top():
    with pytest.raises(ValueError):
        list(enumerate_patterns((1, 2)))


def test_figure1_pattern_is_valid_with_its_top_row():
    assert FIG1.top_row == (9, 6, 5, 3, 2)
    assert is_strict(FIG1)


def test_figure1_weight_and_support():
    assert FIG1.wgt == (1, -1, 1, 1, -3)
    assert FIG1.k_vec == (12, 21, 19, 13, 6)


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
    assert classify_entry(P, ("b", 1, 1)) == "minimal"
    assert classify_entry(P, ("b", 2, 2)) == "maximal"
    single = GTPattern(1, ((1,),), ((0,),))
    assert classify_entry(single, ("b", 1, 1)) == "maximal"
    Pg = GTPattern(1, ((2,),), ((1,),))
    assert classify_entry(Pg, ("b", 1, 1)) == "generic"


def test_pattern_data_bundles_everything():
    data = pattern_data(FIG1)
    assert data.wgt == FIG1.wgt and data.k == FIG1.k_vec
    assert all(v >= 0 for v in data.v.values())
    assert all(v >= 0 for v in data.u.values())
    assert sum(data.k) == sum(data.v.values()) + sum(data.u.values())
    assert data.entry_class[("b", 1, 1)] == "generic"
    assert data.entry_class[("b", 1, 2)] == "minimal"
    assert data.entry_class[("b", 2, 2)] == "maximal"


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
    assert weyl_from_stable(P) == WeylElement.identity(2)
    assert P.k_vec == (0, 0)


def test_all_maximal_pattern_is_long_element():
    w = WeylElement.long_element(2)
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
        data = pattern_data(P)
        assert "generic" not in data.entry_class.values()


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
    assert GTPattern.from_json(json.loads(blob)) == FIG1


def test_entry_positions_list_every_entry_in_pair_order():
    def reading_order(pos):
        kind, i, j = pos
        return (i, 0, j) if kind == "b" else (i, 1, -j)

    for r in range(1, 6):
        positions = entry_positions(r)
        assert len(set(positions)) == len(positions) == r * r
        assert set(positions) == (
            {("b", i, j) for i in range(1, r + 1) for j in range(i, r + 1)}
            | {("a", i, j) for i in range(1, r) for j in range(i + 1, r + 1)})
        assert list(positions) == sorted(positions, key=reading_order)
        assert positions == sum((pair_positions(r, i)
                                 for i in range(1, r + 1)), ())
    for pos in entry_positions(FIG1.rank):
        entry_bounds_flags(FIG1, pos)  # every position names a real entry
