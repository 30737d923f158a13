import json
from itertools import combinations

import pytest

from weylmds.patterns import GTPattern, enumerate_patterns, is_strict
from weylmds.tableaux import (ShiftedTableau, pattern_from_tableau,
                              tableau_from_pattern, tableau_stats,
                              verify_tableau_stats)

from test_patterns import FIG1, a_entry, b_entry


def tableau_from_pattern_long(P):
    """Oracle: box by box, the first letter whose cumulative count in the
    row reaches the box, over the whole alphabet 1' < 1 < ... < r."""
    if not is_strict(P):
        raise ValueError("only strict patterns correspond to tableaux")
    r = P.rank
    rows = []
    for R in range(1, r + 1):
        cum = []
        for val in range(1, r + 1):
            i = r - val + 1          # pattern pair index for this letter
            j = R + i - 1            # pattern column hitting row R
            cum.append(b_entry(P, i, j, 0))      # <= val'
            cum.append(a_entry(P, i - 1, j, 0))  # <= val
        row = []
        for box in range(1, P.a[0][R - 1] + 1):
            pos = next(idx for idx, c in enumerate(cum) if c >= box)
            value, barred = divmod(pos, 2)
            row.append((value + 1, barred == 0))
        rows.append(tuple(row))
    S = ShiftedTableau(r, tuple(rows))
    S.validate()
    return S


FIG1_ROWS = [["1_", "1", "1", "2", "3", "4", "4", "5", "5"],
             ["2_", "2_", "3", "4_", "4", "5_"],
             ["3_", "4_", "4_", "4", "5_"],
             ["4_", "4", "5_"],
             ["5_", "5_"]]


def test_figure1_tableau_exact():
    S = tableau_from_pattern(FIG1)
    assert S.to_json() == {"rank": 5, "shape": [9, 6, 5, 3, 2],
                           "rows": FIG1_ROWS}


def test_figure1_roundtrip_and_stats():
    S = tableau_from_pattern(FIG1)
    assert pattern_from_tableau(S) == FIG1
    st = tableau_stats(S)
    assert st.wgt == (1, -1, 1, 1, -3)
    assert st.barred == 13


def test_rank1_single_boxes():
    up = GTPattern(1, ((1,),), ((1,),))
    S = tableau_from_pattern(up)
    assert S.rows == (((1, True),),)
    down = GTPattern(1, ((1,),), ((0,),))
    S2 = tableau_from_pattern(down)
    assert S2.rows == (((1, False),),)
    st = tableau_stats(S2)
    assert (st.str_total, st.barred, st.height) == (1, 0, 0)


def test_fill_matches_per_box_oracle():
    # every strict pattern of every top row with entries <= 5, ranks 1-3;
    # a top row ending in 0 leaves row r empty, and both fills refuse it
    checked = 0
    for r in range(1, 4):
        for top in combinations(range(5, -1, -1), r):
            for P in filter(is_strict, enumerate_patterns(top)):
                if top[-1] == 0:
                    with pytest.raises(ValueError):
                        tableau_from_pattern(P)
                    with pytest.raises(ValueError):
                        tableau_from_pattern_long(P)
                    continue
                assert tableau_from_pattern(P) == tableau_from_pattern_long(P)
                checked += 1
    assert checked == 33955


def test_tableau_rejects_nonstrict_pattern():
    P = GTPattern(2, ((2, 1), (1,)), ((1, 1), (1,)))
    with pytest.raises(ValueError):
        tableau_from_pattern(P)


def test_all_minimal_statistics():
    P = GTPattern(2, ((2, 1), (1,)), ((2, 1), (1,)))
    st = tableau_stats(tableau_from_pattern(P))
    assert st.str_total == 2  # str = r, so no generic entries
    assert verify_tableau_stats(P)


def test_statistics_identities_exhaustive_small():
    for top in [(2, 1), (3, 1), (3, 2, 1)]:
        for P in enumerate_patterns(top):
            if not is_strict(P):
                continue
            assert verify_tableau_stats(P)
            S = tableau_from_pattern(P)
            assert pattern_from_tableau(S) == P


def test_stats_bounds():
    r = 3
    for P in enumerate_patterns((3, 2, 1)):
        if not is_strict(P):
            continue
        st = tableau_stats(tableau_from_pattern(P))
        assert st.str_total - r >= 0
        assert 0 <= st.height + r * (r + 1) // 2 <= r * r


def test_standardness_excludes_degenerate_patterns():
    # a_{1,2} = b_{2,2} = 0 forces the second diagonal entry above 2
    P = GTPattern(2, ((2, 1), (0,)), ((1, 0), (0,)))
    S = tableau_from_pattern(P)
    assert not S.is_standard()
    ok = GTPattern(2, ((2, 1), (2,)), ((2, 0), (1,)))
    assert tableau_from_pattern(ok).is_standard()


def test_validation_catches_bad_fillings():
    bad = ShiftedTableau(2, (((2, True), (2, False)), ((2, False),)))
    bad.validate()  # fill rules hold
    assert not bad.is_standard()  # row 1 must start with 1' or 1
    unordered = ShiftedTableau(2, (((1, False), (1, True)), ((2, False),)))
    with pytest.raises(ValueError):
        unordered.validate()
    with pytest.raises(ValueError):
        pattern_from_tableau(unordered)


def test_text_rendering():
    S = tableau_from_pattern(FIG1)
    lines = S.render_text().splitlines()
    assert lines[0].startswith("1_ 1  1  2")
    assert lines[4].strip().startswith("5_")


def test_json_roundtrip():
    S = tableau_from_pattern(FIG1)
    blob = json.dumps(S.to_json())
    assert ShiftedTableau.from_json(json.loads(blob)) == S
