import json
from bisect import bisect_right
from itertools import combinations, repeat

import pytest

from hypothesis import given, settings, strategies as st

from weylmds import patterns, tableaux
from weylmds.patterns import (EntryRecord, GTPattern, enumerate_patterns,
                              interleave_bounds, is_degenerate, is_strict,
                              pair_entries, pair_sums, pair_weight)
from weylmds.roots import LambdaTwist
from weylmds.patterns import _decreasing
from weylmds.tableaux import (ShiftedTableau, TableauStats, _lemma4_pair,
                              pair_tableau_stats, tableau_from_pattern,
                              tableau_stats, verify_tableau_stats)

from stable_lemmas import records
from test_patterns import FIG1, a_entry, b_entry, classes_long


def letter_key(value: int, barred: bool) -> int:
    """Position of a letter in the alphabet order; barred sorts first.
    The key is 2v - 1 for v' and 2v for v, so it is odd exactly when the
    letter is barred."""
    return 2 * value - (1 if barred else 0)


def validate(S: ShiftedTableau) -> None:
    """Check the fill rules box by box in reading order, and name the
    first one broken."""
    mu = S.mu
    if len(mu) != S.rank:
        raise ValueError("tableau must have exactly r rows")
    if not _decreasing(mu) or mu[-1] < 1:
        raise ValueError("row lengths must strictly decrease")
    rows, top = S.rows, 2 * S.rank
    for k, below in zip(rows, rows[1:] + ((),)):
        # 1 <= key <= 2r exactly when 1 <= value <= r; row R + 1 starts
        # one column right of row R, so below[j - 1] lies under k[j] and
        # below[j] follows it on its diagonal
        for j, x in enumerate(k):
            if not 1 <= x <= top:
                raise ValueError("letter value out of range")
            if j + 1 < len(k) and k[j + 1] < x:
                raise ValueError("rows must weakly increase")
            if 0 < j <= len(below) and below[j - 1] < x:
                raise ValueError("columns must weakly increase")
            if j < len(below) and below[j] <= x:
                raise ValueError("diagonals must strictly increase")


def parse_letter(s: str) -> int:
    """Inverse of render_letter: "v_" is v', "v" is v."""
    if s.endswith("_"):
        return letter_key(int(s[:-1]), True)
    return letter_key(int(s), False)


def tableau_from_json(obj) -> ShiftedTableau:
    """Inverse of ShiftedTableau.to_json."""
    rows = tuple(tuple(parse_letter(s) for s in row) for row in obj["rows"])
    return ShiftedTableau(int(obj["rank"]), rows)


def is_standard(S: ShiftedTableau) -> bool:
    """Row R starts with R' or R."""
    return all(row[0] <= 2 * R for R, row in enumerate(S.rows, start=1))


def _pattern_rows(S: ShiftedTableau) -> tuple:
    """The rows (a, b) the counting rules read off a tableau that obeys the
    fill rules: a_0 is the shape, a_{i,j} counts the letters <= r-i of row
    j-i and b_{i,j} the letters <= (r-i+1)' of row j-i+1."""
    r, rows = S.rank, S.rows
    a = (S.mu,) + tuple(tuple(map(bisect_right, rows[:r - i],
                                  repeat(letter_key(r - i, False))))
                        for i in range(1, r))
    b = tuple(tuple(map(bisect_right, rows[:r - i + 1],
                        repeat(letter_key(r - i + 1, True))))
              for i in range(1, r + 1))
    return a, b


def pattern_from_tableau(S: ShiftedTableau) -> GTPattern:
    """Read the counting rules backwards; inverse of tableau_from_pattern."""
    validate(S)
    P = GTPattern(S.rank, *_pattern_rows(S))
    if not is_strict(P):
        raise ValueError("tableau does not encode a strict pattern")
    return P


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
    S = ShiftedTableau(r, keyed(rows))
    validate(S)
    return S


def keyed(rows):
    """Rows of (value, barred) letters as the key rows of a ShiftedTableau."""
    return tuple(tuple(letter_key(*x) for x in row) for row in rows)


def letter_of(key):
    """The (value, barred) letter of a letter key."""
    return (key + 1) // 2, key % 2 == 1


def cells(S):
    """(row, col, letter) triples with 1-based shifted coordinates."""
    for R, row in enumerate(S.rows, start=1):
        for off, key in enumerate(row):
            yield R, R + off, letter_of(key)


def validate_long(S):
    """Oracle: the fill rules checked box by box on a grid of every cell,
    in reading order."""
    mu = S.mu
    if len(mu) != S.rank:
        raise ValueError("tableau must have exactly r rows")
    if any(mu[k] <= mu[k + 1] for k in range(len(mu) - 1)) or mu[-1] < 1:
        raise ValueError("row lengths must strictly decrease")
    grid = {(R, c): letter for R, c, letter in cells(S)}
    for (R, c), (val, bar) in grid.items():
        if not 1 <= val <= S.rank:
            raise ValueError("letter value out of range")
        k = letter_key(val, bar)
        right = grid.get((R, c + 1))
        if right is not None and letter_key(*right) < k:
            raise ValueError("rows must weakly increase")
        below = grid.get((R + 1, c))
        if below is not None and letter_key(*below) < k:
            raise ValueError("columns must weakly increase")
        diag = grid.get((R + 1, c + 1))
        if diag is not None and letter_key(*diag) <= k:
            raise ValueError("diagonals must strictly increase")


def _components(cells) -> int:
    cells = set(cells)
    comps = 0
    while cells:
        comps += 1
        stack = [cells.pop()]
        while stack:
            R, c = stack.pop()
            for nb in ((R + 1, c), (R - 1, c), (R, c + 1), (R, c - 1)):
                if nb in cells:
                    cells.remove(nb)
                    stack.append(nb)
    return comps


def tableau_stats_long(S):
    """Oracle: each letter's components by a flood fill over its cells."""
    by_letter = {}
    for R, c, letter in cells(S):
        by_letter.setdefault(letter, []).append((R, c))
    wgt = [0] * S.rank
    str_total = barred = height = 0
    for (val, bar), cells_of in by_letter.items():
        comps = _components(cells_of)
        rows = len({R for R, _ in cells_of})
        str_total += comps
        if bar:
            wgt[val - 1] -= len(cells_of)
            barred += len(cells_of)
            height -= rows
        else:
            wgt[val - 1] += len(cells_of)
            height += rows - comps
    return TableauStats(tuple(wgt), str_total, barred, height)


def summed_pair_stats(P):
    """The TableauStats summed from pair_tableau_stats over P's row pairs."""
    r = P.rank
    wgt, str_total, barred, height = [0] * r, 0, 0, 0
    for i in range(1, r + 1):
        w, s, n, h = pair_tableau_stats(r, i, P.a[i - 1], P.b[i - 1],
                                        P.a[i] if i < r else ())
        wgt[r - i] = w
        str_total, barred, height = str_total + s, barred + n, height + h
    return TableauStats(tuple(wgt), str_total, barred, height)


def verify_tableau_stats_long(P: GTPattern) -> bool:
    """Oracle, lemma 4 on one strict pattern: entry-classification counts
    against the statistics of P's tableau, #generic = str - r,
    #maximal = height + r(r+1)/2 and equal wgt.  The tableau must also obey
    the fill rules and read back to the rows of P; P is a valid strict
    pattern, so equal rows are P."""
    S = tableau_from_pattern(P)
    try:
        validate(S)
    except ValueError:
        return False
    stats = tableau_stats(S)
    mx, gen, _ = classes_long(records(P))
    r = P.rank
    return (gen == stats.str_total - r
            and mx == stats.height + r * (r + 1) // 2
            and stats.wgt == P.wgt
            and _pattern_rows(S) == (P.a, P.b))


def twist_of(top) -> LambdaTwist:
    """The twist whose lambda+rho is the strictly decreasing positive
    `top`."""
    L = top[::-1]
    return LambdaTwist(tuple(b - a - 1 for a, b in zip((0, *L), L)))


def fault(check, S):
    """The text of the ValueError check(S) raises, or None."""
    try:
        check(S)
    except ValueError as exc:
        return str(exc)
    return None


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
    assert S.rows == ((1,),)
    down = GTPattern(1, ((1,),), ((0,),))
    S2 = tableau_from_pattern(down)
    assert S2.rows == ((2,),)
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
                # the per-pair statistics sum to the per-tableau ones,
                # degenerate patterns included
                assert summed_pair_stats(P) == \
                    tableau_stats(tableau_from_pattern(P))
                # standard_tableaux keeps the patterns whose a-rows all end
                # positive, those with no degenerate entry
                assert all(row[-1] for row in P.a) == \
                    is_standard(tableau_from_pattern(P))
                checked += 1
    assert checked == 33955


def test_tableau_rejects_nonstrict_pattern():
    P = GTPattern(2, ((2, 1), (1,)), ((1, 1), (1,)))
    with pytest.raises(ValueError):
        tableau_from_pattern(P)


def test_strictness_check_refuses_a_fill_that_obeys_the_fill_rules():
    # b_2 = (0, 0) is not strict, yet the pattern's fill obeys every fill
    # rule and fails only standardness, so validate() cannot stand in for
    # tableau_from_pattern's strictness check
    P = GTPattern(3, ((4, 3, 2), (4, 0), (0,)), ((4, 3, 0), (0, 0), (0,)))
    with pytest.raises(ValueError):
        tableau_from_pattern(P)
    S = ShiftedTableau(3, ((4, 4, 4, 4), (5, 5, 5), (6, 6)))
    validate(S)
    assert not is_standard(S)
    assert _pattern_rows(S) == (P.a, P.b)


def test_all_minimal_statistics():
    P = GTPattern(2, ((2, 1), (1,)), ((2, 1), (1,)))
    st = tableau_stats(tableau_from_pattern(P))
    assert st.str_total == 2  # str = r, so no generic entries
    assert verify_tableau_stats_long(P)


def test_statistics_identities_exhaustive_small():
    for top in [(2, 1), (3, 1), (3, 2, 1)]:
        for P in enumerate_patterns(top):
            if not is_strict(P):
                continue
            assert verify_tableau_stats_long(P)
            S = tableau_from_pattern(P)
            assert pattern_from_tableau(S) == P


def _never_joined(run_stats):
    """A mutant run rule: an empty row between any two tableau rows, so no
    letter's run joins the run above it."""
    return lambda r, rows: run_stats(r, (runs for row in rows
                                         for runs in (row, {})))


def _slack_one_maximal(tag):
    """A mutant entry class: an entry at slack 1 reads maximal."""
    return property(lambda e: "maximal" if e.slack == 1 else tag.fget(e))


def _pair_r_heavier(weight):
    """A mutant pair weight: two more (so k stays in the root lattice) at
    row pair r, whose a-row above has one entry."""
    return lambda above, *rows: weight(above, *rows) + 2 * (len(above) == 1)


# each mutant changes a piece that both the fold and the per-pattern oracle
# read: the run rule of both statistic readers, the entry class of both
# entry counts, and the pair weight of GTPattern.wgt and of _lemma4_pair
LEMMA4_MUTANTS = [
    [(tableaux, "_run_stats", _never_joined)],
    [(EntryRecord, "tag", _slack_one_maximal)],
    [(patterns, "pair_weight", _pair_r_heavier),
     (tableaux, "pair_weight", _pair_r_heavier)],
]


def assert_fold_matches_oracle(twist):
    """verify_tableau_stats finds no failing triple, and every strict
    pattern passes the per-pattern oracle."""
    assert verify_tableau_stats(twist) == (True, []), twist
    assert all(map(verify_tableau_stats_long,
                   enumerate_patterns(twist.top_row, strict=True))), twist


def test_lemma4_fold_agrees_with_the_per_pattern_check():
    # every top row of positive entries <= 5 at ranks 1-3 (criterion 6's
    # grid), then rank 4 at l = 0; degenerate patterns are included
    for r in range(1, 4):
        for top in combinations(range(5, 0, -1), r):
            assert_fold_matches_oracle(twist_of(top))
    assert_fold_matches_oracle(LambdaTwist((0, 0, 0, 0)))


@pytest.mark.parametrize("mutant", LEMMA4_MUTANTS,
                         ids=lambda m: m[0][1].strip("_"))
def test_lemma4_fold_reports_a_triple_of_each_pattern_the_oracle_fails(
        monkeypatch, mutant):
    # every top row of positive entries <= 4 at ranks 1-3
    for owner, name, make in mutant:
        monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    failed = 0
    for r in range(1, 4):
        for top in combinations(range(4, 0, -1), r):
            ok, bad = verify_tableau_stats(twist_of(top))
            failing = {(i, rows) for i, rows, _ in bad}
            for P in enumerate_patterns(top, strict=True):
                if not verify_tableau_stats_long(P):
                    failed += 1
                    assert not ok and failing & set(
                        enumerate(P.row_pairs(), 1)), P.to_json()
    assert failed


# l_1 + ... + l_r <= 6, 3, 2, 0 at rank 1, 2, 3, 4
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_lemma4_fold_agrees_with_the_per_pattern_check_on_random_twists(data):
    r = data.draw(st.integers(1, 4), label="rank")
    most = (6, 3, 2, 0)[r - 1]
    l = data.draw(st.lists(st.integers(0, most), min_size=r, max_size=r)
                  .filter(lambda l: sum(l) <= most), label="l")
    assert_fold_matches_oracle(LambdaTwist(tuple(l)))


def test_lemma4_fold_at_rank_5(monkeypatch):
    # 3,516,240 strict patterns through 2,054 distinct row triples, each
    # checked once; the command refuses this twist, as (5,4,3,2,1) has more
    # than 10^7 patterns
    twist = LambdaTwist((0,) * 5)
    assert pair_sums(twist.top_row, lambda *_: ((), 1), strict=True) == {
        (): 3516240}
    seen, pair = [], tableaux._lemma4_pair
    monkeypatch.setattr(tableaux, "_lemma4_pair", lambda r, i, *rows: (
        seen.append((i, rows)) or pair(r, i, *rows)))
    assert verify_tableau_stats(twist) == (True, [])
    assert len(seen) == len(set(seen)) == 2054


@st.composite
def row_triples(draw, strict):
    """(r, i, a_{i-1}, b_i, a_i) of a row pair of rank 1-8 with entries at
    most 13, each entry drawn within interleave_bounds from the right; with
    `strict`, every row strictly decreases."""
    r = draw(st.integers(1, 8), label="rank")
    i = draw(st.integers(1, r), label="pair")

    def row_below(over, pad):
        row = []  # right to left
        for hi, lo in reversed(interleave_bounds(over, pad)):
            lo = max(lo, row[-1] + 1) if strict and row else lo
            row.append(draw(st.integers(lo, hi)))
        return tuple(row[::-1])

    above = tuple(sorted(draw(st.lists(
        st.integers(0, 13), min_size=r - i + 1, max_size=r - i + 1,
        unique=strict)), reverse=True))
    b = row_below(above, (0,))
    return r, i, above, b, row_below(b, ())


@settings(max_examples=400, deadline=None)
@given(row_triples(strict=True))
def test_lemma4_and_the_bridge_hold_on_random_strict_triples(triple):
    # ranks where no walk of patterns runs; the bridge is checked by hand,
    # and str_i >= 1 on each pair of a standard tableau, so that each pair
    # factor (1 + t)^{str_i - 1} of chars.tableau_side is a polynomial
    r, i, above, b, below = triple
    assert _lemma4_pair(*triple) == (0, 0, 0)
    w, str_total, barred, _ = pair_tableau_stats(*triple)
    assert w + 2 * barred == sum(above) - sum(below)
    if not is_degenerate(above):
        assert str_total >= 1


def G_row(row) -> int:
    """sum_p (2|row| - 2p - 1) row_p, p counted from 0."""
    return sum((2 * len(row) - 2 * p - 1) * x for p, x in enumerate(row))


@settings(max_examples=400, deadline=None)
@given(st.booleans().flatmap(row_triples))
def test_lemma3_holds_on_each_random_triple(triple):
    # lemma 3 pair by pair, strict or not: an identity of linear forms in
    # the entries, which pins pair_entries' exponents; summed over the
    # pairs it is lemma 3, as G(top) = sum_j (2j - 1) L_j
    r, i, above, b, below = triple
    exps = sum(e.exp for e in pair_entries(*triple))
    assert (2 * exps - (2 * r + 1 - 2 * i) * pair_weight(above, b, below)
            == G_row(above) - G_row(below))


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
    assert not is_standard(S)
    ok = GTPattern(2, ((2, 1), (2,)), ((2, 0), (1,)))
    assert is_standard(tableau_from_pattern(ok))


def test_validation_catches_bad_fillings():
    bad = ShiftedTableau(2, keyed((((2, True), (2, False)), ((2, False),))))
    validate(bad)  # fill rules hold
    assert not is_standard(bad)  # row 1 must start with 1' or 1
    unordered = ShiftedTableau(2, keyed((((1, False), (1, True)),
                                         ((2, False),))))
    with pytest.raises(ValueError):
        validate(unordered)
    with pytest.raises(ValueError):
        pattern_from_tableau(unordered)
    # each rule alone, and the first box in reading order names the rule
    one, two = (1, False), (2, False)
    cases = {
        ((one, one), (one,)): "diagonals must strictly increase",
        (((1, True), two), (one,)): "columns must weakly increase",
        ((two, one), (two,)): "rows must weakly increase",
        ((one, (3, False)), (two,)): "letter value out of range",
        ((one, two, two), ((2, True), two)): "columns must weakly increase",
        ((one, (1, True)), ((0, False),)): "rows must weakly increase",
    }
    for rows, text in cases.items():
        S = ShiftedTableau(2, keyed(rows))
        assert fault(validate, S) == text
        assert fault(validate_long, S) == text


def positive_strict_patterns():
    """Every strict pattern of every top row with positive entries, at most
    5 at ranks 1-3 and at most 4 at rank 4."""
    for r, most in ((1, 5), (2, 5), (3, 5), (4, 4)):
        for top in combinations(range(most, 0, -1), r):
            yield from enumerate_patterns(top, strict=True)


def test_runs_and_row_keys_match_the_cell_oracles_exhaustively():
    checked = 0
    for P in positive_strict_patterns():
        S = tableau_from_pattern(P)
        validate(S)
        validate_long(S)
        assert tableau_stats(S) == tableau_stats_long(S)
        checked += 1
    assert checked == 52974


SMALL_TABLEAUX = [tableau_from_pattern(P)
                  for top in [(3,), (3, 1), (4, 2), (3, 2, 1), (4, 2, 1)]
                  for P in enumerate_patterns(top, strict=True)]


@st.composite
def fillings(draw):
    """A filling of a shifted shape, valid or not: a tableau of a strict
    pattern with at most one box changed, or letters drawn at random into
    rows of random lengths, each row sorted or not."""
    if draw(st.booleans()):
        S = draw(st.sampled_from(SMALL_TABLEAUX))
        rows = [list(row) for row in S.rows]
        if draw(st.booleans()):
            R = draw(st.integers(0, S.rank - 1))
            j = draw(st.integers(0, len(rows[R]) - 1))
            rows[R][j] = letter_key(draw(st.integers(0, S.rank + 1)),
                                    draw(st.booleans()))
        return ShiftedTableau(S.rank, tuple(map(tuple, rows)))
    rank = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(0, 6), min_size=rank - 1,
                            max_size=rank + 1))
    letter = st.tuples(st.integers(0, rank + 1), st.booleans())
    rows = []
    for m in lengths:
        row = draw(st.lists(letter, min_size=m, max_size=m))
        if draw(st.booleans()):
            row.sort(key=lambda x: letter_key(*x))
        rows.append(tuple(row))
    return ShiftedTableau(rank, keyed(rows))


@settings(max_examples=400, deadline=None)
@given(fillings())
def test_validation_and_runs_match_the_cell_oracles_on_random_fillings(S):
    text = fault(validate_long, S)
    assert fault(validate, S) == text
    if text is None:
        assert tableau_stats(S) == tableau_stats_long(S)


def test_text_rendering():
    S = tableau_from_pattern(FIG1)
    lines = S.render_text().splitlines()
    assert lines[0].startswith("1_ 1  1  2")
    assert lines[4].strip().startswith("5_")


def test_json_roundtrip():
    S = tableau_from_pattern(FIG1)
    blob = json.dumps(S.to_json())
    assert tableau_from_json(json.loads(blob)) == S
