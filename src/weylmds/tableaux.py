"""Symplectic standard shifted tableaux and their statistics.

A tableau of shifted shape mu (strictly decreasing row lengths) has row R
occupying columns R .. R + mu_R - 1, filled from the ordered alphabet
1' < 1 < 2' < 2 < ... < r' < r (primes rendered as a trailing underscore),
weakly increasing along rows and columns and strictly increasing along
northwest-southeast diagonals.  Standardness additionally requires the
diagonal entry of row R to be R' or R; fillings read off strict patterns
always satisfy every other condition.  Each box holds the position of its
letter in that order (letter_key); the letters themselves appear only in
the JSON and text forms (render_letter).  The readers of those forms, the
standardness predicate, the inverse bijection pattern_from_tableau and
lemma 4 checked one tableau at a time are test oracles in
tests/test_tableaux.py; verify_tableau_stats checks it row pair by row pair.

The correspondence with strict patterns: the pattern entry a_{i-1,j} counts
the boxes in tableau row j-i+1 with letters <= r-i+1, and b_{i,j} counts
those with letters <= (r-i+1)'.
"""

from bisect import bisect_left, bisect_right

from .patterns import (GTPattern, _decreasing, enumerate_patterns,
                       is_degenerate, is_strict, pair_classes, pair_sums,
                       pair_weight)
from .record import Record
from .roots import LambdaTwist


def letter_key(value: int, barred: bool) -> int:
    """Position of a letter in the alphabet order; barred sorts first.
    The key is 2v - 1 for v' and 2v for v, so it is odd exactly when the
    letter is barred."""
    return 2 * value - (1 if barred else 0)


class ShiftedTableau(Record):
    """rows[R-1] is the tuple of letter keys of row R."""

    rank: int
    rows: tuple

    @property
    def mu(self) -> tuple:
        return tuple(len(row) for row in self.rows)

    def validate(self) -> None:
        """Check the fill rules box by box in reading order, and name the
        first one broken."""
        mu = self.mu
        if len(mu) != self.rank:
            raise ValueError("tableau must have exactly r rows")
        if not _decreasing(mu) or mu[-1] < 1:
            raise ValueError("row lengths must strictly decrease")
        rows, top = self.rows, 2 * self.rank
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

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "shape": list(self.mu),
                "rows": [[render_letter(x) for x in row]
                         for row in self.rows]}

    def render_text(self) -> str:
        lines = []
        for R, row in enumerate(self.rows, start=1):
            pad = "   " * (R - 1)
            lines.append(pad + " ".join(f"{render_letter(x):<2s}"
                                        for x in row).rstrip())
        return "\n".join(lines)


def render_letter(key: int) -> str:
    value = (key + 1) // 2
    return f"{value}_" if key % 2 else str(value)


def tableau_from_pattern(P: GTPattern) -> ShiftedTableau:
    """Fill the shifted diagram so the counting rules reproduce P.  Row R
    holds no letter below R; for val >= R its letters <= val' number
    P.b[r - val][R - 1] and its letters <= val number P.a[r - val][R - 1],
    so each letter fills one run.  The fill of a strict pattern with a
    positive top row obeys the fill rules, so it is not validated here."""
    if not is_strict(P) or not P.a[0][-1]:
        raise ValueError("only strict patterns with a positive top row "
                         "correspond to tableaux")
    r = P.rank
    rows = []
    for R in range(1, r + 1):
        row = []
        for val in range(R, r + 1):
            barred, upto = P.b[r - val][R - 1], P.a[r - val][R - 1]
            row += [2 * val - 1] * (barred - len(row))
            row += [2 * val] * (upto - barred)
        rows.append(tuple(row))
    return ShiftedTableau._unchecked(r, tuple(rows))


def standard_tableaux(top_row):
    """The standard tableaux of shape top_row, read off the strict patterns
    in canonical order: those whose a-rows all end positive, so that no
    pair has a degenerate entry (is_degenerate, coeffs.gamma_b)."""
    return (tableau_from_pattern(P)
            for P in enumerate_patterns(top_row, strict=True)
            if not any(map(is_degenerate, P.a)))


class TableauStats(Record):
    """The statistics of a tableau that the n = 1 identities read."""

    wgt: tuple       # (#k - #k') for k = 1..r
    str_total: int   # components over all 2r letters
    barred: int
    height: int      # sum over k of rows(k) - components(k) - rows(k')


def _run_stats(r: int, rows) -> tuple:
    """(wgt, str, barred, height) of the letters in `rows`, one dict
    {letter key: (first column, end column)} of letter runs per tableau
    row, top to bottom; wgt is a list over the values 1..r.  As rows weakly
    increase, a letter fills one run of each row it is in.  Its runs in
    rows R and R + 1 join one component exactly when their columns
    overlap; as diagonals strictly increase they overlap in at most one
    column, so a letter's components are its runs minus those joins, and
    rows(k) - components(k) is the joins of k."""
    wgt = [0] * r
    str_total = barred = height = 0
    above = {}
    for runs in rows:
        for x, (lo, hi) in runs.items():
            up = above.get(x)
            joined = up is not None and up[0] < hi and lo < up[1]
            str_total += not joined
            if x % 2:  # barred
                wgt[x // 2] -= hi - lo
                barred += hi - lo
                height -= 1
            else:
                wgt[x // 2 - 1] += hi - lo
                height += joined
        above = runs
    return wgt, str_total, barred, height


def tableau_stats(S: ShiftedTableau) -> TableauStats:
    """The statistics of a tableau that obeys the fill rules, read off the
    runs of its rows (_run_stats)."""
    wgt, str_total, barred, height = _run_stats(S.rank, (
        {x: (R + bisect_left(row, x), R + bisect_right(row, x))
         for x in set(row)} for R, row in enumerate(S.rows)))
    return TableauStats._unchecked(tuple(wgt), str_total, barred, height)


def pair_tableau_stats(r: int, i: int, above, b, below) -> tuple:
    """(wgt slot, components, barred, height) of the letters v' and v,
    v = r - i + 1, in the tableau of a strict pattern with row pair i =
    (`above`, b, `below`); summed over the pairs, they are tableau_stats.
    By the counting rules row m + 1 holds v' in the boxes below[m] ..
    b[m] - 1 and v in b[m] .. above[m] - 1 (row v holds no smaller letter),
    and their runs join as in _run_stats."""
    v = r - i + 1
    rows = ({x: (R + start, R + end)
             for x, start, end in ((2 * v - 1, before, upto_bar),
                                   (2 * v, upto_bar, upto_v))
             if start < end}
            for R, (upto_v, upto_bar, before) in enumerate(zip(above, b,
                                                               (*below, 0))))
    wgt, str_total, barred, height = _run_stats(r, rows)
    return wgt[v - 1], str_total, barred, height


def _lemma4_pair(r, i, above, b, below) -> tuple:
    """Lemma 4 on row pair i as three residuals, all zero: the weight slot
    less pair_weight, #maximal - height - (r - i + 1) and #generic - str +
    1 - z(a_{i-1}) + z(a_i), z(row) = is_degenerate(row), z(()) = 0."""
    maximal, generic = pair_classes(r, i, above, b, below)
    w, str_total, _, height = pair_tableau_stats(r, i, above, b, below)
    z = is_degenerate(above) - (below != () and is_degenerate(below))
    return (w - pair_weight(above, b, below), maximal - height - (r - i + 1),
            generic - str_total + 1 - z)


def verify_tableau_stats(twist: LambdaTwist) -> tuple:
    """Lemma 4 on each row triple of the strict patterns of GT(lambda+rho),
    met once by the pair_sums walk: (ok, sorted (i, rows, residuals) where
    _lemma4_pair is not zero).  No tableau is built (tests/test_tableaux.py
    checks the fill rules and read-back)."""
    bad = []

    def weigh(r, i, *rows):
        residuals = _lemma4_pair(r, i, *rows)
        if any(residuals):
            bad.append((i, rows, residuals))
        return (), 1

    pair_sums(twist.top_row, weigh, strict=True)
    return not bad, sorted(bad)
