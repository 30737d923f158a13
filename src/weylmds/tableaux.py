"""Symplectic standard shifted tableaux and their statistics.

A tableau of shifted shape mu (strictly decreasing row lengths) has row R
occupying columns R .. R + mu_R - 1, filled from the ordered alphabet
1' < 1 < 2' < 2 < ... < r' < r (primes rendered as a trailing underscore),
weakly increasing along rows and columns and strictly increasing along
northwest-southeast diagonals.  Standardness additionally requires the
diagonal entry of row R to be R' or R; fillings read off strict patterns
always satisfy every other condition.

The correspondence with strict patterns: the pattern entry a_{i-1,j} counts
the boxes in tableau row j-i+1 with letters <= r-i+1, and b_{i,j} counts
those with letters <= (r-i+1)'.
"""

from dataclasses import dataclass

from .patterns import GTPattern, enumerate_patterns, is_strict


def letter_key(value: int, barred: bool) -> int:
    """Position of a letter in the alphabet order; barred sorts first."""
    return 2 * value - (1 if barred else 0)


@dataclass(frozen=True)
class ShiftedTableau:
    """rows[R-1] is a tuple of (value, barred) letters for row R."""

    rank: int
    rows: tuple

    @property
    def mu(self) -> tuple:
        return tuple(len(row) for row in self.rows)

    def cells(self):
        """(row, col, letter) triples with 1-based shifted coordinates."""
        for R, row in enumerate(self.rows, start=1):
            for off, letter in enumerate(row):
                yield R, R + off, letter

    def validate(self) -> None:
        """Check the fill rules; standardness is is_standard."""
        mu = self.mu
        if len(mu) != self.rank:
            raise ValueError("tableau must have exactly r rows")
        if any(mu[k] <= mu[k + 1] for k in range(len(mu) - 1)) or mu[-1] < 1:
            raise ValueError("row lengths must strictly decrease")
        grid = {(R, c): letter for R, c, letter in self.cells()}
        for (R, c), (val, bar) in grid.items():
            if not 1 <= val <= self.rank:
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

    def is_standard(self) -> bool:
        """Row R starts with R' or R."""
        return all(letter_key(*row[0]) <= letter_key(R, False)
                   for R, row in enumerate(self.rows, start=1))

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "shape": list(self.mu),
                "rows": [[render_letter(x) for x in row]
                         for row in self.rows]}

    @staticmethod
    def from_json(obj) -> "ShiftedTableau":
        rows = tuple(tuple(parse_letter(s) for s in row)
                     for row in obj["rows"])
        return ShiftedTableau(int(obj["rank"]), rows)

    def render_text(self) -> str:
        lines = []
        for R, row in enumerate(self.rows, start=1):
            pad = "   " * (R - 1)
            lines.append(pad + " ".join(f"{render_letter(x):<2s}"
                                        for x in row).rstrip())
        return "\n".join(lines)


def render_letter(letter) -> str:
    value, barred = letter
    return f"{value}_" if barred else str(value)


def parse_letter(s: str):
    if s.endswith("_"):
        return int(s[:-1]), True
    return int(s), False


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
            row += [(val, True)] * (barred - len(row))
            row += [(val, False)] * (upto - barred)
        rows.append(tuple(row))
    return ShiftedTableau(r, tuple(rows))


def standard_tableaux(top_row):
    """The standard tableaux of shape top_row, read off the strict patterns
    in canonical order."""
    for P in enumerate_patterns(top_row, strict=True):
        S = tableau_from_pattern(P)
        if S.is_standard():
            yield S


def pattern_from_tableau(S: ShiftedTableau) -> GTPattern:
    """Read the counting rules backwards; inverse of tableau_from_pattern."""
    S.validate()
    r = S.rank

    def count(R, key):
        if not 1 <= R <= r:
            return 0
        return sum(1 for x in S.rows[R - 1] if letter_key(*x) <= key)

    a_rows = [tuple(len(row) for row in S.rows)]
    for i in range(1, r):
        a_rows.append(tuple(count(j - i, letter_key(r - i, False))
                            for j in range(i + 1, r + 1)))
    b_rows = [tuple(count(j - i + 1, letter_key(r - i + 1, True))
                    for j in range(i, r + 1))
              for i in range(1, r + 1)]
    P = GTPattern(r, tuple(a_rows), tuple(b_rows))
    if not is_strict(P):
        raise ValueError("tableau does not encode a strict pattern")
    return P


@dataclass(frozen=True)
class TableauStats:
    """The statistics of a tableau that the n = 1 identities read."""

    wgt: tuple       # (#k - #k') for k = 1..r
    str_total: int   # components over all 2r letters
    barred: int
    height: int      # sum over k of rows(k) - components(k) - rows(k')


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


def tableau_stats(S: ShiftedTableau) -> TableauStats:
    by_letter = {}
    for R, c, letter in S.cells():
        by_letter.setdefault(letter, []).append((R, c))
    wgt = [0] * S.rank
    str_total = barred = height = 0
    for (val, bar), cells in by_letter.items():
        comps = _components(cells)
        rows = len({R for R, _ in cells})
        str_total += comps
        if bar:
            wgt[val - 1] -= len(cells)
            barred += len(cells)
            height -= rows
        else:
            wgt[val - 1] += len(cells)
            height += rows - comps
    return TableauStats(tuple(wgt), str_total, barred, height)


def verify_tableau_stats(P: GTPattern) -> bool:
    """Entry-classification counts against the statistics of P's tableau:
    #generic = str - r and #maximal = height + r(r+1)/2; the tableau must
    also read back to P."""
    S = tableau_from_pattern(P)
    stats = tableau_stats(S)
    tags = [e.tag for e in P.records()]
    gen, mx = tags.count("generic"), tags.count("maximal")
    r = P.rank
    return (gen == stats.str_total - r
            and mx == stats.height + r * (r + 1) // 2
            and stats.wgt == P.wgt
            and pattern_from_tableau(S) == P)
