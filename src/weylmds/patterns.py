"""Symplectic Gelfand-Tsetlin patterns with a fixed top row.

A pattern of rank r consists of 2r interleaving rows

    a_0 = (a_{0,1} .. a_{0,r})
    b_1 = (b_{1,1} .. b_{1,r})
    a_1 = (a_{1,2} .. a_{1,r})
    ...
    a_{r-1} = (a_{r-1,r})
    b_r = (b_{r,r})

of nonnegative integers, where consecutive rows interleave:

    a_{i-1,j} >= b_{i,j} >= a_{i-1,j+1}   and   b_{i,j-1} >= a_{i,j} >= b_{i,j}

(absent entries impose no constraint, except that an absent right neighbour
of a b-row acts as the lower bound 0).
"""

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product

from .roots import LambdaTwist, WeylElement


@dataclass(frozen=True)
class GTPattern:
    """Immutable pattern; `a` holds rows a_0..a_{r-1}, `b` holds b_1..b_r."""

    rank: int
    a: tuple
    b: tuple

    def __post_init__(self):
        validate_pattern(self)

    @classmethod
    def _unchecked(cls, rank, a, b):
        """Internal constructor for rows already valid by construction."""
        P = object.__new__(cls)
        object.__setattr__(P, "rank", rank)
        object.__setattr__(P, "a", a)
        object.__setattr__(P, "b", b)
        return P

    # entry accessors use the paper-style 1-based (i, j) indices
    def a_entry(self, i, j, default=None):
        if i == 0:
            return self.a[0][j - 1] if 1 <= j <= self.rank else default
        if 1 <= i <= self.rank - 1 and i + 1 <= j <= self.rank:
            return self.a[i][j - i - 1]
        return default

    def b_entry(self, i, j, default=None):
        if 1 <= i <= self.rank and i <= j <= self.rank:
            return self.b[i - 1][j - i]
        return default

    @property
    def top_row(self):
        return self.a[0]

    def s_a(self, i: int) -> int:
        """Row sum of a_i (empty for i = r)."""
        return sum(self.a[i]) if i < self.rank else 0

    def s_b(self, i: int) -> int:
        return sum(self.b[i - 1])

    @cached_property
    def wgt(self) -> tuple:
        r = self.rank
        return tuple(self.s_a(r - i) - 2 * self.s_b(r + 1 - i) + self.s_a(r + 1 - i)
                     for i in range(1, r + 1))

    @cached_property
    def k_vec(self) -> tuple:
        r = self.rank
        diffs = [self.s_b(m) - self.s_a(m) for m in range(1, r + 1)]
        k = [self.s_a(0) - sum(diffs)]
        for i in range(2, r + 1):
            m = r + 1 - i
            ki = (self.s_a(0) - 2 * sum(diffs[:m]) - self.s_a(m)
                  + sum(self.a[0][:m]))
            k.append(ki)
        if any(x < 0 for x in k):
            raise AssertionError(f"negative support vector {tuple(k)}")
        return tuple(k)

    def v_data(self, i, j) -> int:
        """v_{i,j} = sum_{m=i}^{j} (a_{i-1,m} - b_{i,m})."""
        return sum(self.a_entry(i - 1, m, 0) - self.b_entry(i, m, 0)
                   for m in range(i, j + 1))

    def w_data(self, i, j) -> int:
        """w_{i,j} = sum_{m=j}^{r} (a_{i,m} - b_{i,m})."""
        return sum(self.a_entry(i, m, 0) - self.b_entry(i, m, 0)
                   for m in range(j, self.rank + 1))

    def u_data(self, i, j) -> int:
        """u_{i,j} = v_{i,r} + w_{i,j}."""
        return self.v_data(i, self.rank) + self.w_data(i, j)

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "a": [list(row) for row in self.a],
                "b": [list(row) for row in self.b]}

    @staticmethod
    def from_json(obj) -> "GTPattern":
        return GTPattern(int(obj["rank"]),
                         tuple(tuple(int(x) for x in row) for row in obj["a"]),
                         tuple(tuple(int(x) for x in row) for row in obj["b"]))


def validate_pattern(P: GTPattern) -> None:
    """Check shapes, nonnegativity, interleaving and weak row decrease."""
    r = P.rank
    if r < 1:
        raise ValueError("rank must be positive")
    if len(P.a) != r or len(P.b) != r:
        raise ValueError("pattern must have r a-rows and r b-rows")
    for i, row in enumerate(P.a):
        if len(row) != r - i:
            raise ValueError(f"a-row {i} has the wrong length")
    for i, row in enumerate(P.b, start=1):
        if len(row) != r - i + 1:
            raise ValueError(f"b-row {i} has the wrong length")
    for row in P.a + P.b:
        if any((not isinstance(x, int)) or x < 0 for x in row):
            raise ValueError("entries must be nonnegative integers")
        if any(row[k] < row[k + 1] for k in range(len(row) - 1)):
            raise ValueError("rows must be weakly decreasing")
    for i in range(1, r + 1):
        for j in range(i, r + 1):
            bij = P.b_entry(i, j)
            for up in (P.a_entry(i - 1, j), P.a_entry(i, j)):
                if up is not None and bij > up:
                    raise ValueError(f"b_{{{i},{j}}} exceeds its upper bound")
            for lo in (P.a_entry(i - 1, j + 1), P.a_entry(i, j + 1)):
                if lo is not None and bij < lo:
                    raise ValueError(f"b_{{{i},{j}}} is below its lower bound")
    for i in range(1, r):
        for j in range(i + 1, r + 1):
            aij = P.a_entry(i, j)
            for up in (P.b_entry(i + 1, j - 1), P.b_entry(i, j - 1)):
                if up is not None and aij > up:
                    raise ValueError(f"a_{{{i},{j}}} exceeds its upper bound")
            for lo in (P.b_entry(i + 1, j), P.b_entry(i, j)):
                if lo is not None and aij < lo:
                    raise ValueError(f"a_{{{i},{j}}} is below its lower bound")


@cache
def pair_positions(r: int, i: int) -> tuple:
    """The entries of row pair i in reading order:
    b_{i,i} .. b_{i,r}, then a_{i,r} .. a_{i,i+1}."""
    return (tuple(("b", i, j) for j in range(i, r + 1))
            + tuple(("a", i, j) for j in range(r, i, -1)))


@cache
def entry_positions(r: int) -> tuple:
    """All r^2 weighted entries (every row below the top), pair by pair."""
    return tuple(pos for i in range(1, r + 1) for pos in pair_positions(r, i))


@dataclass(frozen=True)
class PatternData:
    """Row sums, weight, support vector, entry data and classification."""

    s_a: tuple
    s_b: tuple
    wgt: tuple
    k: tuple
    v: dict
    w: dict
    u: dict
    entry_class: dict


def pattern_data(P: GTPattern) -> PatternData:
    r = P.rank
    positions = entry_positions(r)
    b_keys = [(i, j) for kind, i, j in positions if kind == "b"]
    a_keys = [(i, j) for kind, i, j in positions if kind == "a"]
    return PatternData(
        s_a=tuple(P.s_a(i) for i in range(r + 1)),
        s_b=tuple(P.s_b(i) for i in range(1, r + 1)),
        wgt=P.wgt, k=P.k_vec,
        v={key: P.v_data(*key) for key in b_keys},
        w={key: P.w_data(*key) for key in b_keys},
        u={key: P.u_data(*key) for key in a_keys},
        entry_class={pos: classify_entry(P, pos) for pos in positions})


def entry_bounds_flags(P: GTPattern, pos):
    """(hits_upper, hits_lower) for an entry: equality with the minimal
    (upper) and maximal (lower / zero-at-right-edge) neighbour."""
    kind, i, j = pos
    r = P.rank
    if kind == "b":
        bij = P.b_entry(i, j)
        if bij is None:
            raise ValueError(f"no entry b_{{{i},{j}}}")
        is_min = bij == P.a_entry(i - 1, j)
        is_max = (bij == 0) if j == r else (bij == P.a_entry(i - 1, j + 1))
        return is_min, is_max
    if kind == "a":
        aij = P.a_entry(i, j)
        if aij is None or i < 1:
            raise ValueError(f"no entry a_{{{i},{j}}}")
        return aij == P.b_entry(i, j), aij == P.b_entry(i, j - 1)
    raise ValueError(f"unknown entry kind {kind!r}")


def classify_entry(P: GTPattern, pos) -> str:
    """Tag an entry minimal / maximal / generic.

    The coincidence b_{i,r} = a_{i-1,r} = 0 satisfies both equalities; it is
    tagged maximal (the right-edge zero rule), and its weighting factor is
    zero (see coeffs.gamma_b), so such patterns never contribute.
    """
    is_min, is_max = entry_bounds_flags(P, pos)
    if is_max:
        return "maximal"
    if is_min:
        return "minimal"
    return "generic"


def is_strict(P: GTPattern) -> bool:
    """True iff every horizontal row strictly decreases."""
    return all(all(row[k] > row[k + 1] for k in range(len(row) - 1))
               for row in P.a + P.b)


def is_stable(P: GTPattern) -> bool:
    """True iff P is strict and every row pair reads as a block of minimal
    entries followed by a block of maximal entries."""
    if not is_strict(P):
        return False
    for i in range(1, P.rank + 1):
        seen_max = False
        for pos in pair_positions(P.rank, i):
            is_min, is_max = entry_bounds_flags(P, pos)
            if is_max:
                seen_max = True
            elif is_min:
                if seen_max:
                    return False
            else:
                return False
    return True


def enumerate_patterns(top_row):
    """Yield every pattern with the given weakly decreasing top row, exactly
    once, in canonical order (row-major, larger entries first)."""
    top = tuple(top_row)
    r = len(top)
    if any((not isinstance(x, int)) or x < 0 for x in top):
        raise ValueError("top row entries must be nonnegative integers")
    if any(top[k] < top[k + 1] for k in range(r - 1)):
        raise ValueError("top row must be sorted in decreasing order")

    def row_choices(above, lower_shift):
        """Descending-lex candidates for a row below `above`.

        Entry m of the new row lies in [above[m + lower_shift] or 0,
        above[m + lower_shift - 1]] when lower_shift = 1 (b-row below a-row,
        same columns), or in [above[m + 1], above[m]] dropping the leftmost
        column (a-row below b-row)."""
        ranges = []
        if lower_shift:
            for m in range(len(above)):
                hi = above[m]
                lo = above[m + 1] if m + 1 < len(above) else 0
                ranges.append(range(hi, lo - 1, -1))
        else:
            for m in range(1, len(above)):
                ranges.append(range(above[m - 1], above[m] - 1, -1))
        return product(*ranges)

    def descend(rows_a, rows_b):
        i = len(rows_b)
        if i == r:
            yield GTPattern._unchecked(r, tuple(rows_a), tuple(rows_b))
            return
        for brow in row_choices(rows_a[i], lower_shift=True):
            if i == r - 1:
                yield from descend(rows_a, rows_b + [brow])
            else:
                for arow in row_choices(brow, lower_shift=False):
                    yield from descend(rows_a + [arow], rows_b + [brow])

    yield from descend([top], [])


def count_patterns(top_row) -> int:
    return sum(1 for _ in enumerate_patterns(top_row))


def stable_patterns(top_row):
    """The stable patterns within the enumeration, in canonical order."""
    return [P for P in enumerate_patterns(top_row) if is_stable(P)]


def weyl_from_stable(P: GTPattern) -> WeylElement:
    """The unique signed permutation w with
    lambda+rho - w(lambda+rho) = sum k_i alpha_i, read off row by row."""
    if not is_stable(P):
        raise ValueError("pattern is not stable")
    r = P.rank
    L = tuple(reversed(P.top_row))
    sigma = [0] * r
    eps = [0] * r
    for i in range(1, r + 1):
        target = -P.wgt[i - 1]
        mag = abs(target)
        if mag not in L:
            raise AssertionError("stable weight entry is not an L value")
        m = L.index(mag) + 1
        sigma[m - 1] = i
        eps[i - 1] = 1 if target > 0 else -1
    return WeylElement(tuple(sigma), tuple(eps))


def stable_pattern_for(w: WeylElement, top_row) -> GTPattern:
    """Inverse of weyl_from_stable for the given strictly decreasing top row."""
    top = tuple(top_row)
    r = len(top)
    if any(top[k] <= top[k + 1] for k in range(r - 1)):
        raise ValueError("top row must be strictly decreasing")
    if w.rank != r:
        raise ValueError("rank mismatch")
    L = tuple(reversed(top))
    rows_a = [top]
    rows_b = []
    for i in range(r, 0, -1):
        vals = sorted((L[w.sigma_inv(j) - 1] for j in range(1, i + 1)),
                      reverse=True)
        if w.eps[i - 1] == 1:
            brow = tuple(vals)
            arow = tuple(x for x in vals if x != L[w.sigma_inv(i) - 1])
        else:
            rest = [x for x in vals if x != L[w.sigma_inv(i) - 1]]
            brow = tuple(rest + [0])
            arow = tuple(rest)
        rows_b.append(brow)
        if i > 1:
            rows_a.append(arow)
    P = GTPattern(r, tuple(rows_a), tuple(rows_b))
    if not is_stable(P):
        raise AssertionError("constructed pattern is not stable")
    return P
