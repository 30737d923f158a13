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

from functools import cache
from itertools import product
from typing import NamedTuple

from .record import Record
from .roots import LambdaTwist, check_support


class GTPattern(Record):
    """Immutable pattern; `a` holds rows a_0..a_{r-1}, `b` holds b_1..b_r.
    With the rows come the weight `wgt`, wgt_i = s(a_{r-i}) - 2 s(b_{r+1-i})
    + s(a_{r+1-i}) (s the row sum, a_r empty), and the support vector
    `k_vec`, lambda+rho + wgt = sum k_i alpha_i, both folded by pair_step."""

    rank: int
    a: tuple
    b: tuple

    def __post_init__(self):
        validate_pattern(self)
        sums = [sum(row) for pair in zip(self.a, self.b) for row in pair] + [0]
        fold = ((), ())
        for m, top_m in enumerate(self.a[0]):
            fold = pair_step(fold, top_m, *sums[2 * m:2 * m + 3])
        self.__dict__.update(zip(("wgt", "k_vec"), weight_and_support(fold)))

    @classmethod
    def _unchecked(cls, rank, a, b, wgt, k_vec):
        """Internal constructor for rows already valid by construction."""
        P = object.__new__(cls)
        P.__dict__.update(rank=rank, a=a, b=b, wgt=wgt, k_vec=k_vec)
        return P

    @property
    def top_row(self):
        return self.a[0]

    def pair_records(self, i: int):
        """The EntryRecords of row pair i, 1 <= i <= r, lazily."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"no row pair {i}")
        below = self.a[i] if i < self.rank else ()
        return pair_entries(self.rank, i, self.a[i - 1], self.b[i - 1], below)

    def records(self):
        """Every EntryRecord, pair by pair, lazily."""
        for i in range(1, self.rank + 1):
            yield from self.pair_records(i)

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
    for i in range(r):
        if len(P.a[i]) != r - i or len(P.b[i]) != r - i:
            raise ValueError(f"row pair {i + 1} has the wrong length")
    for row in P.a + P.b:
        if any((not isinstance(x, int)) or x < 0 for x in row):
            raise ValueError("entries must be nonnegative integers")
        if any(row[k] < row[k + 1] for k in range(len(row) - 1)):
            raise ValueError("rows must be weakly decreasing")
    rows = [row for pair in zip(P.a, P.b) for row in pair]  # a_0, b_1, a_1..
    for k in range(1, 2 * r):
        pad = (0,) if k % 2 else ()  # rows[k] is a b-row for odd k
        if any(not lo <= x <= hi for x, (hi, lo)
               in zip(rows[k], interleave_bounds(rows[k - 1], pad))):
            raise ValueError(f"row {k} below the top does not interleave "
                             f"with the row above")


def interleave_bounds(above, pad) -> list:
    """(upper, lower) bound of each entry of the row below `above`: entry m
    lies in [ext[m + 1], ext[m]] with ext = above + pad.  A b-row keeps the
    columns of the a-row above and takes 0 as its right-edge lower bound
    (pad = (0,)); an a-row drops the leftmost column of the b-row above
    (pad = ())."""
    ext = (*above, *pad)
    return list(zip(ext, ext[1:]))


@cache
def pair_positions(r: int, i: int) -> tuple:
    """The entries of row pair i in reading order:
    b_{i,i} .. b_{i,r}, then a_{i,r} .. a_{i,i+1}."""
    return (tuple(("b", i, j) for j in range(i, r + 1))
            + tuple(("a", i, j) for j in range(r, i, -1)))


class EntryRecord(NamedTuple):
    """What the weight of one entry needs, read off its row pair.

    `slack` is the distance to the bound at which the entry is maximal:
    b_{i,j} - a_{i-1,j+1} (0 past the right edge), or b_{i,j-1} - a_{i,j}.
    `is_min` is equality with the other bound, a_{i-1,j} or b_{i,j}.  `exp`
    is v_{i,j} = sum_{m<=j} (a_{i-1,m} - b_{i,m}) at a b-entry and u_{i,j} =
    v_{i,r} + sum_{m>=j} (a_{i,m} - b_{i,m}) at an a-entry.  `t` is 2 at
    b_{i,r} and 1 elsewhere."""

    pos: tuple
    is_min: bool
    slack: int
    exp: int
    t: int

    @property
    def tag(self) -> str:
        """minimal / maximal / generic; maximal whenever the slack is 0,
        also at the coincidence b_{i,r} = a_{i-1,r} = 0 (see coeffs)."""
        if not self.slack:
            return "maximal"
        return "minimal" if self.is_min else "generic"


def pair_entries(r: int, i: int, above, b, below):
    """Lazily yield the EntryRecord of every entry of row pair i, in
    pair_positions(r, i) order, from the rows a_{i-1} (`above`), b_i and
    a_i (`below`, empty for i = r)."""
    positions = pair_positions(r, i)
    exp = 0
    for pos, x, (hi, lo) in zip(positions, b, interleave_bounds(above, (0,))):
        exp += hi - x
        yield EntryRecord(pos, x == hi, x - lo, exp, 2 if pos[2] == r else 1)
    for pos, x, (hi, lo) in zip(positions[len(b):], reversed(below),
                                reversed(interleave_bounds(b, ()))):
        exp += x - lo
        yield EntryRecord(pos, x == lo, hi - x, exp, 1)


def is_strict(P: GTPattern) -> bool:
    """True iff every horizontal row strictly decreases."""
    return all(map(_decreasing, P.a + P.b))


def _decreasing(row) -> bool:
    return all(x > y for x, y in zip(row, row[1:]))


def pair_step(fold, top_m, s_above, s_b, s_below):
    """Fold row pair m into (wgt_{r+1-m}.., c_{r+1-m}..) from the row sums
    s(a_{m-1}), s(b_m), s(a_m) (0 for m = r): c_i sums (lambda+rho + wgt)_j
    over j >= i, and (lambda+rho)_{r+1-m} = a_{0,m}."""
    wgt, c = fold
    w = s_above - 2 * s_b + s_below
    return (w, *wgt), (top_m + w + (c[0] if c else 0), *c)


def weight_and_support(fold):
    """(wgt, k_vec) from the fold of all r pairs: k_i = c_i, except that
    k_1 = c_1 / 2 since alpha_1 = 2e_1 (roots.simple_coords)."""
    wgt, c = fold
    return wgt, check_support((c[0] // 2, *c[1:]))


def enumerate_patterns(top_row, strict=False):
    """Yield every pattern with the given weakly decreasing top row, exactly
    once, in canonical order (row-major, larger entries first); with
    `strict`, only those whose rows all strictly decrease, in that order.
    One loop walks a stack of row iterators b_1, a_1, .., a_{r-1} and carries
    the row sums, so each b_r yields a pattern with wgt and k_vec set."""
    top = tuple(top_row)
    r = len(top)
    if any((not isinstance(x, int)) or x < 0 for x in top):
        raise ValueError("top row entries must be nonnegative integers")
    if any(top[k] < top[k + 1] for k in range(r - 1)):
        raise ValueError("top row must be sorted in decreasing order")
    if strict and not _decreasing(top):
        return
    new = GTPattern._unchecked
    last = 2 * r - 2  # the depth of a_{r-1} (a_0 at rank 1); b_m is at 2m-1
    rows, sums = [top] * (last + 1), [sum(top)] * (last + 1)
    its, folds = [None] * (last + 1), [((), ())] * r  # folds[m]: pairs 1..m
    d = 0
    while True:
        if d < last:  # descending-lex candidates for the row below
            d += 1
            its[d] = product(*[range(hi, lo - 1, -1) for hi, lo in
                               interleave_bounds(rows[d - 1], (0,) * (d % 2))])
            if strict:
                its[d] = filter(_decreasing, its[d])
        else:  # b_r = (x,) closes pair r
            a, b = tuple(rows[0::2]), tuple(rows[1::2])
            for x in range(rows[d][-1], -1, -1):
                fold = pair_step(folds[-1], top[-1], sums[d], x, 0)
                yield new(r, a, (*b, (x,)), *weight_and_support(fold))
        while d and (row := next(its[d], None)) is None:
            d -= 1
        if not d:
            return
        rows[d], sums[d] = row, sum(row)
        if not d % 2:  # a_m closes pair m
            m = d // 2
            folds[m] = pair_step(folds[m - 1], top[m - 1], *sums[d - 2:d + 1])
