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

from collections import namedtuple
from functools import cache
from itertools import product
from operator import add, gt

from .record import Record
from .roots import _check_partition, support_from_tails, support_vector


class GTPattern(Record):
    """Immutable pattern; `a` holds rows a_0..a_{r-1}, `b` holds b_1..b_r.
    With the rows comes the support vector `k_vec`, lambda+rho + wgt =
    sum k_i alpha_i; the weight `wgt` is read off the row pairs."""

    rank: int
    a: tuple
    b: tuple

    def __post_init__(self):
        validate_pattern(self)
        shifted = tuple(map(add, reversed(self.a[0]), self.wgt))
        self.__dict__["k_vec"] = support_vector(shifted)  # of lambda+rho+wgt

    @classmethod
    def _unchecked(cls, rank, a, b, k_vec):
        """Internal constructor for rows already valid by construction."""
        P = object.__new__(cls)
        P.__dict__.update({"rank": rank, "a": a, "b": b, "k_vec": k_vec})
        return P

    @property
    def wgt(self) -> tuple:
        """wgt_{r+1-i}, the pair_weight of row pair i, for i = r..1."""
        return tuple(pair_weight(*pair) for pair in self.row_pairs())[::-1]

    @property
    def top_row(self):
        return self.a[0]

    def row_pairs(self):
        """(a_{i-1}, b_i, a_i) for each row pair i = 1..r, with a_r = ()."""
        return zip(self.a, self.b, (*self.a[1:], ()))

    def to_json(self) -> dict:
        return {"rank": self.rank,
                "a": [list(row) for row in self.a],
                "b": [list(row) for row in self.b]}


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
    for i, (above, b, below) in enumerate(P.row_pairs(), 1):
        # b_i is row 2i - 1 below the top, a_i row 2i
        for k, row, over, pad in ((2 * i - 1, b, above, (0,)),
                                  (2 * i, below, b, ())):
            if any(not lo <= x <= hi for x, (hi, lo)
                   in zip(row, interleave_bounds(over, pad))):
                raise ValueError(f"row {k} below the top does not "
                                 f"interleave with the row above")


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


class EntryRecord(namedtuple("EntryRecord", "pos is_min slack exp t")):
    """What the weight of one entry needs, read off its row pair.

    `slack` is the distance to the bound at which the entry is maximal:
    b_{i,j} - a_{i-1,j+1} (0 past the right edge), or b_{i,j-1} - a_{i,j}.
    `is_min` is equality with the other bound, a_{i-1,j} or b_{i,j}.  `exp`
    is v_{i,j} = sum_{m<=j} (a_{i-1,m} - b_{i,m}) at a b-entry and u_{i,j} =
    v_{i,r} + sum_{m>=j} (a_{i,m} - b_{i,m}) at an a-entry.  `t` is 2 at
    b_{i,r} and 1 elsewhere."""

    __slots__ = ()

    @property
    def tag(self) -> str:
        """minimal / maximal / generic; maximal whenever the slack is 0,
        also minimal at zero slack, the degenerate coincidence (coeffs)."""
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


def pair_classes(r: int, i: int, above, b, below) -> tuple:
    """(#maximal, #generic) over the entries of row pair i, by
    EntryRecord.tag, from the rows a_{i-1} (`above`), b_i and a_i (`below`);
    a degenerate entry (is_degenerate) counts among the maximal ones."""
    tags = [e.tag for e in pair_entries(r, i, above, b, below)]
    return tags.count("maximal"), tags.count("generic")


def is_degenerate(above) -> bool:
    """True iff a strict row pair below the a-row `above` has the degenerate
    coincidence b_{i,r} = a_{i-1,r} = 0 (coeffs), i.e. `above` ends in 0."""
    return not above[-1]


def is_strict(P: GTPattern) -> bool:
    """True iff every horizontal row strictly decreases."""
    return all(map(_decreasing, P.a + P.b))


def _decreasing(row) -> bool:
    return all(map(gt, row, row[1:]))


def pair_weight(above, b, below) -> int:
    """wgt_{r+1-i} = s(a_{i-1}) - 2 s(b_i) + s(a_i) (s the row sum) of row
    pair i, from the rows `above`, b and `below`."""
    return sum(above) - 2 * sum(b) + sum(below)


def _slot(r, i, w) -> tuple:
    """wgt with only the slot of row pair i, wgt_{r+1-i} = w, set."""
    return (*[0] * (r - i), w, *[0] * (i - 1))


def pair_rows(above, strict=False):
    """The rows (b_i, a_i) of a row pair below a_{i-1} = `above`, in
    descending lex order; with `strict`, only rows that strictly decrease.
    Below a one-entry b-row the only a-row is ()."""
    def below(row, pad):  # pad as in interleave_bounds
        rows = product(*[range(hi, lo - 1, -1)
                         for hi, lo in interleave_bounds(row, pad)])
        return filter(_decreasing, rows) if strict else rows

    for b in below(above, (0,)):
        for a in below(b, ()):
            yield b, a


def _top_row(top_row, strict):
    """The checked top row; None when `strict` and it does not strictly
    decrease, so that no pattern lies below it.  Rank 0 is refused."""
    top = _check_partition(top_row)
    return top if not strict or _decreasing(top) else None


def pair_sums(top_row, weigh, strict=False) -> dict:
    """{summed statistic: summed value} over the patterns with the given top
    row (with `strict`, those whose rows all strictly decrease), without
    visiting a pattern.  `weigh(r, i, above, b, below)` gives row pair i's
    statistic, a tuple of ints summed componentwise over the pairs, and its
    factor, multiplied over the pairs (1 counts patterns); None drops the
    patterns through that pair.  The state is the a-row that closes the
    pair, mapped to {statistic so far: value}; a zero value keeps its key."""
    top = _top_row(top_row, strict)
    if top is None:
        return {}
    r = len(top)
    states = {top: {(): 1}}
    for i in range(1, r + 1):
        reached = {}
        for above, sums in states.items():
            for b, below in pair_rows(above, strict):
                w = weigh(r, i, above, b, below)
                if w is None:
                    continue
                part, factor = w
                acc = reached.setdefault(below, {})
                for s, v in sums.items():
                    key = tuple(map(add, s, part)) if s else part  # pair 1
                    v = v * factor if i > 1 else factor
                    acc[key] = acc[key] + v if key in acc else v
        states = reached
    return states.get((), {})


def enumerate_patterns(top_row, strict=False):
    """Yield every pattern with the given weakly decreasing top row, exactly
    once, in canonical order (row-major, larger entries first); with
    `strict`, only those whose rows all strictly decrease, in that order.
    A depth-first recursion sets row pairs 1..r-1, one per level, and
    carries the tail sums c_i = sum_{j>=i} (lambda+rho + wgt)_j that give
    k; a flat loop sets b_r to close pair r, so each pattern arrives with
    k_vec set and none passes through the recursion.  A command's walk
    recurses at most 3 deep: check_pattern_count refuses its top row
    lambda+rho from rank 5 on ((5,4,3,2,1) already has 2^25 patterns)."""
    top = _top_row(top_row, strict)
    if top is None:
        return
    r, new = len(top), GTPattern._unchecked
    listed = {}  # a_{i-1} -> [(b_i, a_i, pair_weight), ...], on first visit

    def prefixes(a, b, c):
        # every extension by row pairs m+1..r-1 (m = len(b)) to a = (a_0, ..,
        # a_{r-1}), b = (b_1, .., b_{r-1}), and c in slots 2..r
        if len(b) == r - 1:
            yield a, b, c
            return
        above = a[-1]
        pairs = listed.get(above)
        if pairs is None:
            pairs = listed[above] = [(b_i, a_i, pair_weight(above, b_i, a_i))
                                     for b_i, a_i in pair_rows(above, strict)]
        tail = top[len(b)] + (c[0] if c else 0)  # c_{r-m} less wgt_{r-m}
        for b_i, a_i, w in pairs:
            yield from prefixes((*a, a_i), (*b, b_i), (tail + w, *c))

    for a, b, c in prefixes((top,), (), ()):
        # b_r = (x,) below a_{r-1} = (y,); from x = y down, the weight of
        # pair r (pair_weight at b_r = a_{r-1}) rises by 2 and so k_1 by 1.
        # support_from_tails checks the first k: the later ones keep the
        # parity of c_1 and have a larger k_1
        above, tail = a[-1], top[-1] + (c[0] if c else 0)
        k = support_from_tails((tail + pair_weight(above, above, ()), *c))
        k_1, k_rest = k[0], k[1:]
        for x in range(above[0], -1, -1):
            yield new(r, a, b + ((x,),), (k_1,) + k_rest)
            k_1 += 1
