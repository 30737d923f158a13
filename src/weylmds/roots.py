"""Root system C_r in Euclidean coordinates, the twist lambda+rho and the
change of basis from weights to support vectors.

Coordinates follow the convention alpha_1 = 2e_1 (the long simple root) and
alpha_i = e_i - e_{i-1} for i >= 2.  The pairing is the ordinary dot product,
so every value stays an integer; it is twice the normalized inner product,
under which short roots have squared length 1 and long roots 2.
"""

from functools import cache, cached_property
from itertools import accumulate
from math import prod
from operator import sub

from .record import Record


def inner(u, v) -> int:
    """The dot product: short roots have <a, a> = 2, long roots 4."""
    return sum(a * b for a, b in zip(u, v))


def norm_sq(alpha) -> int:
    """Normalized squared length of a root: 1 for short, 2 for long."""
    n2 = inner(alpha, alpha)
    if n2 not in (2, 4):
        raise ValueError(f"{alpha} is not a root of C_r")
    return n2 // 2


class RootSystemC(Record):
    """The C_r root data: simple roots, positive roots and rho."""

    rank: int
    simple_roots: tuple
    positive_roots: tuple
    rho: tuple

    @cached_property
    def _positive_set(self):
        return frozenset(self.positive_roots)


def support_from_tails(c):
    """The k with sum k_i alpha_i equal to the weight whose tail sums
    c_i = sum_{j>=i} weight_j are `c`: k_1 = c_1 / 2 since alpha_1 = 2e_1,
    and k_i = c_i for i >= 2.  Refused when c_1 is odd (not in the root
    lattice) and when k is negative, which no coefficient-table key is."""
    if c[0] % 2:
        weight = tuple(map(sub, c, (*c[1:], 0)))
        raise ValueError(f"{weight} is not in the root lattice of C_{len(c)}")
    k = (c[0] // 2, *c[1:])
    if min(k) < 0:
        raise AssertionError(f"negative support vector {k}")
    return k


def support_vector(weight):
    """The k with weight = sum k_i alpha_i, such as lambda+rho -
    w(lambda+rho): support_from_tails of the weight's tail sums."""
    return support_from_tails(tuple(accumulate(weight[::-1]))[::-1])


@cache
def build_root_system(r: int) -> RootSystemC:
    """C_r, built once per rank; its positive roots are 2e_i and
    e_j +- e_i for i < j."""
    if r < 1:
        raise ValueError("rank must be a positive integer")

    def vec(*coords):  # (index, coefficient) pairs -> a vector of R^r
        return tuple(sum(c for k, c in coords if k == m) for m in range(r))

    simple = (vec((0, 2)),) + tuple(vec((i, 1), (i - 1, -1))
                                    for i in range(1, r))
    positives = tuple(sorted(
        [vec((i, 2)) for i in range(r)]
        + [vec((j, 1), (i, s)) for j in range(r) for i in range(j)
           for s in (1, -1)]))
    return RootSystemC(r, simple, positives, tuple(range(1, r + 1)))


class LambdaTwist(Record):
    """The twisting exponents l_i together with the partial sums
    L_j = l_1 + ... + l_j + j."""

    l: tuple

    def __post_init__(self):
        if any((not isinstance(x, int)) or x < 0 for x in self.l):
            raise ValueError("twist entries must be nonnegative integers")

    @property
    def rank(self) -> int:
        return len(self.l)

    @property
    def L(self) -> tuple:
        """lambda + rho = (L_1, ..., L_r) in Euclidean coordinates."""
        return tuple(s + j for j, s in enumerate(accumulate(self.l), 1))

    @property
    def top_row(self) -> tuple:
        """(L_r, ..., L_1), the fixed top row of the patterns."""
        return tuple(reversed(self.L))

    @property
    def partition(self) -> tuple:
        """lambda itself as a weakly decreasing partition."""
        return tuple(accumulate(self.l))[::-1]


def d_lambda(twist: LambdaTwist, alpha) -> int:
    """d(alpha) = 2<lambda+rho, alpha> / <alpha, alpha>, an integer:
    <alpha, alpha> is 4 for 2e_i and 2 for e_j +- e_i."""
    if alpha not in build_root_system(twist.rank)._positive_set:
        raise ValueError(f"{alpha} is not a positive root")
    return 2 * inner(twist.L, alpha) // inner(alpha, alpha)


def stability_bound(twist: LambdaTwist) -> int:
    """The largest d_lambda over the positive roots."""
    return max(d_lambda(twist, alpha)
               for alpha in build_root_system(twist.rank).positive_roots)


def _check_partition(lam):
    lam = tuple(lam)
    if not lam:
        raise ValueError("rank must be positive")
    if any((not isinstance(x, int)) or x < 0 for x in lam):
        raise ValueError("partition parts must be nonnegative integers")
    if any(lam[k] < lam[k + 1] for k in range(len(lam) - 1)):
        raise ValueError("partition must be weakly decreasing")
    return lam


def _partial_counts(lam):
    """Yield, for j = 1..r, the Weyl dimension of the last j parts of the
    partition lam off lam + rho, L_i = lam_{r+1-i} + i: step j takes the
    roots 2e_j and e_j -+ e_i, i < j, and divides exactly.  No factor is
    below 1 (L_j -+ L_i >= j -+ i), so the counts never decrease."""
    L = [a + i for i, a in enumerate(reversed(_check_partition(lam)), 1)]
    dim = 1
    for j, Lj in enumerate(L, 1):
        num = Lj * prod((Lj - Li) * (Lj + Li) for Li in L[:j - 1])
        den = j * prod((j - i) * (j + i) for i in range(1, j))
        dim, rem = divmod(dim * num, den)
        if rem:
            raise AssertionError("dimension formula must be integral")
        yield dim


def weyl_dimension(lam) -> int:
    """Weyl dimension of the partition lam: its last _partial_counts."""
    for dim in _partial_counts(lam):
        pass
    return dim


def check_pattern_count(top_row) -> None:
    """Refuse, before enumerating, a top row with more than 10^7 patterns;
    the Weyl dimension formula counts them exactly.  A count of more than
    4,300 digits, which str() refuses to write, is left out, and is not
    multiplied out past its first partial count of that size."""
    unprintable = 10 ** 4300
    for count in _partial_counts(top_row):
        if count >= unprintable:
            break
    if count > 10 ** 7:
        has = (f"{count} patterns, more than 10^7" if count < unprintable
               else "more than 10^7 patterns")
        raise ValueError(f"top row {','.join(map(str, top_row))} has {has}")
