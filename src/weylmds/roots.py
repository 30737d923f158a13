"""Root system C_r in Euclidean coordinates, with its Weyl group of signed
permutations.

Coordinates follow the convention alpha_1 = 2e_1 (the long simple root) and
alpha_i = e_i - e_{i-1} for i >= 2.  The pairing is the ordinary dot product,
so every value stays an integer; it is twice the normalized inner product,
under which short roots have squared length 1 and long roots 2.
"""

from functools import cache, cached_property
from itertools import permutations, product

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

    def is_negative(self, v) -> bool:
        return tuple(-c for c in v) in self._positive_set

    @cached_property
    def _positive_set(self):
        return frozenset(self.positive_roots)


def simple_coords(r: int, alpha):
    """Solve alpha = c_1(2e_1) + sum_{i>=2} c_i(e_i - e_{i-1}) for integer c."""
    c = [0] * r
    for j in range(r - 1, 0, -1):
        c[j] = alpha[j] + (c[j + 1] if j + 1 < r else 0)
    t = alpha[0] + (c[1] if r > 1 else 0)
    if t % 2:
        raise ValueError(f"{alpha} is not in the root lattice of C_{r}")
    c[0] = t // 2
    return tuple(c)


def support_vector(r: int, weight):
    """The k with weight = sum k_i alpha_i, such as lambda+rho -
    w(lambda+rho), refused when negative (see check_support)."""
    return check_support(simple_coords(r, weight))


def check_support(k):
    """k; a coefficient-table key must not have a negative coordinate."""
    if min(k) < 0:
        raise AssertionError(f"negative support vector {k}")
    return k


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


class WeylElement(Record):
    """A signed permutation (sigma, eps) acting on R^r by
    w(t)_i = eps^(i) * t_{sigma^{-1}(i)}.

    `sigma` is in one-line notation, sigma[m-1] = sigma(m); `eps` holds the
    signs eps^(1..r).
    """

    sigma: tuple
    eps: tuple

    def __post_init__(self):
        r = len(self.sigma)
        if sorted(self.sigma) != list(range(1, r + 1)):
            raise ValueError("sigma is not a permutation of 1..r")
        if len(self.eps) != r or any(e not in (1, -1) for e in self.eps):
            raise ValueError("eps must be a length-r sequence of +-1")

    @property
    def rank(self) -> int:
        return len(self.sigma)

    def sigma_inv(self, i: int) -> int:
        return self.sigma.index(i) + 1

    def act(self, vec):
        return tuple(self.eps[i] * vec[self.sigma_inv(i + 1) - 1]
                     for i in range(self.rank))

    @staticmethod
    def identity(r: int) -> "WeylElement":
        return WeylElement(tuple(range(1, r + 1)), (1,) * r)

    @staticmethod
    def all_elements(r: int):
        """All 2^r r! elements in canonical sorted (sigma, eps) order."""
        for sigma in permutations(range(1, r + 1)):
            for eps in product((-1, 1), repeat=r):
                yield WeylElement(sigma, eps)


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
        out, acc = [], 0
        for j, lj in enumerate(self.l, start=1):
            acc += lj
            out.append(acc + j)
        return tuple(out)

    @property
    def top_row(self) -> tuple:
        """(L_r, ..., L_1), the fixed top row of the patterns."""
        return tuple(reversed(self.L))

    @property
    def partition(self) -> tuple:
        """lambda itself as a weakly decreasing partition."""
        return tuple(Lj - j for j, Lj in zip(range(1, self.rank + 1),
                                             self.L))[::-1]


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


def phi_w(w: WeylElement):
    """The positive roots sent negative by w."""
    rs = build_root_system(w.rank)
    return tuple(alpha for alpha in rs.positive_roots
                 if rs.is_negative(w.act(alpha)))


def _check_partition(lam, r):
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("partition length must equal the rank")
    if any((not isinstance(x, int)) or x < 0 for x in lam):
        raise ValueError("partition parts must be nonnegative integers")
    if any(lam[k] < lam[k + 1] for k in range(r - 1)):
        raise ValueError("partition must be weakly decreasing")
    return lam


def weyl_dimension(lam, r: int) -> int:
    """Weyl dimension formula for the highest weight given as a partition,
    with one exact division of integer products."""
    lam = _check_partition(lam, r)
    rs = build_root_system(r)
    shifted = tuple(a + b for a, b in zip(reversed(lam), rs.rho))
    num = den = 1
    for alpha in rs.positive_roots:
        num *= inner(shifted, alpha)
        den *= inner(rs.rho, alpha)
    dim, rem = divmod(num, den)
    if rem:
        raise AssertionError("dimension formula must be integral")
    return dim


def check_pattern_count(top_row) -> None:
    """Refuse, before enumerating, a top row with more than 10^7 patterns;
    the Weyl dimension formula counts them exactly."""
    count = weyl_dimension(top_row, len(top_row))
    if count > 10 ** 7:
        raise ValueError(f"top row {','.join(map(str, top_row))} has "
                         f"{count} patterns, more than 10^7")
