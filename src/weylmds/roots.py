"""Root system C_r in Euclidean coordinates, with its Weyl group of signed
permutations.

Coordinates follow the convention alpha_1 = 2e_1 (the long simple root) and
alpha_i = e_i - e_{i-1} for i >= 2.  The inner product is normalized so that
short roots have squared length 1 and long roots squared length 2; in terms
of the ordinary dot product this is <x, y> = (x . y) / 2.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations, product


Vector = tuple


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def inner(u, v) -> Fraction:
    """Normalized pairing: short roots have <a, a> = 1, long roots 2."""
    return Fraction(dot(u, v), 2)


def norm_sq(alpha) -> int:
    """Squared length of a root: 1 for short, 2 for long."""
    n2 = inner(alpha, alpha)
    if n2.denominator != 1 or n2 not in (1, 2):
        raise ValueError(f"{alpha} is not a root of C_r")
    return int(n2)


@dataclass(frozen=True)
class RootSystemC:
    """The C_r root data: simple roots, positive roots, rho, fundamental weights."""

    rank: int
    simple_roots: tuple
    positive_roots: tuple
    rho: tuple
    fundamental_weights: tuple

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


def simple_reflection(alpha_i, beta):
    """sigma_{alpha_i}(beta) = beta - (2<beta,a_i>/<a_i,a_i>) a_i, exactly."""
    coeff = Fraction(2) * inner(beta, alpha_i) / inner(alpha_i, alpha_i)
    if coeff.denominator != 1:
        raise ValueError("reflection coefficient is not integral")
    c = int(coeff)
    return tuple(b - c * a for b, a in zip(beta, alpha_i))


def build_root_system(r: int) -> RootSystemC:
    """Construct C_r; positive roots are found by closing the simple roots
    under simple reflections."""
    if r < 1:
        raise ValueError("rank must be a positive integer")
    simple = [tuple(2 if k == 0 else 0 for k in range(r))]
    for i in range(2, r + 1):
        simple.append(tuple(1 if k == i - 1 else (-1 if k == i - 2 else 0)
                            for k in range(r)))
    simple = tuple(simple)

    roots = set(simple)
    frontier = set(simple)
    while frontier:
        new = set()
        for beta in frontier:
            for alpha in simple:
                img = simple_reflection(alpha, beta)
                if img not in roots:
                    new.add(img)
        roots |= new
        frontier = new

    def positive(v):
        try:
            return all(c >= 0 for c in simple_coords(r, v))
        except ValueError:
            return False

    positives = tuple(sorted(v for v in roots if positive(v)))
    rho = tuple(range(1, r + 1))
    fund = tuple(tuple(0 if k < i else 1 for k in range(r)) for i in range(r))
    rs = RootSystemC(r, simple, positives, rho, fund)
    if len(positives) != r * r:
        raise AssertionError("positive-root closure has the wrong size")
    return rs


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation (sigma, eps) acting on R^r by
    w(t)_i = eps^(i) * t_{sigma^{-1}(i)}.

    `sigma` is in one-line notation, sigma[m-1] = sigma(m); `eps` holds the
    signs eps^(1..r).  Composition is "apply right first":
    (w1 * w2)(t) = w1(w2(t)).
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

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        r = self.rank
        sigma = tuple(self.sigma[other.sigma[m] - 1] for m in range(r))
        eps = tuple(self.eps[i] * other.eps[self.sigma_inv(i + 1) - 1]
                    for i in range(r))
        return WeylElement(sigma, eps)

    def inverse(self) -> "WeylElement":
        r = self.rank
        sigma = tuple(self.sigma_inv(m + 1) for m in range(r))
        eps = tuple(self.eps[self.sigma[j] - 1] for j in range(r))
        return WeylElement(sigma, eps)

    def sign(self) -> int:
        s = 1
        perm = list(self.sigma)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    s = -s
        for e in self.eps:
            s *= e
        return s

    @staticmethod
    def identity(r: int) -> "WeylElement":
        return WeylElement(tuple(range(1, r + 1)), (1,) * r)

    @staticmethod
    def long_element(r: int) -> "WeylElement":
        return WeylElement(tuple(range(1, r + 1)), (-1,) * r)

    @staticmethod
    def all_elements(r: int):
        """All 2^r r! elements in canonical sorted (sigma, eps) order."""
        for sigma in permutations(range(1, r + 1)):
            for eps in product((-1, 1), repeat=r):
                yield WeylElement(sigma, eps)


def simple_reflection_weyl(r: int, i: int) -> WeylElement:
    """The simple reflection sigma_{alpha_i} as a signed permutation."""
    if not 1 <= i <= r:
        raise ValueError("reflection index out of range")
    if i == 1:
        return WeylElement(tuple(range(1, r + 1)),
                           tuple(-1 if k == 0 else 1 for k in range(r)))
    sigma = list(range(1, r + 1))
    sigma[i - 2], sigma[i - 1] = sigma[i - 1], sigma[i - 2]
    return WeylElement(tuple(sigma), (1,) * r)


@dataclass(frozen=True)
class LambdaTwist:
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


def d_lambda(rs: RootSystemC, twist: LambdaTwist, alpha) -> int:
    """d(alpha) = 2<lambda+rho, alpha> / <alpha, alpha> as an exact integer."""
    if alpha not in rs._positive_set:
        raise ValueError(f"{alpha} is not a positive root")
    val = Fraction(2) * inner(twist.L, alpha) / inner(alpha, alpha)
    if val.denominator != 1:
        raise AssertionError("d_lambda is not integral")
    return int(val)


def stability_bound(twist: LambdaTwist) -> int:
    """The largest d_lambda over the positive roots: L_{r-1} + L_r from
    e_{r-1} + e_r, or L_1 at rank 1."""
    l = twist.l
    return l[-1] + 1 + sum(2 * (li + 1) for li in l[:-1])


def stability_min_n(twist: LambdaTwist) -> int:
    """Least odd n meeting the stability bound."""
    b = stability_bound(twist)
    return b if b % 2 == 1 else b + 1


def phi_w(rs: RootSystemC, w: WeylElement):
    """The positive roots sent negative by w."""
    return tuple(alpha for alpha in rs.positive_roots
                 if rs.is_negative(w.act(alpha)))


def inv_pr_counts(w: WeylElement, i: int):
    """Inversion/preservation counts of w^{-1} at index i:
    inv = #{j < i : sigma^{-1}(j) > sigma^{-1}(i)}, pr the complement."""
    if not 1 <= i <= w.rank:
        raise ValueError("index out of range")
    si = w.sigma_inv(i)
    inv = sum(1 for j in range(1, i) if w.sigma_inv(j) > si)
    return inv, (i - 1) - inv


def s_action(rs: RootSystemC, i: int, s):
    """Shifted action of sigma_{alpha_i} on the complex parameters:
    s_j -> s_j - (2<a_j,a_i>/<a_i,a_i>)(s_i - 1/2)."""
    if not 1 <= i <= rs.rank:
        raise ValueError("reflection index out of range")
    ai = rs.simple_roots[i - 1]
    shift = Fraction(s[i - 1]) - Fraction(1, 2)
    out = []
    for j in range(1, rs.rank + 1):
        coeff = Fraction(2) * inner(rs.simple_roots[j - 1], ai) / inner(ai, ai)
        out.append(Fraction(s[j - 1]) - coeff * shift)
    return tuple(out)
