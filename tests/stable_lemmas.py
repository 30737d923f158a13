"""The proof steps of the stable case, kept beside the tests that check them.

`verify stable` checks the theorem itself: at n at or above the stability
bound the table values are the products over Phi(w), and the support is the
Weyl orbit, both read off v = w(lambda+rho).  The helpers here are the
signed permutations as group elements, with Phi(w), k(w) and the product
over Phi(w) computed from each element: the oracle that the orbit walk of
`verify stable` must equal.  Then the steps of the theorem's proof - the
typed decomposition of Phi(w), the maximal-entry counts and the bijection
between stable patterns and signed permutations - together with the
Weyl-group and root-system facts that only these checks read.  No command
reaches them.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

from weylmds.gauss import GaussValue, gauss_eval
from weylmds.patterns import GTPattern, is_strict, pair_entries
from weylmds.record import Record
from weylmds.roots import (LambdaTwist, RootSystemC, build_root_system,
                           d_lambda, inner, norm_sq, stability_bound,
                           support_vector)


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
    def all_elements(r: int):
        """All 2^r r! elements in canonical sorted (sigma, eps) order."""
        for sigma in permutations(range(1, r + 1)):
            for eps in product((-1, 1), repeat=r):
                yield WeylElement(sigma, eps)


def phi_w(w: WeylElement):
    """The positive roots sent negative by w."""
    positive = build_root_system(w.rank).positive_roots
    return tuple(alpha for alpha in positive
                 if tuple(-c for c in w.act(alpha)) in positive)


def k_of_weyl(w: WeylElement, twist: LambdaTwist) -> tuple:
    """Solve lambda+rho - w(lambda+rho) = sum k_i alpha_i for k."""
    L = twist.L
    return support_vector([a - b for a, b in zip(L, w.act(L))])


def h_stable_long(w: WeylElement, twist: LambdaTwist, n: int) -> GaussValue:
    """prod over Phi(w) of g_{|alpha|^2}(p^{d-1}, p^d), d = d_lambda(alpha):
    the stable-case value at k(w), one signed permutation at a time."""
    out = GaussValue.one(n)
    for alpha in phi_w(w):
        d = d_lambda(twist, alpha)
        out = out * gauss_eval(norm_sq(alpha), d - 1, d, n)
    return out


# Signed permutations as a group: composition applies the right factor
# first, (w1 * w2)(t) = w1(w2(t)).

def compose(w1: WeylElement, w2: WeylElement) -> WeylElement:
    r = w1.rank
    sigma = tuple(w1.sigma[w2.sigma[m] - 1] for m in range(r))
    eps = tuple(w1.eps[i] * w2.eps[w1.sigma_inv(i + 1) - 1]
                for i in range(r))
    return WeylElement(sigma, eps)


def inverse(w: WeylElement) -> WeylElement:
    r = w.rank
    sigma = tuple(w.sigma_inv(m + 1) for m in range(r))
    eps = tuple(w.eps[w.sigma[j] - 1] for j in range(r))
    return WeylElement(sigma, eps)


def sign(w: WeylElement) -> int:
    s = 1
    perm = list(w.sigma)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    for e in w.eps:
        s *= e
    return s


def identity_element(r: int) -> WeylElement:
    return WeylElement(tuple(range(1, r + 1)), (1,) * r)


def long_element(r: int) -> WeylElement:
    return WeylElement(tuple(range(1, r + 1)), (-1,) * r)


def fundamental_weights(r: int) -> tuple:
    """The fundamental weights e_i + ... + e_r of C_r, i = 1..r."""
    return tuple(tuple(0 if k < i else 1 for k in range(r)) for i in range(r))


def d_lambda_fraction(twist: LambdaTwist, alpha) -> Fraction:
    """d(alpha) = 2<lambda+rho, alpha> / <alpha, alpha> in the normalized
    pairing, as an exact fraction: the definition d_lambda computes."""
    if alpha not in build_root_system(twist.rank).positive_roots:
        raise ValueError(f"{alpha} is not a positive root")
    return Fraction(2) * inner(twist.L, alpha) / inner(alpha, alpha)


def stability_min_n(twist: LambdaTwist) -> int:
    """Least odd n meeting the stability bound."""
    b = stability_bound(twist)
    return b if b % 2 == 1 else b + 1


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


def pair_records(P: GTPattern, i: int):
    """The EntryRecords of row pair i of P, 1 <= i <= r, lazily."""
    if not 1 <= i <= P.rank:
        raise ValueError(f"no row pair {i}")
    return pair_entries(P.rank, i, *list(P.row_pairs())[i - 1])


def records(P: GTPattern):
    """Every EntryRecord of P, pair by pair, lazily."""
    for i, pair in enumerate(P.row_pairs(), 1):
        yield from pair_entries(P.rank, i, *pair)


def record(P: GTPattern, pos):
    """The EntryRecord of P at position (kind, i, j)."""
    for e in pair_records(P, pos[1]):
        if e.pos == pos:
            return e
    raise ValueError(f"no entry {pos}")


# Stable patterns and signed permutations

def is_stable(P: GTPattern) -> bool:
    """True iff P is strict and every row pair reads as a block of minimal
    entries followed by a block of maximal entries."""
    if not is_strict(P):
        return False
    for i in range(1, P.rank + 1):
        tags = [e.tag for e in pair_records(P, i)]
        m = tags.count("minimal")
        if tags != ["minimal"] * m + ["maximal"] * (len(tags) - m):
            return False
    return True


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


# The typed decomposition of Phi(w) and the maximal-entry counts

@dataclass(frozen=True)
class TypedRoot:
    """A positive root tagged by its (i, j) slot in the decomposition
    indexed by i = 1..r and j < i: kind L is 2e_{sigma^{-1}(i)}, kind S_plus
    is e_{sigma^{-1}(j)} + e_{sigma^{-1}(i)}, kind S_minus the difference
    taken positively."""

    kind: str
    i: int
    j: int  # 0 for kind L
    root: tuple


def _e(r, idx):
    return tuple(1 if k == idx - 1 else 0 for k in range(r))


def typed_positive_roots(w: WeylElement):
    """Every positive root exactly once, tagged with its (i, j) slot."""
    r = w.rank
    out = []
    for i in range(1, r + 1):
        si = w.sigma_inv(i)
        out.append(TypedRoot("L", i, 0, tuple(2 * c for c in _e(r, si))))
        for j in range(1, i):
            sj = w.sigma_inv(j)
            plus = tuple(a + b for a, b in zip(_e(r, sj), _e(r, si)))
            out.append(TypedRoot("S_plus", i, j, plus))
            if sj > si:
                minus = tuple(a - b for a, b in zip(_e(r, sj), _e(r, si)))
            else:
                minus = tuple(a - b for a, b in zip(_e(r, si), _e(r, sj)))
            out.append(TypedRoot("S_minus", i, j, minus))
    return out


def phi_w_typed(w: WeylElement):
    """The inverted positive roots grouped by slot index i, by the membership
    criteria: L and S_plus lie in the i-th part iff eps^(i) = -1; S_minus
    lies there iff the sign of eps^(i) matches the relative order of
    sigma^{-1}(j) and sigma^{-1}(i)."""
    r = w.rank
    parts = {i: [] for i in range(1, r + 1)}
    for tr in typed_positive_roots(w):
        eps_i = w.eps[tr.i - 1]
        if tr.kind in ("L", "S_plus"):
            member = eps_i == -1
        else:
            si, sj = w.sigma_inv(tr.i), w.sigma_inv(tr.j)
            member = (sj < si and eps_i == -1) or (sj > si and eps_i == 1)
        if member:
            parts[tr.i].append(tr)
    return parts


def d_sets(w: WeylElement, twist: LambdaTwist):
    """D_i = multiset of d_lambda over the i-th part of the decomposition."""
    return {i: sorted(d_lambda(twist, tr.root) for tr in part)
            for i, part in phi_w_typed(w).items()}


def maximal_count(P: GTPattern, i: int) -> int:
    """Number of maximal entries in rows b_{r+1-i} and a_{r+1-i} together."""
    if not is_stable(P):
        raise ValueError("pattern is not stable")
    return sum(1 for e in pair_records(P, P.rank + 1 - i)
               if e.tag == "maximal")


def maximal_count_formula(w: WeylElement, i: int) -> int:
    """inv_i(w^{-1}) when eps^(i) = +1, else i + pr_i(w^{-1})."""
    inv, pr = inv_pr_counts(w, i)
    return inv if w.eps[i - 1] == 1 else i + pr
