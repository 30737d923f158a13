"""Per-entry weighting factors and the prime-power coefficient table.

Every entry of a pattern carries a factor: q^{v} or q^{u} at minimal
entries, and a Gauss sum g_t(p^{c}, p^{modulus exponent}) otherwise.  The
product over all entries of a strict pattern is G(P); grouping the G(P) by
support vector k(P) gives the coefficient table H(p^k; p^l).

Degenerate coincidence: an entry b_{i,r} = a_{i-1,r} = 0 meets both the
minimal and the maximal equality at once.  Its factor is zero - the only
convention under which the stable-case product formula and the n = 1
character identities both hold (such patterns correspond to fillings that
are not standard shifted tableaux).  In strict rows it is the one entry
minimal at zero slack, in pair i exactly when a_{i-1} ends in 0
(patterns.is_degenerate); a tie in a row squeezes the entry below it too.
"""

from functools import cached_property, lru_cache
from operator import add

from .gauss import GaussValue, add_terms, gauss_eval
from .patterns import (EntryRecord, GTPattern, _decreasing, _slot,
                       enumerate_patterns, pair_entries, pair_sums,
                       pair_weight)
from .record import Record
from .roots import LambdaTwist, support_vector


def gamma_a(e: EntryRecord, n: int) -> GaussValue:
    """Factor attached to the entry with record e."""
    if e.is_min:
        return GaussValue.q_power(n, e.exp)
    return gauss_eval(e.t, e.exp + e.slack - 1, e.exp, n)


def gamma_b(e: EntryRecord, n: int) -> GaussValue:
    """gamma_a, except zero at the degenerate coincidence, where the
    b-entry is minimal at zero slack."""
    if e.is_min and not e.slack:
        return GaussValue.zero(n)
    return gamma_a(e, n)


@lru_cache(maxsize=2 ** 14)
def pair_G(r: int, i: int, above: tuple, b: tuple, below: tuple,
           n: int) -> GaussValue:
    """Product of the entry factors of row pair i, in pair_positions order,
    from the rows a_{i-1} (`above`), b_i and a_i (`below`, empty for i = r);
    zero unless all three rows strictly decrease."""
    if not all(map(_decreasing, (above, b, below))):
        return GaussValue.zero(n)
    out = GaussValue.one(n)
    for e in pair_entries(r, i, above, b, below):
        gamma = gamma_b if e.pos[0] == "b" else gamma_a
        out = out * gamma(e, n)
        if out.is_zero():
            break
    return out


def pattern_G(P: GTPattern, n: int) -> GaussValue:
    """Product of the row-pair factors; zero for non-strict patterns, since
    every row lies in some pair: a_0 above pair 1, b_i and a_i in pair i."""
    r = P.rank
    out = None
    for i in range(1, r + 1):
        g = pair_G(r, i, P.a[i - 1], P.b[i - 1], P.a[i] if i < r else (), n)
        if g.is_zero():
            return g
        out = g if out is None else out * g
    return out


def k_sum_classes(twist: LambdaTwist) -> list:
    """Lemma 3's two sides folded over the row pairs: sorted (k, exponent
    sum, number of patterns) over GT(lambda+rho), where lambda+rho + wgt =
    sum k_i alpha_i and the exponent sum is sum v_{i,j} + sum u_{i,j}.
    The lemma says sum(k) equals the exponent sum in every class."""
    sums = pair_sums(twist.top_row, lambda r, i, *rows: ((
        *_slot(r, i, pair_weight(*rows)),
        sum(e.exp for e in pair_entries(r, i, *rows))), 1))
    return sorted((support_vector(tuple(map(add, twist.L, wgt))), exp, count)
                  for (*wgt, exp), count in sums.items())


class HTable(Record):
    """Prime-power coefficients: a finite map k -> GaussValue.

    Keys cover every k hit by some pattern; values that cancel to zero are
    retained so that cancellation is distinguishable from empty support."""

    twist: LambdaTwist
    n: int
    entries: tuple  # ((k, GaussValue), ...) sorted by k

    @cached_property
    def _by_key(self) -> dict:
        return dict(self.entries)

    def value(self, k) -> GaussValue:
        return self._by_key.get(tuple(k), GaussValue.zero(self.n))

    def keys(self):
        return [k for k, _ in self.entries]

    def nonzero_keys(self):
        return [k for k, v in self.entries if not v.is_zero()]


def h_table(twist: LambdaTwist, n: int) -> HTable:
    """Group pattern products over GT(lambda+rho) by support vector.  Each
    key holds one {(syms, q_exp): coeff} map, canonicalized once when the
    table is built, so a key that only zero products reach, or whose
    products cancel, holds zero."""
    if n < 1:
        raise ValueError("degree must be positive")
    acc = {}
    for P in enumerate_patterns(twist.top_row):
        add_terms(acc.setdefault(P.k_vec, {}), pattern_G(P, n).terms)
    return HTable(twist, n, tuple((k, GaussValue._canonical(n, terms))
                                  for k, terms in sorted(acc.items())))
