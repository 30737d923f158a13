"""Per-entry weighting factors and the prime-power coefficient table.

Every entry of a pattern carries a factor: q^{v} or q^{u} at minimal
entries, and a Gauss sum g_t(p^{c}, p^{modulus exponent}) otherwise.  The
product over all entries of a strict pattern is G(P); grouping the G(P) by
support vector k(P) gives the coefficient table H(p^k; p^l).

Degenerate coincidence: an entry b_{i,r} = a_{i-1,r} = 0 meets both the
minimal and the maximal equality at once.  Its factor is zero - the only
convention under which the stable-case product formula and the n = 1
character identities both hold (such patterns correspond to fillings that
are not standard shifted tableaux).
"""

from functools import cache, cached_property

from .gauss import GaussValue, gauss_eval
from .patterns import (EntryRecord, GTPattern, LambdaTwist,
                       enumerate_patterns, pair_entries)
from .record import Record


def gamma_b(e: EntryRecord, n: int) -> GaussValue:
    """Factor attached to the b-entry with record e; zero at the degenerate
    coincidence, where the entry is minimal at zero slack."""
    if e.is_min:
        return GaussValue.q_power(n, e.exp) if e.slack else GaussValue.zero(n)
    return gauss_eval(e.t, e.exp + e.slack - 1, e.exp, n)


def gamma_a(e: EntryRecord, n: int) -> GaussValue:
    """Factor attached to the a-entry with record e."""
    if e.is_min:
        return GaussValue.q_power(n, e.exp)
    return gauss_eval(e.t, e.exp + e.slack - 1, e.exp, n)


@cache
def pair_G(r: int, i: int, above: tuple, b: tuple, below: tuple,
           n: int) -> GaussValue:
    """Product of the entry factors of row pair i, in pair_positions order,
    from the rows a_{i-1} (`above`), b_i and a_i (`below`, empty for i = r);
    zero unless all three rows strictly decrease."""
    if any(x <= y for row in (above, b, below) for x, y in zip(row, row[1:])):
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


def verify_k_sum(P: GTPattern) -> bool:
    """sum k_i = sum v_{i,j} + sum u_{i,j}, exactly."""
    return sum(P.k_vec) == sum(e.exp for e in P.records())


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

    def entries_json(self):
        """The JSON object of each entry, lazily."""
        return ({"k": list(k), "value": v.to_json()} for k, v in self.entries)

    def to_json(self, entries=None) -> dict:
        """The table as JSON; `entries`, when given, stands in for the list
        of entries_json() (the CLI writes that list as it goes)."""
        if entries is None:
            entries = list(self.entries_json())
        return {"l": list(self.twist.l), "n": self.n, "entries": entries}


def h_table(twist: LambdaTwist, n: int) -> HTable:
    """Group pattern products over GT(lambda+rho) by support vector."""
    if n < 1:
        raise ValueError("degree must be positive")
    zero = GaussValue.zero(n)
    acc = {}
    for P in enumerate_patterns(twist.top_row):
        k = P.k_vec
        g = pattern_G(P, n)
        acc.setdefault(k, zero)
        if not g.is_zero():  # a zero G(P) only keeps its k as a key
            acc[k] = acc[k] + g
    return HTable(twist, n, tuple(sorted(acc.items())))
