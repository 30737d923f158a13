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

from dataclasses import dataclass
from functools import cached_property

from .gauss import GaussValue, gauss_eval
from .patterns import (GTPattern, LambdaTwist, entry_bounds_flags,
                       entry_positions, enumerate_patterns, is_strict)


def gamma_b(P: GTPattern, i: int, j: int, n: int) -> GaussValue:
    """Factor attached to b_{i,j} (compact form)."""
    r = P.rank
    b = P.b_entry(i, j)
    if b is None:
        raise ValueError(f"no entry b_{{{i},{j}}}")
    is_min, is_max = entry_bounds_flags(P, ("b", i, j))
    if is_min and is_max:
        return GaussValue.zero(n)
    v = P.v_data(i, j)
    if is_min:
        return GaussValue.q_power(n, v)
    t = 2 if j == r else 1
    low = P.a_entry(i - 1, j + 1, 0)
    return gauss_eval(t, v + b - low - 1, v, n)


def gamma_a(P: GTPattern, i: int, j: int, n: int) -> GaussValue:
    """Factor attached to a_{i,j}, i >= 1 (compact form)."""
    a = P.a_entry(i, j)
    if a is None or i < 1:
        raise ValueError(f"no entry a_{{{i},{j}}}")
    if a == P.b_entry(i, j):
        return GaussValue.q_power(n, P.u_data(i, j))
    u = P.u_data(i, j)
    return gauss_eval(1, u - a + P.b_entry(i, j - 1) - 1, u, n)


def pattern_G(P: GTPattern, n: int) -> GaussValue:
    """Product of all entry factors; zero for non-strict patterns."""
    if not is_strict(P):
        return GaussValue.zero(n)
    out = GaussValue.one(n)
    for kind, i, j in entry_positions(P.rank):
        gamma = gamma_b if kind == "b" else gamma_a
        out = out * gamma(P, i, j, n)
        if out.is_zero():
            return out
    return out


def verify_k_sum(P: GTPattern) -> bool:
    """sum k_i = sum v_{i,j} + sum u_{i,j}, exactly."""
    total = sum(P.v_data(i, j) if kind == "b" else P.u_data(i, j)
                for kind, i, j in entry_positions(P.rank))
    return sum(P.k_vec) == total


@dataclass(frozen=True)
class HTable:
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

    def to_json(self) -> dict:
        return {"l": list(self.twist.l), "n": self.n,
                "entries": [{"k": list(k), "value": v.to_json()}
                            for k, v in self.entries]}


def h_table(twist: LambdaTwist, n: int) -> HTable:
    """Group pattern products over GT(lambda+rho) by support vector."""
    if n < 1:
        raise ValueError("degree must be positive")
    acc = {}
    for P in enumerate_patterns(twist.top_row):
        k = P.k_vec
        g = pattern_G(P, n)
        acc[k] = acc[k] + g if k in acc else g
    return HTable(twist, n, tuple(sorted(acc.items())))
