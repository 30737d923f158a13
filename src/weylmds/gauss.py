"""Exact n-th power Gauss sums g_t(p^c, p^v) at a prime p.

Values live in the ring Z[q] extended by formal symbols G[1]..G[n-1], where
G[s] stands for the primitive sum over d mod p of chi^s(d) e^{2 pi i d / p}
for a fixed multiplicative character chi of exact order n, and q stands for
p itself.  The only simplification applied to symbol products is
G[s] G[n-s] -> q (valid for odd n, where chi(-1) = 1); everything else stays
formal.

A floating-point brute-force evaluator over Z/p^vZ doubles as an
independent oracle for all symbolic values.
"""

import cmath
from collections import Counter
from dataclasses import dataclass, field


def _fold_symbols(n: int, syms: Counter):
    """Apply G[s]G[n-s] -> q (odd n only, where chi(-1) = 1); return
    (extra q exponent, remaining symbols)."""
    extra = 0
    if n > 1 and n % 2 == 1:
        for s in range(1, n):
            opp = n - s
            if s >= opp:
                break
            pairs = min(syms[s], syms[opp])
            if pairs:
                extra += pairs
                syms[s] -= pairs
                syms[opp] -= pairs
    rest = []
    for s in sorted(syms):
        rest.extend([s] * syms[s])
    return extra, tuple(rest)


@dataclass(frozen=True)
class GaussValue:
    """Canonical sum of terms coeff * q^e * G[s_1]...G[s_k] for a fixed n."""

    n: int
    terms: tuple = ()  # ((syms, q_exp, coeff), ...) sorted, coeff != 0

    @staticmethod
    def _canonical(n, raw):
        acc = {}
        for syms, q_exp, coeff in raw:
            cnt = Counter(syms)
            if any(not 1 <= s <= n - 1 for s in cnt):
                raise ValueError("symbol index out of range")
            extra, folded = _fold_symbols(n, cnt)
            key = (folded, q_exp + extra)
            acc[key] = acc.get(key, 0) + coeff
        terms = tuple(sorted((syms, e, c) for (syms, e), c in acc.items()
                             if c != 0))
        return GaussValue(n, terms)

    @staticmethod
    def zero(n: int) -> "GaussValue":
        return GaussValue(n, ())

    @staticmethod
    def one(n: int) -> "GaussValue":
        return GaussValue(n, (((), 0, 1),))

    @staticmethod
    def q_power(n: int, e: int, coeff: int = 1) -> "GaussValue":
        if coeff == 0:
            return GaussValue.zero(n)
        return GaussValue(n, (((), e, coeff),))

    @staticmethod
    def phi(n: int, v: int) -> "GaussValue":
        """The unit count phi(p^v) = q^{v-1}(q - 1), with phi(p^0) = 1."""
        if v == 0:
            return GaussValue.one(n)
        return GaussValue._canonical(n, [((), v, 1), ((), v - 1, -1)])

    @staticmethod
    def symbol(n: int, s: int, q_exp: int = 0, coeff: int = 1) -> "GaussValue":
        return GaussValue._canonical(n, [((s % n,), q_exp, coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GaussValue") -> "GaussValue":
        if self.n != other.n:
            raise ValueError("mismatched symbol degree")
        return GaussValue._canonical(self.n, self.terms + other.terms)

    def __neg__(self) -> "GaussValue":
        return GaussValue(self.n, tuple((s, e, -c) for s, e, c in self.terms))

    def __sub__(self, other: "GaussValue") -> "GaussValue":
        return self + (-other)

    def __mul__(self, other: "GaussValue") -> "GaussValue":
        if self.n != other.n:
            raise ValueError("mismatched symbol degree")
        raw = [(s1 + s2, e1 + e2, c1 * c2)
               for s1, e1, c1 in self.terms
               for s2, e2, c2 in other.terms]
        return GaussValue._canonical(self.n, raw)

    def to_json(self):
        """Terms in canonical order, big integers as decimal strings."""
        return [{"c": str(c), "q": e, "g": list(s)}
                for s, e, c in sorted(self.terms, key=lambda t: (t[0], t[1]))]

    @staticmethod
    def from_json(n, obj) -> "GaussValue":
        return GaussValue._canonical(
            n, [(tuple(t["g"]), int(t["q"]), int(t["c"])) for t in obj])


def gauss_eval(t: int, c_exp: int, v_exp: int, n: int) -> GaussValue:
    """Symbolic g_t(p^{c_exp}, p^{v_exp}) by the standard evaluation:

    v = 0          -> 1
    c >= v         -> phi(p^v) when n | t v, else 0
    c = v - 1      -> -q^{v-1} when n | t v, else q^{v-1} G[t v mod n]
    c <= v - 2     -> 0
    """
    if v_exp < 0 or n < 1:
        raise ValueError("invalid exponents")
    if v_exp == 0:
        return GaussValue.one(n)
    if c_exp >= v_exp:
        return GaussValue.phi(n, v_exp) if (t * v_exp) % n == 0 \
            else GaussValue.zero(n)
    if c_exp == v_exp - 1:
        if (t * v_exp) % n == 0:
            return GaussValue.q_power(n, v_exp - 1, -1)
        return GaussValue.symbol(n, (t * v_exp) % n, v_exp - 1)
    return GaussValue.zero(n)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _primitive_root(p: int) -> int:
    fact = []
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            fact.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        fact.append(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fact):
            return g
    raise AssertionError("no primitive root found")


@dataclass(frozen=True)
class ArithContext:
    """Numeric backend at a prime p = 1 mod n: a fixed order-n character chi
    realized through a primitive root, and the standard additive character."""

    n: int
    p: int
    root: int = field(init=False)
    dlog: tuple = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if (self.p - 1) % self.n:
            raise ValueError("p must be congruent to 1 mod n")
        g = _primitive_root(self.p)
        table = [0] * self.p
        x = 1
        for k in range(self.p - 1):
            table[x] = k
            x = (x * g) % self.p
        object.__setattr__(self, "root", g)
        object.__setattr__(self, "dlog", tuple(table))

    def chi_index(self, d: int):
        """Exponent s in Z/n with chi(d) = e^{2 pi i s / n}, or None if p | d."""
        d %= self.p
        if d == 0:
            return None
        return self.dlog[d] % self.n

    def chi_value(self, d: int, power: int = 1) -> complex:
        s = self.chi_index(d)
        if s is None:
            return 0.0
        return cmath.exp(2j * cmath.pi * ((s * power) % self.n) / self.n)


def gauss_brute(t: int, c_exp: int, v_exp: int, ctx: ArithContext) -> complex:
    """Literal exponential sum over d mod p^{v_exp}, the numeric oracle."""
    if v_exp < 0:
        raise ValueError("negative modulus exponent")
    if v_exp == 0:
        return complex(1.0)
    modulus = ctx.p ** v_exp
    if modulus > 10 ** 7:
        raise OverflowError("modulus too large for brute-force summation")
    total = 0.0 + 0.0j
    tv = t * v_exp
    for d in range(1, modulus):
        if d % ctx.p == 0:
            continue
        phase = (d * ctx.p ** c_exp) % modulus
        total += (ctx.chi_value(d, tv)
                  * cmath.exp(2j * cmath.pi * phase / modulus))
    return total


def numeric_eval(value: GaussValue, ctx: ArithContext) -> complex:
    """Substitute q -> p and G[s] -> the primitive brute-force sum."""
    if value.n != ctx.n:
        raise ValueError("context degree does not match value")
    prim = {s: gauss_brute(s, 0, 1, ctx) for s in range(1, ctx.n)}
    total = 0.0 + 0.0j
    for syms, e, c in value.terms:
        term = complex(c) * float(ctx.p) ** e
        for s in syms:
            term *= prim[s]
        total += term
    return total
