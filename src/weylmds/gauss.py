"""Exact n-th power Gauss sums g_t(p^c, p^v) at a prime p.

Values live in the ring Z[q, 1/q] extended by formal symbols G[1]..G[n-1],
where G[s] stands for the primitive sum over d mod p of chi^s(d)
e^{2 pi i d / p} for a fixed multiplicative character chi of exact order n,
and q stands for p itself.  The only simplification applied to symbol
products is G[s] G[n-s] -> q (valid for odd n, where chi(-1) = 1);
everything else stays formal.

A floating-point brute-force evaluator over Z/p^vZ doubles as an
independent oracle for all symbolic values.
"""

import cmath
from functools import cached_property, reduce
from itertools import chain, islice, repeat
from math import inf, isqrt, sqrt
from operator import add, mul

from .record import Record

# Largest modulus p^v a brute-force sum runs over, and so the largest prime
BRUTE_FORCE_LIMIT = 10 ** 7
# Most brute-force terms the numeric_eval calls at one context may sum
# (about 150 s): a context sums each of its n - 1 primitive sums of p terms
# once, however many values it evaluates
NUMERIC_TERMS_LIMIT = 10 ** 9


def _symbol_product(n: int, s1: tuple, s2: tuple):
    """(extra q exponent, sorted symbols) of G[s1] G[s2] for two symbol
    lists that each hold no conjugate pair: at odd n an s of one list meets
    an n - s of the other and the pair becomes q."""
    if not (s1 and s2):
        return 0, s1 or s2
    rest = list(s1 + s2)
    if n % 2:
        for s in s1:
            if n - s in rest:  # then it is in s2
                rest.remove(s)
                rest.remove(n - s)
    return (len(s1) + len(s2) - len(rest)) // 2, tuple(sorted(rest))


def add_terms(acc: dict, terms) -> dict:
    """Add canonical (syms, q_exp, coeff) terms into acc, a
    {(syms, q_exp): coeff} map, which GaussValue._canonical reads back."""
    for syms, q_exp, coeff in terms:
        key = (syms, q_exp)
        acc[key] = acc.get(key, 0) + coeff
    return acc


class GaussValue(Record):
    """Canonical sum of terms coeff * q^e * G[s_1]...G[s_k] for a fixed n,
    where e may be negative, as in the reduced n = 1 table Htilde.

    Canonical by construction: only `symbol` reads a raw symbol index, and
    it checks it; every operation keeps the form."""

    n: int
    # ((syms, q_exp, coeff), ...) sorted, each (syms, q_exp) once, coeff != 0,
    # syms sorted and, at odd n, never holding both s and n - s
    terms: tuple

    def __init__(self, n, terms=()):  # hot in the ring: no arity check
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", terms)

    @staticmethod
    def _canonical(n, acc):
        """The value of a {(syms, q_exp): coeff} map with canonical keys,
        sorted, zeros dropped."""
        return GaussValue(n, tuple(sorted(
            (syms, e, c) for (syms, e), c in acc.items() if c)))

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
        return GaussValue(n, (((), v - 1, -1), ((), v, 1)))

    @staticmethod
    def symbol(n: int, s: int, q_exp: int = 0, coeff: int = 1) -> "GaussValue":
        """coeff * q^q_exp * G[s], for 1 <= s <= n - 1."""
        if not 1 <= s <= n - 1:
            raise ValueError("symbol index out of range")
        if coeff == 0:
            return GaussValue.zero(n)
        return GaussValue(n, (((s,), q_exp, coeff),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "GaussValue") -> "GaussValue":
        if self.n != other.n:
            raise ValueError("mismatched symbol degree")
        return GaussValue._canonical(
            self.n, add_terms(add_terms({}, self.terms), other.terms))

    def __neg__(self) -> "GaussValue":
        return GaussValue(self.n, tuple((s, e, -c) for s, e, c in self.terms))

    def __sub__(self, other: "GaussValue") -> "GaussValue":
        return self + (-other)

    def __mul__(self, other: "GaussValue") -> "GaussValue":
        if self.n != other.n:
            raise ValueError("mismatched symbol degree")
        n, x, y = self.n, self.terms, other.terms
        if not (x and y):
            return GaussValue(n, ())
        if len(x) == 1 and not x[0][0]:
            x, y = y, x
        # the tuples are built from lists: a tuple of a generator grows and
        # shrinks its block, which raised a rank-3 table's peak RSS 0.8 MB
        if len(y) == 1 and not y[0][0]:  # times c q^e: shift and scale,
            _, e, c = y[0]               # which keeps terms canonical
            return GaussValue(n, tuple([(s1, e1 + e, c1 * c)
                                        for s1, e1, c1 in x]))
        # the last term holds the largest symbol list, so () there means
        # no symbol anywhere: collect by q exponent alone
        if not x[-1][0] and not y[-1][0]:
            acc = {}
            for _, e1, c1 in x:
                for _, e2, c2 in y:
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
            return GaussValue(n, tuple([((), e, c) for e, c in
                                        sorted(acc.items()) if c]))
        acc = {}
        for s1, e1, c1 in x:
            for s2, e2, c2 in y:
                extra, syms = _symbol_product(n, s1, s2)
                key = (syms, e1 + e2 + extra)
                acc[key] = acc.get(key, 0) + c1 * c2
        return GaussValue._canonical(n, acc)

    def to_json(self):
        """Terms in canonical order, big integers as decimal strings."""
        return [{"c": str(c), "q": e, "g": list(s)} for s, e, c in self.terms]


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
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


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
    for g in range(1, p):  # 1 generates the units of Z/2
        if all(pow(g, (p - 1) // f, p) != 1 for f in fact):
            return g
    raise AssertionError("no primitive root found")


class ArithContext(Record):
    """Numeric backend at a prime p = 1 mod n: a fixed order-n character chi
    realized through a primitive root, and the standard additive character.

    Both are tabulated on first use and kept for the context's lifetime:
    chi on the p residues of Z/p (one int each), and e(x / p^v) on the p^v
    residues of Z/p^v, once for each v a brute-force sum asks for (about
    40 B per residue, so about 400 MB at v = 1 and p near 10^7).  A value
    without symbols needs neither.  Each brute-force sum is kept too, in
    `sums` by (t, c, v), so a repeated request is summed once, and a context
    whose n - 1 primitive sums would add more than NUMERIC_TERMS_LIMIT terms
    is refused when it is built."""

    n: int
    p: int
    root: int  # found by __post_init__

    def __init__(self, n: int, p: int):
        # additive_tables: v -> table; sums: (t, c, v) -> gauss_brute's sum
        self.__dict__.update(n=n, p=p, additive_tables={}, sums={})
        self.__post_init__()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("degree must be positive")
        if self.p > BRUTE_FORCE_LIMIT:  # a brute-force sum tabulates Z/p
            raise ValueError(f"p = {self.p} exceeds the limit 10^7")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if (self.p - 1) % self.n:
            raise ValueError("p must be congruent to 1 mod n")
        terms = (self.n - 1) * self.p
        if terms > NUMERIC_TERMS_LIMIT:
            raise OverflowError(f"numeric evaluation needs {terms} "
                                f"brute-force terms, above the limit 10^9")
        object.__setattr__(self, "root", _primitive_root(self.p))

    @cached_property
    def chi_table(self) -> list:
        """The exponent s in Z/n with chi(d) = e^{2 pi i s / n} at index d
        of Z/p; index 0, where chi vanishes, holds 0.  Built on first use."""
        table = [0] * self.p
        x = 1
        for k in range(self.p - 1):
            table[x] = k % self.n
            x = (x * self.root) % self.p
        return table

    def additive_table(self, v_exp: int) -> list:
        """e(x / p^v) = exp(2 pi i x / p^v) at index x of Z/p^v, built on
        the first call for v."""
        table = self.additive_tables.get(v_exp)
        if table is None:
            modulus = brute_force_modulus(self.p, v_exp)
            table = [cmath.exp(2j * cmath.pi * x / modulus)
                     for x in range(modulus)]
            self.additive_tables[v_exp] = table
        return table


def brute_force_modulus(p: int, v_exp: int) -> int:
    """p^v, refused above BRUTE_FORCE_LIMIT."""
    modulus = p ** v_exp
    if modulus > BRUTE_FORCE_LIMIT:
        raise OverflowError("modulus too large for brute-force summation")
    return modulus


def gauss_brute(t: int, c_exp: int, v_exp: int, ctx: ArithContext) -> complex:
    """Literal exponential sum over the units d mod p^v, the numeric oracle:
    the terms chi^{t v}(d) e(d p^c / p^v), added in increasing d.  Summed
    once per context: ctx.sums holds each (t, c, v) for its lifetime."""
    if v_exp < 0 or c_exp < 0:
        raise ValueError("negative exponent")
    if v_exp == 0:
        return complex(1.0)
    key = (t, c_exp, v_exp)
    if key in ctx.sums:
        return ctx.sums[key]
    n, p = ctx.n, ctx.p
    e = ctx.additive_table(v_exp)
    modulus = len(e)
    tv = t * v_exp
    chi_tv = [cmath.exp(2j * cmath.pi * ((s * tv) % n) / n) for s in range(n)]
    # d p^c mod p^v = p^c (d mod p^{v-c}), and 0 once c >= v: the entries
    # for d = 0, 1, 2, ... repeat one period of e.  At c = 0 the period is
    # e itself, not a copy, which would add 8 B per residue
    period = e[::p ** min(c_exp, v_exp)] if c_exp else e
    entries = chain.from_iterable(repeat(period, modulus // len(period)))
    total = 0.0 + 0.0j
    for _ in range(modulus // p):  # the block d = kp, ..., kp + p - 1
        next(entries)  # d = kp is no unit; weights: chi^{tv}(d mod p)
        weights = map(chi_tv.__getitem__, islice(ctx.chi_table, 1, None))
        total = reduce(add, map(mul, weights, islice(entries, p - 1)), total)
    ctx.sums[key] = total
    return total


def check_numeric_terms(ctx: ArithContext, values) -> None:
    """Refuse the numeric_eval of `values` at ctx, before any sum, when a
    term c q^e G[s_1]..G[s_j] overflows a float: p^e, or its size
    |c| p^(e + j/2), as each primitive sum has absolute value sqrt(p)."""
    raw = [t for v in values for t in v.terms]
    q_exp = max((e for _, e, _ in raw), default=0)
    p = float(ctx.p)
    try:
        p ** q_exp
    except OverflowError:
        raise OverflowError(f"p^e = {ctx.p}^{q_exp} overflows float") from None
    for syms, e, c in raw:
        if abs(c) * p ** e * sqrt(p) ** len(syms) == inf:
            raise OverflowError(f"|c| p^(e + j/2) = {abs(c)} * {ctx.p}^"
                                f"{e + len(syms) / 2:g} overflows float")


def numeric_eval(value: GaussValue, ctx: ArithContext) -> complex:
    """Substitute q -> p and G[s] -> the primitive brute-force sum; a
    result that is not finite is refused."""
    if value.n != ctx.n:
        raise ValueError("context degree does not match value")
    prim = {s: gauss_brute(s, 0, 1, ctx) for s in range(1, ctx.n)}
    total = 0.0 + 0.0j
    for syms, e, c in value.terms:
        term = complex(c) * float(ctx.p) ** e
        for s in syms:
            term *= prim[s]
        total += term
    if not cmath.isfinite(total):
        raise OverflowError(f"numeric value at p = {ctx.p} is not finite")
    return total
