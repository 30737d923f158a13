"""Symplectic characters and the n = 1 identities.

All generating functions live in one Laurent ring with variables
x_1 .. x_r, t, q (in that order).  Characters are weight generating
functions over pattern enumerations.  The deformed-denominator and
Euler-factor identities are verified as exact polynomial equalities.
"""

from fractions import Fraction
from itertools import product
from math import comb, isqrt

from .coeffs import h_table
from .gauss import GaussValue
from .laurent import LaurentPoly
from .patterns import GTPattern, LambdaTwist, enumerate_patterns
# weyl_dimension is re-exported from roots
from .roots import (_check_partition, build_root_system, check_pattern_count,
                    weyl_dimension)
from .tableaux import standard_tableaux, tableau_stats


def ring_size(r: int) -> int:
    return r + 2


def t_index(r: int) -> int:
    return r


def q_index(r: int) -> int:
    return r + 1


def character_gt(lam, r: int) -> LaurentPoly:
    """Weight generating function over the pattern basis with top row lam."""
    lam = _check_partition(lam, r)
    acc = {}
    for P in enumerate_patterns(lam):
        e = P.wgt + (0, 0)
        acc[e] = acc.get(e, 0) + 1
    return LaurentPoly(ring_size(r), acc)


def deformation_D(r: int) -> LaurentPoly:
    """x^{rev rho} prod over positive roots alpha of (1 + t x^{-rev alpha}),
    where rev reads x_1 .. x_r in reverse order: x_1^r x_2^{r-1} ... x_r
    times (1 + t x_i^{-2}) and (1 + t x_i^{-1} x_j^{+-1}) for i < j."""
    n = ring_size(r)
    one = LaurentPoly.const(n, 1)
    rs = build_root_system(r)
    out = LaurentPoly.monomial(n, rs.rho[::-1] + (0, 0))
    for alpha in rs.positive_roots:
        rev = tuple(-c for c in reversed(alpha))
        out = out * (one + LaurentPoly.monomial(n, rev + (1, 0)))
    return out


def scale_x_by_t(poly: LaurentPoly, r: int) -> LaurentPoly:
    """Substitute x_i -> t x_i for every x variable."""
    ti = t_index(r)
    return poly.substitute(
        {i: (1, tuple(int(k in (i, ti)) for k in range(ring_size(r))))
         for i in range(r)})


def hk_rhs(r: int, stats) -> LaurentPoly:
    """sum over the statistics of the standard tableaux of
    t^{height + r(r+1)/2} (1 + t)^{str - r} x^{wgt}."""
    offset = r * (r + 1) // 2
    acc = {}
    for st in stats:
        base = st.height + offset
        generic = st.str_total - r
        for k in range(generic + 1):
            e = st.wgt + (base + k, 0)
            acc[e] = acc.get(e, 0) + comb(generic, k)
    return LaurentPoly(ring_size(r), acc)


def verify_deformation_identity(twist: LambdaTwist):
    """D(t x; t) sp_lam(x) against the tableau statistic sum, plus the
    weight-sum bridging identity for every tableau.  Returns
    (ok, difference polynomial)."""
    r = twist.rank
    offset = r * (r + 1) // 2
    fixed = offset + sum((r - i) * li for i, li in enumerate(twist.l))
    stats = [tableau_stats(S) for S in standard_tableaux(twist.top_row)]
    bridging = all(sum(st.wgt) == fixed - 2 * st.barred for st in stats)
    lhs = scale_x_by_t(deformation_D(r), r) * character_gt(twist.partition, r)
    diff = lhs - hk_rhs(r, stats)
    return (diff.is_zero() and bridging), diff


# ---------------------------------------------------------------------
# n = 1 reduction


def gauss_to_q_poly(value: GaussValue, r: int) -> LaurentPoly:
    """A symbol-free value as a Laurent polynomial in q."""
    n = ring_size(r)
    out = LaurentPoly.zero(n)
    for syms, e, c in value.terms:
        if syms:
            raise ValueError("value still contains primitive symbols")
        out = out + LaurentPoly.variable(n, q_index(r), e, coeff=c)
    return out


def reduced_pattern_weight(P: GTPattern, r: int) -> LaurentPoly:
    """Product over entries of the reduced factors 1, 1 - 1/q, -1/q for
    minimal, generic, maximal entries (zero at the degenerate right-edge
    coincidence)."""
    n = ring_size(r)
    qi = q_index(r)
    one = LaurentPoly.const(n, 1)
    qinv = LaurentPoly.variable(n, qi, -1)
    factors = {"minimal": one, "generic": one - qinv, "maximal": -qinv}
    out = one
    for e in P.records():
        if e.is_min and not e.slack:
            return LaurentPoly.zero(n)
        out = out * factors[e.tag]
    return out


def h_tilde_table(twist: LambdaTwist) -> dict:
    """Reduced coefficients: k -> sum over strict patterns of the reduced
    entry-factor product."""
    r = twist.rank
    acc = {}
    for P in enumerate_patterns(twist.top_row, strict=True):
        term = reduced_pattern_weight(P, r)
        k = P.k_vec
        acc[k] = acc.get(k, LaurentPoly.zero(ring_size(r))) + term
    return acc


def verify_h_tilde(twist: LambdaTwist):
    """H(p^k) = Htilde(p^k) q^{k_1 + ... + k_r} for every key."""
    r = twist.rank
    table = h_table(twist, 1)
    tilde = h_tilde_table(twist)
    qi = q_index(r)
    bad = []
    keys = set(table.keys()) | set(tilde.keys())
    for k in sorted(keys):
        lhs = gauss_to_q_poly(table.value(k), r)
        rhs = tilde.get(k, LaurentPoly.zero(ring_size(r)))
        rhs = rhs * LaurentPoly.variable(ring_size(r), qi, sum(k))
        if lhs != rhs:
            bad.append(k)
    return not bad, bad


# ---------------------------------------------------------------------
# Euler factors


def euler_factor_product(r: int) -> LaurentPoly:
    """prod over positive roots alpha of (1 - q^{-1} x^alpha); the simple
    root x^{alpha_i} is the Satake monomial of q^{1-2s_i}."""
    n = ring_size(r)
    one = LaurentPoly.const(n, 1)
    out = one
    for alpha in build_root_system(r).positive_roots:
        out = out * (one - LaurentPoly.monomial(n, alpha + (0, -1)))
    return out


def verify_euler_bridge(r: int):
    """x^rho D(-x/q; -1/q), where x^rho = x_1 x_2^2 ... x_r^r, equals the
    positive-root Euler product; exact in x and q."""
    n = ring_size(r)
    qi = q_index(r)
    qinv = (Fraction(-1), tuple(-1 if k == qi else 0 for k in range(n)))
    mapping = {t_index(r): qinv}
    for i in range(r):
        mono = [0] * n
        mono[i] = 1
        mono[qi] = -1
        mapping[i] = (Fraction(-1), tuple(mono))
    lhs = (deformation_D(r).substitute(mapping)
           * LaurentPoly.monomial(n, build_root_system(r).rho + (0, 0)))
    diff = lhs - euler_factor_product(r)
    return diff.is_zero(), diff


def h_generating_function(twist: LambdaTwist) -> LaurentPoly:
    """sum_k H(p^k) q^{-2 k . s}, written in the x variables: key k is
    x^{sum k_i alpha_i} q^{-|k|}."""
    r = twist.rank
    n = ring_size(r)
    simple = build_root_system(r).simple_roots
    out = LaurentPoly.zero(n)
    for k, val in h_table(twist, 1).entries:
        x = [sum(c * alpha[j] for c, alpha in zip(k, simple))
             for j in range(r)]
        out = out + (gauss_to_q_poly(val, r)
                     * LaurentPoly.monomial(n, x + [0, -sum(k)]))
    return out


def verify_euler_factor_identity(twist: LambdaTwist):
    """The full identity: the coefficient generating function equals
    x^{L - rho} sp_lam(x) times the Euler-factor product."""
    r = twist.rank
    n = ring_size(r)
    lhs = h_generating_function(twist)
    lead = tuple(reversed(twist.partition)) + (0, 0)  # L - rho = lambda
    rhs = (LaurentPoly.monomial(n, lead)
           * character_gt(twist.partition, r)
           * euler_factor_product(r))
    diff = lhs - rhs
    return diff.is_zero(), diff


# ---------------------------------------------------------------------
# global coefficients at n = 1


def _smallest_prime_factors(bound: int) -> list:
    """spf[x] is the smallest prime factor of x, for 2 <= x <= bound."""
    spf = list(range(bound + 1))
    for p in range(2, isqrt(bound) + 1):
        if spf[p] == p:
            for x in range(p * p, bound + 1, p):
                if spf[x] == x:
                    spf[x] = p
    return spf


def _ord(x: int, p: int) -> int:
    """The exponent of the prime p in x."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def euler_product_n1(m, bound: int) -> dict:
    """The global table H(c; m) for all c with entries at most `bound`,
    exactly.  H is multiplicative: H(c; m) is the product over the primes
    p dividing some c_i of the local value H(p^k; p^l), with
    k_i = ord_p(c_i) and l_i = ord_p(m_i).  One q-polynomial block per l
    is evaluated once per prime.  The table has up to bound ** rank
    entries, refused above 10^6, and each block is refused up front by
    check_pattern_count."""
    m = tuple(m)
    if any((not isinstance(x, int)) or x < 1 for x in m):
        raise ValueError("m entries must be positive integers")
    if bound < 1 or bound ** len(m) > 10 ** 6:
        raise ValueError("bound out of range")
    r = len(m)
    qi = q_index(r)
    spf = _smallest_prime_factors(bound)
    # every prime p <= bound divides some c and builds the block ord_p(m)
    for l in sorted({tuple(_ord(mi, p) for mi in m)
                     for p in range(2, bound + 1) if spf[p] == p}):
        check_pattern_count(LambdaTwist(l).top_row)
    blocks = {}   # l -> [(k, q-polynomial H(p^k; p^l))]
    local = {}    # p -> {k: H(p^k; p^l) at q = p, nonzero}

    def local_values(p):
        l = tuple(_ord(mi, p) for mi in m)
        if l not in blocks:
            block = [(k, gauss_to_q_poly(val, r))
                     for k, val in h_table(LambdaTwist(l), 1).entries]
            # the primes dividing no c_i are skipped below: each would
            # multiply in H(1; p^l), which must therefore be 1
            if dict(block).get((0,) * r) != 1:
                raise AssertionError(f"H(1; p^l) is not 1 at l = {l}")
            blocks[l] = block
        values = {}
        for k, q_poly in blocks[l]:
            if all(p ** ki <= bound for ki in k):
                num = q_poly.eval_at({qi: p})
                if num.denominator != 1:
                    raise AssertionError("coefficient must be integral")
                if num:
                    values[k] = num
        return values

    table = {}
    for c in product(range(1, bound + 1), repeat=r):
        k_of = {}   # p -> [ord_p(c_1), ..., ord_p(c_r)]
        for i, x in enumerate(c):
            while x > 1:
                p = spf[x]
                e = _ord(x, p)
                x //= p ** e
                k_of.setdefault(p, [0] * r)[i] = e
        h = 1
        for p, k in k_of.items():
            if p not in local:
                local[p] = local_values(p)
            h *= local[p].get(tuple(k), 0)
            if not h:
                break
        if h:
            table[c] = h
    return table
