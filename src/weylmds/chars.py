"""Symplectic characters and the n = 1 identities.

All generating functions live in one Laurent ring with variables
x_1 .. x_r, t, q (in that order).  Characters are computed two independent
ways: as weight generating functions over pattern enumerations, and via the
alternant quotient over signed permutations.  The deformed-denominator and
Euler-factor identities are verified as exact polynomial equalities.
"""

from fractions import Fraction

from .coeffs import h_table
from .gauss import GaussValue
from .laurent import LaurentPoly
from .patterns import (GTPattern, LambdaTwist, classify_entry,
                       entry_bounds_flags, entry_positions, enumerate_patterns,
                       is_strict)
from .roots import (RootSystemC, WeylElement, build_root_system, inner,
                    simple_coords)
from .tableaux import standard_tableaux, tableau_stats


def ring_size(r: int) -> int:
    return r + 2


def t_index(r: int) -> int:
    return r


def q_index(r: int) -> int:
    return r + 1


def x_monomial(r: int, exps, coeff=1, t_exp: int = 0,
               q_exp: int = 0) -> LaurentPoly:
    e = list(exps) + [t_exp, q_exp]
    return LaurentPoly.monomial(ring_size(r), e, coeff)


def _check_partition(lam, r):
    lam = tuple(lam)
    if len(lam) != r:
        raise ValueError("partition length must equal the rank")
    if any((not isinstance(x, int)) or x < 0 for x in lam):
        raise ValueError("partition parts must be nonnegative integers")
    if any(lam[k] < lam[k + 1] for k in range(r - 1)):
        raise ValueError("partition must be weakly decreasing")
    return lam


def character_gt(lam, r: int) -> LaurentPoly:
    """Weight generating function over the pattern basis with top row lam."""
    lam = _check_partition(lam, r)
    acc = {}
    for P in enumerate_patterns(lam):
        e = P.wgt + (0, 0)
        acc[e] = acc.get(e, 0) + 1
    return LaurentPoly(ring_size(r), acc)


def character_weyl_oracle(lam, r: int) -> LaurentPoly:
    """Alternant quotient: sum_w det(w) x^{w(lam+rho)} over the analogous
    rho-alternant; exact Laurent division with zero remainder."""
    lam = _check_partition(lam, r)
    lam_e = tuple(reversed(lam))
    rho = tuple(range(1, r + 1))
    shifted = tuple(a + b for a, b in zip(lam_e, rho))

    def alternant(vec):
        out = LaurentPoly.zero(ring_size(r))
        for w in WeylElement.all_elements(r):
            out = out + x_monomial(r, w.act(vec), coeff=w.sign())
        return out

    return alternant(shifted).exact_div(alternant(rho))


def weyl_dimension(lam, r: int) -> int:
    """Weyl dimension formula for the highest weight given as a partition."""
    lam = _check_partition(lam, r)
    rs = build_root_system(r)
    lam_e = tuple(reversed(lam))
    rho = rs.rho
    shifted = tuple(a + b for a, b in zip(lam_e, rho))
    dim = Fraction(1)
    for alpha in rs.positive_roots:
        dim *= inner(shifted, alpha) / inner(rho, alpha)
    if dim.denominator != 1:
        raise AssertionError("dimension formula must be integral")
    return int(dim)


def deformation_D(r: int) -> LaurentPoly:
    """prod x_i^{r-i+1} prod (1 + t x_i^{-2})
    prod_{i<j} (1 + t x_i^{-1} x_j)(1 + t x_i^{-1} x_j^{-1})."""
    n = ring_size(r)
    ti = t_index(r)

    def xv(i, power):
        return LaurentPoly.variable(n, i - 1, power)

    def tfactor(exp_pairs):
        mono = [0] * n
        mono[ti] = 1
        for i, p in exp_pairs:
            mono[i - 1] += p
        return LaurentPoly.const(n, 1) + LaurentPoly.monomial(n, mono)

    out = LaurentPoly.const(n, 1)
    for i in range(1, r + 1):
        out = out * xv(i, r - i + 1)
    for i in range(1, r + 1):
        out = out * tfactor([(i, -2)])
    for i in range(1, r + 1):
        for j in range(i + 1, r + 1):
            out = out * tfactor([(i, -1), (j, 1)])
            out = out * tfactor([(i, -1), (j, -1)])
    return out


def scale_x_by_t(poly: LaurentPoly, r: int) -> LaurentPoly:
    """Substitute x_i -> t x_i for every x variable."""
    return poly.scale_vars_into(t_index(r), list(range(r)))


def _binomials(n: int):
    row = [1]
    for _ in range(n):
        row = [1] + [row[k] + row[k + 1] for k in range(len(row) - 1)] + [1]
    return row


def hk_rhs(r: int, stats) -> LaurentPoly:
    """sum over the statistics of the standard tableaux of
    t^{height + r(r+1)/2} (1 + t)^{str - r} x^{wgt}."""
    offset = r * (r + 1) // 2
    acc = {}
    for st in stats:
        base = st.height + offset
        for k, binom in enumerate(_binomials(st.str_total - r)):
            e = st.wgt + (base + k, 0)
            acc[e] = acc.get(e, 0) + binom
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
    for pos in entry_positions(r):
        is_min, is_max = entry_bounds_flags(P, pos)
        if is_min and is_max:
            return LaurentPoly.zero(n)
        out = out * factors[classify_entry(P, pos)]
    return out


def h_tilde_table(twist: LambdaTwist) -> dict:
    """Reduced coefficients: k -> sum over strict patterns of the reduced
    entry-factor product."""
    r = twist.rank
    acc = {}
    for P in enumerate_patterns(twist.top_row):
        if not is_strict(P):
            continue
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


def satake_monomials(r: int):
    """q^{1-2s_i} as x-monomials: x_1^2, then x_{i-1}^{-1} x_i."""
    out = []
    for i in range(1, r + 1):
        e = [0] * ring_size(r)
        if i == 1:
            e[0] = 2
        else:
            e[i - 2] = -1
            e[i - 1] = 1
        out.append(tuple(e))
    return out


def euler_factor_product(r: int, rs: RootSystemC = None) -> LaurentPoly:
    """prod over positive roots of (1 - q^{-1} X^{c(alpha)}), where X_i is
    the Satake monomial of q^{1-2s_i} and c(alpha) are the simple-root
    coordinates."""
    rs = rs or build_root_system(r)
    n = ring_size(r)
    qi = q_index(r)
    sat = satake_monomials(r)
    out = LaurentPoly.const(n, 1)
    for alpha in rs.positive_roots:
        coords = simple_coords(r, alpha)
        e = [0] * n
        for X, c in zip(sat, coords):
            for idx, xe in enumerate(X):
                e[idx] += xe * c
        e[qi] -= 1
        out = out * (LaurentPoly.const(n, 1) - LaurentPoly.monomial(n, e))
    return out


def verify_euler_bridge(r: int):
    """x_1 x_2^2 ... x_r^r D(-x/q; -1/q) equals the positive-root Euler
    product; exact in x and q."""
    n = ring_size(r)
    qi = q_index(r)
    qinv = (Fraction(-1), tuple(-1 if k == qi else 0 for k in range(n)))
    mapping = {t_index(r): qinv}
    for i in range(r):
        mono = [0] * n
        mono[i] = 1
        mono[qi] = -1
        mapping[i] = (Fraction(-1), tuple(mono))
    lhs = deformation_D(r).substitute(mapping)
    stair = [0] * n
    for i in range(r):
        stair[i] = i + 1
    lhs = lhs * LaurentPoly.monomial(n, stair)
    rhs = euler_factor_product(r)
    diff = lhs - rhs
    return diff.is_zero(), diff


def h_generating_function(twist: LambdaTwist) -> LaurentPoly:
    """sum_k H(p^k) q^{-2 k . s}, written in the x variables."""
    r = twist.rank
    n = ring_size(r)
    qi = q_index(r)
    sat = satake_monomials(r)
    table = h_table(twist, 1)
    out = LaurentPoly.zero(n)
    for k, val in table.entries:
        mono = [0] * n
        for ki, X in zip(k, sat):
            for idx, xe in enumerate(X):
                mono[idx] += xe * ki
        mono[qi] -= sum(k)
        out = out + (gauss_to_q_poly(val, r)
                     * LaurentPoly.monomial(n, mono))
    return out


def verify_euler_factor_identity(twist: LambdaTwist):
    """The full identity: the coefficient generating function equals
    x^{L - rho} sp_lam(x) times the Euler-factor product."""
    r = twist.rank
    n = ring_size(r)
    lhs = h_generating_function(twist)
    lead = [0] * n
    for i, Li in enumerate(twist.L):
        lead[i] = Li - (i + 1)
    rhs = (LaurentPoly.monomial(n, lead)
           * character_gt(twist.partition, r)
           * euler_factor_product(r))
    diff = lhs - rhs
    return diff.is_zero(), diff


# ---------------------------------------------------------------------
# global coefficients at n = 1


def _primes_upto(bound: int):
    sieve = [True] * (bound + 1)
    out = []
    for p in range(2, bound + 1):
        if sieve[p]:
            out.append(p)
            for m in range(p * p, bound + 1, p):
                sieve[m] = False
    return out


def euler_product_n1(m, bound: int) -> dict:
    """Multiply per-prime coefficient blocks into the global table
    H(c; m) for all c with entries at most `bound`, exactly."""
    m = tuple(m)
    if any((not isinstance(x, int)) or x < 1 for x in m):
        raise ValueError("m entries must be positive integers")
    if bound < 1 or bound > 10 ** 6:
        raise ValueError("bound out of range")
    r = len(m)
    table = {(1,) * r: 1}
    for p in _primes_upto(bound):
        l = []
        for mi in m:
            e = 0
            while mi % p == 0:
                mi //= p
                e += 1
            l.append(e)
        block = {}
        for k, val in h_table(LambdaTwist(tuple(l)), 1).entries:
            if all(p ** ki <= bound for ki in k):
                q_poly = gauss_to_q_poly(val, r)
                num = q_poly.eval_at({q_index(r): Fraction(p)})
                if num.denominator != 1:
                    raise AssertionError("coefficient must be integral")
                if num:
                    block[k] = int(num)
        new = {}
        for c, h in table.items():
            for k, v in block.items():
                cc = tuple(ci * p ** ki for ci, ki in zip(c, k))
                if all(x <= bound for x in cc):
                    new[cc] = new.get(cc, 0) + h * v
        table = new
    return {c: v for c, v in table.items() if v}
