"""Symplectic characters and the n = 1 identities.

All generating functions live in one Laurent ring with variables
x_1 .. x_r, t, q (in that order).  Characters are weight generating
functions over pattern enumerations.  The deformed-denominator and
Euler-factor identities are verified as exact polynomial equalities, with
each row pair's t^m (1 + t)^g expanded by class_weight on both walks.
"""

from array import array
from functools import reduce
from math import comb, isqrt
from operator import add, mul

from .coeffs import HTable, h_table
from .gauss import GaussValue
from .laurent import LaurentPoly
from .patterns import (_slot, is_degenerate, pair_classes, pair_sums,
                       pair_weight)
from .roots import (LambdaTwist, _check_partition, build_root_system,
                    check_pattern_count, support_vector)
from .tableaux import pair_tableau_stats


def ring_size(r: int) -> int:
    return r + 2


def character_gt(lam) -> LaurentPoly:
    """Weight generating function over the patterns with top row lam (rank
    len(lam)), each pattern's wgt summed from its row pairs (pair_weight)."""
    lam = _check_partition(lam)
    sums = pair_sums(lam, lambda r, i, *rows: (
        _slot(r, i, pair_weight(*rows)), 1))
    return LaurentPoly(ring_size(len(lam)), {wgt + (0, 0): count
                                             for wgt, count in sums.items()})


def deformation_factors(r: int) -> list:
    """The factors of Hamel-King's D(tx; t): t^{|rho|} x^{rev rho}, then
    (1 + t^{1 - |alpha|} x^{-rev alpha}) per positive root alpha, where rev
    reads x_1 .. x_r in reverse order and |.| sums the coordinates:
    t^{r(r+1)/2} x_1^r x_2^{r-1} ... x_r, then (1 + t^{-1} x_i^{-2}),
    (1 + t x_i^{-1} x_j) and (1 + t^{-1} x_i^{-1} x_j^{-1}) for i < j."""
    n = ring_size(r)
    rs = build_root_system(r)
    return [LaurentPoly.monomial(n, rs.rho[::-1] + (sum(rs.rho), 0))] + [
        1 + LaurentPoly.monomial(
            n, tuple(-c for c in alpha[::-1]) + (1 - sum(alpha), 0))
        for alpha in rs.positive_roots]


def t_to_minus_one_over_q(poly: LaurentPoly) -> LaurentPoly:
    """Substitute t -> -1/q: x^e t^j q^k goes to (-1)^j x^e q^{k - j}.
    Terms that differ only in t and q can meet, so they collect."""
    out = {}
    for (*e, j, k), c in poly.terms.items():
        key = (*e, 0, k - j)
        out[key] = out.get(key, 0) + (-c if j % 2 else c)
    return LaurentPoly(poly.nvars, out)


def class_weight(m: int, g: int):
    """t^m (1 + t)^g as (t exponent, coefficient) pairs: the weight of m
    maximal and g generic entries, and of a standard tableau's row pair."""
    return [(m + j, comb(g, j)) for j in range(g + 1)]


def tableau_side(twist: LambdaTwist) -> tuple:
    """(sum of t^{height + r(r+1)/2} (1 + t)^{str - r} x^{wgt} over the
    standard tableaux of shape twist.top_row, sorted (i, rows) of the pairs
    off the bridge w_i + 2 barred_i = s(a_{i-1}) - s(a_i)).  Pair i weighs
    x^{w_i} t^{height_i + r - i + 1} (1 + t)^{str_i - 1}, str_i >= 1 as row
    v's diagonal box holds v' or v; a degenerate pair is not standard."""
    nvars, bad = ring_size(twist.rank), []

    def weigh(r, i, *rows):
        above, _, below = rows
        if is_degenerate(above):
            return None
        w, str_total, barred, height = pair_tableau_stats(r, i, *rows)
        if w + 2 * barred != sum(above) - sum(below):
            bad.append((i, rows))
        terms = class_weight(height + r - i + 1, str_total - 1)
        return (), LaurentPoly(nvars, {(*_slot(r, i, w), j, 0): c
                                       for j, c in terms})

    # b_i = a_{i-1} and a_i its tail give lambda+rho a standard tableau
    return pair_sums(twist.top_row, weigh, strict=True)[()], sorted(bad)


def verify_deformation_identity(twist: LambdaTwist):
    """(ok, D(tx; t) sp_lam(x) - tableau side), sp_lam times each factor in
    turn; ok when the difference is 0 and every pair is on the bridge."""
    side, bad = tableau_side(twist)
    diff = reduce(mul, deformation_factors(twist.rank),
                  character_gt(twist.partition)) - side
    return diff.is_zero() and not bad, diff


# ---------------------------------------------------------------------
# n = 1 reduction


def _reduced_factor(m: int, g: int, degenerate: int) -> GaussValue:
    """t^m (1 + t)^g at t = -1/q, the reduced factor of m maximal and g
    generic entries, as an n = 1 Gauss value, or zero when `degenerate`."""
    return GaussValue._canonical(1, {} if degenerate else {
        ((), -j): (-1) ** j * c for j, c in class_weight(m, g)})


def h_tilde_table(twist: LambdaTwist) -> dict:
    """Reduced coefficients as n = 1 Gauss values: k -> sum over strict
    patterns of the product of the entry factors 1, 1 - 1/q, -1/q at minimal,
    generic and maximal entries.  The walk folds each row pair's reduced
    factor (pair_classes); a pattern with the degenerate coincidence weighs
    zero but keeps its key k, where lambda+rho + wgt = sum k_i alpha_i."""
    sums = pair_sums(twist.top_row, lambda r, i, above, *rows: (
        _slot(r, i, pair_weight(above, *rows)),
        _reduced_factor(*pair_classes(r, i, above, *rows),
                        is_degenerate(above))), strict=True)
    return {support_vector(tuple(map(add, twist.L, wgt))): value
            for wgt, value in sums.items()}


def _n1_rank(table: HTable) -> int:
    """The rank of an n = 1 table; other degrees are refused."""
    if table.n != 1:
        raise ValueError(f"an n = 1 table is needed, not n = {table.n}")
    return table.twist.rank


def verify_h_tilde(table: HTable):
    """H(p^k) = Htilde(p^k) q^{k_1 + ... + k_r} for every key of the n = 1
    table or of Htilde, compared in the table's own ring."""
    _n1_rank(table)
    tilde = h_tilde_table(table.twist)
    zero = GaussValue.zero(1)
    bad = [k for k in sorted(set(table.keys()) | set(tilde))
           if table.value(k)
           != tilde.get(k, zero) * GaussValue.q_power(1, sum(k))]
    return not bad, bad


# ---------------------------------------------------------------------
# Euler factors


def euler_factors(r: int) -> list:
    """(1 - q^{-1} x^alpha) per positive root alpha; the simple root
    x^{alpha_i} is the Satake monomial of q^{1-2s_i}."""
    n = ring_size(r)
    return [1 - LaurentPoly.monomial(n, alpha + (0, -1))
            for alpha in build_root_system(r).positive_roots]


def verify_euler_bridge(r: int):
    """x^rho D(-x/q; -1/q), where x^rho = x_1 x_2^2 ... x_r^r, equals the
    positive-root Euler product; exact in x and q.  D(-x/q; -1/q) is
    Hamel-King's D(tx; t) at t = -1/q, so the left side folds the very
    factors of verify_deformation_identity, each sent through t -> -1/q,
    and the right side folds euler_factors."""
    rho = LaurentPoly.monomial(ring_size(r), build_root_system(r).rho + (0, 0))
    lhs = reduce(mul, map(t_to_minus_one_over_q, deformation_factors(r)), rho)
    diff = lhs - reduce(mul, euler_factors(r))
    return diff.is_zero(), diff


def h_generating_function(table: HTable) -> LaurentPoly:
    """sum_k H(p^k) q^{-2 k . s} over the n = 1 table, written in the x
    variables: key k is x^{sum k_i alpha_i} q^{-|k|}."""
    r = _n1_rank(table)
    simple = build_root_system(r).simple_roots
    acc = {}  # the simple roots are a basis: each k has its own x
    for k, val in table.entries:  # at n = 1 no value holds a symbol
        x = tuple(sum(c * alpha[j] for c, alpha in zip(k, simple))
                  for j in range(r))
        acc.update({x + (0, e - sum(k)): c for _, e, c in val.terms})
    return LaurentPoly(ring_size(r), acc)


def verify_euler_factor_identity(table: HTable):
    """The full identity: the generating function of the n = 1 table equals
    x^{L - rho} sp_lam(x) times the Euler factors, folded in one at a time."""
    lam = table.twist.partition
    r = len(lam)
    lhs = h_generating_function(table)
    lead = lam[::-1] + (0, 0)  # L - rho = lambda
    sp = LaurentPoly.monomial(ring_size(r), lead) * character_gt(lam)
    rhs = reduce(mul, euler_factors(r), sp)
    diff = lhs - rhs
    return diff.is_zero(), diff


# ---------------------------------------------------------------------
# global coefficients at n = 1


def _smallest_prime_factors(bound: int) -> array:
    """spf[x] is the smallest prime factor of x, for 2 <= x <= bound."""
    spf = array("l", range(bound + 1))
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


def euler_product_n1(m, bound: int):
    """The global coefficients H(c; m) for all c with entries at most
    `bound`, exactly, as (c, H) pairs in lexicographic order of c, zeros
    skipped.  H is multiplicative: H(c; m) is the product over the primes
    p dividing some c_i of the local value H(p^k; p^l), with
    k_i = ord_p(c_i) and l_i = ord_p(m_i).  The table has up to
    bound ** rank entries, refused above 10^6.  Each block is refused by
    check_pattern_count, built once and checked before this returns."""
    m = tuple(m)
    if not m:
        raise ValueError("rank must be a positive integer")
    if any((not isinstance(x, int)) or x < 1 for x in m):
        raise ValueError("m entries must be positive integers")
    if bound < 1 or bound ** len(m) > 10 ** 6:
        raise ValueError("bound out of range")
    r = len(m)
    spf = _smallest_prime_factors(bound)
    # every prime p <= bound divides some c and reads the block ord_p(m)
    l_of = {p: tuple(_ord(mi, p) for mi in m)
            for p in range(2, bound + 1) if spf[p] == p}
    ls = sorted(set(l_of.values()))
    for l in ls:
        check_pattern_count(LambdaTwist(l).top_row)
    blocks = {l: h_table(LambdaTwist(l), 1).entries for l in ls}
    for l, entries in blocks.items():
        # the primes dividing no c_i are skipped below: each would
        # multiply in H(1; p^l), which must therefore be 1
        if dict(entries).get((0,) * r) != GaussValue.one(1):
            raise AssertionError(f"H(1; p^l) is not 1 at l = {l}")
        # a polynomial in q, with no symbol, is an integer at q = p
        if any(syms or e < 0
               for _, val in entries for syms, e, _ in val.terms):
            raise AssertionError("coefficient must be integral")
    local = {}  # p -> {k: H(p^k; p^l) at q = p, nonzero, p^k_i <= bound}
    for p, l in l_of.items():
        values = ((k, sum(c * p ** e for _, e, c in val.terms))
                  for k, val in blocks[l] if all(p ** ki <= bound for ki in k))
        local[p] = {k: v for k, v in values if v}
    return _nonzero_products(r, bound, spf, local)


def _nonzero_products(r: int, bound: int, spf: array, local: dict):
    """(c, prod over p | c of local[p][ord_p(c)]) in lexicographic order
    of c in [1, bound]^r, zeros skipped; c_i is factored by its spf."""
    for index in range(bound ** r):  # lazily: product() pools bound ints
        c = [0] * r
        k_of = {}   # p -> [ord_p(c_1), ..., ord_p(c_r)]
        for i in reversed(range(r)):  # c_i - 1 is a base-bound digit
            index, x = divmod(index, bound)
            c[i] = x = x + 1
            while x > 1:
                p = spf[x]
                x //= p
                k_of.setdefault(p, [0] * r)[i] += 1
        h = 1
        for p, k in k_of.items():
            h *= local[p].get(tuple(k), 0)
            if not h:
                break
        if h:
            yield tuple(c), h
