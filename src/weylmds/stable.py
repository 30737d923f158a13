"""Stable-case coefficients as Gauss-sum products over the roots that
w(lambda+rho) pairs negatively, for each signed permutation w, and the
harness checking them against the pattern-sum table.
"""

from itertools import permutations, product
from operator import mul, sub

from .coeffs import h_table
from .gauss import (ArithContext, GaussValue, check_numeric_terms, gauss_eval,
                    numeric_eval)
from .roots import (LambdaTwist, build_root_system, inner, norm_sq,
                    stability_bound, support_vector)

# relative tolerance of the numeric comparison in verify_stable_match
REL_TOL = 1e-6


def weyl_orbit(twist: LambdaTwist):
    """Yield (sigma, eps, v, k) for every signed permutation w = (sigma, eps)
    in sorted (sigma, eps) order: v = w(lambda+rho), v_i = eps_i
    L_{sigma^{-1}(i)}, and k solves lambda+rho - v = sum k_i alpha_i."""
    L, r = twist.L, twist.rank
    for sigma in permutations(range(1, r + 1)):
        moved = tuple(L[sigma.index(i)] for i in range(1, r + 1))
        for eps in product((-1, 1), repeat=r):
            v = tuple(map(mul, eps, moved))
            yield sigma, eps, v, support_vector(tuple(map(sub, L, v)))


def h_stable(v, n: int) -> GaussValue:
    """H(p^k) for the w with v = w(lambda+rho): the product over the
    positive roots beta with <v, beta> < 0 of g_{|beta|^2}(p^{d-1}, p^d),
    d = 2|<v, beta>| / <beta, beta>.  These beta are -w(alpha) for the
    alpha in Phi(w), with the same length and d = d_lambda(alpha).  Each
    factor is one term, so the product is counted outside the ring."""
    coeff, q_exp, syms = 1, 0, []
    for beta in build_root_system(len(v)).positive_roots:
        pairing = inner(v, beta)
        if pairing < 0:
            t = norm_sq(beta)
            d = -pairing // t  # <beta, beta> = 2t in the dot product
            ((s, e, c),) = gauss_eval(t, d - 1, d, n).terms  # <= 1 symbol
            if n % 2 and s and n - s[0] in syms:  # G[s] G[n-s] = q
                syms.remove(n - s[0])
                s, e = (), e + 1
            coeff, q_exp = coeff * c, q_exp + e
            syms += s
    return GaussValue(n, ((tuple(sorted(syms)), q_exp, coeff),))


def verify_stable_match(twist: LambdaTwist, n: int,
                        ctx: ArithContext = None) -> dict:
    """Check that the pattern-sum table equals the root-product formula for
    every signed permutation, symbolically, and that the nonzero support is
    exactly the orbit keys k.  With a context, both sides are also evaluated
    numerically, but only after they agree symbolically, so that comparison
    sees two equal values and does not check the table.  A bad degree is
    refused before the table, one below 1 with h_table's text."""
    if n < 1:
        raise ValueError("degree must be positive")
    if n % 2 == 0 or n < stability_bound(twist):
        raise ValueError("degree below the stability bound (or even)")
    table = h_table(twist, n)
    mismatches = []
    seen = set()
    equal = []  # (sigma, eps, k, table value, product) of each symbolic match
    for sigma, eps, v, k in weyl_orbit(twist):
        if k in seen:
            mismatches.append({"w": _w_json(sigma, eps), "k": list(k),
                               "reason": "duplicate support vector"})
            continue
        seen.add(k)
        lhs = table.value(k)
        rhs = h_stable(v, n)
        if lhs != rhs:
            mismatches.append({"w": _w_json(sigma, eps), "k": list(k),
                               "reason": "symbolic mismatch",
                               "table": lhs.to_json(),
                               "product": rhs.to_json()})
            continue
        equal.append((sigma, eps, k, lhs, rhs))
    if ctx is not None:
        # refused before the first sum when some term overflows a float
        values = [v for *_, lhs, rhs in equal for v in (lhs, rhs)]
        check_numeric_terms(ctx, values)
        for sigma, eps, k, lhs, rhs in equal:
            a, b = numeric_eval(lhs, ctx), numeric_eval(rhs, ctx)
            scale = max(1.0, abs(a), abs(b))
            if abs(a - b) > REL_TOL * scale:
                mismatches.append({"w": _w_json(sigma, eps), "k": list(k),
                                   "reason": "numeric mismatch",
                                   "table": [a.real, a.imag],
                                   "product": [b.real, b.imag]})
    for k in table.nonzero_keys():
        if k not in seen:
            mismatches.append({"k": list(k),
                               "reason": "support outside the orbit"})
    return {"checked": len(seen), "mismatches": mismatches}


def _w_json(sigma, eps) -> dict:
    return {"sigma": list(sigma), "eps": list(eps)}
