"""Stable-case coefficients as Gauss-sum products over the inverted roots
of a signed permutation, and the harness checking them against the
pattern-sum table.
"""

from .coeffs import h_table
from .gauss import (ArithContext, GaussValue, check_numeric_terms, gauss_eval,
                    numeric_eval)
from .roots import (LambdaTwist, WeylElement, d_lambda, norm_sq, phi_w,
                    stability_bound, support_vector)

# relative tolerance of the numeric comparison in verify_stable_match
REL_TOL = 1e-6


def h_stable(w: WeylElement, twist: LambdaTwist, n: int) -> GaussValue:
    """prod over inverted roots of g_{|alpha|^2}(p^{d-1}, p^{d})."""
    if n % 2 == 0 or n < stability_bound(twist):
        raise ValueError("degree below the stability bound (or even)")
    out = GaussValue.one(n)
    for alpha in phi_w(w):
        d = d_lambda(twist, alpha)
        out = out * gauss_eval(norm_sq(alpha), d - 1, d, n)
    return out


def k_of_weyl(w: WeylElement, twist: LambdaTwist) -> tuple:
    """Solve lambda+rho - w(lambda+rho) = sum k_i alpha_i for k."""
    L = twist.L
    return support_vector(w.rank, [a - b for a, b in zip(L, w.act(L))])


def verify_stable_match(twist: LambdaTwist, n: int,
                        ctx: ArithContext = None) -> dict:
    """Check that the pattern-sum table equals the root-product formula for
    every signed permutation, symbolically, and that the nonzero support is
    exactly the k(w).  With a context, both sides are also evaluated
    numerically, but only after they agree symbolically, so that comparison
    sees two equal values and does not check the table."""
    r = twist.rank
    table = h_table(twist, n)
    mismatches = []
    seen = {}
    equal = []  # (w, k, table value, product) of each symbolic match
    for w in WeylElement.all_elements(r):
        k = k_of_weyl(w, twist)
        if k in seen:
            mismatches.append({"w": _w_json(w), "k": list(k),
                               "reason": "duplicate support vector"})
            continue
        seen[k] = w
        lhs = table.value(k)
        rhs = h_stable(w, twist, n)
        if lhs != rhs:
            mismatches.append({"w": _w_json(w), "k": list(k),
                               "reason": "symbolic mismatch",
                               "table": lhs.to_json(),
                               "product": rhs.to_json()})
            continue
        equal.append((w, k, lhs, rhs))
    if ctx is not None:
        # refused before the first sum when some p^e overflows a float
        e = max((t[1] for *_, v in equal for t in v.terms), default=0)
        check_numeric_terms(2 * len(equal), ctx, e)
        for w, k, lhs, rhs in equal:
            a, b = numeric_eval(lhs, ctx), numeric_eval(rhs, ctx)
            scale = max(1.0, abs(a), abs(b))
            if abs(a - b) > REL_TOL * scale:
                mismatches.append({"w": _w_json(w), "k": list(k),
                                   "reason": "numeric mismatch",
                                   "table": [a.real, a.imag],
                                   "product": [b.real, b.imag]})
    for k in table.nonzero_keys():
        if k not in seen:
            mismatches.append({"k": list(k),
                               "reason": "support outside the orbit"})
    return {"checked": len(seen), "mismatches": mismatches}


def _w_json(w: WeylElement) -> dict:
    return {"sigma": list(w.sigma), "eps": list(w.eps)}
