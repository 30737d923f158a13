"""Stable-case coefficients as Gauss-sum products over the inverted roots
of a signed permutation, and the harness checking them against the
pattern-sum table.
"""

from dataclasses import dataclass

from .coeffs import h_table
from .gauss import ArithContext, GaussValue, gauss_eval, numeric_eval
from .patterns import GTPattern, is_stable
from .roots import (LambdaTwist, WeylElement, build_root_system, d_lambda,
                    inv_pr_counts, norm_sq, phi_w, stability_bound,
                    support_vector)

# relative tolerance of the numeric comparison in verify_stable_match
REL_TOL = 1e-6


@dataclass(frozen=True)
class TypedRoot:
    """A positive root tagged by its (i, j) slot in the decomposition
    indexed by i = 1..r and j < i: kind L is 2e_{sigma^{-1}(i)}, kind S_plus
    is e_{sigma^{-1}(j)} + e_{sigma^{-1}(i)}, kind S_minus the difference
    taken positively."""

    kind: str
    i: int
    j: int  # 0 for kind L
    root: tuple


def _e(r, idx):
    return tuple(1 if k == idx - 1 else 0 for k in range(r))


def typed_positive_roots(w: WeylElement):
    """Every positive root exactly once, tagged with its (i, j) slot."""
    r = w.rank
    out = []
    for i in range(1, r + 1):
        si = w.sigma_inv(i)
        out.append(TypedRoot("L", i, 0, tuple(2 * c for c in _e(r, si))))
        for j in range(1, i):
            sj = w.sigma_inv(j)
            plus = tuple(a + b for a, b in zip(_e(r, sj), _e(r, si)))
            out.append(TypedRoot("S_plus", i, j, plus))
            if sj > si:
                minus = tuple(a - b for a, b in zip(_e(r, sj), _e(r, si)))
            else:
                minus = tuple(a - b for a, b in zip(_e(r, si), _e(r, sj)))
            out.append(TypedRoot("S_minus", i, j, minus))
    return out


def phi_w_typed(w: WeylElement):
    """The inverted positive roots grouped by slot index i, by the membership
    criteria: L and S_plus lie in the i-th part iff eps^(i) = -1; S_minus
    lies there iff the sign of eps^(i) matches the relative order of
    sigma^{-1}(j) and sigma^{-1}(i)."""
    r = w.rank
    parts = {i: [] for i in range(1, r + 1)}
    for tr in typed_positive_roots(w):
        eps_i = w.eps[tr.i - 1]
        if tr.kind in ("L", "S_plus"):
            member = eps_i == -1
        else:
            si, sj = w.sigma_inv(tr.i), w.sigma_inv(tr.j)
            member = (sj < si and eps_i == -1) or (sj > si and eps_i == 1)
        if member:
            parts[tr.i].append(tr)
    return parts


def d_sets(w: WeylElement, twist: LambdaTwist):
    """D_i = multiset of d_lambda over the i-th part of the decomposition."""
    rs = build_root_system(w.rank)
    return {i: sorted(d_lambda(rs, twist, tr.root) for tr in part)
            for i, part in phi_w_typed(w).items()}


def h_stable(w: WeylElement, twist: LambdaTwist, n: int) -> GaussValue:
    """prod over inverted roots of g_{|alpha|^2}(p^{d-1}, p^{d})."""
    if n % 2 == 0 or n < stability_bound(twist):
        raise ValueError("degree below the stability bound (or even)")
    rs = build_root_system(w.rank)
    out = GaussValue.one(n)
    for alpha in phi_w(rs, w):
        d = d_lambda(rs, twist, alpha)
        out = out * gauss_eval(norm_sq(alpha), d - 1, d, n)
    return out


def maximal_count(P: GTPattern, i: int) -> int:
    """Number of maximal entries in rows b_{r+1-i} and a_{r+1-i} together."""
    if not is_stable(P):
        raise ValueError("pattern is not stable")
    return sum(1 for e in P.pair_records(P.rank + 1 - i)
               if e.tag == "maximal")


def maximal_count_formula(w: WeylElement, i: int) -> int:
    """inv_i(w^{-1}) when eps^(i) = +1, else i + pr_i(w^{-1})."""
    inv, pr = inv_pr_counts(w, i)
    return inv if w.eps[i - 1] == 1 else i + pr


def k_of_weyl(w: WeylElement, twist: LambdaTwist) -> tuple:
    """Solve lambda+rho - w(lambda+rho) = sum k_i alpha_i for k."""
    L = twist.L
    return support_vector(w.rank, [a - b for a, b in zip(L, w.act(L))])


def verify_stable_match(twist: LambdaTwist, n: int,
                        ctx: ArithContext = None) -> dict:
    """Check that the pattern-sum table equals the root-product formula for
    every signed permutation, symbolically (and numerically when a context
    is supplied), and that the nonzero support is exactly the k(w)."""
    r = twist.rank
    table = h_table(twist, n)
    mismatches = []
    seen = {}
    checked = 0
    for w in WeylElement.all_elements(r):
        k = k_of_weyl(w, twist)
        if k in seen:
            mismatches.append({"w": _w_json(w), "k": list(k),
                               "reason": "duplicate support vector"})
            continue
        seen[k] = w
        lhs = table.value(k)
        rhs = h_stable(w, twist, n)
        checked += 1
        if lhs != rhs:
            mismatches.append({"w": _w_json(w), "k": list(k),
                               "reason": "symbolic mismatch",
                               "table": lhs.to_json(),
                               "product": rhs.to_json()})
            continue
        if ctx is not None:
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
    return {"checked": checked, "mismatches": mismatches}


def _w_json(w: WeylElement) -> dict:
    return {"sigma": list(w.sigma), "eps": list(w.eps)}
