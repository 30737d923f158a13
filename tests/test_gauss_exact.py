"""Gauss sums checked exactly, with no tolerance, in Z[zeta_n, zeta_{p^w}].

A value is a map {(a, b): coeff} standing for sum coeff zeta_n^a
zeta_{p^w}^b.  Its canonical form is an n x p^w integer grid reduced to a
Z-basis: the top zeta_p-block of each row is subtracted from the blocks
below it, as Phi_{p^w}(x) = Phi_p(x^{p^{w-1}}), and then each column is
reduced mod Phi_n.  Since p does not divide n, Z[zeta_n, zeta_{p^w}] is
Z[zeta_n] (x) Z[zeta_{p^w}], so equal values have equal forms.
"""

import pytest
from hypothesis import given, settings, strategies as st

from weylmds.coeffs import h_table
from weylmds.gauss import ArithContext, gauss_eval
from weylmds.roots import LambdaTwist, d_lambda, norm_sq, stability_bound

from stable_lemmas import WeylElement, k_of_weyl, phi_w
from test_gauss import _SHAPES, shaped


def cyclotomic(n: int) -> list:
    """Phi_n, coefficients from the constant term up: x^n - 1 divided by
    Phi_d for every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = poly_div(poly, cyclotomic(d))
    return poly


def poly_div(num: list, den: list) -> list:
    """num / den for a monic den that divides num exactly."""
    num, deg = list(num), len(den) - 1
    quot = [0] * (len(num) - deg)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = num[i + deg]
        for j, f in enumerate(den):
            num[i + j] -= c * f
    assert not any(num), "not an exact division"
    return quot


def canonical(n: int, p: int, w: int, cells: dict) -> dict:
    """The nonzero coordinates of `cells` in the basis zeta_n^a zeta_{p^w}^b,
    a < phi(n) and b < phi(p^w)."""
    modulus, block = p ** w, p ** (w - 1)
    grid = [[0] * modulus for _ in range(n)]
    for (a, b), c in cells.items():
        grid[a % n][b % modulus] += c
    top = (p - 1) * block
    for row in grid:  # zeta^(top + j) = -sum_k zeta^(k block + j), k < p - 1
        for j in range(block):
            c, row[top + j] = row[top + j], 0
            if c:
                for k in range(p - 1):
                    row[k * block + j] -= c
    phi = cyclotomic(n)
    deg = len(phi) - 1
    for a in range(n - 1, deg - 1, -1):  # x^a = x^(a - deg) (x^deg - Phi_n)
        for b, c in enumerate(grid[a]):
            if c:
                for i, f in enumerate(phi):
                    grid[a - deg + i][b] -= c * f
    return {(a, b): c for a in range(deg)
            for b, c in enumerate(grid[a]) if c}


def times(x: dict, y: dict) -> dict:
    """The product of two values, unreduced."""
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def primitive_sum(s: int, ctx: ArithContext, w: int) -> dict:
    """G[s] = sum over d mod p of chi^s(d) zeta_p^d, with zeta_p =
    zeta_{p^w}^{p^{w-1}}."""
    return {(s * ctx.chi_table[d], d * ctx.p ** (w - 1)): 1
            for d in range(1, ctx.p)}


def literal_sum(t: int, c_exp: int, v_exp: int, ctx: ArithContext) -> dict:
    """g_t(p^c, p^v): the term chi^{t v}(d) e(d p^c / p^v) of every unit d
    mod p^v, one count each, in Z[zeta_n, zeta_{p^v}]; 1 at v = 0."""
    if v_exp == 0:
        return {(0, 0): 1}
    p, modulus, out = ctx.p, ctx.p ** v_exp, {}
    for d in range(1, modulus):
        if d % p:
            key = (t * v_exp * ctx.chi_table[d % p],
                   d * p ** c_exp % modulus)
            out[key] = out.get(key, 0) + 1
    return out


def symbolic_sum(value, ctx: ArithContext, w: int, shift: int = 0) -> dict:
    """q^shift times a GaussValue, with q -> p and G[s] -> primitive_sum(s),
    in Z[zeta_n, zeta_{p^w}], reduced after each symbol; the shift makes
    every q exponent nonnegative (those of gauss_eval already are)."""
    out = {}
    for syms, e, c in value.terms:
        term = {(0, 0): c * ctx.p ** (e + shift)}
        for s in syms:
            term = canonical(ctx.n, ctx.p, w,
                             times(term, primitive_sum(s, ctx, w)))
        for key, x in term.items():
            out[key] = out.get(key, 0) + x
    return out


def check_gauss_grid(n: int, p: int) -> list:
    """The (t, c, v) of the verify gauss grid where gauss_eval and the
    literal sum differ."""
    ctx, bad = ArithContext(n, p), []
    for t in (1, 2):
        for c in range(6):
            for v in range(5):
                w = max(v, 1)  # v = 0 still has a zeta_p to hold G[s]
                exact = canonical(n, p, w, literal_sum(t, c, v, ctx))
                value = symbolic_sum(gauss_eval(t, c, v, n), ctx, w)
                if canonical(n, p, w, value) != exact:
                    bad.append((t, c, v))
    return bad


# the verify gauss default p of each n, and (9, 19); (7, 29), whose 12 sums
# of up to 29^4 = 707,281 terms take several seconds, runs in CI instead
@pytest.mark.parametrize("n, p", [(1, 5), (3, 7), (5, 11), (9, 19)])
def test_gauss_eval_equals_the_literal_sums_exactly_on_verify_gauss_grid(n, p):
    assert check_gauss_grid(n, p) == []


# the stable theorem: at n at or above the stability bound, the table value
# at k(w) is the product over Phi(w) of g_{|alpha|^2}(p^{d-1}, p^d), here
# each a literal sum over the units mod p^d.  A factor's zeta_{p^d} is lifted
# to zeta_{p^W}, W the largest d, by b -> b p^(W-d)
@pytest.mark.parametrize("l, n, p", [((0,), 3, 7), ((1,), 3, 7), ((2,), 3, 7),
                                     ((0, 0), 3, 7), ((0, 1), 5, 11)])
def test_stable_table_equals_the_product_of_literal_sums_exactly(l, n, p):
    twist, ctx = LambdaTwist(l), ArithContext(n, p)
    assert n >= stability_bound(twist)
    table = h_table(twist, n)
    for w in WeylElement.all_elements(twist.rank):
        W = max([d_lambda(twist, alpha) for alpha in phi_w(w)] + [1])
        exact = {(0, 0): 1}
        for alpha in phi_w(w):
            d = d_lambda(twist, alpha)
            factor = literal_sum(norm_sq(alpha), d - 1, d, ctx)
            exact = canonical(n, p, W, times(exact, {
                (a, b * p ** (W - d)): c for (a, b), c in factor.items()}))
        value = table.value(k_of_weyl(w, twist))
        assert canonical(n, p, W, symbolic_sum(value, ctx, W)) == \
            canonical(n, p, W, exact), (w.sigma, w.eps)


# n = 1 has no symbol, and so no fold to check
@pytest.mark.parametrize("n, p", [(3, 7), (5, 11), (7, 29), (9, 19)])
def test_conjugate_symbols_fold_to_q_exactly(n, p):
    ctx = ArithContext(n, p)
    q = canonical(n, p, 1, {(0, 0): p})
    for s in range(1, n):
        product = times(primitive_sum(s, ctx, 1), primitive_sum(n - s, ctx, 1))
        assert canonical(n, p, 1, product) == q, s


# every path of GaussValue.__mul__, drawn by the shapes of tests/test_gauss.py,
# against the product of the exact values; q exponents reach -3 in a factor
# and -6 in a product
@pytest.mark.parametrize("shape", _SHAPES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_paths_equal_the_exact_product(shape, data):
    n, p = data.draw(st.sampled_from([(3, 7), (5, 11)]), label="n, p")
    ctx = ArithContext(n, p)
    x = data.draw(shaped(n, shape), label="forced")
    y = data.draw(st.sampled_from(_SHAPES + ("any",)).flatmap(
        lambda other: shaped(n, other)), label="other")
    exact = times(symbolic_sum(x, ctx, 1, 3), symbolic_sum(y, ctx, 1, 3))
    assert canonical(n, p, 1, symbolic_sum(x * y, ctx, 1, 6)) == \
        canonical(n, p, 1, exact)


def test_canonical_form_vanishes_on_both_cyclotomic_relations():
    # 1 + zeta_p + .. + zeta_p^(p-1) = 0 and Phi_n(zeta_n) = 0, at every
    # level w: the form is zero on both, and not on 1
    n, p = 3, 7
    for w in (1, 2):
        zeta_p = p ** (w - 1)
        assert canonical(n, p, w, {(0, k * zeta_p): 1 for k in range(p)}) == {}
        assert canonical(n, p, w, {(a, 1): f for a, f
                                   in enumerate(cyclotomic(n))}) == {}
        assert canonical(n, p, w, {(0, 0): 1}) == {(0, 0): 1}
    assert [cyclotomic(m) for m in (1, 3, 5, 9)] == [
        [-1, 1], [1, 1, 1], [1, 1, 1, 1, 1], [1, 0, 0, 1, 0, 0, 1]]
