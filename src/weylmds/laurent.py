"""Exact multivariate Laurent polynomials with integer coefficients.

Terms are a map from integer exponent tuples (negative exponents allowed)
to nonzero `int` coefficients, so equality is structural.  The constructor
refuses any other coefficient type, and `exact_div` divides over Z.
"""

from operator import add


class LaurentPoly:
    """Immutable-by-convention Laurent polynomial in a fixed number of
    variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                if not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} is not an int")
                if coeff:
                    if len(exps) != nvars:
                        raise ValueError("exponent arity mismatch")
                    self.terms[tuple(exps)] = coeff

    # -- constructors -------------------------------------------------
    @staticmethod
    def _of(nvars, terms):
        """Wrap terms that are already nonzero and in canonical form."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.nvars = nvars
        out.terms = terms
        return out

    @staticmethod
    def zero(nvars):
        return LaurentPoly(nvars)

    @staticmethod
    def const(nvars, c):
        return LaurentPoly(nvars, {(0,) * nvars: c})

    @staticmethod
    def monomial(nvars, exps, coeff=1):
        return LaurentPoly(nvars, {tuple(exps): coeff})

    # -- ring operations ----------------------------------------------
    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.nvars != self.nvars:
                raise ValueError("variable arity mismatch")
            return other
        return LaurentPoly.const(self.nvars, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of(self.nvars,
                               {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._of(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.nvars, other)
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    # -- exact division -------------------------------------------------
    def exact_div(self, divisor):
        """Exact quotient over Z; raises ValueError if the division leaves
        a remainder or a quotient coefficient is not an integer."""
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        div_lead = max(divisor.terms)
        div_lead_c = divisor.terms[div_lead]
        div_rest = [(e, c) for e, c in divisor.terms.items() if e != div_lead]
        quot = {}
        steps = 0
        while rem:
            steps += 1
            if steps > 1_000_000:
                raise ValueError("division does not terminate; not exact")
            lead = max(rem)
            qe = tuple(a - b for a, b in zip(lead, div_lead))
            qc, frac = divmod(rem.pop(lead), div_lead_c)
            if frac:
                raise ValueError("quotient coefficient is not an integer")
            quot[qe] = quot.get(qe, 0) + qc
            for e, c in div_rest:
                te = tuple(map(add, qe, e))
                s = rem.get(te, 0) - qc * c
                if s:
                    rem[te] = s
                else:
                    rem.pop(te, None)
        return LaurentPoly(self.nvars, quot)

    # -- presentation ----------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items())

    def to_json(self):
        return [{"exp": list(e), "coeff": f"{c}/1"}
                for e, c in self.sorted_terms()]

    def __repr__(self):
        if not self.terms:
            return "LaurentPoly(0)"
        bits = [f"{c}*x^{e}" for e, c in self.sorted_terms()]
        return "LaurentPoly(" + " + ".join(bits) + ")"
