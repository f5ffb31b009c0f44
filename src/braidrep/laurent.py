"""Exact arithmetic over the ring Z[t, t^-1, q, q^-1].

Polynomials in the two variables t and q are stored sparsely as
{(et, eq): coeff} with arbitrary precision integer coefficients.  There is
no auxiliary variable: characteristic polynomials are coefficient lists
(see polymatrix.char_poly).

Term order is graded lexicographic on (total degree et + eq, et, eq).  The
text form lists terms in descending order:

    t^4*q^2 - t^2*q + 1

Each rendered term is [-]c*t^a*q^b with c, ^1, t^0 and q^0 omitted where
redundant.  parse_poly accepts the same grammar.

PolyFraction keeps num/den pairs in a value-preserving canonical form and
compares by cross multiplication.  No multivariate gcd is computed anywhere;
exactness comes from long division alone.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


def _order_key(mono):
    et, eq = mono
    return (et + eq, et, eq)


class LaurentPoly:
    """Sparse integer Laurent polynomial in t and q."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (et, eq), c in terms.items() if hasattr(terms, "items") else terms:
                if c:
                    mono = (int(et), int(eq))
                    c0 = data.get(mono, 0) + int(c)
                    if c0:
                        data[mono] = c0
                    elif mono in data:
                        del data[mono]
        self._terms = data

    @classmethod
    def monomial(cls, c, et=0, eq=0):
        p = cls.__new__(cls)
        p._terms = {(et, eq): int(c)} if c else {}
        return p

    @classmethod
    def const(cls, c):
        return cls.monomial(c)

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        if isinstance(value, int):
            return cls.const(value)
        raise TypeError("cannot coerce %r to LaurentPoly" % (value,))

    # ------------------------------------------------------------------
    # inspection

    def sorted_terms(self):
        """Terms as ((et, eq), c) pairs, descending in the term order."""
        return sorted(self._terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {(0, 0): 1}

    def is_monomial(self):
        return len(self._terms) == 1

    def is_unit(self):
        """True for +-(monomial), the units of the Laurent ring."""
        if len(self._terms) != 1:
            return False
        c, = self._terms.values()
        return c in (1, -1)

    def coeff(self, et=0, eq=0):
        return self._terms.get((et, eq), 0)

    def leading(self):
        """(monomial, coeff) of the largest term; raises on the zero poly."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._terms, key=_order_key)
        return m, self._terms[m]

    def content(self):
        """gcd of the coefficients, nonnegative; 0 for the zero poly."""
        g = 0
        for c in self._terms.values():
            g = math.gcd(g, c)
        return g

    def min_exponents(self):
        """Componentwise minimum (et, eq) over the support; (0, 0) if zero."""
        if not self._terms:
            return (0, 0)
        ets, eqs = zip(*self._terms)
        return (min(ets), min(eqs))

    def max_exponents(self):
        if not self._terms:
            return (0, 0)
        ets, eqs = zip(*self._terms)
        return (max(ets), max(eqs))

    def __bool__(self):
        return bool(self._terms)

    def __len__(self):
        return len(self._terms)

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        try:
            other = LaurentPoly.coerce(other)
        except TypeError:
            return NotImplemented
        data = dict(self._terms)
        for m, c in other._terms.items():
            c0 = data.get(m, 0) + c
            if c0:
                data[m] = c0
            elif m in data:
                del data[m]
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = data
        return p

    __radd__ = __add__

    def __neg__(self):
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = {m: -c for m, c in self._terms.items()}
        return p

    def __sub__(self, other):
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other):
        return LaurentPoly.coerce(other) + (-self)

    def __mul__(self, other):
        try:
            other = LaurentPoly.coerce(other)
        except TypeError:
            return NotImplemented
        data = {}
        for (a1, b1), k1 in self._terms.items():
            for (a2, b2), k2 in other._terms.items():
                m = (a1 + a2, b1 + b2)
                c0 = data.get(m, 0) + k1 * k2
                if c0:
                    data[m] = c0
                elif m in data:
                    del data[m]
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = data
        return p

    __rmul__ = __mul__

    def times_term(self, c=1, et=0, eq=0):
        """Multiply by the monomial c*t^et*q^eq (no convolution needed)."""
        if not c:
            return ZERO
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = {(a + et, b + eq): k * c for (a, b), k in self._terms.items()}
        return p

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            # only units (single +-monomial terms) are invertible
            if not self.is_unit():
                raise ValueError("negative power of a non-unit Laurent polynomial")
            (et, eq), c = self.leading()
            return LaurentPoly.monomial(c if n % 2 else 1, et * n, eq * n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes like the int it compares equal to (0 included)
        if not self._terms.keys() - {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    # ------------------------------------------------------------------
    # substitution and evaluation

    def substitute(self, t_image, q_image):
        """Substitute fractions (or polys) for t and q; returns a PolyFraction."""
        t_image = PolyFraction.coerce(t_image)
        q_image = PolyFraction.coerce(q_image)
        out = PolyFraction(ZERO)
        for (a, b), c in self.sorted_terms():
            out = out + (t_image ** a) * (q_image ** b) * c
        return out

    def eval_rational(self, t_value, q_value):
        """Evaluate at exact rational points (fractions.Fraction arithmetic)."""
        tv = Fraction(t_value)
        qv = Fraction(q_value)
        out = Fraction(0)
        for (a, b), c in self._terms.items():
            out += Fraction(c) * tv ** a * qv ** b
        return out

    # ------------------------------------------------------------------
    # rendering

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return "LaurentPoly(%s)" % render_poly(self)

    def to_latex(self):
        return render_poly(self, latex=True)

    def to_json_terms(self):
        """JSON form: list of {"c","et","eq"} dicts, descending term order."""
        return [{"c": c, "et": a, "eq": b} for (a, b), c in self.sorted_terms()]

    @classmethod
    def from_json_terms(cls, items):
        return cls({(int(d["et"]), int(d["eq"])): int(d["c"]) for d in items})


ZERO = LaurentPoly.const(0)
ONE = LaurentPoly.const(1)
T = LaurentPoly.monomial(1, et=1)
Q = LaurentPoly.monomial(1, eq=1)


def _render_term(mono, c, latex=False):
    a, b = mono
    parts = []
    for sym, k in (("t", a), ("q", b)):
        if k == 0:
            continue
        if k == 1:
            parts.append(sym)
        elif latex:
            parts.append("%s^{%d}" % (sym, k))
        else:
            parts.append("%s^%d" % (sym, k))
    mag = abs(c)
    joiner = "" if latex else "*"
    if not parts:
        return str(mag)
    if mag == 1:
        return joiner.join(parts)
    return str(mag) + joiner + joiner.join(parts)


def render_poly(p, latex=False):
    terms = p.sorted_terms()
    if not terms:
        return "0"
    chunks = []
    for i, (mono, c) in enumerate(terms):
        body = _render_term(mono, c, latex=latex)
        if i == 0:
            chunks.append(("-" if c < 0 else "") + body)
        else:
            chunks.append((" - " if c < 0 else " + ") + body)
    return "".join(chunks)


_TOKEN = re.compile(r"(?:(?P<int>\d+)|(?P<var>[tq])(?:\^(?P<exp>-?\d+))?|(?P<op>[+*-]))")


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("unexpected character %r at position %d in %r" % (text[pos], pos, text))
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), pos))
        elif m.group("var") is not None:
            k = int(m.group("exp")) if m.group("exp") is not None else 1
            tokens.append(("var", (m.group("var"), k), pos))
        else:
            tokens.append(("op", m.group("op"), pos))
        pos = m.end()
    return tokens


def parse_poly(text):
    """Parse the text grammar back into a LaurentPoly.

    Terms are [-]c*t^a*q^b separated by + or -; the coefficient, if present,
    comes first in its term.  Errors carry the offending position.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ValueError("empty polynomial text %r" % (text,))
    terms = {}
    i = 0
    first = True
    while i < len(tokens):
        kind, val, pos = tokens[i]
        sign = 1
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            i += 1
        elif not first:
            raise ValueError("missing + or - before position %d in %r" % (pos, text))
        coeff = None
        exps = {}
        expect_factor = True
        while i < len(tokens):
            kind, val, pos = tokens[i]
            if expect_factor:
                if kind == "int":
                    if coeff is not None or exps:
                        raise ValueError("coefficient must lead its term"
                                         " (position %d in %r)" % (pos, text))
                    coeff = val
                elif kind == "var":
                    sym, k = val
                    if sym in exps:
                        raise ValueError("duplicate %s factor at position %d in %r" % (sym, pos, text))
                    exps[sym] = k
                else:
                    raise ValueError("expected a coefficient or variable at position %d in %r"
                                     % (pos, text))
                expect_factor = False
                i += 1
            else:
                if kind == "op" and val == "*":
                    expect_factor = True
                    i += 1
                elif kind == "op":
                    break
                else:
                    raise ValueError("missing * before position %d in %r" % (pos, text))
        if expect_factor:
            raise ValueError("incomplete term at end of %r" % (text,))
        c = sign * (1 if coeff is None else coeff)
        mono = (exps.get("t", 0), exps.get("q", 0))
        c0 = terms.get(mono, 0) + c
        if c0:
            terms[mono] = c0
        elif mono in terms:
            del terms[mono]
        first = False
    return LaurentPoly(terms)


# ----------------------------------------------------------------------
# exact division


def exact_div(a, b):
    """Exact quotient a/b in the Laurent ring, or None when b does not divide a.

    Monomial content is stripped from both operands first (a unit factor,
    restored on the quotient), then single-divisor long division runs on the
    ordinary-polynomial parts.  For a single divisor the leading-term test is
    decisive: leading terms are multiplicative, so any failure certifies
    non-divisibility.
    """
    a = LaurentPoly.coerce(a)
    b = LaurentPoly.coerce(b)
    if b.is_zero():
        raise ZeroDivisionError("exact_div by zero polynomial")
    if a.is_zero():
        return ZERO
    sa = a.min_exponents()
    sb = b.min_exponents()
    A = a.times_term(1, -sa[0], -sa[1])
    B = b.times_term(1, -sb[0], -sb[1])
    bm, bc = B.leading()
    quo = {}
    R = A
    while not R.is_zero():
        rm, rc = R.leading()
        d = (rm[0] - bm[0], rm[1] - bm[1])
        if d[0] < 0 or d[1] < 0 or rc % bc:
            return None
        k = rc // bc
        quo[d] = k
        R = R - B.times_term(k, *d)
    q = LaurentPoly(quo)
    return q.times_term(1, sa[0] - sb[0], sa[1] - sb[1])


# ----------------------------------------------------------------------
# fractions


class PolyFraction:
    """num/den with both in Z[t^+-1, q^+-1], canonicalized value-preservingly.

    Canonical form: if den divides num exactly the pair collapses to (q, 1);
    otherwise the shared monomial content (componentwise minimum exponents
    over both supports) and the shared integer content are divided out of
    both, and the denominator's leading coefficient is made positive.
    Equality is decided by cross multiplication, so no gcd is needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = LaurentPoly.coerce(num)
        den = LaurentPoly.coerce(den)
        if den.is_zero():
            raise ZeroDivisionError("PolyFraction with zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO, ONE
            return
        q = exact_div(num, den)
        if q is not None:
            self.num, self.den = q, ONE
            return
        mn = num.min_exponents()
        md = den.min_exponents()
        shift = (min(mn[0], md[0]), min(mn[1], md[1]))
        if any(shift):
            num = num.times_term(1, -shift[0], -shift[1])
            den = den.times_term(1, -shift[0], -shift[1])
        g = math.gcd(num.content(), den.content())
        if g > 1:
            num = LaurentPoly({m: c // g for m, c in num._terms.items()})
            den = LaurentPoly({m: c // g for m, c in den._terms.items()})
        if den.leading()[1] < 0:
            num = -num
            den = -den
        self.num, self.den = num, den

    @classmethod
    def coerce(cls, value):
        if isinstance(value, cls):
            return value
        return cls(LaurentPoly.coerce(value))

    def is_polynomial(self):
        return self.den.is_one()

    def __add__(self, other):
        other = PolyFraction.coerce(other)
        return PolyFraction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return PolyFraction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-PolyFraction.coerce(other))

    def __rsub__(self, other):
        return PolyFraction.coerce(other) + (-self)

    def __mul__(self, other):
        other = PolyFraction.coerce(other)
        return PolyFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = PolyFraction.coerce(other)
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero fraction")
        return PolyFraction(self.num * other.den, self.den * other.num)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero fraction")
            return PolyFraction(self.den, self.num) ** (-n)
        out = PolyFraction(ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = PolyFraction.coerce(other)
        if not isinstance(other, PolyFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # A fraction equal to a polynomial p is always collapsed, so it hashes
        # like p.  Otherwise num/den == c/d gives num*d == c*den, and the end
        # terms of a product are the products of the factors' end terms.
        if self.is_polynomial():
            return hash(self.num)

        def end_ratio(pick):
            mn = pick(self.num._terms, key=_order_key)
            md = pick(self.den._terms, key=_order_key)
            return (mn[0] - md[0], mn[1] - md[1],
                    Fraction(self.num._terms[mn], self.den._terms[md]))

        return hash((end_ratio(max), end_ratio(min)))

    def eval_rational(self, t_value, q_value):
        dv = self.den.eval_rational(t_value, q_value)
        if dv == 0:
            raise ZeroDivisionError("denominator %s vanishes at the given point" % (self.den,))
        return self.num.eval_rational(t_value, q_value) / dv

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "PolyFraction(%s)" % str(self)

    def to_latex(self):
        if self.is_polynomial():
            return self.num.to_latex()
        return "\\frac{%s}{%s}" % (self.num.to_latex(), self.den.to_latex())


# ----------------------------------------------------------------------
# q-combinatorics


def q_natural(n, form="paren"):
    """(n)_q = 1 + q + ... + q^(n-1), or the balanced [n]_q for form="bracket"."""
    n = int(n)
    if n < 0:
        raise ValueError("q_natural needs n >= 0")
    if form == "paren":
        return LaurentPoly({(0, k): 1 for k in range(n)})
    if form == "bracket":
        # [n]_q = q^(1-n) + q^(3-n) + ... + q^(n-1)
        return LaurentPoly({(0, 1 - n + 2 * k): 1 for k in range(n)})
    raise ValueError("unknown form %r" % (form,))


def q_factorial(n, form="paren"):
    n = int(n)
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = ONE
    for k in range(1, n + 1):
        out = out * q_natural(k, form)
    return out


def q_binomial(n, k, form="paren"):
    """Gaussian binomial coefficient C_n^k(q).

    The paren form follows the Pascal recurrence
    C_n^k = C_(n-1)^(k-1) + q^k * C_(n-1)^k; the bracket form divides
    balanced factorials (the division is exact).
    """
    n = int(n)
    k = int(k)
    if n < 0:
        raise ValueError("q_binomial needs n >= 0")
    if k < 0 or k > n:
        return ZERO
    if form == "paren":
        row = [ONE]
        for m in range(1, n + 1):
            new = [ONE]
            for j in range(1, m):
                new.append(row[j - 1] + row[j].times_term(1, 0, j))
            new.append(ONE)
            row = new
        return row[k]
    if form == "bracket":
        num = q_factorial(n, "bracket")
        out = exact_div(num, q_factorial(k, "bracket"))
        if out is not None:
            out = exact_div(out, q_factorial(n - k, "bracket"))
        if out is None:
            raise ArithmeticError("bracket factorial division failed to be exact")
        return out
    raise ValueError("unknown form %r" % (form,))


def q_pochhammer(a, n):
    """(a; q)_n = prod_{k=0}^{n-1} (1 - a q^k)."""
    n = int(n)
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    a = LaurentPoly.coerce(a)
    out = ONE
    for k in range(n):
        out = out * (ONE - a.times_term(1, 0, k))
    return out
