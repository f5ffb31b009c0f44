"""Exact arithmetic over the ring Z[t, t^-1, q, q^-1].

Polynomials in the two variables t and q are stored sparsely as
{(et, eq): coeff} with arbitrary precision integer coefficients.  There is
no auxiliary variable: characteristic polynomials are coefficient lists
(see polymatrix.char_poly).

Term order is graded lexicographic on (total degree et + eq, et, eq).  The
text form lists terms in descending order:

    t^4*q^2 - t^2*q + 1

Each rendered term is [-]c*t^a*q^b with c, ^1, t^0 and q^0 omitted where
redundant.  parse_poly reads the same grammar, one regular-expression match
per term (a sign, a coefficient or factor, then "*"-joined factors, with
whitespace between tokens), in time linear in the text.

Every product goes through one multiply-accumulate kernel, sum_of_products:
a sum of products, one polynomial product included, builds its result in one
dict, a one-term factor shifts the other operand's exponents, and a factor of
exactly 1 hands back the other operand itself.  Polynomials are never written
after construction, so sharing one between results is safe.

Large operands become integers (Kronecker substitution): a polynomial packs
to one int with a byte-aligned slot per monomial of its exponent box, so a
product of two polynomials is one integer product, and a division one
integer divmod.  sum_of_products takes each pair whose operands both have at
least PACK_PAIR_TERMS terms this way, and exact_div each dividend of at least
PACK_DIVIDEND_TERMS terms; slots wide enough to hold every coefficient make
the result exact, not approximate.  Packing is refused when the box is
sparse, so an exponent of 10**12 costs what its terms cost, not its span.

The same substitution applied to a whole matrix removes variables instead
of packing products one at a time.  collapse owns the whole decision for a
determinant block: one loop over its rows reads each row's t- and
q-ranges and 1-norms, sizes bits by Hadamard's bound (hadamard_bits), and
picks one of three routes before any shift.  A narrow block, within the
gate PACKED_ROW_BITS, loses both variables: its rows, shifted to
nonnegative exponents, go through the ring map t -> 2^bits,
q -> 2^(bits width) into Z, width bounding the t-degree of the shifted
determinant, and expand_packed reads digit k of the integer determinant
back as the coefficient of t^(k mod width) q^(k div width).  A wider block
within the gate COLLAPSE_BITS loses t alone, through t -> 2^bits into
Z[q^+-1], and expand_t reads each coefficient of its determinant back.
Any other block stays in the Laurent ring.  Both read-backs take balanced
base 2^bits digits (t_digits), exact when each coefficient is below
2^(bits - 1) in absolute value, splitting a number of many digits in
halves so that its cost stays near linear.  polymatrix.det runs its blocks
of 3 or more rows this way.  A closure of a representation with no q goes
further and loses t before its first letter: t_terms reads each generator
entry as a polynomial in t, the word image is built at t = 2^bits as
integers, and hadamard_bits, the same bound, sizes bits from 1-norm bounds
read off the letters; INTEGER_CLOSURE_BITS is that path's gate (see
invariants._integer_closure).  divide_by_sweep divides a list of
coefficients in t, the digits of such a determinant (t_digits) or a
LaurentPoly's (t_coefficients), by 1 + t + ... + t^(n-1), which Burau's
theorem makes exact (see invariants._alexander_data).

PolyFraction keeps num/den pairs in a value-preserving canonical form and
compares by cross multiplication.  No multivariate gcd is computed anywhere;
exactness comes from exact division alone.  exact_div divides by a one-term
divisor by dividing the coefficients and shifting the exponents; a large
dividend is divided as a packed integer where that decides; otherwise it
divides in place on a remainder keyed by packed integer monomials, taking
each leading term from a heap, so a step costs the divisor's size times a
logarithm, not a rescan of the remainder.

LaurentPoly.substitute puts fractions in for t and q in one pass over
polynomials: the terms are summed as one numerator over one common
denominator, and a single PolyFraction is built from the pair at the end.
"""

from __future__ import annotations

import heapq
import math
import re
from fractions import Fraction
from operator import index


def _order_key(mono):
    et, eq = mono
    return (et + eq, et, eq)


class LaurentPoly:
    """Sparse integer Laurent polynomial in t and q.

    Coefficients and exponents must be integers (anything operator.index
    accepts, so bools too); anything else raises TypeError rather than being
    truncated.  Nothing writes a polynomial's _terms after construction, so
    a value can be shared: sum_of_products returns an operand itself when it
    is multiplied by exactly 1, and matrices share entries with the
    generator images they were multiplied from.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (et, eq), c in terms.items() if hasattr(terms, "items") else terms:
                mono = (index(et), index(eq))
                c = index(c)
                if c:
                    c0 = data.get(mono, 0) + c
                    if c0:
                        data[mono] = c0
                    elif mono in data:
                        del data[mono]
        self._terms = data

    @classmethod
    def monomial(cls, c, et=0, eq=0):
        mono = (index(et), index(eq))
        c = index(c)
        p = cls.__new__(cls)
        p._terms = {mono: c} if c else {}
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
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def times_term(self, c=1, et=0, eq=0):
        """Multiply by the monomial c*t^et*q^eq (no convolution needed)."""
        if not c:
            return ZERO
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms = {(a + et, b + eq): k * c for (a, b), k in self._terms.items()}
        return p

    def __pow__(self, n):
        n = index(n)
        if n < 0:
            # only units (single +-monomial terms) are invertible
            if not self.is_unit():
                raise ValueError("negative power of a non-unit Laurent polynomial")
            (et, eq), c = self.leading()
            return LaurentPoly.monomial(c if n % 2 else 1, et * n, eq * n)
        return binary_power(self, n, ONE)

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
        """Substitute fractions (or polys) for t and q; returns a PolyFraction.

        With t -> Nt/Dt, q -> Nq/Dq, and a0..a1, b0..b1 the ranges of the
        exponents of t and q, the value is

            (sum of c * Nt^(a-a0) Dt^(a1-a) Nq^(b-b0) Dq^(b1-b))
                * Nt^a0 Dt^-a1 Nq^b0 Dq^-b1.

        The sum is a polynomial, accumulated in one dict: the terms that share
        a power of t are summed first, then multiplied by that power's factor.
        Each outer power goes to the numerator, or to the denominator when its
        exponent is negative and its base is no unit, and one PolyFraction is
        built at the end.  Powers are taken at the exponents that occur only,
        each from the one before by binary powering of the gap, so t^(10**12)
        costs about 40 products.  Raises ZeroDivisionError naming the variable
        when its image is 0 and the polynomial has a negative power of it.
        """
        t_image = PolyFraction.coerce(t_image)
        q_image = PolyFraction.coerce(q_image)
        nt, dt, nq, dq = t_image.num, t_image.den, q_image.num, q_image.den
        if not self._terms:
            return PolyFraction(ZERO)
        rows = {}
        for (a, b), c in self._terms.items():
            rows.setdefault(a, []).append((b, c))
        t_exps = sorted(rows)
        q_exps = sorted({b for a, b in self._terms})
        outer, den = ONE, ONE
        for var, base, e in (("t", nt, t_exps[0]), ("t", dt, -t_exps[-1]),
                             ("q", nq, q_exps[0]), ("q", dq, -q_exps[-1])):
            if e == 0 or base.is_one():
                continue
            if e > 0 or base.is_unit():
                outer = outer * base ** e
            elif base.is_zero():
                raise ZeroDivisionError("%s has a pole at %s = 0" % (self, var))
            else:
                den = den * base ** -e
        t_pow = _power_table(nt, dt, t_exps)
        q_pow = _power_table(nq, dq, q_exps)
        acc = {}
        for a in t_exps:
            inner = {}
            for b, c in rows[a]:
                for m, k in q_pow[b]._terms.items():
                    inner[m] = inner.get(m, 0) + c * k
            for (a1, b1), k1 in t_pow[a]._terms.items():
                for (a2, b2), k2 in inner.items():
                    if k2:
                        m = (a1 + a2, b1 + b2)
                        acc[m] = acc.get(m, 0) + k1 * k2
        num = LaurentPoly.__new__(LaurentPoly)
        num._terms = {m: c for m, c in acc.items() if c}
        if not outer.is_one():
            num = num * outer
        return PolyFraction(num, den)

    def eval_rational(self, t_value, q_value):
        """Evaluate at exact rational points (fractions.Fraction arithmetic)."""
        tv = exact_rational(t_value)
        qv = exact_rational(q_value)
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


ZERO = LaurentPoly.const(0)
ONE = LaurentPoly.const(1)
T = LaurentPoly.monomial(1, et=1)
Q = LaurentPoly.monomial(1, eq=1)
_ONE_TERMS = ONE._terms


def sum_of_products(pairs):
    """Sum of x * y over a sequence of (x, y) pairs of LaurentPoly.

    Every product accumulates into one dict, and zero coefficients are
    stripped once, at the end.  A pair with a zero operand is skipped, and a
    one-term factor multiplies the other operand by shifting its exponents,
    with no convolution.  A single pair whose factor is exactly 1 returns the
    other operand itself, so a matrix column that is a unit vector e_i gives
    back the row's entry.  The pairs whose operands both have at least
    PACK_PAIR_TERMS terms are multiplied as packed integers, their products
    summed as one integer and read back into the same dict once (see
    _add_packed_products); the other pairs stay on the dict loop.
    Polynomial products, matrix products, the Bareiss and Gauss-Jordan
    updates and the Berkowitz sums all call this kernel.
    """
    if not pairs:
        return ZERO
    if len(pairs) == 1:
        (x, y), = pairs
        if x._terms == _ONE_TERMS:
            return y
        if y._terms == _ONE_TERMS:
            return x
    data = {}
    large = []
    for x, y in pairs:
        xt = x._terms
        yt = y._terms
        if not (xt and yt):
            continue
        if len(xt) > len(yt):
            xt, yt = yt, xt
        size = len(xt)
        if size == 1:
            ((a, b), k), = xt.items()
            if data:
                get = data.get
                for (c, d), v in yt.items():
                    m = (a + c, b + d)
                    data[m] = get(m, 0) + k * v
            else:
                data = {(a + c, b + d): k * v for (c, d), v in yt.items()}
            continue
        if size >= PACK_PAIR_TERMS:
            large.append((xt, yt))
            continue
        get = data.get
        for (a, b), k in xt.items():
            for (c, d), v in yt.items():
                m = (a + c, b + d)
                data[m] = get(m, 0) + k * v
    if large:
        _add_packed_products(large, data)
    p = LaurentPoly.__new__(LaurentPoly)
    p._terms = {m: c for m, c in data.items() if c}
    return p


def binary_power(base, n, one):
    """base ** n for an int n >= 0 by repeated squaring, starting from one;
    base is anything with a product (a polynomial, fraction or matrix)."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


def exact_rational(value):
    """An int or Fraction as a Fraction.  A float raises TypeError: it holds a
    binary value, not the decimal it prints as (0.1 is not 1/10)."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError("need an exact rational value (int or Fraction), got %r" % (value,))


def _stepped_powers(base, exps):
    """[base^(e - exps[0]) for e in exps] for ascending exps, each power the
    one before times base to the gap."""
    if base.is_one():
        return [ONE] * len(exps)
    out = [ONE]
    for prev, e in zip(exps, exps[1:]):
        out.append(out[-1] * base ** (e - prev))
    return out


def _power_table(num, den, exps):
    """{e: num^(e - lo) * den^(hi - e)} over the ascending distinct exponents
    exps, lo and hi their ends."""
    ups = _stepped_powers(num, exps)
    downs = _stepped_powers(den, [-e for e in reversed(exps)])[::-1]
    return {e: up if down.is_one() else up * down for e, up, down in zip(exps, ups, downs)}


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


# Longest run of ASCII digits read as one numeral.  Python refuses to convert
# a longer decimal string to int, so a longer run is left unmatched and the
# parser reports where it stopped.
MAX_NUMERAL_DIGITS = 4300
NUMERAL = "[0-9]{1,%d}" % MAX_NUMERAL_DIGITS

_FACTOR = re.compile(r"([tq])(?:\^(-?%s))?" % NUMERAL)
# One match per term: an optional sign, then a coefficient or a factor, then
# "*"-joined factors.  Everything after the leading whitespace is optional, so
# the match never fails, and a missing sign or body shows as an empty group.
# The sign is \s*(?:([+-])\s*)?, not \s*[+-]?\s*: two adjacent quantifiers
# over the same characters make a failing match quadratic in a blank run.
_TERM = re.compile(r"\s*(?:([+-])\s*)?(?:({1}|{0})((?:\s*\*\s*{0})*)\s*)?"
                   .format(r"[tq](?:\^-?%s)?" % NUMERAL, NUMERAL))


def parse_poly(text):
    """Parse the text grammar back into a LaurentPoly.

    Terms are [-]c*t^a*q^b separated by + or -; the coefficient, if present,
    comes first in its term.  Each term is one match of _TERM, so parsing is
    linear in the length of the text.  Errors carry the offending position.
    """
    terms = []
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        sign, lead = m.group(1, 2)
        if lead is None or (pos and sign is None):
            raise ValueError("cannot read a term at position %d in %r"
                             % (m.end() if lead is None else m.start(2), text))
        c = -1 if sign == "-" else 1
        if lead[0] not in "tq":
            c *= int(lead)
        exps = {}
        for f in _FACTOR.finditer(text, m.start(2), m.end(3)):
            if f[1] in exps:
                raise ValueError("duplicate %s factor at position %d in %r" % (f[1], f.start(), text))
            exps[f[1]] = int(f[2] or 1)
        terms.append(((exps.get("t", 0), exps.get("q", 0)), c))
        pos = m.end()
        if pos == len(text):
            return LaurentPoly(terms)


# ----------------------------------------------------------------------
# exact division


def exact_div(a, b):
    """Exact quotient a/b in the Laurent ring, or None when b does not divide a.

    A one-term divisor c*t^i*q^j divides a exactly when c divides every
    coefficient of a; the quotient then divides the coefficients by c and
    shifts the exponents by (-i, -j), with no heap.  A dividend of at least
    PACK_DIVIDEND_TERMS terms is packed into an integer with the divisor
    (see _packed_div): spans that cannot match or a nonzero integer
    remainder prove that b does not divide a, and a zero remainder gives the
    quotient when its digits pass a box and a size check.  Otherwise monomial
    content is stripped from both operands first (a unit factor, restored on
    the quotient), then single-divisor long division runs on the
    ordinary-polynomial parts.  For a single divisor the leading-term test is
    decisive: leading terms are multiplicative, so any failure certifies
    non-divisibility.

    The remainder is a dict updated in place, keyed by one packed integer
    per monomial, (et + eq) * S + et with S = 1 + the largest total degree
    of the shifted dividend.  For exponents et, eq >= 0 with et + eq < S the
    key is injective, orders monomials as the term order does, and adds under
    multiplication.  Every remainder term stays in that box: d * b has the
    leading term it cancels as its own leading term, so no term of it has a
    larger total degree, and d and b have no negative exponents.  A max-heap
    of keys (stale keys skipped when popped) gives each leading term, so a
    step costs O(|b| log |remainder|) instead of a rescan of the remainder
    (Monagan and Pearce, "Polynomial division using dynamic arrays, heaps,
    and packed exponent vectors", CASC 2007).  The keys change how the
    leading term is found, not which term it is, so the leading-term test
    sees the same terms in the same order and stays decisive.
    """
    a = LaurentPoly.coerce(a)
    b = LaurentPoly.coerce(b)
    if b.is_zero():
        raise ZeroDivisionError("exact_div by zero polynomial")
    if a.is_zero():
        return ZERO
    if len(b._terms) == 1:
        ((tb, qb), bc), = b._terms.items()
        quo = {}
        for (et, eq), c in a._terms.items():
            k, r = divmod(c, bc)
            if r:
                return None
            quo[(et - tb, eq - qb)] = k
        q = LaurentPoly.__new__(LaurentPoly)
        q._terms = quo
        return q
    if len(a._terms) >= PACK_DIVIDEND_TERMS:
        decided, q = _packed_div(a._terms, b._terms)
        if decided:
            return q
    ta, qa = a.min_exponents()
    tb, qb = b.min_exponents()
    S = 1 + max(et + eq for et, eq in a._terms) - ta - qa
    R = {(et - ta + eq - qa) * S + et - ta: c for (et, eq), c in a._terms.items()}
    B = [((et - tb + eq - qb) * S + et - tb, c) for (et, eq), c in b._terms.items()]
    (bt, bq), bc = b.leading()
    bt -= tb
    bq -= qb
    bk = (bt + bq) * S + bt
    heap = [-k for k in R]
    heapq.heapify(heap)
    quo = {}
    while R:
        rk = -heapq.heappop(heap)
        rc = R.get(rk)
        if rc is None:
            continue
        deg, rt = divmod(rk, S)
        dt, dq = rt - bt, deg - rt - bq
        if dt < 0 or dq < 0:
            return None
        k, r = divmod(rc, bc)
        if r:
            return None
        quo[(dt + ta - tb, dq + qa - qb)] = k
        dk = rk - bk
        for key, c in B:
            key += dk
            old = R.get(key)
            if old is None:
                R[key] = -k * c
                heapq.heappush(heap, -key)
            else:
                old -= k * c
                if old:
                    R[key] = old
                else:
                    del R[key]
    q = LaurentPoly.__new__(LaurentPoly)
    q._terms = quo
    return q


# ----------------------------------------------------------------------
# Kronecker substitution: polynomials as integers


# A pair goes through one integer product when both operands have at least
# PACK_PAIR_TERMS terms; a dividend with at least PACK_DIVIDEND_TERMS terms is
# divided as an integer first.  A packed integer holds one slot per monomial
# of a box, so packing is refused when the box has more than PACK_DENSITY
# slots per term product: a sparse operand spread over a huge exponent span
# stays on the dict loop or the heap.  A packed division makes its slots
# PACK_HEADROOM_BITS wider than the operands' coefficients, so that a
# quotient whose coefficients outgrow them still reads back.
PACK_PAIR_TERMS = 12
PACK_DIVIDEND_TERMS = 128
PACK_DENSITY = 2
PACK_HEADROOM_BITS = 16


def _shape(terms):
    """(min et, max et, min eq, max eq, sum |c|, max |c|) of a nonzero term dict."""
    ets, eqs = zip(*terms)
    mags = [abs(c) for c in terms.values()]
    return min(ets), max(ets), min(eqs), max(eqs), sum(mags), max(mags)


# A polynomial packs to the integer sum of c * z^((et - t0) * stride + eq - q0)
# over its terms, z = 2^(8 * width): one width-byte slot per monomial of the
# box [t0, t0 + rows) x [q0, q0 + stride).  Packing is a ring map, exact for
# any coefficients.  Reading back is exact when every slot's coefficient c has
# |c| < z / 2: adding z / 2 to every slot then makes every digit of the sum
# nonnegative, so the bytes of one to_bytes call are the slots.


def _half_slots(width, slots):
    """The bytes of z / 2 in each of slots width-byte slots, little-endian."""
    return (bytes(width - 1) + b"\x80") * slots


def _pack(terms, t0, q0, stride, width, rows):
    """The packed integer of a term dict on rows t-rows from (t0, q0)."""
    half = 1 << (8 * width - 1)
    offset = _half_slots(width, rows * stride)
    buf = bytearray(offset)
    corner = t0 * stride + q0
    for (a, b), c in terms.items():
        i = (a * stride + b - corner) * width
        buf[i:i + width] = (c + half).to_bytes(width, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(offset, "little")


def _unpack_into(data, value, t0, q0, stride, width, rows):
    """Add each nonzero slot of value into data at its monomial; raises
    OverflowError when value does not fit the box."""
    half = 1 << (8 * width - 1)
    offset = _half_slots(width, rows * stride)
    raw = (value + int.from_bytes(offset, "little")).to_bytes(len(offset), "little")
    zero = offset[:width]
    get = data.get
    i = 0
    for et in range(t0, t0 + rows):
        for eq in range(q0, q0 + stride):
            s = raw[i:i + width]
            if s != zero:
                m = (et, eq)
                data[m] = get(m, 0) + int.from_bytes(s, "little") - half
            i += width


def _add_packed_products(pairs, data):
    """Add x * y for the (x, y) term dicts of pairs into data, each product
    one integer product (Kronecker substitution: D. Harvey, J. Symb. Comput.
    44, 2009).

    The pairs' products lie in one box [t0, t1] x [q0, q1], and stride =
    q1 - q0 + 1 keeps a q-range from wrapping into the next t-row, so the
    slot of a product term is the sum of its factors' slots.  Each operand
    is packed from its own corner; each integer product is shifted to its
    pair's corner and summed, and the sum is read back once.  No coefficient
    of the sum exceeds the sum over the pairs of min(|x|_1 |y|_inf,
    |x|_inf |y|_1), and the slots are the fewest whole bytes that hold twice
    that.  When the box has more than PACK_DENSITY slots per term product,
    the pairs are convolved on the dict loop instead.
    """
    shapes = [(_shape(xt), _shape(yt)) for xt, yt in pairs]
    t0 = min(sx[0] + sy[0] for sx, sy in shapes)
    t1 = max(sx[1] + sy[1] for sx, sy in shapes)
    q0 = min(sx[2] + sy[2] for sx, sy in shapes)
    stride = max(sx[3] + sy[3] for sx, sy in shapes) - q0 + 1
    if (t1 - t0 + 1) * stride > PACK_DENSITY * sum(len(xt) * len(yt) for xt, yt in pairs):
        get = data.get
        for xt, yt in pairs:
            for (a, b), k in xt.items():
                for (c, d), v in yt.items():
                    m = (a + c, b + d)
                    data[m] = get(m, 0) + k * v
        return
    width = sum(min(sx[4] * sy[5], sx[5] * sy[4]) for sx, sy in shapes).bit_length() // 8 + 1
    total = 0
    for (xt, yt), (sx, sy) in zip(pairs, shapes):
        x = _pack(xt, sx[0], sx[2], stride, width, sx[1] - sx[0] + 1)
        y = _pack(yt, sy[0], sy[2], stride, width, sy[1] - sy[0] + 1)
        total += x * y << 8 * width * ((sx[0] + sy[0] - t0) * stride + sx[2] + sy[2] - q0)
    _unpack_into(data, total, t0, q0, stride, width, t1 - t0 + 1)


def _packed_div(at, bt):
    """(True, a / b or None) when packing decides whether b divides a, for
    the term dicts at and bt of a and b; (False, None) when it cannot.

    Exponent spans add under multiplication, so a span of a smaller than
    that of b in either variable proves that b does not divide a, and
    otherwise fixes the quotient's box.  Both are packed from their own
    corners with the stride of a's q-span.  Packing is a ring map, so if b
    divides a, the packed b divides the packed a: a nonzero integer
    remainder proves that b does not.  A zero remainder is read back as a
    polynomial d.  It is the quotient when it lies in the quotient's box and
    |d|_1 |b|_inf < z / 2: then d * b and a both lie in a's box with
    coefficients below z / 2, where packing is one to one, and they pack to
    the same integer.  Otherwise the caller divides.
    """
    ta0, ta1, qa0, qa1, _, a_max = _shape(at)
    tb0, tb1, qb0, qb1, _, b_max = _shape(bt)
    rows = ta1 - ta0 - tb1 + tb0 + 1
    cols = qa1 - qa0 - qb1 + qb0 + 1
    if rows < 1 or cols < 1:
        return True, None
    stride = qa1 - qa0 + 1
    if (ta1 - ta0 + 1) * stride > PACK_DENSITY * len(at) * len(bt):
        return False, None
    width = (max(a_max, b_max) << PACK_HEADROOM_BITS).bit_length() // 8 + 1
    quo, rem = divmod(_pack(at, ta0, qa0, stride, width, ta1 - ta0 + 1),
                      _pack(bt, tb0, qb0, stride, width, tb1 - tb0 + 1))
    if rem:
        return True, None
    terms = {}
    try:
        _unpack_into(terms, quo, ta0 - tb0, qa0 - qb0, stride, width, rows)
    except OverflowError:
        return False, None
    q_end = qa0 - qb0 + cols
    if (any(eq >= q_end for _, eq in terms)
            or sum(map(abs, terms.values())) * b_max >> 8 * width - 1):
        return False, None
    q = LaurentPoly.__new__(LaurentPoly)
    q._terms = terms
    return True, q


# A block of n rows packs into ints when bits * width * height, for the
# slot width bits of collapse and the degree bounds width and height of its
# shifted determinant, is at most PACKED_ROW_BITS * n: that bounds the bit
# length of the packed determinant.  A block the packing refuses collapses
# to Z[q^+-1] when bits * (s + 1), for its largest row t-span s, lies in
# COLLAPSE_BITS: that is the width of the widest coefficient of a collapsed
# entry.
#
# COLLAPSE_BITS, measured per closure block before packing existed
# (collapsed / direct time, shared 2-vCPU host, CPython 3.11): 1.1-1.8
# below 64 bits, where the conversions cost about 20 us that a block of
# few-term entries does not win back; 0.12-0.7 at 100-1000 bits; 0.4-0.7 at
# 1000-2000 bits and 0.95-1.9 above, on a few blocks each.  Wide slots lose
# to CPython's long division, quadratic in the digits: collapsing every
# block took the 5-strand Krammer word W5 of ROADMAP from 1.4 to 3.1 s and
# the 12-strand Krammer command of README from 12 to 150 s.
#
# PACKED_ROW_BITS, measured on the 1588 blocks of 3 or more rows that the
# benchmark's first 1000 krammer-large operations, 200 invariant-batch
# blocks and 2 verify-suite blocks (seed 1) hand to PolyMatrix.det: packed
# time over the time of the route the block took before (collapsed or
# direct), summed over the blocks of each band of packed bits per row
# (best of 3 in each of two processes, shared 2-vCPU host, CPython 3.11):
#
#     bits per row:  <250  -500  -1000  -1500  -1750  -2000  -2500  -3000  -4000  more
#     3 rows:        0.84  0.63  0.72   0.85   0.94   0.93   1.17   1.10   1.07   2.03
#     4-6 rows:      0.33  0.34  0.47   0.65   0.75   1.03   1.22   1.32   1.81   3.94
#
# The products and long divisions of wide ints grow faster than the term
# counts of the Laurent entries, and the crossover sits at 1750-2000 bits
# per row for both; one flat gate would fit only one row of the table
# (about 6000 bits for 3 rows, 10000-12000 for 6).  2 x 2 blocks never
# pack: they have no division to save, and packing took 1.97 times the
# direct time on the 44 such blocks of the first 300 krammer-large
# operations and 100 invariant-batch blocks.
COLLAPSE_BITS = range(64, 1025)
PACKED_ROW_BITS = 1750


# A closure det(rho(w) - s I) of a representation with no q runs as integer
# linear algebra at t = 2^K (invariants._integer_closure) when its a
# priori width W = K (row t-span + 1), read off the letters before any
# product, has W (d - 1)^2 <= INTEGER_CLOSURE_BITS for its dimension d, or
# W <= 8 INTEGER_CLOSURE_BITS at d = 2, where Bareiss never divides.  The
# a priori K runs 2-4 times the K of the image's own norms, and the integer
# path's cost grows faster in W than the Laurent path's.  Measured on
# seeded reduced Burau words (integer / Laurent path time, best of up to 7
# runs, shared 2-vCPU host, CPython 3.11), the crossover sits near
# W (d - 1)^2 = 250000 for d = 3..9 and above it for larger d:
#
#     d = 2:  W 0.5M 0.6;  2.0M 0.95-1.0;  4.5M 1.7-1.9;  12.7M 2.9
#     d = 3:  W 60-68k 0.84-1.23;  160-186k 1.05-1.5;  300k 3.0;  600-700k 5-6
#     d = 4:  W 14-17k 0.6;  29-31k 0.96-1.28;  58-60k 1.7-2.9
#     d = 5:  W 8-11k 0.48-0.83;  14-17k 0.89-1.13;  27-33k 1.6-2.9
#     d = 6:  W 3.5-4.4k 0.30-0.99;  5.3-6.3k 0.60-0.74;  9-11k 0.9-1.36;  14-17k 1.45-2.0
#     d = 9:  W 1.3-1.9k 0.83-0.95;  4.4-5.5k 0.69-0.87;  7.4-7.6k 1.4-2.7
#     d = 12: W 1.2-1.5k 0.30-0.56;  1.6-2.9k 0.46-1.53;  3.8-4.7k 0.88-2.05
#     d = 15: W 1.0-1.8k 0.37-0.65;  2.1-3.8k 0.32-1.81;  4.7-5.0k 2.0-2.8
#
# Short words are far inside: 0.37-0.55 at d = 2..6 and L = 12..20, and
# 0.86 at d = 2, L = 4.
INTEGER_CLOSURE_BITS = 250_000


def integer_closure_fits(dim, width):
    """Whether a dim x dim closure of a priori width bits (see above) goes
    through integers."""
    return width * (dim - 1) ** 2 <= INTEGER_CLOSURE_BITS * (8 if dim == 2 else 1)


def hadamard_bits(row_squares):
    """The slot width bits = bit_length(B) + 1 for B = ceil(sqrt(prod_i
    r_i)), given one positive int r_i per row of a square matrix, at least
    the sum of the squared 1-norms of the row's entries.

    On the torus |t| = |q| = 1 each entry x has |x| <= |x|_1, so by
    Hadamard's inequality |det| is at most B there, and so is every
    coefficient of det, being an average of det times a monomial over the
    torus.  So every coefficient has |c| < 2^(bits - 1), as expand_t and
    expand_packed need.  No degree bound enters the bits, and nothing is
    approximate.
    """
    bound = math.prod(row_squares)
    return (math.isqrt(bound - 1) + 1).bit_length() + 1


def collapse(rows):
    """(images, bits, width, shift) for the rows of a square block, each
    with a nonzero entry, or None when both gates refuse the block.

    Row i times t^-lo_i q^-qlo_i, lo_i and qlo_i its least exponents, lies
    in Z[t, q], and images holds its images under one of two ring maps.
    bits is hadamard_bits of each row's sum of squared entry 1-norms.  The
    shifted determinant has t-degree below width = 1 + the sum of the row
    t-spans and q-degree below height = 1 + the sum of the row q-spans.
    When bits * width * height is at most PACKED_ROW_BITS times the number
    of rows, the map is t -> 2^bits, q -> 2^(bits width) into Z, images
    are ints, and the determinant is expand_packed(det(images), bits,
    width, shift) with shift the pair of sums of the lo_i and the qlo_i.
    Otherwise, when bits * (s + 1) lies in COLLAPSE_BITS, s the largest
    row t-span, the map is t -> 2^bits into Z[q^+-1], width is None, and
    the determinant is expand_t(det(images), bits, shift) with shift the
    sum of the lo_i.
    One loop over each row reads its ranges and 1-norms from the exponents
    and coefficients, so both gates are checked before any shift and an
    entry t^(10**12) costs nothing.
    """
    los, q_los, row_squares = [], [], []
    span = t_total = q_total = 0
    for row in rows:
        lo = None
        square = 0
        for x in row:
            terms = x._terms
            if terms:
                if lo is None:
                    lo, q_lo = hi, q_hi = next(iter(terms))
                for et, eq in terms:
                    if et < lo:
                        lo = et
                    elif et > hi:
                        hi = et
                    if eq < q_lo:
                        q_lo = eq
                    elif eq > q_hi:
                        q_hi = eq
                square += sum(map(abs, terms.values())) ** 2
        los.append(lo)
        q_los.append(q_lo)
        span = max(span, hi - lo)
        t_total += hi - lo
        q_total += q_hi - q_lo
        row_squares.append(square)
    bits = hadamard_bits(row_squares)
    width = t_total + 1
    if bits * width * (q_total + 1) <= PACKED_ROW_BITS * len(rows):
        images = [_pack_row(row, lo, q_lo, bits, width) for row, lo, q_lo in zip(rows, los, q_los)]
        return images, bits, width, (sum(los), sum(q_los))
    if bits * (span + 1) in COLLAPSE_BITS:
        return [_collapse_row(row, lo, bits) for row, lo in zip(rows, los)], bits, None, sum(los)
    return None


def _pack_row(row, lo, q_lo, bits, width):
    """The values of t^-lo q^-q_lo x at t = 2^bits, q = 2^(bits width) for
    the entries x of row, ints.  lo and q_lo must be at most every
    exponent of the row, every coefficient below 2^(bits - 1) in absolute
    value and every t-exponent below lo + width: then each term has its
    own base 2^bits digit, and a nonzero entry packs to a nonzero int."""
    corner = lo + width * q_lo
    out = []
    for x in row:
        v = 0
        for (et, eq), c in x._terms.items():
            v += c << bits * (et + width * eq - corner)
        out.append(v)
    return out


def expand_packed(d, bits, width, shift):
    """t^a q^b f for shift = (a, b) and the polynomial f in Z[t, q], of
    t-degree below width, with f(2^bits, 2^(bits width)) = d: the
    balanced base 2^bits digit k of d (t_digits) is f's coefficient of
    t^(k mod width) q^(k div width), exactly when every coefficient of f
    is below 2^(bits - 1) in absolute value."""
    t0, q0 = shift
    terms = {}
    for k, digit in enumerate(t_digits(d, bits)):
        if digit:
            eq, et = divmod(k, width)
            terms[(et + t0, eq + q0)] = digit
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = terms
    return out


def _collapse_row(row, lo, bits):
    """The images of t^-lo * x for the entries x of row under t -> 2^bits,
    polynomials in q alone.  lo must be at most every t-exponent of the row,
    and every coefficient below 2^(bits - 1) in absolute value: then the
    image of a nonzero entry has no zero coefficient."""
    out = []
    for x in row:
        terms = x._terms
        if not terms:
            out.append(ZERO)
            continue
        p = LaurentPoly.__new__(LaurentPoly)
        if len(terms) == 1:
            ((et, eq), c), = terms.items()
            p._terms = {(0, eq): c << bits * (et - lo)}
        else:
            acc = p._terms = {}
            get = acc.get
            for (et, eq), c in terms.items():
                m = (0, eq)
                acc[m] = get(m, 0) + (c << bits * (et - lo))
        out.append(p)
    return out


def expand_t(p, bits, shift):
    """t^shift times the polynomial f in Z[t, q^+-1] whose image under
    t -> 2^bits is p, for p in Z[q^+-1].  Each coefficient of p is
    sum_a c_a 2^(bits a) over the t-exponents a >= 0 of f's terms with that
    q-exponent, and it is read back as its balanced base 2^bits digits
    (t_digits), which are the c_a exactly when every
    |c_a| < 2^(bits - 1)."""
    terms = {}
    for (_, eq), c in p._terms.items():
        for et, digit in enumerate(t_digits(c, bits), shift):
            if digit:
                terms[(et, eq)] = digit
    out = LaurentPoly.__new__(LaurentPoly)
    out._terms = terms
    return out


def t_digits(d, bits):
    """The balanced base 2^bits digits of the int d, lowest first, maybe
    with zeros on top: f's coefficients, if f(2^bits) = d and each is below
    2^(bits - 1) in absolute value."""
    digits = []
    _read_digits(d, bits, d.bit_length() // bits + 2, digits)
    return digits


def _read_digits(c, bits, n, digits):
    """Append the n lowest balanced base 2^bits digits of c to the list
    digits, and return what is left above them.  Digit j is
    ((c_j + half) & mask) - half with c_0 = c and
    c_(j+1) = (c_j - digit) >> bits, half = 2^(bits - 1); it depends only
    on c mod 2^(bits (j + 1)).  So more than 32 digits split in two: the
    low half is read from c's low bits, and the carry it leaves (0 or 1) is
    added to c's high bits for the high half.  Every level costs one pass
    over the bits, not one pass per digit, so a coefficient of thousands
    of digits is read in n log n time, not n^2."""
    if n > 32:
        h = n // 2
        low = bits * h
        carry = _read_digits(c & ((1 << low) - 1), bits, h, digits)
        return _read_digits((c >> low) + carry, bits, n - h, digits)
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    append = digits.append
    for _ in range(n):
        digit = ((c + half) & mask) - half
        append(digit)
        c = (c - digit) >> bits
    return c


def t_coefficients(x):
    """(coeffs, lo) with x = sum_i coeffs[i] t^(lo + i), for x free of q."""
    ets = [et for et, _ in x._terms] or [0]
    lo = min(ets)
    coeffs = [0] * (max(ets) - lo + 1)
    for (et, _), c in x._terms.items():
        coeffs[et - lo] = c
    return coeffs, lo


def divide_by_sweep(coeffs, shift, n):
    """(normal, (c, a)) for the quotient t^shift f / den = c t^a normal,
    f = sum_i coeffs[i] t^i and den = (-1)^(n-1) (1 + t + ... + t^(n-1)),
    or None when den does not divide t^shift f.  normal is the quotient's
    normal form, least t-exponent 0 and lowest coefficient > 0, and the
    unit c t^a (c = +-1) turns it back into the quotient, which is not
    built here; a zero quotient gives (ZERO, (1, 0)).

    f = g (1 + ... + t^(n-1)) + r with deg r < n - 1, so f_i is r_i plus
    the window g_(i-n+1) + ... + g_i (g_j = 0 off 0..deg g).  Top-down,
    each g_(i-n+1) is f_i minus the rest of its window, one subtraction a
    step, and below t^(n-1) r_i = 0 says f_i is the window."""
    g = [0] * len(coeffs)
    window = 0
    for i in range(len(coeffs) - 1, n - 2, -1):
        c = g[i - n + 1] = coeffs[i] - window
        window += c - g[i]
    for i in range(min(n - 1, len(coeffs)) - 1, -1, -1):
        if coeffs[i] != window:
            return None
        window -= g[i]
    low = next((k for k, c in enumerate(g) if c), None)
    if low is None:
        return ZERO, (1, 0)
    unit = 1 if g[low] > 0 else -1
    normal = LaurentPoly.__new__(LaurentPoly)
    normal._terms = {(k - low, 0): unit * c for k, c in enumerate(g) if c}
    return normal, ((-1) ** (n - 1) * unit, shift + low)


def t_terms(x):
    """(lo, hi, norm, terms) for a nonzero x in Z[t^+-1], free of q: its
    least and greatest t-exponents, its 1-norm (the sum of its
    coefficients' absolute values) and the pairs (et - lo, c) of
    t^-lo * x, a polynomial in t.  Its value at t = 2^bits is the sum of
    c << bits * (et - lo).  A term with q raises ValueError."""
    if any(eq for _, eq in x._terms):
        raise ValueError("%s has q, so it is no polynomial in t alone" % (x,))
    lo = min(et for et, _ in x._terms)
    terms = tuple((et - lo, c) for (et, _), c in x._terms.items())
    return lo, lo + max(j for j, _ in terms), sum(abs(c) for _, c in terms), terms


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
        if den.is_one():
            self.num, self.den = num, ONE
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
        n = index(n)
        if n < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("negative power of zero fraction")
            return PolyFraction(self.den, self.num) ** (-n)
        return binary_power(self, n, PolyFraction(ONE))

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
    n = index(n)
    if n < 0:
        raise ValueError("q_natural needs n >= 0")
    if form == "paren":
        return LaurentPoly({(0, k): 1 for k in range(n)})
    if form == "bracket":
        # [n]_q = q^(1-n) + q^(3-n) + ... + q^(n-1)
        return LaurentPoly({(0, 1 - n + 2 * k): 1 for k in range(n)})
    raise ValueError("unknown form %r" % (form,))


def q_factorial(n, form="paren"):
    if form not in ("paren", "bracket"):
        raise ValueError("unknown form %r" % (form,))
    n = index(n)
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    out = ONE
    for k in range(1, n + 1):
        out = out * q_natural(k, form)
    return out


def q_binomial(n, k, form="paren"):
    """Gaussian binomial coefficient C_n^k(q).

    The paren form follows the Pascal recurrence
    C_n^k = C_(n-1)^(k-1) + q^k * C_(n-1)^k; the balanced bracket form is
    q^(-k(n-k)) times the paren form at q^2.
    """
    if form not in ("paren", "bracket"):
        raise ValueError("unknown form %r" % (form,))
    n = index(n)
    k = index(k)
    if n < 0:
        raise ValueError("q_binomial needs n >= 0")
    if k < 0 or k > n:
        return ZERO
    row = [ONE]
    for m in range(1, n + 1):
        new = [ONE]
        for j in range(1, m):
            new.append(row[j - 1] + row[j].times_term(1, 0, j))
        new.append(ONE)
        row = new
    if form == "paren":
        return row[k]
    shift = k * (n - k)
    return LaurentPoly({(et, 2 * eq - shift): c for (et, eq), c in row[k]._terms.items()})


def q_pochhammer(a, n):
    """(a; q)_n = prod_{k=0}^{n-1} (1 - a q^k)."""
    n = index(n)
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0")
    a = LaurentPoly.coerce(a)
    out = ONE
    for k in range(n):
        out = out * (ONE - a.times_term(1, 0, k))
    return out
