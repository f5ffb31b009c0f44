"""Knot invariants of braid closures.

The Alexander polynomial comes from the reduced Burau representation, the
two-variable rational function from the two-row representation tensored with
the sign character (the extra sign is what makes the closed trefoil come out
as t^4*q^2 - t^2*q + 1; it changes nothing for conjugation invariance).
Both are determinant ratios:

    num = det(image(word) - I),   den = det(image(sigma_1 ... sigma_(n-1)) - I)

The sign character multiplies the image of a word of length L by
s = (-1)^L, so the Krammer determinants are taken on lk itself as
s^dim det(lk(word) - s I).  The generator images stay as their
constructors build them, so a word image rewrites only the lines (rows
for the conjugated reduced Burau form, columns for lk) where each letter
differs from the identity; reps.image_of_word passes the rest through.

Reduced Burau has no q, so its closures are integer linear algebra
(Kronecker substitution, D. Harvey, J. Symb. Comput. 44, 2009):
reps.letter_t_lines reads the word's letters once, reps.word_norm_bound
walks them, with no product, to bound each line of the image by one
number, the sum of its entries' 1-norms; Hadamard's bound on those sums
gives K (laurent.hadamard_bits), reps.image_at_power_of_two builds the
image at t = 2^K as one Python int per entry, and polymatrix.integer_det
runs on those ints the block split and the Bareiss elimination that
PolyMatrix.det runs on Krammer closures, each ring with its own pivot
size and row update.  The Alexander quotient stays on the integer too:
laurent.divide_at_power_of_two divides that determinant by den's value
at 2^K and reads the quotient's balanced base 2^K digits once, as the
raw quotient and as its normal form.  Only when that proves nothing does
laurent.expand_t read the determinant back for a PolyFraction to divide.
The gate laurent.INTEGER_CLOSURE_BITS keeps long words on many strands,
where the a priori K is too wide to pay, on the Laurent path, and
Krammer closures (lk has q) never try it.

Neither den depends on the word: Alexander's is the closed form that
Burau's theorem gives (_alexander_data), and Krammer's is computed once
per strand count (_krammer_data).  A call computes only num.

Both values are conjugacy invariants, so before any matrix a call
cancels the word's letters with BraidWord.free_reduce(cyclic=True):
pairs of inverse letters that meet by far commutation, and pairs that
meet across the two ends of the word, which conjugates the braid.  Every
representation sends equal braids to equal images, and conjugate braids
to conjugate ones, so num does not change; letters go in pairs, so
neither does the parity of L and with it the Krammer sign.  A word left
without some generator sigma_i (_misses_a_generator) closes to a split
link, whose Alexander polynomial is 0, so alexander answers it without a
matrix.  Its Krammer value is 0 when L is even, by a fixed covector of lk
(see krammer_fraction), so krammer_fraction answers that case without a
matrix too; when L is odd the value need not be 0 (sigma_1 on 3 strands
gives (2*t^3*q - 2*t^2*q + 2*t - 2) / (t^6*q^2 - 1)), and it is computed.
"""

import functools

from .braid import BraidWord, CheckReport
from .laurent import (LaurentPoly, PolyFraction, Q, T, ZERO, divide_at_power_of_two,
                      exact_rational, expand_t, hadamard_bits, integer_closure_fits, t_terms)
from .polymatrix import integer_det
from .reps import (burau_reduced, image_at_power_of_two, image_of_word, letter_t_lines, lk,
                   word_norm_bound)


class InvariantError(Exception):
    """An Alexander determinant ratio that is not a Laurent polynomial.  By
    Burau's theorem (see _alexander_data) reduced Burau gives none for any
    braid, links included, so this guards the theorem."""


class AlexanderResult:
    """raw_fraction is the determinant ratio as-is; normalized is the Laurent
    polynomial quotient with minimum t-degree 0 and positive lowest coefficient."""

    __slots__ = ("raw_fraction", "normalized")

    def __init__(self, raw_fraction, normalized):
        self.raw_fraction = raw_fraction
        self.normalized = normalized

    def __str__(self):
        return str(self.normalized)

    def __repr__(self):
        return "AlexanderResult(%s)" % (self.normalized,)


class KrammerResult:
    """fraction is canonical; collapsed is the exact polynomial quotient when
    the denominator divides the numerator, else None."""

    __slots__ = ("fraction", "collapsed")

    def __init__(self, fraction, collapsed):
        self.fraction = fraction
        self.collapsed = collapsed

    def __str__(self):
        return str(self.collapsed) if self.collapsed is not None else str(self.fraction)

    def __repr__(self):
        return "KrammerResult(%s)" % (self,)


def _normalize_alexander(p):
    if p.is_zero():
        return p
    et, _eq = p.min_exponents()
    shifted = p.times_term(1, -et, 0)
    if shifted.coeff() < 0:
        shifted = -shifted
    return shifted


@functools.lru_cache(maxsize=None)
def _alexander_data(n):
    """Reduced Burau psi on n strands, its sweep denominator
    den = det(psi(sigma_1 ... sigma_(n-1)) - I) and t_terms(den), built once
    per n.  By Burau's theorem (J. Birman, Braids, Links, and Mapping Class
    Groups, 1974, ch. 3), det(I - psi(w)) is (1 + t + ... + t^(n-1)) times
    the Alexander polynomial of the closure of w, up to a unit, for every
    braid w.  The sweep closes to the unknot, and psi(sigma_1 ...
    sigma_(n-1)) has characteristic polynomial x^(n-1) + t x^(n-2) + ... +
    t^(n-1), so den = (-1)^(n-1) (1 + t + ... + t^(n-1)) exactly."""
    den = LaurentPoly({(k, 0): (-1) ** (n - 1) for k in range(n)})
    return burau_reduced(n, "conjugated"), den, t_terms(den)


@functools.lru_cache(maxsize=None)
def _krammer_data(n):
    """lk(n) and the Krammer sweep denominator, the closure determinant of
    sigma_1 ... sigma_(n-1) (_laurent_closure with its sign), built once
    per n."""
    rep = lk(n, "new")
    return rep, _laurent_closure(rep, BraidWord(n, list(range(1, n))), (-1) ** (n - 1))


def _laurent_closure(rep, word, s):
    """s^dim det(rho(word) - s I) as the LaurentPoly PolyMatrix.det gives,
    with s subtracted on the diagonal of the word image.

    For the Krammer invariant rho is lk tensored with the sign character,
    which scales the image of a word of length L by s = (-1)^L.  So
    det(s lk(w) - I) = s^dim det(lk(w) - s I): the sign is applied once per
    word, and the generator images stay as lk builds them.  alexander
    passes s = 1.
    """
    m = image_of_word(rep, word)
    shift = LaurentPoly.const(-s)
    for i, row in enumerate(m.data):
        row[i] = row[i] + shift
    det = m.det()
    return -det if s < 0 and rep.dim % 2 else det


def _integer_closure(rep, word):
    """(d, bits, shift) with det(rho(word) - I) = t^shift f for the f in
    Z[t] whose value at t = 2^bits is d, every coefficient of f below
    2^(bits - 1) in absolute value; for a representation with no q, or
    None when the gate refuses the word.

    Line i of rho(word) has entries whose 1-norms add up to at most sums[i]
    (reps.word_norm_bound), so line i of rho(word) - I has them add up to
    at most sums[i] + 1, and as the squares of those 1-norms add up to at
    most (sums[i] + 1)^2, K = hadamard_bits of those squares puts every
    coefficient of the determinant below 2^(K - 1).  Line i at t = 2^K is
    t^-offsets[i] times the ints of image_at_power_of_two, whose lines
    this function owns, so subtracting I takes 2^(K offsets[i]) off each
    diagonal entry in place, and the determinant is t^-(sum of offsets)
    times the polynomial whose value at 2^K is integer_det of those lines;
    every offset is at least 0, so that polynomial has no negative power
    of t, and the shift is -(sum of offsets), whether the lines are rows
    or columns.  The gate, laurent.integer_closure_fits, reads the
    dimension and the a priori width K (row t-span + 1), the t-span from
    word_norm_bound.
    """
    letters = letter_t_lines(rep, word)
    sums, los, his = word_norm_bound(rep, letters)
    bits = hadamard_bits([(total + 1) ** 2 for total in sums])
    if not integer_closure_fits(rep.dim, bits * (max(h - l for l, h in zip(los, his)) + 1)):
        return None
    lines, offsets = image_at_power_of_two(rep, letters, bits)
    for i, line in enumerate(lines):
        line[i] -= 1 << bits * offsets[i]
    return integer_det(lines), bits, -sum(offsets)


def _misses_a_generator(word):
    """Whether some generator sigma_i, 1 <= i < n, has no letter in the word."""
    return len({abs(x) for x in word.letters}) < word.strands - 1


def alexander(word):
    """Alexander polynomial of the closure of a braid word.

    Divides det(rho(word) - I) by den = det(rho(sigma_1..sigma_(n-1)) - I)
    where rho is the reduced Burau representation and den is the closed
    form of Burau's theorem (see _alexander_data).  The numerator is
    integer linear algebra at t = 2^K, with K read from the letters before
    any product, unless the gate laurent.INTEGER_CLOSURE_BITS sends a long
    word on many strands to the Laurent path (see _integer_closure).  On
    the integer path the division is too: laurent.divide_at_power_of_two
    divides the determinant's value by den's at 2^K and reads the quotient
    and its normal form off the digits once.  When it proves nothing (a
    failed bound), or on the Laurent path, the numerator is a LaurentPoly
    divided in a canonical PolyFraction.  By Burau's theorem the ratio is a
    Laurent polynomial for every braid, links included; InvariantError, if
    the division is not exact, guards the theorem.

    The word is first reduced cyclically (see the module docstring); one
    that is then left without some generator answers raw 0/1 and
    normalized 0, the values its determinant gives, at once.
    """
    word = word.free_reduce(cyclic=True)
    if _misses_a_generator(word):
        return AlexanderResult(PolyFraction(ZERO), ZERO)
    rep, den, den_terms = _alexander_data(word.strands)
    closure = _integer_closure(rep, word)
    if closure is None:
        num = _laurent_closure(rep, word, 1)
    else:
        quotient = divide_at_power_of_two(*closure, den_terms)
        if quotient is not None:
            return AlexanderResult(PolyFraction(quotient[0]), quotient[1])
        num = expand_t(LaurentPoly.const(closure[0]), *closure[1:])
    raw = PolyFraction(num, den)
    if not raw.is_polynomial():
        raise InvariantError("determinant ratio %s is not a polynomial" % (raw,))
    return AlexanderResult(raw, _normalize_alexander(raw.num))


def krammer_fraction(word):
    """Two-variable determinant ratio of the closure, as a canonical fraction.

    Uses the two-row representation tensored with the sign character, that
    is lk with negated generator images, applied once per word of L letters
    by _laurent_closure as s^dim det(lk(word) - s I), s = (-1)^L, on the
    word reduced cyclically, which keeps the parity of L (see the module
    docstring).  collapsed carries the polynomial value when the
    denominator divides exactly.

    A reduced word of even length that misses some generator sigma_i
    answers fraction 0 and collapsed 0 at once, with no lk(n) and no sweep
    denominator built.  Proof: let l_i be the covector that sums the
    coordinates F_(j,k) with j <= i < k, and take m != i.  The pair
    (m, m+1) is outside that set, and lk(sigma_m) sends F_(j,k) to one
    pair with coefficient 1, or to two pairs with coefficients a and c and
    to (m, m+1) with b or e, or, when (j, k) = (m, m+1), to (m, m+1) with
    d.  Since m != i, every other pair reached lies on the same side of the
    set as (j, k), and a + c = t + (1 - t) = 1 (q + (1 - q) in Bigelow's
    notation), so the entries of column (j, k) in rows of the set add up
    to 1 when (j, k) is in it and to 0 when it is not: l_i lk(sigma_m) =
    l_i.  Hence l_i lk(sigma_m)^-1 = l_i too, and l_i lk(w) = l_i for every
    word w without sigma_i, so lk(w) has eigenvalue 1.  For even L, s = 1
    and the numerator det(lk(w) - I) is 0.  For odd L it is
    +-det(lk(w) + I), which l_i does not reach.
    """
    word = word.free_reduce(cyclic=True)
    s = (-1) ** len(word.letters)
    if s > 0 and _misses_a_generator(word):
        return KrammerResult(PolyFraction(ZERO), ZERO)
    rep, den = _krammer_data(word.strands)
    fraction = PolyFraction(_laurent_closure(rep, word, s), den)
    return KrammerResult(fraction, fraction.num if fraction.is_polynomial() else None)


def markov1_test(word, conjugators):
    """Conjugation invariance of both invariants, checked exactly.

    Both invariants reduce a word cyclically before any matrix, so a
    conjugate by a generator or by its inverse mostly reduces back to the
    word itself, and such a case compares a value with itself.  The
    matrix-level identity, that the closure determinants of the unreduced
    words agree, is pinned by the tests."""
    base_k = krammer_fraction(word).fraction
    base_a = alexander(word).raw_fraction
    report = CheckReport("markov1(%s on %d strands)" % (word, word.strands))
    for g in conjugators:
        conj = word.conjugate(g)
        report.add("krammer invariant under conjugation by %s" % (g,),
                   krammer_fraction(conj).fraction == base_k)
        report.add("alexander invariant under conjugation by %s" % (g,),
                   alexander(conj).raw_fraction == base_a)
    return report


def specialize(result, t_value=None, q_value=None):
    """Evaluate a fraction at exact rational points of t and/or q.

    Accepts a KrammerResult (or a bare PolyFraction); an omitted variable is
    left symbolic.  Numerator and denominator are each substituted in one
    pass (LaurentPoly.substitute) and divided once.  Raises
    ZeroDivisionError naming the vanishing denominator factor if the
    substitution kills it, and naming the variable if t = 0 or q = 0 is a
    pole of the numerator (a negative power of that variable).
    """
    fr = PolyFraction.coerce(getattr(result, "fraction", result))

    def image(value, default):
        if value is None:
            return default
        r = exact_rational(value)
        return PolyFraction(LaurentPoly.const(r.numerator), LaurentPoly.const(r.denominator))

    t_image = image(t_value, T)
    q_image = image(q_value, Q)
    fn = fr.num.substitute(t_image, q_image)
    fd = fr.den.substitute(t_image, q_image)
    if fd.num.is_zero():
        raise ZeroDivisionError("denominator factor %s vanishes at t=%s, q=%s"
                                % (fr.den, t_value if t_value is not None else "t",
                                   q_value if q_value is not None else "q"))
    return fn / fd


def markov2_probe(word):
    """Behaviour of both invariants under adding a strand and a final twist.

    Compares the invariants of the closure of `word` (on n strands) with those
    of `word * sigma_n` (on n+1 strands).  The Alexander polynomial must not
    change; the two-variable fraction does change, and the probe reports the
    ratio along with its q=1 and t=1 specializations when they exist.
    """
    n = word.strands
    stabilized = BraidWord(n + 1, list(word) + [n])
    report = CheckReport("markov2-probe(%s on %d strands)" % (word, n))
    report.add("alexander unchanged by stabilization",
               alexander(word).normalized == alexander(stabilized).normalized)
    f1 = krammer_fraction(word).fraction
    f2 = krammer_fraction(stabilized).fraction
    report.note("fraction on %d strands: %s" % (n, f1))
    report.note("fraction on %d strands: %s" % (n + 1, f2))

    def note_values_at_one(what, fraction):
        for tv, qv, label in ((None, 1, "q=1"), (1, None, "t=1")):
            try:
                value = specialize(fraction, t_value=tv, q_value=qv)
            except ZeroDivisionError:
                value = "denominator vanishes"
            report.note("%s at %s: %s" % (what, label, value))

    note_values_at_one("stabilized value", f2)
    if f1 == PolyFraction.coerce(0):
        report.note("original fraction vanishes; no ratio to report")
        return report
    ratio = f2 / f1
    report.note("stabilized/original ratio: %s" % (ratio,))
    if ratio.is_polynomial():
        report.note("ratio is a polynomial factor: %s" % (ratio.num,))
    note_values_at_one("ratio", ratio)
    return report
