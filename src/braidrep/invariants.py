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
differs from the identity; the walk (reps._image_of_letters) passes the
rest through.  Both invariants hand it the letters they have already
reduced (see below), so no word is reduced twice.

A Krammer numerator is first tried as a pencil of two half-word images
(_pencil).  Cut the word w = u v, u its first ceil(L/2) letters; lk(v)
is invertible over Z[t^+-1, q^+-1], so

    det(lk(u v) - s I) = det(lk(u) - s lk(v^-1)) det lk(v),

and det lk(v) = (-1)^(n |v|) t^(n e) q^e on n strands, e the exponent
sum of v, since det lk(sigma_i^+-1) = ((-1)^n t^n q)^+-1.  Each half is
walked alone, so the pencil's entries have about half the spans and
much smaller 1-norms than lk(w)'s, and its determinant blocks fit the
packing gate of laurent.collapse where the whole image's do not.  The
pencil itself is never written out: polymatrix.packed_det takes the two
images and s, reads the gate's bounds from both before any subtraction
(laurent.pack_pencil), and packs lk(u) - s lk(v^-1) term by term, when
every block of 3 or more rows packs into ints; otherwise the numerator
is the closure of the whole word, _laurent_closure, as before.  The
pencil is not taken everywhere: where the whole image splits into
smaller blocks than the pencil, or a block is too wide to pack, the
pencil's blocks cost more.

Halves repeat far more often than words.  A half of a reduced word of
length L on n strands is one of about (2n - 3)^(L/2) letter strings, the
square root of the count of words, so a batch of words meets the same
halves again and again, and _half_image keeps their rows: each distinct
half is walked once while it is kept (on 8000 seed-1 words of length 6
on 4 strands, 10514 half walks read 172 distinct halves).  It holds at
most HALF_IMAGE_TERMS = 2^16 terms, the oldest halves going first, and a
half larger than that is walked and not kept.  Whole-word walks are not
kept (the fallback closure, the sweep denominators, Alexander's Laurent
path, reps.image_of_word): whole words rarely repeat, and their images
are larger (the Krammer words of 5000 seed-1 invariant-batch blocks walk
555 distinct whole words of 132k terms in 566 walks, against 661 halves
of 30k terms).

The Krammer sweep denominator is eps (q t^n - 1)^a (q t^n + 1)^b, a form
found by factoring and checked exactly once per n (_krammer_data).  A
binomial factor
q t^n -+ 1 divides num exactly when num vanishes at q = +-t^-n, which
one pass over num's terms decides (laurent.binomial_divides); most
numerators fail it, and their canonical fraction is built with no
division attempted (PolyFraction.indivisible).

Reduced Burau has no q, so its closures are integer linear algebra
(Kronecker substitution, D. Harvey, J. Symb. Comput. 44, 2009):
reps.letter_t_lines reads the reduced letters once, reps.word_norm_bound
walks them, with no product, to bound each line of the image by one
number, the sum of its entries' 1-norms; Hadamard's bound on those sums
gives K (laurent.hadamard_bits), reps.image_at_power_of_two builds the
image at t = 2^K as one Python int per entry, and polymatrix.integer_det
runs on those ints the block split and the Bareiss elimination that
PolyMatrix.det runs on Krammer closures, each ring with its own pivot
size and row update.  The gate laurent.INTEGER_CLOSURE_BITS keeps long
words on many strands, where the a priori K is too wide to pay, on the
Laurent path, and Krammer closures (lk has q) never try it.  Either way
alexander lists num's coefficients in t, and one division by den, exact
by Burau's theorem, finishes it (laurent.divide_by_sweep).

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
from collections import OrderedDict
from itertools import chain

from .braid import BraidWord, CheckReport
from .laurent import (LaurentPoly, ONE, PolyFraction, Q, T, ZERO, binomial_divides,
                      divide_by_sweep, exact_rational, hadamard_bits, integer_closure_fits,
                      t_coefficients, t_digits)
from .polymatrix import integer_det, packed_det
from .reps import (_image_of_letters, burau_reduced, image_at_power_of_two, letter_t_lines, lk,
                   word_norm_bound)


class InvariantError(Exception):
    """An Alexander determinant ratio that is not a Laurent polynomial.  By
    Burau's theorem (see _alexander_data) reduced Burau gives none for any
    braid, links included: this is raised only if laurent.divide_by_sweep
    leaves a remainder, and guards the theorem."""


class AlexanderResult:
    """normalized is the Laurent polynomial quotient with minimum t-degree 0
    and positive lowest coefficient; raw_fraction is the determinant ratio
    as-is, normalized times the unit c t^a of unit = (c, a), built when
    read (see laurent.divide_by_sweep)."""

    __slots__ = ("normalized", "unit")

    def __init__(self, normalized, unit=(1, 0)):
        self.normalized = normalized
        self.unit = unit

    @property
    def raw_fraction(self):
        return PolyFraction(self.normalized.times_term(*self.unit))

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


@functools.lru_cache(maxsize=None)
def _alexander_data(n):
    """Reduced Burau psi on n strands and its sweep denominator
    den = det(psi(sigma_1 ... sigma_(n-1)) - I), built once per n.  By
    Burau's theorem (J. Birman, Braids, Links, and Mapping Class Groups,
    1974, ch. 3), det(I - psi(w)) is (1 + t + ... + t^(n-1)) times the
    Alexander polynomial of the closure of w, up to a unit, for every
    braid w.  The sweep closes to the unknot, and psi(sigma_1 ...
    sigma_(n-1)) has characteristic polynomial x^(n-1) + t x^(n-2) + ... +
    t^(n-1), so den = (-1)^(n-1) (1 + t + ... + t^(n-1)) exactly, the
    divisor of laurent.divide_by_sweep."""
    den = LaurentPoly({(k, 0): (-1) ** (n - 1) for k in range(n)})
    return burau_reduced(n, "conjugated"), den


@functools.lru_cache(maxsize=None)
def _krammer_data(n):
    """(rep, den, signs): lk(n), the Krammer sweep denominator den, the
    closure determinant of sigma_1 ... sigma_(n-1) (_laurent_closure with
    its sign), and the signs of den's binomial factors, built once per n.

    Factored by sympy and pinned for n = 2..14 by the tests, den =
    eps (q t^n - 1)^a (q t^n + 1)^b with a + b = n - 1: a = b = (n - 1)/2
    and eps = 1 for odd n, a = n/2 and eps = 1 for n = 0 mod 4, and
    a = n/2 - 1 and eps = -1 for n = 2 mod 4.  That form is not proved, so
    it is checked here against the computed den, exactly, and signs holds
    -1 for the factor q t^n + 1 when b > 0 and +1 for q t^n - 1 when a > 0,
    in the order krammer_fraction tests them; if the check fails, signs is
    empty and rules nothing out.  A numerator that one of these factors
    does not divide (laurent.binomial_divides) is not divided by den, and
    krammer_fraction skips the division.  q t^n + 1 goes first because it
    is the factor that fails: on 3000 seed-1 krammer-large words (n = 4) it
    failed on 1608 of 1991 numerators and q t^n - 1 on none, and on the
    Krammer words of 1000 seed-1 invariant-batch blocks (n = 3, 4) it alone
    ruled out 900 of the 920 numerators that a factor rules out."""
    rep = lk(n, "new")
    den = _laurent_closure(rep, list(range(1, n)), (-1) ** (n - 1))
    if n % 2:
        a, eps = (n - 1) // 2, 1
    elif n % 4 == 0:
        a, eps = n // 2, 1
    else:
        a, eps = n // 2 - 1, -1
    b = n - 1 - a
    x = LaurentPoly.monomial(1, n, 1)
    closed = eps * (x - ONE) ** a * (x + ONE) ** b
    signs = tuple(sign for sign, power in ((-1, b), (1, a)) if power) if den == closed else ()
    return rep, den, signs


def _laurent_closure(rep, letters, s):
    """s^dim det(rho(w) - s I) as the LaurentPoly PolyMatrix.det gives,
    with s subtracted on the diagonal of the image of the whole word w
    with these letters, walked as given (reps._image_of_letters): the
    Alexander numerator on the Laurent path, the Krammer sweep
    denominator, and the Krammer numerator when its pencil (_pencil) has
    a block that does not pack.

    For the Krammer invariant rho is lk tensored with the sign character,
    which scales the image of a word of length L by s = (-1)^L.  So
    det(s lk(w) - I) = s^dim det(lk(w) - s I): the sign is applied once per
    word, and the generator images stay as lk builds them.  alexander
    passes s = 1.
    """
    m = _image_of_letters(rep, letters)
    shift = LaurentPoly.const(-s)
    for i, row in enumerate(m.data):
        row[i] = row[i] + shift
    det = m.det()
    return -det if s < 0 and rep.dim % 2 else det


HALF_IMAGE_TERMS = 1 << 16
"""The most terms, over every entry of every row, that the memo of pencil
half images (_half_image) holds at once.  Filled with seeded halves on
3, 4 and 6 strands it raised the peak resident memory by 6-9 MiB; the
172 halves of 8000 seed-1 krammer-large words hold 7.7k terms."""


class _HalfImages:
    """The memo of pencil half images: the rows of rho(x) for the letters x
    of a half, keyed by (rho, x), so that two representations never share
    an entry, and held as tuples, so that a caller cannot write them.  It
    holds at most HALF_IMAGE_TERMS terms: a new half pushes out the oldest
    ones kept, and a half larger than the whole budget is walked but not
    kept.  clear() empties it."""

    __slots__ = ("rows", "terms")

    def __init__(self):
        self.rows = OrderedDict()
        self.terms = 0

    def clear(self):
        self.rows.clear()
        self.terms = 0

    def __call__(self, rep, letters):
        key = rep, letters
        kept = self.rows.get(key)
        if kept is not None:
            return kept[0]
        rows = tuple(map(tuple, _image_of_letters(rep, letters).data))
        size = sum(map(len, chain.from_iterable(rows)))
        if size <= HALF_IMAGE_TERMS:
            while self.terms + size > HALF_IMAGE_TERMS:
                self.terms -= self.rows.popitem(last=False)[1][1]
            self.rows[key] = rows, size
            self.terms += size
        return rows


_half_image = _HalfImages()


def _pencil(rep, letters, s, cut):
    """(a, b, unit) with s^dim det(rho(w) - s I) = det(a - s b) times the
    monomial unit = (c, et, eq), for rho = lk on n strands and the word w
    with these letters (a tuple), cut into u, its first cut letters, and
    v, the rest.

    rho(v) is invertible over the Laurent ring, so rho(uv) - s I =
    (rho(u) - s rho(v^-1)) rho(v): a and b are the rows of rho(u) and
    rho(v^-1), tuples of tuples, each walked alone from the letters
    (reps._image_of_letters), which are not reduced again, unless the
    memo of half images (_half_image) holds it already, and the pencil
    a - s b is left to polymatrix.packed_det, which never builds it where
    it packs and never writes a or b.
    det lk(sigma_i^+-1) = ((-1)^n t^n q)^+-1, so det rho(v) =
    (-1)^(n |v|) t^(n e) q^e with e v's exponent sum, and the sign of
    s^dim joins it in c."""
    n = rep.strands
    v = letters[cut:]
    a = _half_image(rep, letters[:cut])
    b = _half_image(rep, tuple(-x for x in reversed(v)))
    e = sum(1 if x > 0 else -1 for x in v)
    c = (-1) ** (n * len(v)) * (-1 if s < 0 and rep.dim % 2 else 1)
    return a, b, (c, n * e, e)


def _integer_closure(rep, letters):
    """(d, bits, shift) with det(rho(w) - I) = t^shift f for the f in
    Z[t] whose value at t = 2^bits is d, every coefficient of f below
    2^(bits - 1) in absolute value; for a representation with no q, or
    None when the gate refuses the word w with these letters, which are
    walked as given (reps.letter_t_lines).

    Line i of rho(w) has entries whose 1-norms add up to at most sums[i]
    (reps.word_norm_bound), so line i of rho(w) - I has them add up to
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
    lines = letter_t_lines(rep, letters)
    sums, los, his = word_norm_bound(rep, lines)
    bits = hadamard_bits([(total + 1) ** 2 for total in sums])
    if not integer_closure_fits(rep.dim, bits * (max(h - l for l, h in zip(los, his)) + 1)):
        return None
    lines, offsets = image_at_power_of_two(rep, lines, bits)
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
    word on many strands to the Laurent path (see _integer_closure).  The
    integer path reads the determinant's coefficients as its balanced
    base 2^K digits (laurent.t_digits), the Laurent path as the terms of
    a LaurentPoly (laurent.t_coefficients), and laurent.divide_by_sweep
    divides that one list by den and builds the quotient's normal form,
    with the unit that gives back the quotient.  By Burau's theorem the
    ratio is a Laurent polynomial for every braid, links included;
    InvariantError, if the division leaves a remainder, guards the
    theorem.

    The word is first reduced cyclically (see the module docstring); one
    that is then left without some generator answers raw 0/1 and
    normalized 0, the values its determinant gives, at once.
    """
    word = word.free_reduce(cyclic=True)
    if _misses_a_generator(word):
        return AlexanderResult(ZERO)
    rep, den = _alexander_data(word.strands)
    closure = _integer_closure(rep, word.letters)
    if closure is None:
        coeffs, shift = t_coefficients(_laurent_closure(rep, word.letters, 1))
    else:
        d, bits, shift = closure
        coeffs = t_digits(d, bits)
    quotient = divide_by_sweep(coeffs, shift, word.strands)
    if quotient is None:
        num = LaurentPoly({(shift + i, 0): c for i, c in enumerate(coeffs)})
        raise InvariantError("determinant ratio %s is not a polynomial" % (PolyFraction(num, den),))
    return AlexanderResult(*quotient)


def krammer_fraction(word):
    """Two-variable determinant ratio of the closure, as a canonical fraction.

    Uses the two-row representation tensored with the sign character, that
    is lk with negated generator images, applied once per word of L letters
    as s^dim det(lk(word) - s I), s = (-1)^L, on the word reduced
    cyclically, which keeps the parity of L (see the module docstring).
    The word is cut after its first ceil(L/2) letters, w = u v, and the
    numerator is det(lk(u) - s lk(v^-1)) times the unit det lk(v) =
    (-1)^(n |v|) t^(n e) q^e, e the exponent sum of v, with the sign of
    s^dim (_pencil, which walks both halves from the reduced letters, or
    reads them back from the memo of half images where an earlier call
    walked them; see the module docstring), when
    polymatrix.packed_det(lk(u), lk(v^-1), s) packs every block of that
    pencil into ints; otherwise it is _laurent_closure of the whole word.
    Both give the same polynomial.  The fraction tries the exact division
    by the denominator only when every binomial factor of it divides the
    numerator (laurent.binomial_divides, with the signs that _krammer_data
    keeps); otherwise it is built without one (PolyFraction.indivisible),
    the same canonical pair.  collapsed carries the polynomial value when
    the denominator divides exactly.

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
    n, letters = word.strands, word.letters
    rep, den, signs = _krammer_data(n)
    a, b, unit = _pencil(rep, letters, s, (len(letters) + 1) // 2)
    num = packed_det(a, b, s)
    num = _laurent_closure(rep, letters, s) if num is None else num.times_term(*unit)
    if all(binomial_divides(num, n, sign) for sign in signs):
        fraction = PolyFraction(num, den)
    else:
        fraction = PolyFraction.indivisible(num, den)
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
