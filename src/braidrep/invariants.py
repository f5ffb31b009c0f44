"""Knot invariants of braid closures.

The Alexander polynomial comes from the reduced Burau representation, the
two-variable rational function from the two-row representation tensored with
the sign character (the extra sign is what makes the closed trefoil come out
as t^4*q^2 - t^2*q + 1; it changes nothing for conjugation invariance).
Both are determinant ratios:

    num = det(image(word) - I),   den = det(image(sigma_1 ... sigma_(n-1)) - I)

The representation and den depend only on the invariant and the strand
count, so a process builds them once per pair; a call computes only num.
"""

import functools
from fractions import Fraction

from .braid import BraidWord, CheckReport
from .laurent import LaurentPoly, PolyFraction, Q, T
from .polymatrix import PolyMatrix
from .reps import Representation, burau_reduced, image_of_word, lk


class InvariantError(Exception):
    """A determinant ratio that should collapse to a polynomial did not."""


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


def _generator_sweep(n):
    return BraidWord(n, list(range(1, n)))


def _normalize_alexander(p):
    if p.is_zero():
        return p
    et, _eq = p.min_exponents()
    shifted = p.times_term(1, -et, 0)
    if shifted.coeff() < 0:
        shifted = -shifted
    return shifted


@functools.lru_cache(maxsize=None)
def _closure_data(invariant, n):
    """The representation behind an invariant on n strands and its sweep
    denominator det(rho(sigma_1 ... sigma_(n-1)) - I), built once per pair."""
    if invariant == "alexander":
        rep = burau_reduced(n, "conjugated")
    else:
        rep = Representation(n, [-g for g in lk(n, "new").gen_images], "lk*sign")
    den = (image_of_word(rep, _generator_sweep(n)) - PolyMatrix.identity(rep.dim)).det()
    return rep, den


def _det_ratio(invariant, word):
    """Canonical fraction det(rho(word) - I) / det(rho(sweep) - I)."""
    rep, den = _closure_data(invariant, word.strands)
    num = (image_of_word(rep, word) - PolyMatrix.identity(rep.dim)).det()
    return PolyFraction(num, den)


def alexander(word):
    """Alexander polynomial of the closure of a braid word.

    Divides det(rho(word) - I) by det(rho(sigma_1..sigma_(n-1)) - I) where rho
    is the reduced Burau representation.  Raises InvariantError when the
    division is not exact (the ratio then fails to be a polynomial, which
    happens for some multi-component closures).
    """
    raw = _det_ratio("alexander", word)
    if not raw.is_polynomial():
        raise InvariantError("determinant ratio %s is not a polynomial" % (raw,))
    return AlexanderResult(raw, _normalize_alexander(raw.num))


def krammer_fraction(word):
    """Two-variable determinant ratio of the closure, as a canonical fraction.

    Uses the two-row representation tensored with the sign character, that
    is lk with negated generator images.  collapsed carries the polynomial
    value when the denominator divides exactly.
    """
    fraction = _det_ratio("krammer", word)
    return KrammerResult(fraction, fraction.num if fraction.is_polynomial() else None)


def markov1_test(word, conjugators):
    """Conjugation invariance of both invariants, checked exactly."""
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


def _substitute_fraction(fr, t_image, q_image):
    fn = fr.num.substitute(t_image, q_image)
    fd = fr.den.substitute(t_image, q_image)
    return fn, fd


def specialize(result, t_value=None, q_value=None):
    """Evaluate a fraction at exact rational points of t and/or q.

    Accepts a KrammerResult (or a bare PolyFraction); an omitted variable is
    left symbolic.  Raises ZeroDivisionError naming the vanishing denominator
    factor if the substitution kills it.
    """
    fr = getattr(result, "fraction", result)
    fr = PolyFraction.coerce(fr)

    def image(value, default):
        if value is None:
            return default
        r = Fraction(value)
        return PolyFraction(LaurentPoly.const(r.numerator), LaurentPoly.const(r.denominator))

    t_image = image(t_value, T)
    q_image = image(q_value, Q)
    fn, fd = _substitute_fraction(fr, t_image, q_image)
    if fd == PolyFraction.coerce(0):
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
    for tv, qv, label in ((None, 1, "q=1"), (1, None, "t=1")):
        try:
            report.note("stabilized value at %s: %s" % (label, specialize(f2, t_value=tv, q_value=qv)))
        except ZeroDivisionError:
            report.note("stabilized value at %s: denominator vanishes" % label)
    if f1 == PolyFraction.coerce(0):
        report.note("original fraction vanishes; no ratio to report")
        return report
    ratio = f2 / f1
    report.note("stabilized/original ratio: %s" % (ratio,))
    if ratio.is_polynomial():
        report.note("ratio is a polynomial factor: %s" % (ratio.num,))
    for tv, qv, label in ((None, 1, "q=1"), (1, None, "t=1")):
        try:
            r = specialize(ratio, t_value=tv, q_value=qv)
        except ZeroDivisionError:
            report.note("ratio at %s: denominator vanishes" % label)
            continue
        report.note("ratio at %s: %s" % (label, r))
    return report
