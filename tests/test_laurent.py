import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep.laurent import (ONE, Q, T, ZERO, LaurentPoly, PolyFraction,
                              exact_div, parse_poly, q_binomial, q_factorial,
                              q_natural, q_pochhammer)
from conftest import laurent_polys, nonzero_polys
from oracles import factorial_bracket_binomial, longdiv_exact_div, token_parse_poly


def test_basic_arithmetic():
    assert T + Q - Q == T
    assert (T + ONE) * (T - ONE) == T ** 2 - ONE
    assert str(T ** 2 - T + ONE) == "t^2 - t + 1"
    assert str(3 * T * Q ** 2) == "3*t*q^2"
    assert str(ONE - T) == "-t + 1"
    assert str(ZERO) == "0"
    assert str(2 * ONE) == "2"


def test_negative_powers_only_for_units():
    assert str(T ** -2) == "t^-2"
    assert (-T * Q) ** -1 == LaurentPoly.monomial(-1, -1, -1)
    with pytest.raises(ValueError):
        (T + ONE) ** -1


def test_coeff_and_leading():
    p = parse_poly("5*t^2*q - 3*q + 7")
    assert p.coeff(et=2, eq=1) == 5
    assert p.coeff(eq=1) == -3
    assert p.coeff() == 7
    assert p.coeff(et=9) == 0
    mono, c = p.leading()
    assert mono == (2, 1) and c == 5
    assert p.content() == 1
    assert (2 * T + 4 * Q).content() == 2


def test_min_max_exponents():
    p = parse_poly("t^3*q^-2 + t^-1*q")
    assert p.min_exponents() == (-1, -2)
    assert p.max_exponents() == (3, 1)


def test_term_keys_are_pairs():
    assert LaurentPoly({(1, 2): 3}) == 3 * T * Q ** 2
    with pytest.raises(ValueError):
        LaurentPoly({(1, 2, 0): 3})
    with pytest.raises(ValueError):
        LaurentPoly({(1, 2, 1): 0})


def test_constants_hash_like_ints():
    for c in (0, 1, -1, 7):
        assert LaurentPoly.const(c) == c
        assert hash(LaurentPoly.const(c)) == hash(c)
    assert len({LaurentPoly.const(1), 1}) == 1
    assert len({ZERO, 0}) == 1


def test_parse_round_trip_fixtures():
    for text in ("t^4*q^2 - t^2*q + 1", "-t + 1", "t^-1*q^3 - 4", "0", "-7"):
        assert str(parse_poly(text)) == text


def test_parse_errors_carry_position():
    with pytest.raises(ValueError) as e:
        parse_poly("t + + q")
    assert "position 4" in str(e.value)
    with pytest.raises(ValueError):
        parse_poly("t^x")
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError) as e:
        parse_poly("t + x^2")
    assert "position 4" in str(e.value)


# One fixture for each way a text can be rejected, with the position named.
PARSE_ERRORS = [
    ("2*t^x", 3),     # bad character
    ("t^2 3", 4),     # missing sign before a term
    ("2 t", 2),       # missing * between factors
    ("t*2", 1),       # coefficient not first in its term
    ("q*t*q", 4),     # duplicate factor
    ("t -", 3),       # trailing sign
    ("", 0),          # empty text
    (" \t", 2),       # whitespace only
]


@pytest.mark.parametrize("text,pos", PARSE_ERRORS)
def test_parse_error_fixtures(text, pos):
    with pytest.raises(ValueError) as e:
        parse_poly(text)
    named = [int(k) for k in re.findall(r"position (\d+)", str(e.value))]
    assert named == [pos] and 0 <= pos <= len(text)


PARSE_ALPHABET = ["t", "q", "^", "^-", "-", "+", "*", "x", "0", "1", "2", "3", " ", "\t"]


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


def test_parse_agrees_with_token_parser():
    rng = random.Random(11)
    accepted = 0
    for _ in range(20000):
        text = "".join(rng.choice(PARSE_ALPHABET) for _ in range(rng.randint(0, 8)))
        expected = _parse_outcome(token_parse_poly, text)
        assert _parse_outcome(parse_poly, text) == expected, text
        accepted += expected is not None
    assert 1000 < accepted < 19000


@pytest.mark.parametrize("text", [" " * 200000 + "x", "t" + " " * 200000 + "x",
                                  "t" + " *" * 100000])
def test_parse_rejects_long_hostile_text_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="position"):
        parse_poly(text)
    assert time.perf_counter() - start < 1.0


def test_json_terms_round_trip():
    p = parse_poly("2*t^3*q^-1 - t + 5")
    assert LaurentPoly.from_json_terms(p.to_json_terms()) == p


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(laurent_polys(), nonzero_polys())
def test_exact_div_recovers_factor(a, b):
    assert exact_div(a * b, b) == a


def test_exact_div_failure_is_none():
    assert exact_div(T + ONE, T - ONE) is None
    assert exact_div(T, 2 * ONE) is None
    assert exact_div(T ** 2 - ONE, T - ONE) == T + ONE
    with pytest.raises(ZeroDivisionError):
        exact_div(T, ZERO)


@given(laurent_polys())
def test_parse_str_round_trip(p):
    assert parse_poly(str(p)) == p


@given(laurent_polys(span=2), laurent_polys(span=2),
       st.integers(min_value=-3, max_value=3).filter(bool),
       st.integers(min_value=-3, max_value=3).filter(bool))
def test_eval_is_a_ring_map(a, b, tv, qv):
    t0 = Fraction(tv)
    q0 = Fraction(qv)
    assert (a + b).eval_rational(t0, q0) == a.eval_rational(t0, q0) + b.eval_rational(t0, q0)
    assert (a * b).eval_rational(t0, q0) == a.eval_rational(t0, q0) * b.eval_rational(t0, q0)


@given(laurent_polys())
def test_identity_substitution(p):
    assert p.substitute(T, Q) == PolyFraction(p)


def test_fraction_canonical_form():
    f = PolyFraction(T ** 2 - ONE, T - ONE)
    assert f.num == T + ONE and f.den == ONE
    assert f.is_polynomial()
    g = PolyFraction(2 * T, 4 * ONE)
    assert g.num == T and g.den == 2 * ONE
    h = PolyFraction(T, -T + 1)
    assert h.den.leading()[1] > 0
    assert PolyFraction(ZERO, T + Q) == PolyFraction(ZERO)
    with pytest.raises(ZeroDivisionError):
        PolyFraction(ONE, ZERO)


def test_fraction_strips_shared_monomial():
    f = PolyFraction(T ** 3 * Q, T * Q ** 2 + T * Q ** 3)
    assert f.num == T ** 2
    assert f.den == Q + Q ** 2


@given(nonzero_polys(), nonzero_polys(), nonzero_polys())
def test_fraction_equality_by_cross_multiplication(a, b, c):
    assert PolyFraction(a * c, b * c) == PolyFraction(a, b)


def test_equal_fractions_hash_equal():
    a = PolyFraction(T ** 2 + 3 * T + 2, T ** 2 + 4 * T + 3)
    b = PolyFraction(T + 2, T + 3)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    # a fraction equal to a polynomial hashes like it, and like an int if constant
    assert hash(PolyFraction(T ** 2 - ONE, T - ONE)) == hash(T + ONE)
    assert hash(PolyFraction(6 * ONE, 3 * ONE)) == hash(2)
    assert len({PolyFraction(6 * ONE, 3 * ONE), 2 * ONE, 2}) == 1


def test_equal_fractions_hash_equal_random():
    rng = random.Random(20261017)

    def poly(max_terms):
        p = ZERO
        while p.is_zero():
            for _ in range(rng.randint(1, max_terms)):
                p = p + LaurentPoly.monomial(rng.randint(-4, 4),
                                             rng.randint(-2, 2), rng.randint(-2, 2))
        return p

    for _ in range(300):
        p, d, c = poly(3), poly(3), poly(2)
        scaled, plain = PolyFraction(p * c, d * c), PolyFraction(p, d)
        assert scaled == plain
        assert hash(scaled) == hash(plain)
        assert len({scaled, plain}) == 1


def test_exact_div_against_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    t, q = sympy.symbols("t q")
    rng = random.Random(20261018)

    def poly(max_terms):
        p = ZERO
        while p.is_zero():
            for _ in range(rng.randint(1, max_terms)):
                p = p + LaurentPoly.monomial(rng.randint(-3, 3),
                                             rng.randint(-2, 2), rng.randint(-2, 2))
        return p

    def sym(p):
        return sympy.sympify(str(p).replace("^", "**"))

    outcomes = []
    for k in range(150):
        b = poly(3)
        a = poly(3) * b if k % 2 else poly(4)
        got = exact_div(a, b)
        num, den = sympy.fraction(sympy.together(sympy.cancel(sym(a) / sym(b))))
        den = sympy.Poly(den, t, q)
        if len(den.terms()) == 1 and abs(den.LC()) == 1:
            assert got is not None, (a, b)
            assert sympy.cancel(sym(got) - num / den.as_expr()) == 0, (a, b)
        else:
            assert got is None, (a, b)
        outcomes.append(got is None)
    assert 20 <= sum(outcomes) <= 130


def test_exact_div_matches_long_division():
    # Half the pairs divide (a = p*b), half are perturbed.  Leading terms that
    # are pure powers of t or q sit on the edge of the packed-key box.
    rng = random.Random(1018)

    def coeff():
        if rng.random() < 0.15:
            return rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 70)
        return rng.choice((-1, 1)) * rng.randint(1, 6)

    def poly(max_terms):
        p = LaurentPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): coeff()
                         for _ in range(rng.randint(1, max_terms))})
        if rng.random() < 0.3:
            # leading term t^D or q^D after shifting to non-negative exponents
            (mt, mq), (xt, xq) = p.min_exponents(), p.max_exponents()
            top = xt - mt + xq - mq + rng.randint(1, 2)
            p = p + LaurentPoly.monomial(coeff(), *rng.choice(((mt + top, mq), (mt, mq + top))))
        return p

    def divisor():
        kind = rng.randrange(4)
        if kind == 0:
            return LaurentPoly.const(coeff())
        if kind == 1:
            return LaurentPoly.monomial(coeff(), rng.randint(-3, 3), rng.randint(-3, 3))
        return poly(4)

    nones = 0
    for k in range(3200):
        b = divisor()
        a = poly(4) * b
        if k % 2:
            a = a + poly(2)
        got = exact_div(a, b)
        assert got == longdiv_exact_div(a, b), (a, b)
        nones += got is None
    assert 1000 <= nones <= 1600


@given(laurent_polys(max_terms=3), nonzero_polys())
def test_fraction_field_identities(a, b):
    f = PolyFraction(a, b)
    assert f + (-f) == PolyFraction(ZERO)
    assert f - f == PolyFraction(ZERO)
    if not a.is_zero():
        assert f * (PolyFraction(ONE) / f) == PolyFraction(ONE)
        assert f / f == PolyFraction(ONE)


def test_fraction_rendering():
    assert str(PolyFraction(T, 2 * ONE)) == "(t) / (2)"
    assert str(PolyFraction(T ** 2 - ONE, T - ONE)) == "t + 1"


def test_q_natural_forms():
    assert q_natural(3) == ONE + Q + Q ** 2
    assert q_natural(0) == ZERO
    assert str(q_natural(3, "bracket")) == "q^2 + 1 + q^-2"
    with pytest.raises(ValueError):
        q_natural(2, "angle")


def test_unknown_form_is_rejected_before_any_shortcut():
    # an out-of-range k or an empty product used to return before the form was read
    for call in (lambda: q_binomial(2, 5, "bogus"), lambda: q_factorial(0, "bogus"),
                 lambda: q_natural(0, "bogus")):
        with pytest.raises(ValueError, match="unknown form"):
            call()


def test_q_factorial():
    assert q_factorial(0) == ONE
    assert q_factorial(3) == (ONE + Q) * (ONE + Q + Q ** 2)


def test_q_binomial_fixtures():
    assert q_binomial(4, 2) == parse_poly("q^4 + q^3 + 2*q^2 + q + 1")
    assert q_binomial(5, 0) == ONE
    assert q_binomial(3, 5) == ZERO


@pytest.mark.parametrize("n", range(1, 13))
def test_q_pascal_recurrence(n):
    for k in range(1, n):
        lhs = q_binomial(n, k)
        rhs = q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).times_term(1, 0, k)
        assert lhs == rhs


@pytest.mark.parametrize("n", range(0, 13))
def test_q_binomial_specializes_to_binomial(n):
    for k in range(n + 1):
        assert q_binomial(n, k).eval_rational(1, 1) == math.comb(n, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_bracket_binomial_relates_to_paren(n):
    # the balanced form is q^(-k(n-k)) times the ordinary form at q^2
    for k in range(n + 1):
        paren_at_q2 = q_binomial(n, k).substitute(T, Q ** 2)
        assert paren_at_q2.den == ONE
        shifted = q_binomial(n, k, "bracket").times_term(1, 0, k * (n - k))
        assert shifted == paren_at_q2.num


@pytest.mark.parametrize("n", range(0, 13))
def test_bracket_binomial_matches_factorial_quotient(n):
    for k in range(n + 1):
        want = factorial_bracket_binomial(n, k)
        assert want is not None and q_binomial(n, k, "bracket") == want, k


@pytest.mark.parametrize("k", range(0, 9))
def test_gauss_binomial_theorem(k):
    # (-t; q)_k = sum_r q^(r(r-1)/2) C_k^r t^r, with t as the formal variable
    lhs = q_pochhammer(-T, k)
    rhs = ZERO
    for r in range(k + 1):
        rhs = rhs + q_binomial(k, r) * LaurentPoly.monomial(1, r, r * (r - 1) // 2)
    assert lhs == rhs


def test_latex_rendering():
    assert (T ** 2).to_latex() == "t^{2}"
    assert (T + Q).to_latex() == "t + q"
    f = PolyFraction(T, ONE + Q)
    assert "\\frac" in f.to_latex()
