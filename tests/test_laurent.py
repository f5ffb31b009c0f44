import ast
import math
import pathlib
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrep import laurent
from braidrep.laurent import (ONE, Q, T, ZERO, LaurentPoly, PolyFraction, _collapse_row,
                              exact_div, expand_t, parse_poly, q_binomial, q_factorial,
                              q_natural, q_pochhammer, sum_of_products)
from conftest import laurent_polys, nonzero_polys
from oracles import (convolve, factorial_bracket_binomial, longdiv_exact_div,
                     matrix_from_json, poly_from_json, termwise_substitute,
                     token_parse_poly)


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


@pytest.mark.parametrize("make", [
    lambda: LaurentPoly({(0, 0): 0.5}),
    lambda: LaurentPoly({(0, 0): Fraction(3, 2)}),
    lambda: LaurentPoly({(1.7, 0): 1}),
    lambda: LaurentPoly.monomial(2.5, 1),
    lambda: LaurentPoly.monomial(0, 1.5),
    lambda: poly_from_json([{"c": 1.5, "et": 0.9, "eq": 0}]),
    lambda: matrix_from_json({"rows": 1, "cols": 1,
                              "entries": [[[{"c": 2.7, "et": 1, "eq": 0}]]]}),
], ids=["float-coefficient", "fraction-coefficient", "float-exponent", "float-monomial",
        "float-exponent-of-zero", "float-json-terms", "float-json-matrix"])
def test_non_integral_input_is_rejected(make):
    # these used to be truncated, to 0, 1, t, 2*t, 0, 1 and [2*t]
    with pytest.raises(TypeError):
        make()


def test_integral_input_is_accepted():
    assert LaurentPoly({(True, 0): 2, (0, 1): True}) == 2 * T + Q
    assert LaurentPoly.monomial(True, False, 1) == Q
    assert LaurentPoly({(2, 0): 0, (0, 0): -1}) == -ONE


def test_json_terms_round_trip():
    p = parse_poly("2*t^3*q^-1 - t + 5")
    assert poly_from_json(p.to_json_terms()) == p


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


def test_substitute_matches_termwise_route():
    # Rational constants (0 included), units, polynomials and a fraction as
    # images.  A value with a monomial denominator has one canonical form, so
    # the text must agree there; that covers every caller in the package.
    # Elsewhere the two routes may keep different common factors, and only
    # the values must agree.  An image 0 meeting a negative power is a pole
    # on both routes.
    rng = random.Random(1219)
    images = [PolyFraction(LaurentPoly.const(-3), LaurentPoly.const(7)),
              PolyFraction(ONE, 2 * ONE), ZERO, 5 * ONE, T ** -1, -Q, T * Q,
              ONE + T, T ** 2 * Q, PolyFraction(T, ONE + Q), T, Q]

    def coeff():
        if rng.random() < 0.1:
            return rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 70)
        return rng.choice((-1, 1)) * rng.randint(1, 6)

    kinds = {"text": 0, "value": 0, "pole": 0}
    for _ in range(300):
        p = LaurentPoly({(rng.randint(-3, 3), rng.randint(-3, 3)): coeff()
                         for _ in range(rng.randint(0, 6))})
        t_image, q_image = rng.choice(images), rng.choice(images)
        try:
            want = termwise_substitute(p, t_image, q_image)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError, match="pole at [tq] = 0"):
                p.substitute(t_image, q_image)
            kinds["pole"] += 1
            continue
        got = p.substitute(t_image, q_image)
        if len(want.den) == 1:
            assert str(got) == str(want), (p, t_image, q_image)
            kinds["text"] += 1
        else:
            assert got == want, (p, t_image, q_image)
            kinds["value"] += 1
    assert kinds["text"] >= 150 and kinds["value"] >= 30 and kinds["pole"] >= 20, kinds


def test_substitute_steps_over_sparse_exponents():
    # powers are taken at the exponents that occur, not over the whole range
    big = T ** (10 ** 12)
    start = time.perf_counter()
    assert (big + ONE).substitute(-1, Q) == 2
    assert (big - big ** -1).substitute(T ** -1, Q) == big ** -1 - big
    assert time.perf_counter() - start < 1


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


def test_sum_of_products_matches_the_convolution():
    # Factors: 0, 1, -1, one-term +-c*t^a*q^b with negative exponents, and
    # polynomials on a small box.  A quarter of the lists carry a pair
    # (u + v, u - v), whose cross terms cancel within the pair, and a third
    # a pair that cancels an earlier one, wholly or in part.
    rng = random.Random(1313)

    def poly(max_terms):
        return LaurentPoly({(rng.randint(-2, 2), rng.randint(-2, 2)):
                            rng.choice((-1, 1)) * rng.randint(1, 4)
                            for _ in range(rng.randint(1, max_terms))})

    def term():
        return LaurentPoly.monomial(rng.choice((-1, 1)) * rng.randint(1, 7),
                                    rng.randint(-4, 4), rng.randint(-4, 4))

    def factor():
        kind = rng.randrange(6)
        if kind == 0:
            return ZERO
        if kind == 1:
            return rng.choice((ONE, -ONE))
        if kind == 2:
            return term()
        return poly(5)

    seen = {"empty": 0, "zero": 0, "alias": 0, "cancel_within": 0, "cancel_across": 0}
    for k in range(600):
        pairs = [(factor(), factor()) for _ in range(rng.randrange(5))]
        if k % 4 == 1:
            u, v = term(), term()
            pairs.append((u + v, u - v))
        if pairs and k % 3 == 0:
            x, y = rng.choice(pairs)
            pairs.append((-x, y if rng.random() < 0.5 else y + poly(2)))
        got = sum_of_products(pairs)
        assert got == convolve(pairs), pairs
        assert all(got._terms.values()), pairs
        seen["empty"] += not pairs
        seen["zero"] += got.is_zero() and any(x and y for x, y in pairs)
        seen["alias"] += len(pairs) == 1 and (got is pairs[0][0] or got is pairs[0][1])
        # a monomial some product reaches that the result lacks has cancelled
        seen["cancel_within"] += any(
            {(a + c, b + d) for a, b in x._terms for c, d in y._terms} - (x * y)._terms.keys()
            for x, y in pairs)
        seen["cancel_across"] += bool((convolve(pairs[:1])._terms.keys()
                                       & convolve(pairs[1:])._terms.keys()) - got._terms.keys())
    assert min(seen.values()) >= 10, seen


def test_sum_of_products_hands_back_an_operand_times_one():
    p = parse_poly("3*t^-2*q - 1")
    assert sum_of_products([(ONE, p)]) is p
    assert sum_of_products([(p, ONE)]) is p
    assert p * 1 is p
    assert sum_of_products([(-ONE, p)]) == -p
    assert sum_of_products([]) == ZERO


def _sized_poly(rng, n, box, coeff):
    """A polynomial of exactly n terms with exponents in [-box, box]."""
    side = range(-box, box + 1)
    return LaurentPoly({m: coeff() for m in rng.sample([(a, b) for a in side for b in side], n)})


def _coeff(rng, huge):
    if huge:
        return rng.choice((-1, 1)) * rng.randint(2 ** 64, 2 ** 80)
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def test_packed_products_match_the_convolution(monkeypatch):
    # Pairs whose smaller operand has N - 1, N, N + 1 or 2N terms, N the
    # packing threshold, on boxes around the origin (so negative exponents),
    # a sixth of them with coefficients above 2^64; some calls add a small
    # pair, and some a pair (-x, y) that cancels an earlier one.  Exactly the
    # pairs of at least N terms go through the integers.
    n = laurent.PACK_PAIR_TERMS
    rng = random.Random(1601)
    handed = []
    pack = laurent._add_packed_products

    def record(pairs, data):
        handed.append(len(pairs))
        return pack(pairs, data)

    monkeypatch.setattr(laurent, "_add_packed_products", record)
    seen = {"below": 0, "at": 0, "above": 0, "huge": 0, "mixed": 0, "zero": 0}
    for k in range(240):
        pairs = []
        for _ in range(rng.randint(1, 3)):
            huge = rng.random() < 1 / 6
            size = rng.choice((n - 1, n, n + 1, 2 * n))
            pairs.append((_sized_poly(rng, size, rng.randint(3, 6), lambda: _coeff(rng, huge)),
                          _sized_poly(rng, size + rng.randint(0, 9), rng.randint(3, 6),
                                      lambda: _coeff(rng, False))))
            seen["huge"] += huge and size >= n
        if k % 3 == 0:
            pairs.append((_sized_poly(rng, 3, 2, lambda: _coeff(rng, False)), rng.choice(pairs)[1]))
        if k % 5 == 0:
            x, y = rng.choice(pairs)
            pairs.append((-x, y))
        del handed[:]
        got = sum_of_products(pairs)
        assert got == convolve(pairs), pairs
        assert all(got._terms.values()), pairs
        large = sum(min(len(x), len(y)) >= n for x, y in pairs)
        assert handed == ([large] if large else []), (handed, large)
        sizes = {min(len(x), len(y)) for x, y in pairs}
        seen["below"] += n - 1 in sizes
        seen["at"] += n in sizes
        seen["above"] += n + 1 in sizes
        seen["mixed"] += bool(large) and min(sizes) < n
        seen["zero"] += bool(large) and got.is_zero()
    assert min(seen.values()) >= 5, seen


def test_packed_division_matches_long_division(monkeypatch):
    # Dividends of at least M terms, M the packing threshold: half are
    # products p * b, half are perturbed, and half reach out to t^1000, a box
    # too sparse to pack.
    # A packed division decides (a quotient, or None from a nonzero integer
    # remainder or from the spans) or leaves the division to the heap; the
    # answer matches long division either way.
    m = laurent.PACK_DIVIDEND_TERMS
    rng = random.Random(1602)
    outcomes = []
    divide = laurent._packed_div

    def record(at, bt):
        decided, q = divide(at, bt)
        outcomes.append("heap" if not decided else "none" if q is None else "quotient")
        return decided, q

    monkeypatch.setattr(laurent, "_packed_div", record)
    for k in range(160):
        huge = k % 8 == 0
        b = _sized_poly(rng, rng.randint(2, 12), rng.randint(2, 3), lambda: _coeff(rng, huge))
        a = ZERO
        while len(a) < m:
            a = _sized_poly(rng, rng.randint(m // 2, m), 8, lambda: _coeff(rng, False))
            if k % 4 >= 2:
                a = a + T ** 1000
            a = a * b
        if k % 2:
            a = a + _sized_poly(rng, rng.randint(1, 3), 10, lambda: _coeff(rng, False))
        got = exact_div(a, b)
        assert got == longdiv_exact_div(a, b), (a, b)
        assert got is not None or k % 2, (a, b)
        assert (got is None) == (outcomes[-1] == "none") or outcomes[-1] == "heap", outcomes
    # a dividend of smaller span than the divisor, and one that b does not divide
    b = (T - Q) ** 9
    assert exact_div(q_natural(200), b) is None
    assert exact_div(b * q_natural(200) + T ** 3, b) is None
    assert len(outcomes) == 162 and outcomes[-2:] == ["none", "none"]
    assert min(outcomes.count(kind) for kind in ("quotient", "none", "heap")) >= 10, outcomes


def test_packed_division_hands_a_large_quotient_to_the_heap():
    # (t^8 - 1)^7 f / (t - 1)^7 with f = 1 + q + ... + q^15: a dividend of
    # 128 terms with coefficients up to 35, and a quotient with coefficients
    # up to 134 512 and |q|_1 = 8^7 * 16, too wide for the packed slots to
    # prove
    f = q_natural(16)
    b = (T - ONE) ** 7
    a = (T ** 8 - ONE) ** 7 * f
    want = q_natural(8).substitute(Q, T).num ** 7 * f
    assert len(a) >= laurent.PACK_DIVIDEND_TERMS
    assert max(want.coeff(k) for k in range(50)) == 134512
    assert laurent._packed_div(a._terms, b._terms) == (False, None)
    assert exact_div(a, b) == want == longdiv_exact_div(a, b)
    # the quotient (1 + t + t^2)^7 f has coefficients up to 393, larger than
    # the dividend's, but the slots hold it, and packing decides
    a = (T ** 3 - ONE) ** 7 * f
    want = (ONE + T + T ** 2) ** 7 * f
    assert max(want.coeff(k) for k in range(15)) == 393
    assert laurent._packed_div(a._terms, b._terms) == (True, want) and exact_div(a, b) == want


def test_packed_division_rejects_a_quotient_outside_its_box():
    # a = (1 + q) h + t^3 q^9 + t^4 with h on [0, 14] x [0, 8]: a's q-span is
    # 9, so the stride is 10, and t^3 q^9 (1 + q) = t^3 q^9 + t^3 q^10 packs
    # like t^3 q^9 + t^4.  The packed 1 + q divides the packed a, and the
    # digits read back are h + t^3 q^9, whose q^9 lies outside the quotient's
    # q-range [0, 8].  But 1 + q does not divide a: at q = -1, a is t^4 - t^3.
    rng = random.Random(1605)
    h = LaurentPoly({(i, j): rng.randint(1, 9) for i in range(15) for j in range(9)})
    b = ONE + Q
    a = b * h + T ** 3 * Q ** 9 + T ** 4
    assert len(a) >= laurent.PACK_DIVIDEND_TERMS
    assert laurent._packed_div(a._terms, b._terms) == (False, None)
    assert exact_div(a, b) is None is longdiv_exact_div(a, b)
    assert exact_div(a - T ** 4 + T ** 3 * Q ** 10, b) == h + T ** 3 * Q ** 9


@pytest.mark.parametrize("span", (10 ** 12, 10 ** 4000), ids=("1e12", "1e4000"))
def test_sparse_operands_stay_off_the_packed_path(span):
    # operands large enough to pack, spread over a huge exponent span: a
    # packed integer would need a slot for every monomial of the box
    n = laurent.PACK_PAIR_TERMS + 4
    x = LaurentPoly({(i * span // n, -i): i + 1 for i in range(n)})
    y = LaurentPoly({(-i, i * span // n): 2 * i - 7 for i in range(n)})
    z = LaurentPoly({(i, i % 3): 1 for i in range(n)}) + T ** span
    start = time.perf_counter()
    xy = x * y
    assert xy == convolve([(x, y)])
    assert sum_of_products([(x, y), (z, z)]) == convolve([(x, y), (z, z)])
    assert len(xy) >= laurent.PACK_DIVIDEND_TERMS
    assert exact_div(xy, y) == x and exact_div(xy, x) == y
    assert exact_div(xy + ONE, y) is None
    assert exact_div(z * z, z) == z
    assert time.perf_counter() - start < 1


def test_exact_div_by_one_term_matches_long_division():
    rng = random.Random(1314)
    fixed = [LaurentPoly.const(-2), LaurentPoly.monomial(3, -1, 2)]

    def poly():
        return LaurentPoly({(rng.randint(-3, 3), rng.randint(-3, 3)):
                            rng.choice((-1, 1)) * rng.randint(1, 9)
                            for _ in range(rng.randint(1, 5))})

    nones = 0
    for k in range(400):
        b = fixed[k % 2] if k % 4 < 2 else LaurentPoly.monomial(
            rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(-3, 3), rng.randint(-3, 3))
        a = ZERO if k % 50 == 0 else poly() * b if k % 3 else poly()
        got = exact_div(a, b)
        assert got == longdiv_exact_div(a, b), (a, b)
        nones += got is None
    assert 60 <= nones <= 140, nones
    assert exact_div(ZERO, fixed[1]) == ZERO
    assert exact_div(parse_poly("4*t - 6"), fixed[0]) == parse_poly("-2*t + 3")
    assert exact_div(parse_poly("4*t - 3"), fixed[0]) is None
    assert exact_div(parse_poly("6*q^2 + 3*t^-1"), fixed[1]) == parse_poly("2*t + q^-2")


def collapsed(p, bits):
    """The image of t^-lo * p under t -> 2^bits, lo the least t-exponent of p."""
    return _collapse_row([p], p.min_exponents()[0], bits)[0]


def test_collapse_and_expand_round_trip():
    # every coefficient below 2^(bits - 1) in absolute value reads back,
    # negative ones and the extreme ones included, at any exponents
    rng = random.Random(2009)
    for bits in (2, 3, 7, 8, 9, 64, 65, 200):
        top = (1 << bits - 1) - 1
        for _ in range(40):
            p = LaurentPoly({(rng.randint(-6, 6), rng.randint(-4, 4)):
                             rng.choice((-top, top, -1, 1, rng.randint(-top, top)))
                             for _ in range(rng.randint(1, 12))})
            if not p:
                continue
            image = collapsed(p, bits)
            assert image.max_exponents()[0] == image.min_exponents()[0] == 0
            assert 0 < len(image) <= len(p)
            assert expand_t(image, bits, p.min_exponents()[0]) == p
    assert _collapse_row([ZERO, T ** -2 * Q - 3 * T ** -1], -2, 5) == [ZERO, Q - 96 * ONE]
    # -2^(bits - 1) still reads back, 2^(bits - 1) is the first that does not
    assert expand_t(collapsed(-8 * T, 4), 4, 1) == -8 * T
    assert expand_t(collapsed(8 * T, 4), 4, 1) == T * T - 8 * T


@given(laurent_polys(span=3), laurent_polys(span=3), st.integers(min_value=12, max_value=80))
def test_collapse_is_a_ring_map(x, y, bits):
    # phi(t^-a x) phi(t^-b y) = phi(t^-(a + b) x y), and the sum likewise;
    # from 12 bits on, every coefficient of x * y (at most 36^2) is below
    # 2^(bits - 1), as _collapse_row asks
    a, b = x.min_exponents()[0], y.min_exponents()[0]
    phi_x, phi_y = _collapse_row([x], a, bits)[0], _collapse_row([y], b, bits)[0]
    assert phi_x * phi_y == _collapse_row([x * y], a + b, bits)[0]
    lo = min(a, b)
    assert (_collapse_row([x], lo, bits)[0] + _collapse_row([y], lo, bits)[0]
            == _collapse_row([x + y], lo, bits)[0])


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


def test_only_laurent_reads_the_term_format():
    # the {(et, eq): c} dict behind a polynomial is laurent's own format
    readers = []
    for path in sorted(pathlib.Path(__file__).parent.parent.joinpath("src", "braidrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_terms":
                readers.append("%s:%d" % (path.name, node.lineno))
    assert readers and all(r.startswith("laurent.py:") for r in readers), readers


@pytest.mark.parametrize("value", (0.1, 0.5))
def test_evaluation_rejects_floats(value):
    p = T - 2 * Q
    with pytest.raises(TypeError, match="exact rational"):
        p.eval_rational(value, 1)
    with pytest.raises(TypeError, match="exact rational"):
        PolyFraction(p, T + ONE).eval_rational(1, value)
    assert p.eval_rational(Fraction(1, 2), -3) == Fraction(13, 2)

