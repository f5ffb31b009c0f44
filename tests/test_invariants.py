import collections
import hashlib
import json
import random
from fractions import Fraction

import pytest

from braidrep import invariants as inv
from braidrep import laurent
from braidrep.braid import BraidWord
from braidrep.cli import MAX_SIZE
from braidrep.laurent import LaurentPoly, ONE, PolyFraction, Q, T, ZERO, parse_poly
from braidrep.polymatrix import PolyMatrix, packed_det
from braidrep import reps
from braidrep.reps import image_of_word, lk
from oracles import (det_mod_prime, generalized_char_poly, normalized_laurent,
                     sign_twisted_krammer_fraction)

W = BraidWord

TREFOIL = W.parse("1 1 1", 2)
W4 = W.parse("1 3 2 2 3 2 -3 2 3 2 -1 -3 1 -1 -3 -3 2 -3 -3 -3 2 3 -2 2", 4)


def test_alexander_of_the_trefoil():
    a = inv.alexander(TREFOIL)
    assert a.normalized == parse_poly("t^2 - t + 1")
    assert a.raw_fraction == PolyFraction(parse_poly("t^3 + 1"), parse_poly("t + 1"))


def test_alexander_is_presentation_independent():
    # the same knot from a three strand word
    a = inv.alexander(W.parse("1 2 2 2", 3))
    assert a.normalized == parse_poly("t^2 - t + 1")


def test_alexander_of_the_unknot():
    assert inv.alexander(W.parse("1", 2)).normalized == ONE
    assert inv.alexander(W.parse("-1", 2)).normalized == ONE


def test_alexander_of_a_split_closure_vanishes():
    assert inv.alexander(W.identity(3)).normalized == ZERO
    assert inv.alexander(W.parse("1", 3)).normalized == ZERO


def test_alexander_mirror_symmetry():
    # figure-eight knot is amphichiral: sigma1 sigma2^-1 twice
    a = inv.alexander(W.parse("1 -2 1 -2", 3))
    assert a.normalized == parse_poly("t^2 - 3*t + 1")
    b = inv.alexander(W.parse("-1 2 -1 2", 3))
    assert b.normalized == a.normalized


def torus_knot_2(k):
    """T(2, k), k odd: (t^k + 1) / (t + 1) = 1 - t + t^2 - ... + t^(k-1)."""
    return sum(((-T) ** i for i in range(k)), ZERO)


def twist_knot(n):
    """Twist knot with n half twists: m t^2 - (n + 1) t + m for n = 2m,
    m t^2 - n t + m for n = 2m - 1."""
    m = (n + 1) // 2
    return m * T ** 2 - (n + 1 if n % 2 == 0 else n) * T + m


# 5_2 and 6_1 use some but not all of their inverse letters
TEXTBOOK_ALEXANDER = [
    ("3_1", "1 1 1", 2, "t^2 - t + 1", torus_knot_2(3)),
    ("4_1", "1 -2 1 -2", 3, "t^2 - 3*t + 1", twist_knot(2)),
    ("5_1", "1 1 1 1 1", 2, "t^4 - t^3 + t^2 - t + 1", torus_knot_2(5)),
    ("5_2", "1 1 1 2 -1 2", 3, "2*t^2 - 3*t + 2", twist_knot(3)),
    ("6_1", "1 1 2 -1 -3 2 -3", 4, "2*t^2 - 5*t + 2", twist_knot(4)),
]


@pytest.mark.parametrize("word, strands, text, closed_form",
                         [case[1:] for case in TEXTBOOK_ALEXANDER],
                         ids=[case[0] for case in TEXTBOOK_ALEXANDER])
def test_alexander_textbook_table(word, strands, text, closed_form):
    assert parse_poly(text) == closed_form
    assert inv.alexander(W.parse(word, strands)).normalized == closed_form


def test_alexander_against_sympy_oracle():
    # det(rho(w) - I) / det(rho(sigma_1...sigma_(n-1)) - I) with sympy's own
    # matrix products, inverses, determinants and cancel
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)

    def sym(p):
        return sympy.sympify(str(p).replace("^", "**"))

    def sym_matrix(m):
        return sympy.Matrix(m.rows, m.cols, lambda i, j: sym(m[i, j]))

    def sym_ratio(gens, letters, n):
        def image(word):
            out = sympy.eye(n - 1)
            for x in word:
                out = out * (gens[x - 1] if x > 0 else gens[-x - 1].inv())
            return out - sympy.eye(n - 1)
        return sympy.cancel(image(letters).det() / image(range(1, n)).det())

    nonzero = 0
    for _ in range(20):
        n = rng.randint(3, 5)
        letters = []
        # freely reduced, at most 8 letters, every generator used
        while {abs(x) for x in letters} != set(range(1, n)):
            letters = []
            for _ in range(rng.randint(n - 1, 8)):
                x = rng.choice((1, -1)) * rng.randint(1, n - 1)
                if not letters or letters[-1] != -x:
                    letters.append(x)
        gens = [sym_matrix(g) for g in reps.burau_reduced(n, "conjugated").gen_images]
        want = sym_ratio(gens, letters, n)
        raw = inv.alexander(W(n, letters)).raw_fraction
        assert sympy.cancel(sym(raw.num) / sym(raw.den) - want) == 0, (n, letters)
        nonzero += want != 0
    assert nonzero >= 10


def test_krammer_fraction_of_the_trefoil():
    k = inv.krammer_fraction(TREFOIL)
    assert k.collapsed == parse_poly("t^4*q^2 - t^2*q + 1")
    assert k.fraction == PolyFraction(parse_poly("t^4*q^2 - t^2*q + 1"), ONE)
    assert str(k) == "t^4*q^2 - t^2*q + 1"


def test_krammer_fraction_three_strand_trefoil():
    k = inv.krammer_fraction(W.parse("1 1 1 2", 3))
    assert k.fraction == PolyFraction(parse_poly("t^12*q^4 - 1"),
                                      parse_poly("t^6*q^2 - 1"))
    assert k.collapsed == parse_poly("t^6*q^2 + 1")


def test_krammer_fraction_of_a_heavy_four_strand_word():
    # a seeded 24-letter word with a 123-term numerator; the digest pins the
    # value the long-division kernel gave
    k = inv.krammer_fraction(W4)
    assert (len(k.fraction.num), len(k.fraction.den)) == (123, 4)
    assert k.collapsed is None
    assert hashlib.sha256(str(k).encode()).hexdigest() == (
        "f135a7502a85ffe508e68c2056be148d95efe5e135f05dd1f3c62bc811765a00")


def test_krammer_fraction_of_an_eight_strand_word():
    # a 28x28 determinant; the digest pins the value the unpivoted Bareiss
    # elimination (oracles.diagonal_bareiss_det) gave, about 50 times slower
    k = inv.krammer_fraction(W.parse("1 -2 3 -4 5 -6 7 1 -2 3", 8))
    assert (len(k.fraction.num), len(k.fraction.den)) == (395, 8)
    assert hashlib.sha256(str(k).encode()).hexdigest() == (
        "e741ad78c0da8180e5ce100162762850edcf58fcce23acad0cdf88f2de4c4497")


def test_numerator_det_of_a_heavy_four_strand_word_divides_little(divisors):
    # 6x6 Bareiss: no division at the first step, and none by 1 at all; the
    # unpivoted elimination made 55 divisions, 25 of them by 1
    rep, _den, _ = inv._krammer_data(4)
    m = image_of_word(rep, W4) - PolyMatrix.identity(rep.dim)
    divisors.clear()
    m.det()
    assert 0 < len(divisors) <= 30
    assert not any(b.is_one() for b in divisors)


def test_krammer_fraction_of_identity_words():
    kid = inv.krammer_fraction(W.identity(3))
    assert kid.fraction == PolyFraction.coerce(0)
    assert kid.collapsed == ZERO


def _balanced_word(rng, length, n=3):
    """A freely reduced n-strand word of the given length and exponent sum 0."""
    while True:
        letters = []
        while len(letters) < length:
            x = rng.choice((1, -1)) * rng.randint(1, n - 1)
            if not letters or letters[-1] != -x:
                letters.append(x)
        word = W(n, letters)
        if word.exponent_sum() == 0:
            return word


def _bar(p):
    """p with t -> 1/t and q -> 1/q."""
    return p.substitute(T ** -1, Q ** -1).num


def _trace(m):
    return sum((m.data[i][i] for i in range(m.rows)), ZERO)


def test_three_strand_krammer_identities(monkeypatch):
    # For a 3-strand word w of exponent sum 0 the sign character is 1 and
    # det LK(w) = 1, so det(LK(w) - I) = tr LK(w) - tr LK(w)^-1 for the 3x3
    # image; with tr LK(w^-1) = bar(tr LK(w)) that is tr - bar(tr), and it
    # makes K(w^-1) = -K(w).  At q = 1, LK(w) is conjugate to S^2(Burau(w)),
    # which has the eigenvalue det Burau(w) = 1, so det(LK(w) - I) vanishes
    # there.  The words of 24 and 32 letters take products and divisions
    # through the packed integers.
    packed = {"products": 0, "divisions": 0}
    products, divide = laurent._add_packed_products, laurent._packed_div

    def count_products(pairs, data):
        packed["products"] += 1
        return products(pairs, data)

    def count_divisions(at, bt):
        packed["divisions"] += 1
        return divide(at, bt)

    monkeypatch.setattr(laurent, "_add_packed_products", count_products)
    monkeypatch.setattr(laurent, "_packed_div", count_divisions)
    rep = lk(3)
    rng = random.Random(1603)
    words = [_balanced_word(rng, length) for length in [2, 4, 6, 8, 10] * 8]
    rng = random.Random(1604)
    words += [_balanced_word(rng, length) for length in (24, 32)]
    nonzero = []
    for word in words:
        img = image_of_word(rep, word)
        tr = _trace(img)
        num = (img - PolyMatrix.identity(3)).det()
        assert img.det() == ONE, str(word)
        assert num == tr - _bar(tr), str(word)
        assert _trace(image_of_word(rep, word.inverse())) == _bar(tr), str(word)
        k = inv.krammer_fraction(word).fraction
        assert k == PolyFraction(num, inv._krammer_data(3)[1]), str(word)
        assert inv.krammer_fraction(word.inverse()).fraction == -k, str(word)
        assert num.substitute(T, ONE).num.is_zero(), str(word)
        nonzero.append(len(word.letters) if num else 0)
    # short words mostly give 0; the identities are tested on nonzero values too
    assert nonzero[-2:] == [24, 32] and any(nonzero[:-2]), nonzero
    assert packed["products"] and packed["divisions"], packed


@pytest.mark.parametrize("n", (4, 5, 6))
def test_krammer_of_the_inverse_word(n):
    # For exponent sum 0, det LK(w) = 1, so det(LK(w)^-1 - I) =
    # det LK(w)^-1 det(I - LK(w)) = (-1)^d det(LK(w) - I) with d = C(n, 2):
    # K(w^-1) = -K(w) on 3 strands (test above) and 6, K(w^-1) = K(w) on 4
    # and 5.  A word conjugate to its inverse is forced to 0 only when d is
    # odd.
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    rng = random.Random(1606 + n)
    nonzero = 0
    for length in (2, 4, 6, 8, 8):
        word = _balanced_word(rng, length, n)
        k = inv.krammer_fraction(word).fraction
        assert inv.krammer_fraction(word.inverse()).fraction == sign * k, str(word)
        nonzero += not k.num.is_zero()
    assert nonzero, n


def test_figure_eight_krammer_vanishes():
    # 1 -2 1 -2 closes to the figure-eight knot, a knot, not a split link.
    # The half twist 1 2 1 conjugates sigma_1 to sigma_2 and back, so it
    # conjugates the word to its inverse 2 -1 2 -1, and K(w) = K(w^-1) =
    # -K(w) = 0
    word = W.parse("1 -2 1 -2", 3)
    rep = lk(3)
    assert (image_of_word(rep, word.conjugate(W.parse("1 2 1", 3)))
            == image_of_word(rep, word.inverse()))
    assert inv.krammer_fraction(word).fraction == PolyFraction.coerce(0)


def test_trefoil_krammer_is_alexander_reparametrized():
    a = inv.alexander(TREFOIL).normalized
    k = inv.krammer_fraction(TREFOIL).collapsed
    assert a.substitute(T ** 2 * Q, Q) == PolyFraction.coerce(k)


def test_determinant_route_matches_generalized_char_poly():
    rep3 = lk(3, "new")
    img = image_of_word(rep3, W.parse("1 1 1 2", 3))
    lam = [parse_poly("-1")] * 3
    assert (img - PolyMatrix.identity(3)).det() == generalized_char_poly(img, lam)


def test_specialize_trefoil_values():
    k = inv.krammer_fraction(TREFOIL)
    assert inv.specialize(k, t_value=1) == PolyFraction.coerce(parse_poly("q^2 - q + 1"))
    assert inv.specialize(k, q_value=1) == PolyFraction.coerce(parse_poly("t^4 - t^2 + 1"))
    k3 = inv.krammer_fraction(W.parse("1 1 1 2", 3))
    assert inv.specialize(k3, q_value=1) == PolyFraction.coerce(parse_poly("t^6 + 1"))
    assert inv.specialize(k3, t_value=1) == PolyFraction.coerce(parse_poly("q^2 + 1"))


def test_specialize_accepts_rationals_and_fractions():
    f = PolyFraction(T * Q, 2 * ONE)
    assert inv.specialize(f, t_value=2, q_value=3) == PolyFraction.coerce(3)


@pytest.mark.parametrize("value", (0.1, 0.5))
def test_specialize_rejects_floats(value):
    k = inv.krammer_fraction(W.parse("1 1 1", 2))
    with pytest.raises(TypeError, match="exact rational"):
        inv.specialize(k, q_value=value)
    with pytest.raises(TypeError, match="exact rational"):
        inv.specialize(k, t_value=value)
    # the exact values the floats stand for
    assert str(inv.specialize(k, q_value=Fraction(1, 10))) == "(t^4 - 10*t^2 + 100) / (100)"
    assert str(inv.specialize(k, t_value=Fraction(1, 2))) == "(q^2 - 4*q + 16) / (16)"


def test_specialize_reports_vanishing_denominator():
    with pytest.raises(ZeroDivisionError) as e:
        inv.specialize(PolyFraction(ONE, T - ONE), t_value=1)
    assert "vanishes" in str(e.value)


def test_specialize_names_the_pole_of_each_variable():
    with pytest.raises(ZeroDivisionError, match="pole at t = 0"):
        inv.specialize(PolyFraction(T ** -1 + Q), t_value=0)
    with pytest.raises(ZeroDivisionError, match="pole at q = 0"):
        inv.specialize(T + Q ** -2, q_value=0)
    assert inv.specialize(PolyFraction(T ** 2 + Q, 2 * ONE), t_value=0, q_value=4) == 2


def test_specialize_of_a_krammer_fraction_divides_at_most_four_times(fraction_divisors):
    # at most one division for a rational image, one per substitution and one
    # at the end; the term-by-term route (oracles.termwise_substitute) made
    # 189 to 195 divisions here
    rng = random.Random(7)
    word = W(4, [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(8)])
    k = inv.krammer_fraction(word)
    assert (len(k.fraction.num), len(k.fraction.den)) == (11, 4)
    for tv, qv in ((None, 1), (1, None), (2, None), (None, Fraction(-3, 7))):
        fraction_divisors.clear()
        inv.specialize(k, t_value=tv, q_value=qv)
        assert len(fraction_divisors) <= 4, (tv, qv, len(fraction_divisors))


def test_markov2_probe_reports_are_pinned():
    # digest of the reports the term-by-term substitution gave
    rng = random.Random(12)
    h = hashlib.sha256()
    for n in (2, 3, 4):
        for _ in range(4):
            length = rng.randint(1, 4)
            word = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)])
            h.update(json.dumps(inv.markov2_probe(word).to_json(), sort_keys=True).encode())
    assert h.hexdigest() == "db7570f96c92b609027e2208a51a34da1a030ed579e743b6471f4123e62150e8"


@pytest.mark.parametrize("invariant", ("alexander", "krammer"))
def test_short_words_leave_the_kept_generator_images_alone(invariant):
    # a word image starts from a copy of its first letter's image, and
    # det(image - I) writes into it; the kept images must not change.
    # "2 1 2 -1 -2 -1" is the identity braid, and a product hands back an
    # entry itself where a column is a unit vector, so the last image
    # holds entries of the kept images themselves
    data = inv._alexander_data if invariant == "alexander" else inv._krammer_data
    fresh = data.__wrapped__(3)[0]
    compute = inv.alexander if invariant == "alexander" else inv.krammer_fraction
    aliased = "2 1 2 -1 -2 -1 2 1"
    for text in ("1", "-2", "", "2", "-2 -1", aliased):
        compute(W.parse(text, 3))
    rep = data(3)[0]
    kept = {id(e) for g in rep.gen_images + list(rep._inverses.values()) for r in g.data for e in r}
    assert any(id(e) in kept for r in image_of_word(rep, W.parse(aliased, 3)).data for e in r)
    assert rep.gen_images == fresh.gen_images
    assert rep._inverses == {-i: g.inverse() for i, g in enumerate(fresh.gen_images, 1)}


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_krammer_sign_applied_per_word_matches_the_negated_representation(n):
    # the sign character scales the image of a word of length L by (-1)^L,
    # applied once per word; the oracle negates every generator image
    rng = random.Random(1300 + n)
    for length in range(7 if n < 5 else 5):
        word = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)])
        want = sign_twisted_krammer_fraction(word)
        assert str(inv.krammer_fraction(word).fraction) == str(want), str(word)
        assert inv.krammer_fraction(word).fraction.den == want.den


def test_markov_conjugation_fixture():
    gs = [W.parse("2", 3), W.parse("1 -2", 3), W.identity(3)]
    assert inv.markov1_test(W.parse("1 1 1 2", 3), gs).passed


@pytest.mark.parametrize("n", (3, 4))
def test_markov_conjugation_random(n):
    rng = random.Random(2024 + n)
    for trial in range(10):
        word = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 6))])
        gs = [W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(1, 4))])
              for _ in range(2)]
        report = inv.markov1_test(word, gs)
        assert report.passed, "word %s trial %d\n%s" % (word, trial, report)


def test_stabilization_probe_on_the_trefoil():
    report = inv.markov2_probe(TREFOIL)
    assert report.passed
    text = str(report)
    assert "fraction on 2 strands: t^4*q^2 - t^2*q + 1" in text
    assert "fraction on 3 strands: t^6*q^2 + 1" in text
    assert "stabilized value at q=1: t^6 + 1" in text
    assert "stabilized value at t=1: q^2 + 1" in text
    assert "ratio at q=1: t^2 + 1" in text
    assert "ratio at t=1: (q^2 + 1) / (q^2 - q + 1)" in text


def test_alexander_survives_stabilization():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randint(2, 3)
        word = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(1, 5))])
        up = W(n + 1, list(word.letters) + [n])
        assert inv.alexander(word).normalized == inv.alexander(up).normalized


def test_result_types_expose_their_parts():
    a = inv.alexander(TREFOIL)
    assert str(a) == "t^2 - t + 1"
    k = inv.krammer_fraction(W.parse("1 1 1 2", 3))
    assert k.fraction.is_polynomial()
    assert k.collapsed is not None
    split = inv.krammer_fraction(W.parse("1 1 1", 3))
    assert split.collapsed is None
    assert "/" in str(split.fraction)
    assert str(split) == str(split.fraction)


def _counted(fn, counts, name):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _clear_closure_data():
    inv._alexander_data.cache_clear()
    inv._krammer_data.cache_clear()


def test_markov1_builds_each_representation_once(monkeypatch):
    _clear_closure_data()
    counts = {"lk": 0, "burau_reduced": 0}
    monkeypatch.setattr(inv, "lk", _counted(inv.lk, counts, "lk"))
    monkeypatch.setattr(inv, "burau_reduced", _counted(inv.burau_reduced, counts, "burau_reduced"))
    # the CLI's default conjugators on 3 strands
    conjugators = [W(3, [i]) for i in (1, -1, 2, -2)]
    assert inv.markov1_test(W.parse("1 1 2", 3), conjugators).passed
    assert counts == {"lk": 1, "burau_reduced": 1}


def _values(invariant, word):
    if invariant is inv.alexander:
        r = inv.alexander(word)
        return r.raw_fraction, r.normalized
    r = inv.krammer_fraction(word)
    return r.fraction, r.collapsed


def test_stored_closure_data_gives_the_values_of_a_fresh_build():
    words = {3: ["1 -2 1 -2", "1 1 2", "-1 -1 2 -1"], 4: ["1 2 3 -2", "1 -2 3 3 -1"]}
    plan = [(invariant, W.parse(text, n))
            for n in (3, 4, 3) for text in words[n]
            for invariant in (inv.alexander, inv.krammer_fraction)]
    _clear_closure_data()
    stored = [_values(invariant, word) for invariant, word in plan]
    for (invariant, word), value in zip(plan, stored):
        _clear_closure_data()
        assert _values(invariant, word) == value, (invariant.__name__, str(word))


def _laurent_closure_det(rep, word):
    """det(rho(word) - I) on the Laurent path: the word image, then
    PolyMatrix.det."""
    return (image_of_word(rep, word) - PolyMatrix.identity(rep.dim)).det()


def _integer_closure_det(rep, word):
    """det(rho(word) - I) from the integer path, read back, or None."""
    closure = inv._integer_closure(rep, word.free_reduce().letters)
    return None if closure is None else laurent.expand_t(LaurentPoly.const(closure[0]), *closure[1:])


def _closure_words(rng, n, length):
    """A mixed word, an inverse-heavy one and an all-inverse one."""
    draws = ((1, -1), (1, -1, -1, -1), (-1,))
    return [W(n, [rng.choice(signs) * rng.randint(1, n - 1) for _ in range(length)])
            for signs in draws]


def _gate_width(rep, word):
    """The a priori width K (row t-span + 1) that the integer path's gate reads."""
    letters = word.free_reduce().letters
    sums, los, his = reps.word_norm_bound(rep, reps.letter_t_lines(rep, letters))
    bits = laurent.hadamard_bits([(total + 1) ** 2 for total in sums])
    return bits * (max(h - l for l, h in zip(los, his)) + 1)


def _inside_gate(rep, word):
    return laurent.integer_closure_fits(rep.dim, _gate_width(rep, word))


def test_integer_closure_det_matches_the_laurent_path():
    # seeded words on n = 2..7 strands, L = 0..80, odd and even lengths, in
    # both reduced Burau forms (rows and columns)
    rng = random.Random(2121)
    for n in range(2, 8):
        for form in ("conjugated", "standard"):
            rep = reps.burau_reduced(n, form)
            for length in (0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 55, 80):
                if form == "standard" and length % 4:
                    continue
                for word in _closure_words(rng, n, length):
                    assert _inside_gate(rep, word), (n, length)
                    got = _integer_closure_det(rep, word)
                    assert got == _laurent_closure_det(rep, word), (n, form, str(word))


def test_integer_closure_det_of_a_long_word_with_two_rows():
    rep = reps.burau_reduced(3, "conjugated")
    word = W.parse("s1^1000 s2^-1000", 3)
    got = _integer_closure_det(rep, word)
    assert got == _laurent_closure_det(rep, word)
    assert len(got) == 2001 and got.min_exponents() == (-1000, 0)


@pytest.mark.parametrize("entry", (-3 * ONE, -3 * T, 2 * T ** -1 - 1))
def test_integer_closure_det_reads_back_a_determinant_at_its_bound(entry):
    # on a 1 x 1 representation, det(rho(w) - I) = entry^m - 1 has a
    # coefficient near Hadamard's bound |entry|_1^m + 1 (equal to it for -3
    # and odd m, one below it for -3t), so K one bit smaller reads it back wrong
    rep = reps.Representation(2, [PolyMatrix([[entry]])], "one-by-one")
    for m in (1, 2, 5, 21, 40):
        word = W(2, [1] * m)
        want = entry ** m - ONE
        assert _integer_closure_det(rep, word) == want == _laurent_closure_det(rep, word)


def test_image_at_power_of_two_is_the_word_image_at_that_point():
    # line i at t = 2^bits is t^-offsets[i] times the ints, offsets = -los
    rng = random.Random(2122)
    for n, form in ((3, "conjugated"), (5, "conjugated"), (4, "standard")):
        rep = reps.burau_reduced(n, form)
        for word in _closure_words(rng, n, 12):
            image = image_of_word(rep, word).data
            expected = image if rep._by_rows else [list(col) for col in zip(*image)]
            letters = reps.letter_t_lines(rep, word.free_reduce().letters)
            for bits in (2, 7, 64):
                lines, offsets = reps.image_at_power_of_two(rep, letters, bits)
                assert offsets == [-lo for lo in reps.word_norm_bound(rep, letters)[1]]
                for line, offset, want in zip(lines, offsets, expected):
                    assert line == [sum(c << bits * (et + offset) for (et, _), c in e.sorted_terms())
                                    for e in want], (n, form, str(word), bits)


def test_the_integer_walk_hands_over_lines_it_owns():
    # the letter's row 0 is a single 1 at column 1, so the walk's new row 0
    # is row 1 unshifted; it must come back as a list of its own, since
    # _integer_closure subtracts I from the returned lines in place
    rep = reps.Representation(2, [PolyMatrix([[0, 1], [0, 1]])], "shared-row")
    word = W.parse("1", 2)
    lines, offsets = reps.image_at_power_of_two(rep, reps.letter_t_lines(rep, word.letters), 8)
    assert rep._by_rows and lines == [[0, 1], [0, 1]] and offsets == [0, 0]
    assert lines[0] is not lines[1]
    assert _integer_closure_det(rep, word) == _laurent_closure_det(rep, word)


def test_word_norm_bound_is_met_without_cancellation():
    # powers of commuting generators never add two terms of one monomial,
    # so every line's sum of 1-norms and every t-range of the image is its bound
    rep = reps.burau_reduced(6, "conjugated")
    word = W.parse("1 1 1 3 3 5 5 5 5", 6)
    sums, los, his = reps.word_norm_bound(rep, reps.letter_t_lines(rep, word.letters))
    rows = image_of_word(rep, word).data
    assert rep._by_rows
    assert sums == [sum(abs(c) for e in row for _, c in e.sorted_terms()) for row in rows]
    assert sums == [4, 1, 5, 1, 5]
    for row, lo, hi in zip(rows, los, his):
        ets = [et for e in row for (et, _), _ in e.sorted_terms()]
        assert (lo, hi) == (min(ets + [0]), max(ets + [0]))


def test_the_gate_decides_which_path_an_alexander_closure_takes(monkeypatch):
    # seeded words on either side of the gate; the Laurent path is the only
    # one that builds a word image
    rng = random.Random(1)
    inside = W(7, [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(80)])
    refused = W(16, [rng.choice((1, -1)) * rng.randint(1, 15) for _ in range(120)])
    counts = {"_image_of_letters": 0}
    monkeypatch.setattr(inv, "_image_of_letters",
                        _counted(inv._image_of_letters, counts, "_image_of_letters"))
    for word, laurent_path in ((inside, False), (refused, True)):
        rep, den = inv._alexander_data(word.strands)
        assert _inside_gate(rep, word) != laurent_path
        counts["_image_of_letters"] = 0
        want = PolyFraction(_laurent_closure_det(rep, word), den)
        assert inv.alexander(word).raw_fraction == want
        assert counts["_image_of_letters"] == laurent_path
        assert (_integer_closure_det(rep, word) is None) == laurent_path


def _closure_test_words(rng, n, lengths):
    """Seeded words on n strands: a plain draw of each length, one whose
    inverse pairs meet past far letters, and u w u^-1."""
    words = []
    for length in lengths:
        words.append(W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]))
        far = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        if far and n > 3:
            far = [1] + far[: length // 2] + [3, -1] + far[length // 2:]
        words.append(W(n, far))
        u = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(1 + length // 3)]
        words.append(W(n, u + [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
                       + [-x for x in reversed(u)]))
    return words


def test_closures_of_unreduced_words_give_the_public_invariants():
    # alexander and krammer_fraction cancel letters, across the two ends of
    # the word too, before any matrix; the determinant of the product of
    # every letter's image, and _laurent_closure and _integer_closure of the
    # words as drawn, must give their values term for term
    rng = random.Random(2727)
    from oracles import product_image_of_word
    cancelled = 0
    for n in range(2, 8):
        rep, den = inv._alexander_data(n)
        eye = PolyMatrix.identity(rep.dim)
        for word in _closure_test_words(rng, n, (0, 1, 4, 7, 10, 15)):
            det = (product_image_of_word(rep, word) - eye).det()
            assert (inv._laurent_closure(rep, word.letters, 1) == det
                    == _integer_closure_det(rep, word))
            want = PolyFraction(det, den)
            got = inv.alexander(word)
            assert got.raw_fraction.num._terms == want.num._terms, str(word)
            assert got.raw_fraction.den._terms == want.den._terms, str(word)
            assert got.normalized._terms == normalized_laurent(want.num)._terms
            cancelled += len(word.free_reduce(cyclic=True)) < len(word)
        rep, den, _ = inv._krammer_data(n)
        for word in _closure_test_words(rng, n, (0, 1, 3, 6) if n < 6 else (1, 2)):
            s = (-1) ** len(word)
            det = (product_image_of_word(rep, word) - PolyMatrix.identity(rep.dim).scale(s)).det()
            if s < 0 and rep.dim % 2:
                det = -det
            assert inv._laurent_closure(rep, word.letters, s) == det, str(word)
            want = PolyFraction(det, den)
            got = inv.krammer_fraction(word)
            assert got.fraction.num._terms == want.num._terms, str(word)
            assert got.fraction.den._terms == want.den._terms, str(word)
            assert got.collapsed == (want.num if want.is_polynomial() else None)
            cancelled += len(word.free_reduce(cyclic=True)) < len(word)
    assert cancelled > 60, cancelled


def test_the_split_shortcut_equals_the_matrix_result_on_both_sides_of_the_gate(monkeypatch):
    # words that miss a generator, as drawn or once cancelled, inside the
    # integer path's gate and refused by it: both paths give det 0, and
    # alexander gives the same 0/1 and 0 with no walk and no word image
    rng = random.Random(2728)
    words = [W(3, [2, 1, -2]), W(5, [1, 2, 4, -2, 3]), W(5, [4, 1, -4, 3, 2, -3])]
    for n, length in ((4, 12), (7, 30), (16, 120), (16, 200)):
        gens = [i for i in range(1, n) if i != n // 2]
        words.append(W(n, [rng.choice((1, -1)) * rng.choice(gens) for _ in range(length)]))
    sides = set()
    for word in words:
        rep, den = inv._alexander_data(word.strands)
        sides.add(_inside_gate(rep, word))
        assert _integer_closure_det(rep, word) in (ZERO, None)
        assert _laurent_closure_det(rep, word) == ZERO
    assert sides == {True, False}
    counts = {"_image_of_letters": 0, "letter_t_lines": 0}
    for name in counts:
        monkeypatch.setattr(inv, name, _counted(getattr(inv, name), counts, name))
    for word in words:
        got = inv.alexander(word)
        assert got.raw_fraction.num._terms == ZERO._terms and got.normalized._terms == ZERO._terms
        assert got.raw_fraction.den._terms == ONE._terms
    assert counts == {"_image_of_letters": 0, "letter_t_lines": 0}


def test_the_split_covector_is_fixed_by_every_other_generator():
    # l_i sums the coordinates F_(j,k) with j <= i < k; for every m != i,
    # l_i lk(sigma_m) = l_i and l_i lk(sigma_m)^-1 = l_i, exactly, in both
    # notations: the covector behind krammer_fraction's split shortcut
    cases = 0
    for n in range(2, 10):
        basis = reps.lk_basis(n)
        for notation in ("new", "bigelow"):
            rep = lk(n, notation)
            for i in range(1, n):
                rows = [p for p, (j, k) in enumerate(basis) if j <= i < k]
                covector = [ONE if j <= i < k else ZERO for j, k in basis]
                for m in set(range(1, n)) - {i}:
                    for g in (rep.sigma(m), rep.sigma(-m)):
                        image = [sum((g[r, c] for r in rows), ZERO) for c in range(rep.dim)]
                        assert image == covector, (n, notation, i, m)
                        cases += 1
    assert cases == 2 * 2 * sum((n - 1) * (n - 2) for n in range(2, 10)) == 672


def _split_words(rng, n, count):
    """Seeded words on n strands that miss some generator sigma_i once
    cancelled: letters drawn without sigma_i, some with a pair of sigma_i
    letters that cancel past far letters or across the two ends of the
    word, of both parities."""
    words = []
    while len(words) < count:
        i = rng.randint(1, n - 1)
        others = [m for m in range(1, n) if m != i]
        length = rng.randint(0, 9 if n < 5 else 5)
        letters = [rng.choice((1, -1)) * rng.choice(others) for _ in range(length)] if others else []
        kind = rng.randrange(3)
        x = rng.choice((1, -1)) * i
        if kind == 1:
            at = rng.randint(0, len(letters))
            far = [m for m in others if abs(m - i) >= 2]
            middle = [rng.choice((1, -1)) * rng.choice(far)] if far and rng.random() < 0.5 else []
            letters = letters[:at] + [x] + middle + [-x] + letters[at:]
        elif kind == 2:
            u = [x] + [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 2))]
            letters = u + letters + [-y for y in reversed(u)]
        words.append(W(n, letters))
    return words


def test_krammer_of_a_word_that_misses_a_generator_is_the_matrix_ratio():
    # krammer_fraction answers 0 from the letters when the cancelled word
    # misses a generator and has even length, and computes odd lengths; the
    # matrix-level ratio of the word as drawn must agree term for term
    rng = random.Random(2828)
    parities, after_cancelling, odd_nonzero = [0, 0], 0, 0
    for n in range(2, 8):
        rep, den, _ = inv._krammer_data(n)
        for word in _split_words(rng, n, 110):
            s = (-1) ** len(word)
            want = PolyFraction(inv._laurent_closure(rep, word.letters, s), den)
            got = inv.krammer_fraction(word)
            assert got.fraction.num._terms == want.num._terms, str(word)
            assert got.fraction.den._terms == want.den._terms, str(word)
            assert got.collapsed == (want.num if want.is_polynomial() else None)
            parities[len(word) % 2] += 1
            after_cancelling += not inv._misses_a_generator(word)
            if s > 0:
                assert want.num.is_zero(), str(word)
            else:
                odd_nonzero += not want.num.is_zero()
    assert sum(parities) == 660 and min(parities) > 200, parities
    assert after_cancelling > 200 and odd_nonzero > 250, (after_cancelling, odd_nonzero)


def test_an_even_split_word_on_16_strands_builds_no_krammer_data(monkeypatch):
    # the shortcut comes before lk(16) and its sweep denominator, which
    # took 1.7 s of a one-shot request; an odd split word still builds them
    def refused(n):
        raise AssertionError("_krammer_data(%d) built" % n)

    monkeypatch.setattr(inv, "_krammer_data", refused)
    got = inv.krammer_fraction(W.parse("1 -2 3 5 -5 2 7 9", 16))
    assert got.fraction.num._terms == ZERO._terms and got.fraction.den._terms == ONE._terms
    assert got.collapsed._terms == ZERO._terms
    with pytest.raises(AssertionError, match=r"_krammer_data\(3\) built"):
        inv.krammer_fraction(W.parse("1", 3))


def _closes_to_a_knot(word):
    """Whether the closure of a word has one component: its permutation is
    one cycle through every strand."""
    perm = list(range(word.strands))
    for x in word.letters:
        perm[abs(x) - 1], perm[abs(x)] = perm[abs(x)], perm[abs(x) - 1]
    k, length = perm[0], 1
    while k:
        k, length = perm[k], length + 1
    return length == word.strands


def test_integer_closure_det_matches_the_laurent_path_on_many_strands():
    # seeded words on n = 8..16 strands, L = 3n..5n, four per n inside the
    # gate: the first two drawn whose closure is a knot, whose determinant
    # is never 0 (a knot's Alexander polynomial is +-1 at t = 1), and the
    # first two others, which at many strands mostly miss a generator or
    # split.  Words the gate refuses are skipped.  The 113-letter 10-strand
    # word of CI's scaling job comes first: of the lengths 1..300 of CI's
    # draw, it cancels to the widest below the gate's limit of 3906 at d = 9,
    # 3818 bits (73 letters) for the walks and for alexander, which also
    # cancels across the two ends of the word; 114 letters read 3956
    ci = random.Random(1)
    words = [W(10, [ci.choice((1, -1)) * ci.randint(1, 9) for _ in range(113)])]
    rep = reps.burau_reduced(10, "conjugated")
    assert _gate_width(rep, words[0]) == 3818 and laurent.integer_closure_fits(9, 3818)
    assert _gate_width(rep, words[0].free_reduce(cyclic=True)) == 3818
    assert not laurent.integer_closure_fits(9, 3956)
    rng = random.Random(2323)
    for n in range(8, 17):
        rep = reps.burau_reduced(n, "conjugated")
        knots, others = [], []
        while len(knots) < 2 or len(others) < 2:
            word = W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1)
                         for _ in range(rng.randint(3 * n, 5 * n))])
            if not _inside_gate(rep, word):
                assert _integer_closure_det(rep, word) is None
            elif _closes_to_a_knot(word):
                knots.append(word)
            else:
                others.append(word)
        words += knots[:2] + others[:2]
    nonzero = 0
    for word in words:
        rep = reps.burau_reduced(word.strands, "conjugated")
        got = _integer_closure_det(rep, word)
        assert got == _laurent_closure_det(rep, word), str(word)
        nonzero += not got.is_zero()
    assert len(words) == 37 and 2 * nonzero >= len(words), nonzero


def test_alexander_reads_its_letters_once_and_krammer_never_walks_them(monkeypatch):
    # the invariant picks the route: one alexander call inside the gate
    # reduces its word once, cyclically, and hands those letters to both
    # walks, and krammer_fraction (lk has q) runs neither walk; it reduces
    # its word once too and walks each half of its pencil, u and v^-1,
    # whose blocks all pack here, from those letters.  Neither reduces a
    # word again (_applied_letters is image_of_word's)
    word = W.parse("1 -2 3 2 -1 3 3 -2", 4)
    inv.alexander(word)
    inv.krammer_fraction(word)
    counts = dict.fromkeys(("free_reduce", "_applied_letters", "_image_of_letters",
                            "letter_t_lines", "word_norm_bound", "image_at_power_of_two"), 0)
    monkeypatch.setattr(W, "free_reduce", _counted(W.free_reduce, counts, "free_reduce"))
    monkeypatch.setattr(reps, "_applied_letters",
                        _counted(reps._applied_letters, counts, "_applied_letters"))
    for name in ("_image_of_letters", "letter_t_lines", "word_norm_bound",
                 "image_at_power_of_two"):
        monkeypatch.setattr(inv, name, _counted(getattr(inv, name), counts, name))
    inv.krammer_fraction(word)
    assert counts == {"free_reduce": 1, "_applied_letters": 0, "_image_of_letters": 2,
                      "letter_t_lines": 0, "word_norm_bound": 0, "image_at_power_of_two": 0}
    counts.update(dict.fromkeys(counts, 0))
    inv.alexander(word)
    assert counts == {"free_reduce": 1, "_applied_letters": 0, "_image_of_letters": 0,
                      "letter_t_lines": 1, "word_norm_bound": 1, "image_at_power_of_two": 1}


def test_alexander_integer_quotient_matches_the_laurent_path(monkeypatch):
    # seeded words on n = 2..7 strands, L = 0..30: the quotient divided
    # from the digits at t = 2^K has the term dicts and the normal form of
    # the one divided from the Laurent path's terms
    rng = random.Random(2222)
    words = [W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)])
             for n in range(2, 8) for length in range(31) for _ in range(2)]
    closures = []
    integer_closure = inv._integer_closure

    def recorded(rep, word):
        closures.append(integer_closure(rep, word))
        return closures[-1]

    with monkeypatch.context() as m:
        m.setattr(inv, "_integer_closure", recorded)
        got = [inv.alexander(word) for word in words]
    # a word whose cyclic reduction misses a generator is answered 0 before
    # any closure; every other one here is inside the gate
    whole = [w for w in words if len({abs(x) for x in w.free_reduce(cyclic=True)}) == w.strands - 1]
    assert len(closures) == len(whole) > 150 and None not in closures
    with monkeypatch.context() as m:
        m.setattr(inv, "integer_closure_fits", lambda dim, width: False)
        want = [inv.alexander(word) for word in words]
    zeros = 0
    for word, a, b in zip(words, got, want):
        assert a.raw_fraction.num._terms == b.raw_fraction.num._terms, str(word)
        assert a.raw_fraction.den._terms == b.raw_fraction.den._terms == ONE._terms
        assert a.normalized._terms == b.normalized._terms, str(word)
        zeros += a.normalized.is_zero()
    assert 60 < zeros < len(words) - 60


def test_a_ratio_that_is_no_polynomial_raises_one_error_on_either_path(monkeypatch):
    # a 1 x 1 representation with no q on 3 strands, both generators -t,
    # breaks Burau's theorem: num = t^2 - 1 for sigma_1 sigma_2 against the
    # closed form den = t^2 + t + 1, so the division leaves a remainder,
    # whether num comes from the digits at t = 2^K or from the Laurent
    # path's terms.  The word uses both generators: one that misses a
    # generator is answered 0 before any matrix
    rep = reps.Representation(3, [PolyMatrix([[-T]])] * 2, "abelian")
    monkeypatch.setattr(inv, "burau_reduced", lambda n, form: rep)
    text = "determinant ratio (t^2 - 1) / (t^2 + t + 1) is not a polynomial"
    inv._alexander_data.cache_clear()
    try:
        for fits, integer_path in ((inv.integer_closure_fits, True),
                                   (lambda dim, width: False, False)):
            monkeypatch.setattr(inv, "integer_closure_fits", fits)
            assert (inv._integer_closure(rep, [1, 2]) is not None) == integer_path
            with pytest.raises(inv.InvariantError) as err:
                inv.alexander(W.parse("1 2", 3))
            assert str(err.value) == text
    finally:
        inv._alexander_data.cache_clear()


def test_the_alexander_sweep_denominator_is_the_burau_closed_form():
    # Burau's theorem with its unit, up to the largest strand count the CLI
    # takes: det(psi(sigma_1 ... sigma_(n-1)) - I) = (-1)^(n-1) (1 + ... + t^(n-1))
    for n in range(2, MAX_SIZE + 1):
        rep, den = inv._alexander_data(n)
        sweep = image_of_word(rep, W(n, list(range(1, n))))
        assert den == (sweep - PolyMatrix.identity(n - 1)).det(), n


def test_the_first_alexander_call_on_a_strand_count_takes_one_determinant(monkeypatch):
    # the closed-form denominator needs no sweep image and no determinant,
    # so a fresh strand count costs only the numerator's, on either path
    rng = random.Random(1)
    inside = W(7, [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(80)])
    refused = W(16, [rng.choice((1, -1)) * rng.randint(1, 15) for _ in range(120)])
    counts = {"det": 0, "integer_det": 0, "_image_of_letters": 0}
    monkeypatch.setattr(PolyMatrix, "det", _counted(PolyMatrix.det, counts, "det"))
    monkeypatch.setattr(inv, "integer_det", _counted(inv.integer_det, counts, "integer_det"))
    monkeypatch.setattr(inv, "_image_of_letters",
                        _counted(inv._image_of_letters, counts, "_image_of_letters"))
    inv._alexander_data.cache_clear()
    for word, laurent_path in ((inside, False), (refused, True)):
        counts.update(dict.fromkeys(counts, 0))
        inv.alexander(word)
        assert counts == {"det": laurent_path, "integer_det": not laurent_path,
                          "_image_of_letters": laurent_path}, word.strands


def test_the_krammer_sweep_denominator_has_its_measured_closed_form():
    # eps (q t^n - 1)^a (q t^n + 1)^(n - 1 - a), found by factoring, not
    # proved, so _krammer_data still computes it: odd n has a = (n - 1)/2
    # and eps = 1, n = 0 mod 4 has a = n/2 and eps = 1, n = 2 mod 4 has
    # a = n/2 - 1 and eps = -1
    for n in range(2, 15):
        if n % 2:
            a, eps = (n - 1) // 2, 1
        elif n % 4 == 0:
            a, eps = n // 2, 1
        else:
            a, eps = n // 2 - 1, -1
        x = Q * T ** n
        assert inv._krammer_data(n)[1] == eps * (x - ONE) ** a * (x + ONE) ** (n - 1 - a), n


def test_the_krammer_sweep_denominator_keeps_its_binomial_factors():
    # _krammer_data checks the closed form exactly and keeps the signs of
    # its factors q t^n + 1 (-1) and q t^n - 1 (+1), in that order: n = 2
    # has only the first, every other n both
    for n in range(2, 9):
        assert inv._krammer_data(n)[2] == ((-1,) if n == 2 else (-1, 1)), n


def test_the_factor_test_agrees_with_exact_div_on_krammer_numerators():
    # seeded closure numerators on n = 2..8 strands and their products with
    # the sweep denominator: each factor's test agrees with exact_div by
    # that factor, and a failing factor means den does not divide num
    rng = random.Random(3232)
    seen = collections.Counter()
    for n in range(2, 9):
        rep, den, signs = inv._krammer_data(n)
        x = LaurentPoly.monomial(1, n, 1)
        for _ in range(12 if n < 6 else 3):
            length = rng.randint(1, 7 if n < 6 else 3)
            letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
            num = inv._laurent_closure(rep, letters, (-1) ** length)
            for f in (num, num * den):
                tests = [laurent.binomial_divides(f, n, sign) for sign in signs]
                for sign, passed in zip(signs, tests):
                    assert passed == (laurent.exact_div(f, x - sign) is not None), (n, letters)
                    seen[passed] += 1
                if not all(tests):
                    assert laurent.exact_div(f, den) is None, (n, letters)
                    seen["ruled out"] += 1
    assert seen[True] >= 50 and seen[False] >= 20 and seen["ruled out"] >= 20, seen


def test_krammer_fraction_skips_a_division_its_factor_test_rules_out(fraction_divisors):
    # sigma_1 on 3 strands: 2 (t^2 q + 1)(t - 1) over (q t^3 - 1)(q t^3 + 1),
    # which neither factor divides, so no exact_div runs; the fraction is
    # the constructor's all the same
    got = inv.krammer_fraction(W.parse("1", 3))
    assert not fraction_divisors
    num = 2 * (T ** 2 * Q + ONE) * (T - ONE)
    want = PolyFraction(num, inv._krammer_data(3)[1])
    assert (got.fraction.num._terms, got.fraction.den._terms) == (want.num._terms, want.den._terms)
    assert got.collapsed is None and str(got) == "(2*t^3*q - 2*t^2*q + 2*t - 2) / (t^6*q^2 - 1)"


EIGHT = W.parse("1 -2 3 -4 5 -6 7 1 -2 3", 8)


def _pencil_rows(a, b, s):
    """The rows of the pencil a - s b, built."""
    return [[x - s * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def test_the_pencil_of_every_cut_gives_the_closure_determinant():
    # det(lk(u v) - s I) = det(lk(u) - s lk(v^-1)) det lk(v) at every cut
    # h = |u| = 0..L: seeded words of both parities of L on n = 2..7
    # strands, whose pencils' dets, through PolyMatrix.det of a - s b and
    # through packed_det(a, b, s) where every block packs, times the unit,
    # are the closure of the whole word
    rng = random.Random(3131)
    words = [W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)])
             for n in range(2, 8) for length in (2 * rng.randint(2, 5), 2 * rng.randint(2, 5) + 1)]
    packed_cuts = 0
    for word in words:
        rep, _, _ = inv._krammer_data(word.strands)
        s = (-1) ** len(word.letters)
        want = inv._laurent_closure(rep, word.letters, s)
        for cut in range(len(word.letters) + 1):
            a, b, unit = inv._pencil(rep, word.letters, s, cut)
            packed = packed_det(a, b, s)
            det = PolyMatrix._wrap(_pencil_rows(a, b, s)).det()
            assert det.times_term(*unit) == want, (word, cut)
            if packed is not None:
                assert packed == det, (word, cut)
                packed_cuts += 1
    assert packed_cuts >= 50


@pytest.mark.parametrize("length", (10, 9))
def test_the_pencil_of_every_cut_of_the_eight_strand_word(length):
    # the 8-strand word and its 9-letter prefix, both parities of L, whose
    # 28 x 28 pencils pack at no cut: the cut krammer_fraction takes is
    # compared exactly (a Laurent det of about 1 s), and every cut mod the
    # prime 2^61 - 1 at one point (t, q), against the closure of the whole
    # word
    word = W(8, EIGHT.letters[:length])
    rep, _, _ = inv._krammer_data(8)
    s = (-1) ** length
    want = inv._laurent_closure(rep, word.letters, s)
    prime, t0, q0 = 2 ** 61 - 1, 1234567, 7654321
    for cut in range(length + 1):
        a, b, (c, et, eq) = inv._pencil(rep, word.letters, s, cut)
        assert packed_det(a, b, s) is None
        rows = _pencil_rows(a, b, s)
        unit = c * pow(t0, et, prime) * pow(q0, eq, prime)
        assert det_mod_prime(rows, t0, q0, prime) * unit % prime == \
            det_mod_prime([[want]], t0, q0, prime), cut
        if cut == (length + 1) // 2:
            assert PolyMatrix._wrap(rows).det().times_term(c, et, eq) == want


def test_the_determinant_of_an_lk_letter_is_the_pencil_unit():
    # det lk(sigma_i^+-1) = ((-1)^n t^n q)^+-1 on n = 2..16 strands, the
    # factor _pencil multiplies once per letter of v
    for n in range(2, 17):
        rep = lk(n)
        for i in range(1, n):
            assert rep.sigma(i).det() == LaurentPoly.monomial((-1) ** n, n, 1), (n, i)
            assert rep.sigma(-i).det() == LaurentPoly.monomial((-1) ** n, -n, -1), (n, i)


def test_krammer_fraction_takes_the_pencil_or_the_whole_closure_with_one_value(monkeypatch):
    # seeded words on 3..5 strands: the pencil packs for some and not for
    # others, which fall back to the closure of the whole word; either way
    # the fraction is the ratio of the whole word's closure
    rng = random.Random(3131)
    words = [W(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(6, 16))])
             for n in (3, 4, 5) for _ in range(50)]
    paths = collections.Counter()

    def counted(a, b, s):
        d = packed_det(a, b, s)
        paths["fallback" if d is None else "pencil"] += 1
        return d

    monkeypatch.setattr(inv, "packed_det", counted)
    for word in words:
        got = inv.krammer_fraction(word)
        reduced = word.free_reduce(cyclic=True)
        rep, den, _ = inv._krammer_data(word.strands)
        s = (-1) ** len(reduced.letters)
        want = PolyFraction(inv._laurent_closure(rep, reduced.letters, s), den)
        assert got.fraction == want, word
        assert got.collapsed == (got.fraction.num if got.fraction.is_polynomial() else None)
    assert paths["pencil"] >= 20 and paths["fallback"] >= 20, paths
