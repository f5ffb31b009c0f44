import hashlib
import json
import random
from fractions import Fraction

import pytest

from braidrep import invariants as inv
from braidrep import laurent
from braidrep.braid import BraidWord
from braidrep.laurent import ONE, PolyFraction, Q, T, ZERO, parse_poly
from braidrep.polymatrix import PolyMatrix, generalized_char_poly
from braidrep import reps
from braidrep.reps import image_of_word, lk
from oracles import sign_twisted_krammer_fraction

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
    rep, _den = inv._closure_data("krammer", 4)
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
        assert k == PolyFraction(num, inv._closure_data("krammer", 3)[1]), str(word)
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
    fresh, _den = inv._closure_data.__wrapped__(invariant, 3)
    compute = inv.alexander if invariant == "alexander" else inv.krammer_fraction
    aliased = "2 1 2 -1 -2 -1 2 1"
    for text in ("1", "-2", "", "2", "-2 -1", aliased):
        compute(W.parse(text, 3))
    rep, _den = inv._closure_data(invariant, 3)
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
        assert inv._det_ratio("krammer", word).den == want.den


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


def test_markov1_builds_each_representation_once(monkeypatch):
    inv._closure_data.cache_clear()
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
    inv._closure_data.cache_clear()
    stored = [_values(invariant, word) for invariant, word in plan]
    for (invariant, word), value in zip(plan, stored):
        inv._closure_data.cache_clear()
        assert _values(invariant, word) == value, (invariant.__name__, str(word))
