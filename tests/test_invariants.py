import hashlib
import random

import pytest

from braidrep import invariants as inv
from braidrep.braid import BraidWord
from braidrep.laurent import ONE, PolyFraction, Q, T, ZERO, parse_poly
from braidrep.polymatrix import PolyMatrix, generalized_char_poly
from braidrep import reps
from braidrep.reps import image_of_word, lk

W = BraidWord

TREFOIL = W.parse("1 1 1", 2)


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
    # a seeded 24-letter word whose Bareiss determinant runs thousands of
    # exact divisions; the digest pins the value the long-division kernel gave
    k = inv.krammer_fraction(W.parse("1 3 2 2 3 2 -3 2 3 2 -1 -3 1 -1 -3 -3 2 -3 -3 -3 2 3 -2 2", 4))
    assert (len(k.fraction.num), len(k.fraction.den)) == (123, 4)
    assert k.collapsed is None
    assert hashlib.sha256(str(k).encode()).hexdigest() == (
        "f135a7502a85ffe508e68c2056be148d95efe5e135f05dd1f3c62bc811765a00")


def test_krammer_fraction_of_identity_words():
    kid = inv.krammer_fraction(W.identity(3))
    assert kid.fraction == PolyFraction.coerce(0)
    assert kid.collapsed == ZERO


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


def test_specialize_reports_vanishing_denominator():
    with pytest.raises(ZeroDivisionError) as e:
        inv.specialize(PolyFraction(ONE, T - ONE), t_value=1)
    assert "vanishes" in str(e.value)


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
