import random
import timeit

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidrep.laurent import T
from braidrep.braid import (MAX_WORD_LETTERS, BraidWord, CheckReport,
                            check_braid_relations)
from braidrep.invariants import markov1_test
from braidrep.polymatrix import PolyMatrix
from braidrep.reps import burau_reduced, burau_unreduced, lk
from oracles import product_image_of_word, scanned_free_reduce


def test_construction_and_range_checks():
    w = BraidWord(3, [1, -2, 1])
    assert w.strands == 3 and w.letters == (1, -2, 1)
    with pytest.raises(ValueError):
        BraidWord(3, [3])
    with pytest.raises(ValueError):
        BraidWord(3, [0])
    with pytest.raises(ValueError):
        BraidWord(1, [])
    with pytest.raises(ValueError) as e:
        BraidWord(4, [1, 2, 9])
    assert "position 2" in str(e.value)


def test_parse_signed_grammar():
    w = BraidWord.parse("1 -2 1", 3)
    assert w.letters == (1, -2, 1)
    assert BraidWord.parse("1, 2, -1", 3).letters == (1, 2, -1)
    assert BraidWord.parse("", 5) == BraidWord.identity(5)


def test_parse_symbolic_grammar():
    assert BraidWord.parse("s1 s2^-1 s1^3", 3).letters == (1, -2, 1, 1, 1)
    assert BraidWord.parse("s2^0", 3).letters == ()
    with pytest.raises(ValueError) as e:
        BraidWord.parse("s1 foo", 3)
    assert "token 1" in str(e.value)
    with pytest.raises(ValueError):
        BraidWord.parse("s0", 3)


def test_parse_rejects_over_long_words_before_building_them():
    with pytest.raises(ValueError) as e:
        BraidWord.parse("s1^100000000", 3)
    assert "'s1^100000000'" in str(e.value) and "token 0" in str(e.value)
    with pytest.raises(ValueError) as e:
        BraidWord.parse("s2^-%d 1" % MAX_WORD_LETTERS, 3)
    assert "'1' (token 1)" in str(e.value)
    w = BraidWord.parse("s1^%d" % (MAX_WORD_LETTERS - 1) + " -2", 3)
    assert len(w) == MAX_WORD_LETTERS and w.letters[-1] == -2


def test_str_round_trip():
    w = BraidWord(4, [3, -1, 2, 2])
    assert BraidWord.parse(str(w), 4) == w
    assert str(BraidWord.identity(3)) == ""


def test_multiplication_and_inverse():
    a = BraidWord(3, [1, 2])
    b = BraidWord(3, [-2])
    assert (a * b).letters == (1, 2, -2)
    assert a.inverse().letters == (-2, -1)
    assert (a * a.inverse()).free_reduce() == BraidWord.identity(3)
    with pytest.raises(ValueError):
        a * BraidWord(4, [1])


def test_conjugate():
    w = BraidWord(3, [1, 1])
    g = BraidWord(3, [2])
    assert w.conjugate(g).letters == (2, 1, 1, -2)


def test_free_reduce():
    w = BraidWord(3, [1, 2, -2, -1, 2])
    assert w.free_reduce().letters == (2,)


def test_free_reduce_cancels_past_far_letters_and_cyclically():
    # sigma_1 commutes with sigma_3 and sigma_4 but not with sigma_2
    assert BraidWord(5, [1, 3, 4, -1, 2]).free_reduce().letters == (3, 4, 2)
    assert BraidWord(5, [1, 2, -1]).free_reduce().letters == (1, 2, -1)
    assert BraidWord(5, [1, 3, 1, -3, 1]).free_reduce().letters == (1, 1, 1)
    # across the two ends: a conjugate, so only when asked for
    assert BraidWord(5, [1, 2, -1]).free_reduce(cyclic=True).letters == (2,)
    assert BraidWord(5, [3, 1, 2, -3]).free_reduce(cyclic=True).letters == (1, 2)
    assert BraidWord(5, [2, 1, -2]).free_reduce(cyclic=True).letters == (1,)
    assert BraidWord(5, [1, -2, -1]).free_reduce(cyclic=True).letters == (-2,)
    # sigma_2 stands between sigma_1 and the end, so nothing cancels
    assert BraidWord(5, [1, 3, -1, 2]).free_reduce(cyclic=True).letters == (3, 2)
    w = BraidWord(4, [1, 2, 3])
    assert w.free_reduce() is w and w.free_reduce(cyclic=True) is w


def _seeded_words(rng):
    """Words on n = 2..7 strands, L = 0..30: plain draws, draws from a few
    far-apart indices, and u w u^-1."""
    words = []
    for n in range(2, 8):
        for length in range(31):
            words.append([rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)])
            far = range(1, n, 2)
            words.append([rng.choice((1, -1)) * rng.choice(far) for _ in range(length)])
            u = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length // 3)]
            w = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length - 2 * len(u))]
            words.append(u + w + [-x for x in reversed(u)])
    return [BraidWord(max(2, max(map(abs, letters), default=1) + 1 + k % 2), letters)
            for k, letters in enumerate(words)]


def test_free_reduce_is_shortest_keeps_parity_and_is_final():
    # the search oracle finds a pair wherever one is left, so equal lengths
    # say that the linear passes leave none
    words = _seeded_words(random.Random(27))
    shorter = cyclic_shorter = 0
    for w in words:
        r, c = w.free_reduce(), w.free_reduce(cyclic=True)
        assert len(r) == len(scanned_free_reduce(w.letters)), w
        assert len(c) == len(scanned_free_reduce(w.letters, cyclic=True)), w
        assert len(w) >= len(r) >= len(c) and len(w) % 2 == len(r) % 2 == len(c) % 2, w
        assert r.free_reduce() == r and c.free_reduce() == c == c.free_reduce(cyclic=True), w
        assert r.strands == c.strands == w.strands
        shorter += len(r) < len(w)
        cyclic_shorter += len(c) < len(r)
    assert shorter > len(words) // 2 and cyclic_shorter > len(words) // 10


def test_free_reduce_keeps_the_image_and_the_closure():
    # the linear pass gives the same matrix under lk and reduced Burau, and
    # the cyclic one a conjugate, so the same closure determinant
    rng = random.Random(28)
    for n in (3, 4, 5):
        reps = (burau_reduced(n, "conjugated"), lk(n))
        for w in [wd for wd in _seeded_words(rng) if wd.strands == n][:12]:
            for rep in reps:
                eye = PolyMatrix.identity(rep.dim)
                want = product_image_of_word(rep, w)
                assert product_image_of_word(rep, w.free_reduce()) == want, (n, w)
                cyclic = product_image_of_word(rep, w.free_reduce(cyclic=True))
                assert (cyclic - eye).det() == (want - eye).det(), (n, w)


def test_free_reduce_takes_linear_time():
    # 1 (3 5)^2 -1 on 16 strands: each sigma_1 cancels with the sigma_1^-1
    # before it across the far letters, so a pass that scans back for an
    # inverse letter walks the whole kept word every time.  Four times the
    # letters must cost about four times the time, not sixteen
    pattern = [1, 3, 5, 3, 5, -1]
    words = [BraidWord(16, (pattern * 1700)[:size]) for size in (2500, 10000)]

    def best(word, cyclic):
        return min(timeit.repeat(lambda: word.free_reduce(cyclic), number=1, repeat=7))

    for cyclic in (False, True):
        small, large = (best(word, cyclic) for word in words)
        assert large < 8 * small, (cyclic, small, large)
    assert words[1].free_reduce(cyclic=True).letters == (3, 5, 3, 5) * 1666 + (1, 3, 5, 3)


def test_exponent_sum():
    assert BraidWord(3, [1, -2, 1, 1]).exponent_sum() == 2
    assert BraidWord(3, []).exponent_sum() == 0


def test_json():
    w = BraidWord(3, [1, -2])
    assert w.to_json() == {"strands": 3, "word": [1, -2]}


@given(st.integers(min_value=2, max_value=5),
       st.lists(st.integers(min_value=-4, max_value=4).filter(bool), max_size=8))
def test_word_inverse_cancels_in_burau(n, raw):
    letters = [x for x in raw if abs(x) < n]
    w = BraidWord(n, letters)
    rep = burau_unreduced(n)
    assert rep.image(w * w.inverse()) == rep.image(BraidWord.identity(n))


def test_check_report():
    r = CheckReport("demo")
    r.add("first", True)
    r.add("second", True)
    r.note("extra context")
    assert r.passed
    assert r.failures() == []
    text = str(r)
    assert "PASS first" in text and "demo: PASS" in text and "note: extra context" in text
    j = r.to_json()
    assert j["check"] == "demo" and j["passed"] is True
    assert j["results"][0] == {"case": "first", "passed": True}
    r.add("third", False)
    assert not r.passed
    assert r.failures() == ["third"]
    assert "demo: FAIL" in str(r)


def test_report_without_cases_does_not_pass():
    # B_2 has no braid relations, and markov1 with no conjugators checks nothing
    for r in (check_braid_relations(burau_reduced(2)),
              markov1_test(BraidWord.parse("1 1 1", 2), [])):
        assert r.entries == [] and not r.passed
        assert str(r).splitlines()[-1].endswith(": FAIL")
        j = r.to_json()
        assert j["passed"] is False and j["results"] == []


def test_braid_relation_checker_passes_for_burau():
    report = check_braid_relations(burau_reduced(4, "conjugated"))
    assert report.passed
    # far commutation and adjacent braid relation both appear
    labels = [e[0] for e in report.entries]
    assert any("sigma_1 sigma_3" in lab for lab in labels)
    assert any("sigma_1 sigma_2 sigma_1" in lab for lab in labels)


def test_braid_relation_checker_catches_corruption():
    rep = burau_unreduced(3)
    bad = list(rep.gen_images)
    bad[0] = bad[0].scale(T)

    class Broken:
        label = "broken"
        gen_images = bad

    assert not check_braid_relations(Broken()).passed
