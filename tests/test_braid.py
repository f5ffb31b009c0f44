import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidrep.laurent import T
from braidrep.braid import (MAX_WORD_LETTERS, BraidWord, CheckReport,
                            check_braid_relations)
from braidrep.reps import burau_reduced, burau_unreduced


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
