import json
import shlex
import sys
from pathlib import Path

import pytest

import braidrep.cli as cli
from braidrep.braid import CheckReport

README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        cli.main(list(argv))
    out = capsys.readouterr()
    return e.value.code, out.out, out.err


def test_rep_burau_two_strands(capsys):
    code, out, _ = run(capsys, "rep", "--strands", "2", "--rep", "burau")
    assert code == 0
    assert out == "sigma_1 ->\n[-t + 1, t]\n[1, 0]\n"


def test_rep_lk_three_strands(capsys):
    code, out, _ = run(capsys, "rep", "--strands", "3", "--rep", "lk")
    assert code == 0
    assert "[t^2*q, 0, t^2 - t]" in out
    assert "sigma_2 ->" in out
    assert "[0, t^2*q - t*q, t^2*q]" in out


def test_rep_json(capsys):
    code, out, _ = run(capsys, "rep", "--strands", "3", "--rep", "sym2q",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["dim"] == 3
    assert len(doc["generators"]) == 2
    assert doc["generators"][0]["rows"] == 3


def test_rep_word_image(capsys):
    code, out, _ = run(capsys, "rep", "--strands", "2", "--rep", "reduced-burau",
                       "--form", "conjugated", "--word", "1 1 1")
    assert code == 0
    assert out.strip() == "[-t^3]"


def test_rep_word_image_latex(capsys):
    code, out, _ = run(capsys, "rep", "--strands", "2", "--rep", "reduced-burau",
                       "--word", "1 1 1", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{pmatrix}")


def test_rep_qpascal(capsys):
    code, out, _ = run(capsys, "rep", "--rep", "qpascal", "--dim", "1",
                       "--lambda=-t,1")
    assert code == 0
    assert "[-t, 1]" in out and "[t, -t]" in out


def test_rep_qpascal_dim_mismatch(capsys):
    code, _, err = run_exit(capsys, "rep", "--rep", "qpascal", "--dim", "2",
                            "--lambda=-t,1")
    assert code == 2
    assert "does not match" in err


def test_rep_qpascal_unbalanced(capsys):
    code, _, err = run_exit(capsys, "rep", "--rep", "qpascal", "--dim", "2",
                            "--lambda=t,1,1")
    assert code == 2
    assert "unbalanced" in err


@pytest.mark.parametrize("spec,pos", [("t^x,1", 1), ("2 t,1", 2)])
def test_rep_qpascal_malformed_lambda(capsys, spec, pos):
    code, out, err = run_exit(capsys, "rep", "--rep", "qpascal", "--lambda=" + spec)
    assert code == 2 and out == ""
    assert "position %d" % pos in err


@pytest.mark.parametrize("spec, r", [("t,,1", 1), (",t,1", 0), ("t,-t, ", 2)])
def test_rep_qpascal_names_an_empty_lambda_entry(capsys, spec, r):
    code, out, err = run_exit(capsys, "rep", "--rep", "qpascal", "--lambda=" + spec)
    assert (code, out, err) == (2, "", "braidrep: --lambda entry lambda_%d is empty\n" % r)


def test_rep_qpascal_rejects_the_conjugated_form(capsys):
    code, out, err = run_exit(capsys, "rep", "--rep", "qpascal", "--form", "conjugated",
                              "--lambda=t^2,-t,1")
    assert (code, out, err) == (2, "", "braidrep: unknown form 'conjugated'\n")


# Unicode decimal digits are not numerals, and an ASCII digit run longer than
# Python's int conversion limit is stopped by the parsers, with a position or
# a token, before Python's own conversion error.
LONG = "1" * 5000


@pytest.mark.parametrize("argv,message", [
    (["--rep", "qpascal", "--lambda=t^\u0663,1"], "cannot read a term at position 1"),
    (["--rep", "qpascal", "--lambda=\u0662*t,t^-1"], "cannot read a term at position 0"),
    (["--rep", "qpascal", "--lambda=t^%s,1" % LONG], "cannot read a term at position 4302"),
    (["--rep", "qpascal", "--lambda=%s,1" % LONG], "cannot read a term at position 4300"),
    (["--strands", "3", "--rep", "burau", "--word", "\u0661 -\u0662"],
     "cannot read braid token '\u0661' (token 0)"),
    (["--strands", "3", "--rep", "burau", "--word", "1 " + LONG],
     "cannot read braid token '%s' (token 1)" % LONG),
    (["--strands", "3", "--rep", "burau", "--word", "s1^" + LONG],
     "cannot read braid token 's1^%s' (token 0)" % LONG),
], ids=("lambda-unicode-exponent", "lambda-unicode-coefficient", "lambda-long-exponent",
        "lambda-long-coefficient", "word-unicode", "word-long-letter", "word-long-exponent"))
def test_numerals_are_bounded_ascii(capsys, argv, message):
    code, out, err = run_exit(capsys, "rep", *argv)
    assert code == 2 and out == ""
    assert message in err and "Exceeds the limit" not in err


# A --lambda exponent that parses can still yield word-image exponents past
# Python's int printing limit; such an entry is refused before any building.
@pytest.mark.parametrize("exponent, word, digits", [
    ("9" * 4300, "1 1", 4300),
    ("9" * 4299, " ".join(["1"] * 12), 4299),
    (str(cli.MAX_LAMBDA_EXPONENT + 1), "1 1", 4296),
], ids=("4300-digits", "4299-digits-12-letters", "bound-plus-one"))
def test_lambda_exponent_is_bounded(capsys, monkeypatch, exponent, word, digits):
    monkeypatch.setattr(cli, "reps", None)
    code, out, err = run_exit(capsys, "rep", "--rep", "qpascal",
                              "--lambda=t^%s,1" % exponent, "--word", word)
    assert (code, out) == (2, "")
    assert err == ("braidrep: --lambda entry lambda_0 has an exponent of %d digits, too large "
                   "to print in the image of a word of up to 10000 letters\n" % digits)


def test_lambda_exponent_at_the_bound_still_prints(capsys):
    e = cli.MAX_LAMBDA_EXPONENT
    code, out, _ = run(capsys, "rep", "--rep", "qpascal", "--lambda=t^%d,1" % e, "--word", "1 1")
    assert code == 0
    assert out.startswith("[t^%d, t^%d + 1]\n" % (2 * e, e))


def test_rep_lie_power(capsys):
    code, out, _ = run(capsys, "rep", "--rep", "lie", "--power", "1")
    assert code == 0
    assert "[-t, t]" in out
    assert run(capsys, "rep", "--rep", "lie", "--power", "1", "--strands", "3") == (0, out, "")


@pytest.mark.parametrize("argv", [
    ("rep", "--rep", "lie", "--power", "2", "--strands", "5"),
    ("verify", "--check", "braid-relations", "--rep", "lie", "--power", "2", "--strands", "6"),
], ids=("rep", "verify"))
def test_rep_lie_power_on_other_strands_is_usage_error(capsys, argv):
    code, out, err = run_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "braidrep: the symmetric-power family lives on 3 strands\n"


def test_invariant_alexander(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "2",
                       "--invariant", "alexander", "--word", "1 1 1")
    assert code == 0
    assert out.strip() == "t^2 - t + 1"


def test_invariant_krammer(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "2",
                       "--invariant", "krammer", "--word", "1 1 1")
    assert code == 0
    assert out.strip() == "t^4*q^2 - t^2*q + 1"


def test_invariant_empty_word(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "3",
                       "--invariant", "alexander", "--word", "")
    assert code == 0
    assert out.strip() == "0"


DEGENERATE_NOTE = ("braidrep: note: det(rho(word) - I) = 0, so the value is 0: the image "
                   "of the word has eigenvalue 1, as for every word of even length that "
                   "misses a generator, but not only then (the figure-eight knot 1 -2 1 -2 "
                   "is conjugate to its inverse, and its Krammer value is 0)\n")
ALEXANDER_ZERO_NOTE = ("braidrep: note: det(rho(word) - I) = 0, so the value is 0: the image "
                       "of the word has eigenvalue 1, so the closure has at least two "
                       "components (a knot's Alexander polynomial is +-1 at t = 1)\n")
ZERO_NOTES = {"alexander": ALEXANDER_ZERO_NOTE, "krammer": DEGENERATE_NOTE}


@pytest.mark.parametrize("invariant", ("alexander", "krammer"))
@pytest.mark.parametrize("fmt, shown", [
    ("text", "0\n"),
    ("latex", "0\n"),
    ("json", None),
])
def test_degenerate_zero_is_explained_on_stderr(capsys, invariant, fmt, shown):
    code, out, err = run(capsys, "invariant", "--strands", "3", "--invariant", invariant,
                         "--word", "", "--format", fmt)
    assert code == 0
    if shown is not None:
        assert out == shown
    else:
        doc = json.loads(out)
        assert sorted(doc) == ["collapsed", "den", "invariant", "num", "schema"]
        assert doc["num"] == [] and doc["collapsed"] == []
    assert err == ZERO_NOTES[invariant]


def test_figure_eight_krammer_zero_is_explained(capsys):
    # a knot, not a split closure: the word is conjugate to its inverse
    code, out, err = run(capsys, "invariant", "--strands", "3", "--invariant", "krammer",
                         "--word", "1 -2 1 -2")
    assert (code, out, err) == (0, "0\n", DEGENERATE_NOTE)
    code, out, err = run(capsys, "invariant", "--strands", "3", "--invariant", "alexander",
                         "--word", "1 -2 1 -2")
    assert (code, out, err) == (0, "t^2 - 3*t + 1\n", "")


@pytest.mark.parametrize("invariant", ("alexander", "krammer"))
def test_trefoil_prints_no_note(capsys, invariant):
    code, _, err = run(capsys, "invariant", "--strands", "2", "--invariant", invariant,
                       "--word", "1 1 1")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("invariant", ("alexander", "krammer"))
def test_invariant_without_strands_is_usage_error(capsys, invariant):
    code, out, err = run_exit(capsys, "invariant", "--invariant", invariant, "--word", "1 1 1")
    assert code == 2
    assert out == ""
    assert "--strands" in err


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "2",
                       "--invariant", "krammer", "--word", "1 1 1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["invariant"] == "krammer"
    assert doc["collapsed"] == [{"c": 1, "et": 4, "eq": 2},
                                {"c": -1, "et": 2, "eq": 1},
                                {"c": 1, "et": 0, "eq": 0}]
    assert doc["den"] == [{"c": 1, "et": 0, "eq": 0}]


def test_invariant_alexander_json(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "2",
                       "--invariant", "alexander", "--word", "1 1 1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # the raw determinant ratio (t^3 + 1)/(t + 1) cancels on construction
    assert doc["num"] == [{"c": 1, "et": 2, "eq": 0},
                          {"c": -1, "et": 1, "eq": 0},
                          {"c": 1, "et": 0, "eq": 0}]
    assert doc["den"] == [{"c": 1, "et": 0, "eq": 0}]
    assert doc["collapsed"] == doc["num"]


def test_invariant_latex(capsys):
    code, out, _ = run(capsys, "invariant", "--strands", "2",
                       "--invariant", "alexander", "--word", "1 1 1",
                       "--format", "latex")
    assert code == 0
    assert out.strip() == "t^{2} - t + 1"


def test_invariant_bad_word_is_usage_error(capsys):
    code, _, err = run_exit(capsys, "invariant", "--strands", "2",
                            "--invariant", "alexander", "--word", "1 x")
    assert code == 2
    assert "token" in err


def test_invariant_out_of_range_letter(capsys):
    code, _, err = run_exit(capsys, "invariant", "--strands", "2",
                            "--invariant", "alexander", "--word", "2")
    assert code == 2
    assert "out of range" in err


def test_verify_braid_relations(capsys):
    code, out, _ = run(capsys, "verify", "--strands", "4",
                       "--check", "braid-relations", "--rep", "lk")
    assert code == 0
    assert "braid-relations" in out and "PASS" in out


def test_verify_lk_equivalence_json(capsys):
    code, out, _ = run(capsys, "verify", "--strands", "3",
                       "--check", "lk-equivalence", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["passed"] is True
    assert doc["results"]


def test_verify_markov1(capsys):
    code, out, _ = run(capsys, "verify", "--strands", "3", "--check", "markov1",
                       "--word", "1 1 2", "--conjugators", "2; 1 -2")
    assert code == 0
    assert "markov1" in out


@pytest.mark.parametrize("conjugators,message", [
    ("", "entry 1 of 1 is empty"),
    ("2;", "entry 2 of 2 is empty"),
    (";", "entry 1 of 2 is empty"),
    ("2; ;1 -2", "entry 2 of 3 is empty"),
])
def test_verify_markov1_rejects_an_empty_conjugator(capsys, conjugators, message):
    # an empty piece would parse as the identity braid, a case that cannot fail
    code, out, err = run_exit(capsys, "verify", "--strands", "3", "--check", "markov1",
                              "--word", "1 1 2", "--conjugators", conjugators)
    assert (code, out, err) == (2, "", "braidrep: --conjugators %s\n" % message)


def test_verify_markov2_probe(capsys):
    code, out, _ = run(capsys, "verify", "--strands", "2",
                       "--check", "markov2-probe", "--word", "1 1 1")
    assert code == 0
    assert "stabilized" in out


def test_verify_missing_rep_is_usage_error(capsys):
    code, _, err = run_exit(capsys, "verify", "--strands", "3",
                            "--check", "braid-relations")
    assert code == 2
    assert "needs --rep" in err


def test_verify_has_no_latex_format(capsys):
    code, out, err = run_exit(capsys, "verify", "--strands", "3",
                              "--check", "spectrum", "--format", "latex")
    assert code == 2 and out == ""
    assert "invalid choice: 'latex'" in err


def test_verify_missing_word_is_usage_error(capsys):
    code, _, err = run_exit(capsys, "verify", "--strands", "3",
                            "--check", "markov1")
    assert code == 2


def test_failed_check_exits_one(capsys, monkeypatch):
    bad = CheckReport("stub")
    bad.add("broken case", False)
    monkeypatch.setattr(cli, "check_braid_relations", lambda rep: bad)
    code, out, _ = run(capsys, "verify", "--strands", "3",
                       "--check", "braid-relations", "--rep", "burau")
    assert code == 1
    assert "FAIL broken case" in out


@pytest.mark.parametrize("owner, name, exc, argv", [
    (cli, "krammer_fraction", ZeroDivisionError("exact_div by zero polynomial"),
     ("invariant", "--strands", "3", "--invariant", "krammer", "--word", "1 1 1")),
    (cli.reps, "lk", ArithmeticError("matrix is singular over the Laurent ring"),
     ("rep", "--strands", "3", "--rep", "lk", "--word", "1 -2")),
], ids=("ZeroDivisionError", "ArithmeticError"))
def test_arithmetic_error_exits_one_with_a_message(capsys, monkeypatch, owner, name, exc, argv):
    def fail(*args):
        raise exc

    monkeypatch.setattr(owner, name, fail)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "braidrep: %s\n" % exc


def test_over_long_word_is_usage_error(capsys):
    code, out, err = run_exit(capsys, "rep", "--rep", "lie", "--strands", "3",
                              "--word", "s1^100000000")
    assert code == 2
    assert out == ""
    assert "s1^100000000" in err


@pytest.mark.parametrize("argv, named", [
    (("rep", "--strands", "17", "--rep", "burau"), "--strands"),
    (("rep", "--strands", "100000", "--rep", "burau"), "--strands"),
    (("verify", "--strands", "17", "--check", "lk-equivalence"), "--strands"),
    (("invariant", "--strands", "17", "--invariant", "alexander", "--word", ""), "--strands"),
    (("rep", "--rep", "lie", "--power", "17"), "--power"),
    (("rep", "--rep", "qpascal", "--lambda=" + ",".join(["1"] * 18)), "--lambda"),
    (("verify", "--check", "humphry", "--max-power", "17"), "--check humphry"),
    (("verify", "--check", "humphry", "--max-power", "-1"), "--check humphry"),
])
def test_oversized_request_is_usage_error(capsys, monkeypatch, argv, named):
    # a request past a bound must be refused before any representation is built
    monkeypatch.setattr(cli, "reps", None)
    code, out, err = run_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err


def test_largest_strand_count_still_builds(capsys):
    code, out, _ = run(capsys, "rep", "--strands", str(cli.MAX_SIZE), "--rep", "burau")
    assert code == 0
    assert out.count("sigma_") == cli.MAX_SIZE - 1


def test_largest_humphry_power_runs(capsys):
    code, out, _ = run(capsys, "verify", "--check", "humphry", "--max-power", str(cli.MAX_SIZE))
    assert code == 0
    lines = out.splitlines()
    assert sum(line.startswith("PASS m=") for line in lines) == 4 * cli.MAX_SIZE == 64
    assert lines[-1] == "humphry(max_power=16): PASS"


def test_strands_lower_bound(capsys):
    code, _, err = run_exit(capsys, "rep", "--strands", "1", "--rep", "burau")
    assert code == 2
    assert "at least 2" in err


def test_unknown_check_rejected_by_argparse(capsys):
    code, _, _ = run_exit(capsys, "verify", "--check", "nonsense")
    assert code == 2


def test_missing_strands_for_burau(capsys):
    code, _, err = run_exit(capsys, "rep", "--rep", "burau")
    assert code == 2
    assert "--strands" in err


@pytest.mark.parametrize("argv, check", [
    (("verify", "--check", "humphry", "--max-power", "0"), "humphry"),
    (("verify", "--strands", "2", "--check", "braid-relations", "--rep", "burau"),
     "braid-relations"),
])
def test_check_with_no_cases_is_usage_error(capsys, argv, check):
    code, out, err = run_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--check %s" % check in err


def readme_examples():
    """(argv, expected stdout lines or None) for every `$ braidrep` line of
    README.md; output lines shown under a command run up to the next command
    or the end of the code block, without trailing blank lines."""
    examples = []
    in_block = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ braidrep "):
            current = [shlex.split(line[len("$ braidrep "):]), []]
            examples.append(current)
        elif in_block and current is not None:
            current[1].append(line)
    for _argv, out in examples:
        while out and not out[-1].strip():
            out.pop()
    return [(argv, out or None) for argv, out in examples]


def test_readme_examples_run_as_shown(capsys):
    examples = readme_examples()
    assert len(examples) >= 10 and sum(out is not None for _, out in examples) >= 3
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expected is not None:
            assert out == "\n".join(expected) + "\n", argv


def test_readme_python_block_prints_its_comments():
    """Each `print(...)  # value` line of README's Library example prints value."""
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    printed = {}

    def record(*args):
        printed[sys._getframe(1).f_lineno] = " ".join(str(a) for a in args)

    exec(compile(block, "README.md", "exec"), {"print": record})
    expected = {n: line.split("#", 1)[1].strip()
                for n, line in enumerate(block.splitlines(), 1) if "#" in line}
    assert len(expected) >= 3
    assert {n: printed.get(n) for n in expected} == expected
