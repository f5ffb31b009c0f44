import json
import shlex
from pathlib import Path

import pytest

import braidrep.cli as cli
from braidrep.braid import CheckReport


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


def test_rep_lie_power(capsys):
    code, out, _ = run(capsys, "rep", "--rep", "lie", "--power", "1")
    assert code == 0
    assert "[-t, t]" in out


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


def test_over_long_word_is_usage_error(capsys):
    code, out, err = run_exit(capsys, "rep", "--rep", "lie", "--strands", "3",
                              "--word", "s1^100000000")
    assert code == 2
    assert out == ""
    assert "s1^100000000" in err


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
    README.md; output lines shown under a command run up to the next blank
    line, command or end of the code block."""
    examples = []
    in_block = False
    current = None
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ braidrep "):
            current = [shlex.split(line[len("$ braidrep "):]), []]
            examples.append(current)
        elif in_block and current is not None and line.strip():
            current[1].append(line)
        else:
            current = None
    return [(argv, out or None) for argv, out in examples]


def test_readme_examples_run_as_shown(capsys):
    examples = readme_examples()
    assert len(examples) >= 10 and sum(out is not None for _, out in examples) >= 3
    for argv, expected in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expected is not None:
            assert out == "\n".join(expected) + "\n", argv
