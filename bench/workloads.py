"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload is an endless stream of blocks.  A block has a fixed
composition (which operations at which sizes); the seed picks the braid words
inside it and their order.  A run always ends on a block boundary, so every
run sees the same mix of operation kinds whatever its speed or seed, and
throughput compares like with like.  Words are freely reduced, so a word of
length L really has L letters, and they are never filtered by cost: words
whose invariant is degenerate or whose determinant is expensive stay in.
"""

import json
import os
import random
import subprocess
import sys

from oracle import Oracle

# Sizes.  Chosen so that each operation kind reaches its target layer and a
# 25-second run completes well over 100 operations on every workload.
# alexander runs twice at n=5, so that the median of a block's 8 operations
# falls between two calls of one kind rather than on a gap between two kinds.
ALEXANDER_STRANDS = (3, 4, 5, 5, 6, 7)
ALEXANDER_LENGTHS = (4, 20)
KRAMMER_SMALL = ((3, (4, 10)), (4, (4, 6)))
KRAMMER_LARGE = (4, 6)
MARKOV1_WORDS = 80
MARKOV1_LENGTHS = (3, 4)
MARKOV2_WORDS = 24
MARKOV2_LENGTH = 2
HUMPHRY_MAX_POWER = 8
CLI_LENGTHS = (3, 8)
CLI_SHORT_LENGTHS = (2, 4)
CLI_TIMEOUT_S = 60


def reduced_word(rng, n, length):
    """Uniform freely reduced word: no letter is followed by its inverse."""
    out = []
    while len(out) < length:
        x = rng.choice((1, -1)) * rng.randint(1, n - 1)
        if not out or out[-1] != -x:
            out.append(x)
    return tuple(out)


def word_text(letters):
    return " ".join(str(x) for x in letters)


def default_conjugators(n):
    """sigma_1, sigma_1^-1, sigma_2, ...: the CLI's default markov1 set, in its order."""
    return [(s * i,) for i in range(1, n) for s in (1, -1)]


class Workload:
    """Base: subclasses define blocks(), run(op) and check(op, outcome)."""

    name = ""
    # blocks in a traced run per second of --seconds; sized so that the
    # untraced and the traced pass together take about half of --seconds
    trace_blocks_per_s = 1.0
    min_blocks = 1

    def __init__(self, seed, root, traced=False):
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.root = root
        self.oracle = Oracle()

    @classmethod
    def trace_blocks(cls, seconds):
        return max(1, round(cls.trace_blocks_per_s * seconds))


class InvariantBatch(Workload):
    """A table of short words swept through alexander and krammer_fraction."""

    name = "invariant-batch"
    trace_blocks_per_s = 2.5

    def blocks(self):
        while True:
            ops = []
            for n in ALEXANDER_STRANDS:
                ops.append(("alexander", n, reduced_word(self.rng, n, self.rng.randint(*ALEXANDER_LENGTHS))))
            for n, lengths in KRAMMER_SMALL:
                ops.append(("krammer", n, reduced_word(self.rng, n, self.rng.randint(*lengths))))
            self.rng.shuffle(ops)
            yield ops

    def run(self, op):
        return run_invariant(op)

    def check(self, op, outcome):
        return check_invariant(self.oracle, op, outcome)


class KrammerLarge(Workload):
    """krammer_fraction on 4-strand words long enough that the determinant dominates."""

    name = "krammer-large"
    trace_blocks_per_s = 6.0

    def blocks(self):
        n, length = KRAMMER_LARGE
        while True:
            yield [("krammer", n, reduced_word(self.rng, n, length))]

    def run(self, op):
        return run_invariant(op)

    def check(self, op, outcome):
        return check_invariant(self.oracle, op, outcome)


class VerifySuite(Workload):
    """The identity checks; one block is the whole suite plus seeded Markov words."""

    name = "verify-suite"
    min_blocks = 2
    trace_blocks_per_s = 0.08

    FIXED = (
        [("humphry", HUMPHRY_MAX_POWER)]
        + [("lk-equivalence", n) for n in (3, 4, 5, 6)]
        + [("spectrum", n) for n in (3, 4, 5)]
        + [("ext-square", 0)]
        + [("stability", n) for n in (3, 4, 5, 6)]
        + [("braid-relations", "lk", n) for n in (3, 4, 5)]
        + [("braid-relations", "sym2q", n) for n in (3, 4, 5)]
    )

    def blocks(self):
        # Six fixed checks cost more than any Markov check, and half of the
        # length-2 markov2 words cost 23-27 ms.  With these counts the 90th
        # percentile falls inside that dense band and the median inside the
        # markov1 cluster, not on a gap between two groups of checks.
        rng = self.rng
        while True:
            ops = list(self.FIXED)
            ops += [("markov1", 3, reduced_word(rng, 3, rng.randint(*MARKOV1_LENGTHS)))
                    for _ in range(MARKOV1_WORDS)]
            ops += [("markov2", 3, reduced_word(rng, 3, MARKOV2_LENGTH))
                    for _ in range(MARKOV2_WORDS)]
            rng.shuffle(ops)
            yield ops

    def run(self, op):
        from braidrep import reps
        from braidrep.braid import BraidWord, check_braid_relations
        from braidrep.invariants import markov1_test, markov2_probe
        kind = op[0]
        if kind == "humphry":
            return reps.verify_humphry(op[1])
        if kind == "lk-equivalence":
            return reps.verify_lk_equivalence(op[1])
        if kind == "spectrum":
            return reps.verify_spectrum(op[1])
        if kind == "ext-square":
            return reps.verify_ext_square()
        if kind == "stability":
            return reps.verify_stability(op[1])
        if kind == "braid-relations":
            build = reps.lk if op[1] == "lk" else reps.sym2_quantized
            return check_braid_relations(build(op[2]))
        n, letters = op[1], op[2]
        word = BraidWord(n, letters)
        if kind == "markov1":
            return markov1_test(word, [BraidWord(n, g) for g in default_conjugators(n)])
        return markov2_probe(word)

    def check(self, op, outcome):
        # A report with no cases proves nothing, so it counts as a failure.
        if not outcome.entries:
            return "report has no cases"
        if not outcome.passed:
            return "failed cases: %s" % "; ".join(outcome.failures())
        return ""


class CliOneshot(Workload):
    """One `python -m braidrep.cli` process per small request, one at a time."""

    name = "cli-oneshot"
    trace_blocks_per_s = 0.25

    def __init__(self, seed, root, traced=False):
        super().__init__(seed, root)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.traced = traced
        self._relations = {}
        if traced:
            self.cmd = [sys.executable, os.path.join(root, "bench", "cli_shim.py")]
        else:
            self.cmd = [sys.executable, "-m", "braidrep.cli"]

    def blocks(self):
        # Five cheap requests, two Markov checks and one heavy one per block:
        # the median then falls inside the cheap group and the 90th
        # percentile inside the heavy one, never on a boundary between groups.
        rng = self.rng
        while True:
            ops = [("invariant", "alexander", n, reduced_word(rng, n, rng.randint(*CLI_LENGTHS)))
                   for n in (3, 4)]
            ops += [("invariant", "krammer", n, reduced_word(rng, n, rng.randint(*lengths)))
                    for n, lengths in ((3, CLI_LENGTHS), (4, CLI_SHORT_LENGTHS))]
            ops += [(check, None, 3, reduced_word(rng, 3, rng.randint(*CLI_SHORT_LENGTHS)))
                    for check in ("markov1", "markov2-probe")]
            ops += [("braid-relations", "lk", n, ()) for n in (3, 5)]
            rng.shuffle(ops)
            yield ops

    @staticmethod
    def argv(op):
        kind, detail, n, letters = op
        if kind == "invariant":
            return ["invariant", "--strands", str(n), "--invariant", detail,
                    "--word=" + word_text(letters), "--format", "json"]
        if kind == "braid-relations":
            return ["verify", "--strands", str(n), "--check", kind, "--rep", detail,
                    "--format", "json"]
        return ["verify", "--strands", str(n), "--check", kind,
                "--word=" + word_text(letters), "--format", "json"]

    def run(self, op):
        proc = subprocess.run(self.cmd + self.argv(op), env=self.env, cwd=self.root,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if self.traced:
            shim = json.loads(proc.stdout.splitlines()[-1])
            return {"exit": shim["exit"], "stdout": shim["stdout"], "stderr": proc.stderr,
                    "trace": shim}
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def check(self, op, outcome):
        from braidrep.braid import BraidWord, check_braid_relations
        from braidrep.invariants import markov1_test, markov2_probe
        from braidrep import reps
        if outcome["exit"] != 0:
            return "exit %s: %s" % (outcome["exit"], outcome["stderr"].strip()[-200:])
        got = json.loads(outcome["stdout"])
        kind, detail, n, letters = op
        if kind == "invariant":
            lib = run_invariant((detail, n, letters))
            why = check_invariant(self.oracle, (detail, n, letters), lib)
            if why:
                return "library result: " + why
            if detail == "alexander":
                num, den, collapsed = lib.raw_fraction.num, lib.raw_fraction.den, lib.normalized
            else:
                num, den, collapsed = lib.fraction.num, lib.fraction.den, lib.collapsed
            want = {"schema": 1, "invariant": detail, "num": num.to_json_terms(),
                    "den": den.to_json_terms(),
                    "collapsed": None if collapsed is None else collapsed.to_json_terms()}
        else:
            if kind == "braid-relations":
                if n not in self._relations:
                    self._relations[n] = check_braid_relations(reps.lk(n))
                report = self._relations[n]
            elif kind == "markov1":
                word = BraidWord(n, letters)
                report = markov1_test(word, [BraidWord(n, g) for g in default_conjugators(n)])
            else:
                report = markov2_probe(BraidWord(n, letters))
            if not report.entries or not report.passed:
                return "library report is empty or failing"
            want = {"schema": 1}
            want.update(report.to_json())
        for key in sorted(set(want) | set(got)):
            if want.get(key) != got.get(key):
                return "CLI field %r differs from the library" % key
        return ""


def run_invariant(op):
    """Compute one invariant; an InvariantError is returned, not raised."""
    from braidrep.braid import BraidWord
    from braidrep.invariants import InvariantError, alexander, krammer_fraction
    kind, n, letters = op
    word = BraidWord(n, letters)
    if kind == "krammer":
        return krammer_fraction(word)
    try:
        return alexander(word)
    except InvariantError as exc:
        return exc


def check_invariant(oracle, op, outcome):
    from braidrep.invariants import InvariantError
    kind, n, letters = op
    if isinstance(outcome, InvariantError):
        # A documented outcome of alexander, but only right when the
        # determinant ratio really is not a polynomial.
        num, den = alexander_determinants(n, letters)
        return oracle.check_alexander_error(n, letters, num, den)
    if kind == "krammer":
        return oracle.check_krammer(n, letters, outcome)
    return oracle.check_alexander(n, letters, outcome)


def alexander_determinants(n, letters):
    """The library's det(rho(word) - I) and det(rho(sweep) - I), reduced Burau."""
    from braidrep.braid import BraidWord
    from braidrep.polymatrix import PolyMatrix
    from braidrep.reps import burau_reduced, image_of_word
    rep = burau_reduced(n, "conjugated")
    eye = PolyMatrix.identity(rep.dim)
    return tuple((image_of_word(rep, BraidWord(n, w)) - eye).det()
                 for w in (letters, range(1, n)))


WORKLOADS = {w.name: w for w in (InvariantBatch, KrammerLarge, VerifySuite, CliOneshot)}
