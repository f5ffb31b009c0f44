"""The per-layer tracer of the benchmark harness, run against this source tree.

bench/tracer.py wraps library functions by name (the representation
builders, sym_power, char_poly, the invariants).  A rename in the library
would otherwise surface only in a traced benchmark run, so a few traced
invariant calls run here, in a fresh interpreter: install() patches
classes and modules for the life of the process.  The counts also pin the
per-n closure data: repeated calls on one strand count build nothing twice
(build_repeats feeds the harness's reps.build.repeat_frac).  The tracer
counts divisions by wrapping laurent.exact_div, so the division count
pins that every division, the one-term path included, goes through it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.path[:0] = sys.argv[1:]
from braidrep import invariants
from braidrep.braid import BraidWord
from tracer import Tracer

tracer = Tracer()
tracer.install()
word = BraidWord.parse("1 1 1", 2)
invariants.krammer_fraction(word)
invariants.krammer_fraction(word)
invariants.alexander(word)
invariants.krammer_fraction(BraidWord.parse("1 2 -1 2", 3))
invariants.krammer_fraction(BraidWord.parse("1", 3))
for name in ("invariants.krammer_fraction", "reps.build", "polymatrix.det", "laurent.exact_div"):
    print(name, tracer.calls[name])
print("build_repeats", tracer.counts["build_repeats"])
"""


def test_tracer_installs_and_counts_one_krammer_fraction():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # three builds (lk(2), reduced Burau, lk(3)); two dets, the Krammer
    # sweep denominators: the four Krammer numerators are pencils of two
    # half-word images whose every block packs, so polymatrix.packed_det
    # takes them, not PolyMatrix.det, and the Alexander determinants are
    # integer linear algebra.  Eight divisions: one per Krammer canonical
    # fraction whose numerator every binomial factor of the denominator
    # divides (the first three, whose values are polynomials), none for
    # sigma_1 on 3 strands, which neither factor divides, so its division
    # is ruled out before it is tried, and five by the one-term pivot t in
    # the Gauss-Jordan inverse of lk(3)'s sigma_2, the inverse letter of
    # v^-1 for v = -1 2, the second half of 1 2 -1 2.  The 3 x 3 dets are
    # packed into ints and divide with //, and the Alexander quotient is an
    # integer division at t = 2^K, neither with exact_div
    assert done.stdout.split("\n") == ["invariants.krammer_fraction 4", "reps.build 3",
                                       "polymatrix.det 2", "laurent.exact_div 8",
                                       "build_repeats 0", ""]
