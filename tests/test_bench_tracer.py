"""The per-layer tracer of the benchmark harness, run against this source tree.

bench/tracer.py wraps library functions by name (the representation
builders, sym_power, char_poly, the invariants).  A rename in the library
would otherwise surface only in a traced benchmark run, so a few traced
invariant calls run here, in a fresh interpreter: install() patches
classes and modules for the life of the process.  The counts also pin the
per-n closure data: repeated calls on one strand count build nothing twice
(build_repeats feeds the harness's reps.build.repeat_frac).
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
for name in ("invariants.krammer_fraction", "reps.build", "polymatrix.det"):
    print(name, tracer.calls[name])
print("build_repeats", tracer.counts["build_repeats"])
"""


def test_tracer_installs_and_counts_one_krammer_fraction():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # two builds (lk, reduced Burau); five dets: three numerators, two sweep denominators
    assert done.stdout.split("\n") == ["invariants.krammer_fraction 2", "reps.build 2",
                                       "polymatrix.det 5", "build_repeats 0", ""]
