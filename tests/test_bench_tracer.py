"""The per-layer tracer of the benchmark harness, run against this source tree.

bench/tracer.py wraps library functions by name (the representation
builders, sym_power, char_poly, the invariants).  A rename in the library
would otherwise surface only in a traced benchmark run, so one traced
krammer_fraction runs here, in a fresh interpreter: install() patches
classes and modules for the life of the process.
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
invariants.krammer_fraction(BraidWord.parse("1 1 1", 2))
for name in ("invariants.krammer_fraction", "reps.build", "polymatrix.det"):
    print(name, tracer.calls[name])
"""


def test_tracer_installs_and_counts_one_krammer_fraction():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "src"), str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n") == ["invariants.krammer_fraction 1", "reps.build 1",
                                       "polymatrix.det 2", ""]
