"""Scaling ladders: time one operation at growing sizes until a step hits a cap.

Run from the root of a source checkout:

    python3 bench/ladder.py

Each ladder grows its size parameter one step at a time and stops after the
first step slower than CAP_S, so a faster commit climbs further instead of
the ladder being shrunk.  Every step prints one JSON line
{"layer", "case", "size", "seconds"}.  This mode has no gate and reports no
end-to-end metric; it gives scaling changes their before and after rows.
"""

import itertools
import json
import os
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import reduced_word  # noqa: E402

CAP_S = 3.0
SEED = 1
WORD_LENGTHS = (6, 12, 24, 48)
LADDER_WORDS = 3


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def climb(layer, case, sizes, step):
    for size in sizes:
        seconds = step(size)
        print(json.dumps({"layer": layer, "case": case, "size": size, "seconds": seconds}),
              flush=True)
        if seconds > CAP_S:
            return


def main():
    from braidrep import BraidWord, PolyMatrix, alexander, krammer_fraction, lk
    from braidrep.polymatrix import sym_power
    from braidrep.reps import verify_humphry, verify_lk_equivalence

    shear = PolyMatrix([[1, 1], [0, 1]])
    climb("polymatrix", "sym_power([[1,1],[0,1]], m)", itertools.count(1),
          lambda m: timed(sym_power, shear, m))
    climb("reps", "lk(n) build", itertools.count(3), lambda n: timed(lk, n))
    climb("reps", "verify_lk_equivalence(n)", itertools.count(3),
          lambda n: timed(verify_lk_equivalence, n))
    climb("reps", "verify_humphry(max_power)", itertools.count(1),
          lambda m: timed(verify_humphry, m))
    for name, fn, n in (("krammer_fraction", krammer_fraction, 4),
                        ("krammer_fraction", krammer_fraction, 5),
                        ("alexander", alexander, 5), ("alexander", alexander, 7)):
        rng = random.Random("ladder:%d:%s:%d" % (SEED, name, n))

        def median_time(length):
            words = [BraidWord(n, reduced_word(rng, n, length)) for _ in range(LADDER_WORDS)]
            return statistics.median(timed(fn, w) for w in words)
        climb("invariants", "%s, median of %d words, n=%d, L" % (name, LADDER_WORDS, n),
              WORD_LENGTHS, median_time)


if __name__ == "__main__":
    main()
