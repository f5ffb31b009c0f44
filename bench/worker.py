"""One benchmark worker process: set up, run one workload, check it, report.

Started by run.py from the root of a checkout, one worker at a time:

    worker.py --workload W --seed N --mode setup|timed|table
              [--seconds S] [--blocks B] [--traced] --launch T

`setup` stops at the point where the first operation would start; `timed`
runs whole blocks and stops at the block boundary nearest to --seconds;
`table` runs exactly --blocks blocks, so that a traced run repeats exactly.  T is the CLOCK_MONOTONIC time
at which the parent launched this process.  The last line of standard output
is one JSON object.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def latency_summary(durations):
    return {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": statistics.median(durations) * 1000.0,
        "op_p90_ms": statistics.quantiles(durations, n=10)[8] * 1000.0,
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "table"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--blocks", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import braidrep
    if os.path.dirname(os.path.abspath(braidrep.__file__)) != os.path.join(src, "braidrep"):
        sys.exit("braidrep was imported from %s, not from %s" % (braidrep.__file__, src))
    from hostspeed import probe, scaled
    from workloads import WORKLOADS, CliOneshot
    from tracer import Tracer

    wl = WORKLOADS[args.workload](args.seed, root, traced=args.traced)
    blocks = wl.blocks()
    block = next(blocks)
    setup_s = clock() - args.launch
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.traced:
        tracer = Tracer()
        if not isinstance(wl, CliOneshot):
            tracer.install()

    failed = 0
    reasons = []
    tally = {"invariant_errors": 0, "krammer_zero": 0, "krammer_ops": 0}
    durations = []
    probes = []
    nblocks = 0
    # Each output is checked right after its operation and then dropped, so
    # memory does not grow with the operations done.  Checking time is left
    # out of the run length, so that the oracle's cost does not change how
    # many operations a run measures.
    checking_s = 0.0
    start = clock()
    deadline = start + args.seconds
    while True:
        block_start = clock()
        block_checking_s = checking_s
        for op in block:
            op_id = len(durations)
            if tracer is not None:
                tracer.op_id = op_id
            probes.append(probe())
            t0 = time.perf_counter()
            try:
                outcome = wl.run(op)
            except Exception as exc:  # any unexpected exception is a failed op
                outcome = Failure("%s: %s" % (type(exc).__name__, exc))
            durations.append(time.perf_counter() - t0)
            check_start = clock()
            if tracer is not None and isinstance(outcome, dict) and "trace" in outcome:
                tracer.merge(outcome.pop("trace"), op_id)
            why = verdict(wl, op, outcome, tally)
            if why:
                failed += 1
                if len(reasons) < 5:
                    reasons.append("%r: %s" % (op, why))
            checking_s += clock() - check_start
        nblocks += 1
        if args.mode == "timed":
            # stop at the block boundary nearest to the deadline
            now = clock() - checking_s
            block_s = now - (block_start - block_checking_s)
            if nblocks >= wl.min_blocks and now + block_s / 2 >= deadline:
                break
        elif nblocks >= args.blocks:
            break
        block = next(blocks)
    probes.append(probe())
    wall_s = clock() - start
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliOneshot) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    out = {
        "setup_s": setup_s,
        "ops": len(durations),
        "failed": failed,
        "reasons": reasons,
        "blocks": nblocks,
        "wall_s": wall_s,
        "checking_s": checking_s,
        "busy_s": sum(durations),
        "probe_median_s": statistics.median(probes),
        "peak_rss_mb": peak_rss_mb,
        "raw": latency_summary(durations),
    }
    out.update(latency_summary(scaled(durations, probes)))
    out.update(tally)
    if tracer is not None:
        out["trace"] = {k: list(v) for k, v in tracer.metrics().items()}
        if args.trace_out:
            tracer.write_spans(args.trace_out)
    print(json.dumps(out))


def verdict(wl, op, outcome, tally):
    """Why the outcome of op is wrong ("" when it is right); counts degenerate results."""
    from braidrep.invariants import InvariantError
    if isinstance(outcome, Failure):
        return outcome.text
    if isinstance(outcome, InvariantError):
        tally["invariant_errors"] += 1
    elif op[0] == "krammer":
        tally["krammer_ops"] += 1
        tally["krammer_zero"] += outcome.fraction.num.is_zero()
    try:
        return wl.check(op, outcome)
    except Exception as exc:  # a check that cannot run fails the op
        return "check raised %s: %s" % (type(exc).__name__, exc)


class Failure:
    def __init__(self, text):
        self.text = text


if __name__ == "__main__":
    main()
