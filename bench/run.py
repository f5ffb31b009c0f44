"""braidrep benchmark: one workload, its end-to-end or per-layer metrics.

Run from the root of a source checkout (the directory holding src/braidrep):

    python3 bench/run.py --workload invariant-batch --seed 1 --seconds 25 --trace 0

Workloads: invariant-batch, krammer-large, verify-suite, cli-oneshot (see
workloads.py).  Every workload runs in fresh worker processes started one at
a time; this process only starts them and gathers their reports.

--trace 0 measures the end-to-end metrics: throughput and per-operation
latency of a run of whole blocks lasting --seconds, the share of operations
whose output the oracle accepted, set-up time (median over several fresh
workers) and peak resident memory.  --trace 1 runs a fixed number of blocks
twice, untraced and then traced, and reports the per-layer metrics and the
tracing overhead.

The second-to-last line of standard output is the run record (seed, Python
version, host-speed probe before and after); the last line is the result:
{"correct", "attempted", "failed", "metrics"}.  Exit status is 0 when the
run completed, whether or not every output was correct.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 15
TIME_LIMIT_S = 170
PROBES_AROUND = 3

sys.path.insert(0, BENCH)
from hostspeed import REF_PROBE_S, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    pass


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def host_probe(count=20):
    return statistics.median(probe() for _ in range(count))


class Launcher:
    """Starts worker.py processes one at a time within the run's time limit."""

    def __init__(self, root, args):
        self.root = root
        self.base = ["--workload", args.workload, "--seed", str(args.seed)]
        self.deadline = clock() + TIME_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def __call__(self, *extra):
        remaining = self.deadline - clock()
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py")] + self.base + list(extra)
        # A session of its own, so that a CLI process the worker is waiting
        # on is stopped together with the worker.
        with subprocess.Popen(cmd + ["--launch", repr(clock())], cwd=self.root, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                out, err = proc.communicate(timeout=remaining)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError("worker did not finish within the time limit") from None
        if proc.returncode != 0:
            raise BenchError("worker failed (exit %d): %s" % (proc.returncode, err.strip()[-2000:]))
        return json.loads(out.splitlines()[-1])


def timed_run(launch, args):
    raw, setups = [], []
    probes = [probe() for _ in range(PROBES_AROUND)]
    for _ in range(SETUP_SAMPLES):
        sample = launch("--mode", "setup")["setup_s"]
        after = [probe() for _ in range(PROBES_AROUND)]
        raw.append(sample)
        setups.append(sample * REF_PROBE_S / statistics.median(probes[-PROBES_AROUND:] + after))
        probes += after
    main = launch("--mode", "timed", "--seconds", str(args.seconds))
    metrics = {
        "ops_per_s": (main["ops_per_s"], "ops/s"),
        "op_p50_ms": (main["op_p50_ms"], "ms"),
        "op_p90_ms": (main["op_p90_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB"),
    }
    record = {"setup_samples_raw_s": raw, "setup_s_raw": statistics.median(raw),
              "unscaled": main["raw"], "probe_median_s": main["probe_median_s"]}
    return [main], metrics, record


def traced_run(launch, args, root):
    blocks = WORKLOADS[args.workload].trace_blocks(args.seconds)
    plain = launch("--mode", "table", "--blocks", str(blocks))
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, "spans-%s-%d.json" % (args.workload, args.seed))
    traced = launch("--mode", "table", "--blocks", str(blocks), "--traced", "--trace-out", spans)
    metrics = {name: tuple(v) for name, v in traced["trace"].items()}
    metrics["trace.ops"] = (traced["ops"], "count")
    metrics["trace.busy_s"] = (traced["busy_s"], "s")
    metrics["trace.untraced_ops_per_s"] = (plain["ops_per_s"], "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced["ops_per_s"], "ops/s")
    metrics["trace.overhead_frac"] = (1.0 - traced["ops_per_s"] / plain["ops_per_s"], "ratio")
    record = {"trace_blocks": blocks, "span_file": os.path.relpath(spans, root)}
    return [plain, traced], metrics, record


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "braidrep", "__init__.py")):
        print("bench: no src/braidrep under %s; run from the root of a braidrep checkout" % root,
              file=sys.stderr)
        return 2

    launch = Launcher(root, args)
    probe_before = host_probe()
    try:
        if args.trace:
            reports, metrics, record = traced_run(launch, args, root)
        else:
            reports, metrics, record = timed_run(launch, args)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    probe_after = host_probe()

    attempted = sum(r["ops"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    last = reports[-1]
    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host_probe_s": {"before": probe_before, "after": probe_after,
                         "reference": REF_PROBE_S},
        "ops": last["ops"],
        "blocks": last["blocks"],
        "wall_s": last["wall_s"],
        "busy_s": last["busy_s"],
        "checking_s": last["checking_s"],
        "invariant_errors": last["invariant_errors"],
        "krammer_zero": last["krammer_zero"],
        "krammer_ops": last["krammer_ops"],
        "failed_frac": failed / attempted,
        "failures": [reason for r in reports for reason in r["reasons"]],
        "not_applicable": "braidrep is a single-threaded library without queues or retries, "
                          "so no waiting or retry metrics exist",
    })
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
