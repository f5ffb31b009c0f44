"""Per-layer tracing of braidrep from outside the package.

install() replaces the public functions of each module with timing wrappers,
and rebinds every name other braidrep modules imported with `from ... import`.
Calls at the polymatrix level and above become spans (name, start, end,
parent span, op id) kept in memory.  LaurentPoly arithmetic runs hundreds of
thousands of times per run, so those calls are only counted and timed, per
metric and per enclosing span.  Self time is a call's duration minus the time
of the traced calls nested inside it.
"""

import json
import sys
import time

perf = time.perf_counter

# metric name -> LaurentPoly methods it covers
LAURENT_METHODS = {
    "laurent.mul": ("__mul__", "__rmul__"),
    "laurent.add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "laurent.leading": ("leading",),
}
REP_BUILDERS = ("burau_unreduced", "burau_reduced", "lk", "sym2_quantized", "change_of_basis",
                "qpascal_rep", "lie_rep")
REP_CHECKS = ("verify_lk_equivalence", "verify_spectrum", "verify_stability",
              "verify_ext_square", "verify_humphry")
INVARIANTS = ("alexander", "krammer_fraction", "markov1_test", "markov2_probe", "specialize")

# every per-layer metric name with its unit, in report order
TIMED = ("laurent.mul", "laurent.add", "laurent.leading", "laurent.exact_div",
         "laurent.fraction", "polymatrix.det", "polymatrix.inverse", "polymatrix.matmul",
         "polymatrix.sym_power", "polymatrix.char_poly", "reps.build", "reps.image_of_word")
SELF_ONLY = ("invariants.alexander", "invariants.krammer_fraction", "braid.parse",
             "braid.check_braid_relations", "cli.main")


class Tracer:
    def __init__(self):
        self.stack = []        # open calls: [child_seconds] or [child_seconds, span]
        self.spans = []        # [id, name, parent_id, op_id, start, end, self_s, {laurent: [calls, s]}]
        self.open_spans = []
        self.calls = {}
        self.self_s = {}
        self.total_s = {}      # inclusive time of the outermost call of each span name
        self._depth = {}
        self.op_id = None
        self.counts = {"exact_div_none": 0, "det_max_dim": 0, "peak_terms": 0,
                       "peak_coeff_bits": 0, "build_repeats": 0, "krammer_zero": 0,
                       "alexander_errors": 0, "import_s": 0.0}
        self._built = set()

    # ------------------------------------------------------------------
    # wrappers

    def leaf(self, name, fn, after=None):
        """Counted and timed, attributed to the enclosing span; no span of its own."""
        stack, open_spans = self.stack, self.open_spans
        calls, self_s = self.calls, self.self_s
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                own = dur - frame[0]
                calls[name] += 1
                self_s[name] += own
                if stack:
                    stack[-1][0] += dur
                if open_spans:
                    per = open_spans[-1][7]
                    slot = per.get(name)
                    if slot is None:
                        per[name] = [1, own]
                    else:
                        slot[0] += 1
                        slot[1] += own
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def span(self, name, fn, after=None, label=None):
        """One recorded span per call."""
        stack, open_spans, spans = self.stack, self.open_spans, self.spans
        calls, self_s, total_s, depth = self.calls, self.self_s, self.total_s, self._depth
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)
        total_s.setdefault(name, 0.0)
        depth.setdefault(name, 0)
        label = label or name

        def wrapper(*args, **kwargs):
            parent = open_spans[-1][0] if open_spans else None
            depth[name] += 1
            rec = [len(spans), label, parent, self.op_id, 0.0, 0.0, 0.0, {}]
            spans.append(rec)
            frame = [0.0, rec]
            stack.append(frame)
            open_spans.append(rec)
            rec[4] = t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if after is not None:
                    after(exc, args, failed=True)
                raise
            finally:
                rec[5] = end = perf()
                stack.pop()
                open_spans.pop()
                dur = end - t0
                rec[6] = own = dur - frame[0]
                calls[name] += 1
                self_s[name] += own
                depth[name] -= 1
                if not depth[name]:
                    total_s[name] += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(result, args, failed=False)
            return result
        return wrapper

    # ------------------------------------------------------------------
    # result hooks

    def _exact_div_done(self, result, args):
        if result is None:
            self.counts["exact_div_none"] += 1

    def _det_done(self, result, args, failed):
        if failed:
            return
        c = self.counts
        c["det_max_dim"] = max(c["det_max_dim"], args[0].rows)
        terms = result.sorted_terms()
        c["peak_terms"] = max(c["peak_terms"], len(terms))
        if terms:
            c["peak_coeff_bits"] = max(c["peak_coeff_bits"],
                                       max(abs(coeff).bit_length() for _, coeff in terms))

    def _build_done(self, key):
        def after(result, args, failed):
            k = (key, repr(args))
            if k in self._built:
                self.counts["build_repeats"] += 1
            self._built.add(k)
        return after

    def _krammer_done(self, result, args, failed):
        if not failed and result.fraction.num.is_zero():
            self.counts["krammer_zero"] += 1

    def _alexander_done(self, result, args, failed):
        from braidrep.invariants import InvariantError
        if failed and isinstance(result, InvariantError):
            self.counts["alexander_errors"] += 1

    # ------------------------------------------------------------------

    def install(self):
        """Wrap braidrep's public functions; call after the modules are imported."""
        from braidrep import braid, invariants, laurent, polymatrix, reps
        mods = [m for name, m in sys.modules.items()
                if name == "braidrep" or name.startswith("braidrep.")]

        def rebind(orig, wrapper):
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)

        lp = laurent.LaurentPoly
        for metric, names in LAURENT_METHODS.items():
            for attr in names:
                setattr(lp, attr, self.leaf(metric, lp.__dict__[attr]))
        rebind(laurent.exact_div, self.leaf("laurent.exact_div", laurent.exact_div,
                                            self._exact_div_done))
        pf = laurent.PolyFraction
        pf.__init__ = self.leaf("laurent.fraction", pf.__dict__["__init__"])

        pm = polymatrix.PolyMatrix
        pm.det = self.span("polymatrix.det", pm.__dict__["det"], self._det_done)
        pm.inverse = self.span("polymatrix.inverse", pm.__dict__["inverse"])
        pm.__mul__ = self.span("polymatrix.matmul", pm.__dict__["__mul__"])
        for fn in ("sym_power", "char_poly"):
            orig = getattr(polymatrix, fn)
            rebind(orig, self.span("polymatrix." + fn, orig))

        for fn in REP_BUILDERS:
            orig = getattr(reps, fn)
            rebind(orig, self.span("reps.build", orig, self._build_done(fn), "reps.build:" + fn))
        rebind(reps.image_of_word, self.span("reps.image_of_word", reps.image_of_word))
        for fn in REP_CHECKS:
            orig = getattr(reps, fn)
            rebind(orig, self.span("reps." + fn, orig))

        hooks = {"alexander": self._alexander_done, "krammer_fraction": self._krammer_done}
        for fn in INVARIANTS:
            orig = getattr(invariants, fn)
            rebind(orig, self.span("invariants." + fn, orig, hooks.get(fn)))

        parse = braid.BraidWord.__dict__["parse"].__func__
        braid.BraidWord.parse = classmethod(self.span("braid.parse", parse))
        rebind(braid.check_braid_relations,
               self.span("braid.check_braid_relations", braid.check_braid_relations))

        cli = sys.modules.get("braidrep.cli")
        if cli is not None:
            rebind(cli.main, self.span("cli.main", cli.main))

    # ------------------------------------------------------------------
    # results

    def export(self):
        return {"calls": self.calls, "self_s": self.self_s, "total_s": self.total_s,
                "counts": self.counts, "spans": self.spans}

    def merge(self, other, op_id):
        """Add an exported trace from another process, tagging its spans with op_id."""
        for key in ("calls", "self_s", "total_s"):
            mine = getattr(self, key)
            for name, value in other[key].items():
                mine[name] = mine.get(name, 0) + value
        c = self.counts
        for key, value in other["counts"].items():
            if key in ("det_max_dim", "peak_terms", "peak_coeff_bits"):
                c[key] = max(c[key], value)
            else:
                c[key] += value
        base = len(self.spans)
        for s in other["spans"]:
            self.spans.append([s[0] + base, s[1], None if s[2] is None else s[2] + base,
                               op_id] + s[4:])

    def metrics(self):
        """Per-layer metrics: {name: (value, unit)}."""
        calls, self_s, c = self.calls, self.self_s, self.counts
        out = {}
        for name in TIMED:
            out[name + ".calls"] = (calls.get(name, 0), "count")
            out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
        for name in SELF_ONLY:
            out[name + ".self_s"] = (self_s.get(name, 0.0), "s")
        # inclusive det time: Bareiss with its LaurentPoly work, against the op total
        out["polymatrix.det.total_s"] = (self.total_s.get("polymatrix.det", 0.0), "s")
        out["invariants.alexander.calls"] = (calls.get("invariants.alexander", 0), "count")
        out["invariants.krammer_fraction.calls"] = (calls.get("invariants.krammer_fraction", 0),
                                                    "count")
        out["laurent.exact_div.none_frac"] = (_share(c["exact_div_none"],
                                                     calls.get("laurent.exact_div", 0)), "ratio")
        out["laurent.peak_terms"] = (c["peak_terms"], "count")
        out["laurent.peak_coeff_bits"] = (c["peak_coeff_bits"], "bits")
        out["polymatrix.det.max_dim"] = (c["det_max_dim"], "rows")
        out["reps.build.repeat_frac"] = (_share(c["build_repeats"], calls.get("reps.build", 0)),
                                         "ratio")
        out["invariants.krammer.zero_frac"] = (
            _share(c["krammer_zero"], calls.get("invariants.krammer_fraction", 0)), "ratio")
        out["invariants.alexander.invariant_errors"] = (c["alexander_errors"], "count")
        out["cli.import_s"] = (c["import_s"], "s")
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "parent", "op", "start", "end", "self_s",
                                  "laurent"], "spans": self.spans}, fh)


def _share(part, whole):
    return part / whole if whole else 0.0
