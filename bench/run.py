"""Benchmark of approxrate's wedge codec, network quantizer and covering oracle.

Run from the repository root:

    python3 bench/run.py --workload wedge-target --seed 1 --seconds 10 --trace 0

Each run sets its workload up several times, then repeats whole passes
over the workload's inputs, one caller in a closed loop, until the timed
operations have taken ``--seconds``.  The first pass checks every output
against the oracles in ``oracles.py``; later passes must reproduce it.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--workload
all`` runs every workload; ``--short`` runs one op of each with all its
checks.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import SpanView, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
# set-up runs at least 3 times and until 3 s are spent, at most 9 times:
# a cheap set-up needs more samples for a steady median
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 9, 3.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s",
                    "peak_rss_mb": "MB", "bits": "bit", "distortion": "1"}


def _per_op_layers():
    """name -> (unit, value of one op from its SpanView and facts)."""
    def sec(name):
        return lambda v, f: v.seconds(name)

    def calls(name):
        return lambda v, f: v.calls(name)

    def fact(name):
        return lambda v, f: f.get(name, 0)

    def share(num, den):
        return lambda v, f: v.calls(num) / v.calls(den) if v.calls(den) else 0.0

    w = "wedgelet."
    return {
        w + "encode_to_target.s": ("s", sec(w + "encode_to_target")),
        w + "encode.calls": ("count", calls(w + "encode")),
        w + "encode.kept_ratio": ("1", share(w + "encode_to_target", w + "encode")),
        w + "fit_rdp.calls": ("count", calls(w + "fit_rdp")),
        w + "fit_rdp.s": ("s", sec(w + "fit_rdp")),
        w + "project.s": ("s", sec(w + "project")),
        w + "encode.self_s": ("s", lambda v, f: v.self_seconds(w + "encode")),
        w + "to_bytes.calls": ("count", calls(w + "to_bytes")),
        w + "to_bytes.s": ("s", sec(w + "to_bytes")),
        w + "from_bytes.s": ("s", sec(w + "from_bytes")),
        w + "decode.calls": ("count", calls(w + "decode")),
        w + "decode.s": ("s", sec(w + "decode")),
        w + "records": ("count", fact("records")),
        "nnet.evaluate_batch.calls": ("count", calls("nnet.evaluate_batch")),
        "nnet.evaluate_batch.s": ("s", sec("nnet.evaluate_batch")),
        "nnet.network_to_json.s": ("s", sec("nnet.network_to_json")),
        "nnet.network_from_json.s": ("s", sec("nnet.network_from_json")),
        "nnet.connectivity": ("count", fact("connectivity")),
        "constructors.build_bspline_net.s": ("s", sec("constructors.build_bspline_net")),
        "quantizer.find_min_m.s": ("s", sec("quantizer.find_min_m")),
        "quantizer.find_min_m.candidates": (
            "count", lambda v, f: v.calls_under("quantizer.quantize_weights",
                                                "quantizer.find_min_m")),
        "quantizer.quantize_weights.s": ("s", sec("quantizer.quantize_weights")),
        "quantizer.bits_per_weight": ("bit", fact("bits_per_weight")),
        "ratelab.l2_error_quad.s": ("s", sec("ratelab.l2_error_quad")),
        "ratelab.covering_distortion_greedy.s": (
            "s", sec("ratelab.covering_distortion_greedy")),
        "ratelab.greedy.pair_evals": ("count", fact("pair_evals")),
    }


def _rate_layers():
    """name -> (unit, numerator, denominator), each summed over all ops."""
    return {
        "wedgelet.fit_rdp.s_per_call": (
            "s", lambda v, f: v.seconds("wedgelet.fit_rdp"),
            lambda v, f: v.calls("wedgelet.fit_rdp")),
        "wedgelet.decode.records_per_s": (
            "1/s", lambda v, f: v.work("wedgelet.decode"),
            lambda v, f: v.seconds("wedgelet.decode")),
        "nnet.evaluate_batch.edge_points_per_s": (
            "1/s", lambda v, f: v.work("nnet.evaluate_batch"),
            lambda v, f: v.seconds("nnet.evaluate_batch")),
        "ratelab.greedy.pair_evals_per_s": (
            "1/s", lambda v, f: f.get("pair_evals", 0),
            lambda v, f: v.seconds("ratelab.covering_distortion_greedy")),
    }


def _load_program():
    """Import the program in a fresh interpreter, as every CLI run does."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import approxrate.cli"], env=env,
                   check=True, timeout=120)


class Run:
    """One run of one workload: set-up, whole passes, checks, metrics."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.setup_times, self.setup_views = [], []
        self.op_times, self.op_views, self.op_facts = [], [], []
        self.first = {}
        self.attempted = self.failed = 0
        self.correct = True
        self.error = None

    def _traced(self, fn, *args):
        tracer = self.tracer
        if tracer is None:
            return fn(*args), None
        lo = tracer.mark()
        tracer.active = True
        try:
            return fn(*args), lo
        finally:
            tracer.active = False

    def _view(self, lo):
        return None if lo is None else SpanView(self.tracer.spans, lo, self.tracer.mark())

    def setup(self, items, min_repeats, max_repeats):
        prepared = None
        while len(self.setup_times) < min_repeats or (
                sum(self.setup_times) < SETUP_SECONDS
                and len(self.setup_times) < max_repeats):
            t0 = time.perf_counter()
            _load_program()
            prepared, lo = self._traced(lambda: [self.wl.prepare(i) for i in items])
            self.setup_times.append(time.perf_counter() - t0)
            self.setup_views.append(self._view(lo))
        return prepared

    def measure(self, prepared, seconds, max_passes=None):
        from workloads import CheckFailed
        busy, passes = 0.0, 0
        while self.correct:
            done = len(self.op_times)
            for index, item in enumerate(prepared):
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    out, lo = self._traced(self.wl.op, item)
                except Exception:  # an op that raises is counted, not fatal
                    self.failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                dt = time.perf_counter() - t0
                busy += dt
                try:
                    if index not in self.first:
                        self.first[index] = (out, self.wl.check(item, out))
                    elif not self.wl.same(self.first[index][0], out):
                        raise CheckFailed("output changed between passes")
                except CheckFailed as exc:
                    self.correct, self.error = False, f"{self.wl.name}: {exc}"
                    break
                self.op_times.append(dt)
                self.op_views.append(self._view(lo))
                self.op_facts.append(self.first[index][1])
            passes += 1
            if busy >= seconds or passes == max_passes or len(self.op_times) == done:
                break
        self.busy = busy

    def end_to_end(self):
        facts = [f for _, f in self.first.values()]
        return {
            "setup_s": statistics.median(self.setup_times),
            "ops_per_s": len(self.op_times) / self.busy if self.busy else 0.0,
            "op_p50_s": statistics.median(self.op_times) if self.op_times else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "bits": float(statistics.median(f["bits"] for f in facts))
            if facts else 0.0,
            "distortion": statistics.fmean(f["distortion"] for f in facts)
            if facts else 0.0,
        }, END_TO_END_UNITS

    def per_layer(self):
        values, units = {}, {}
        pairs = list(zip(self.op_views, self.op_facts))
        for name, (unit, fn) in _per_op_layers().items():
            values[name] = float(statistics.median(fn(v, f) for v, f in pairs)) \
                if pairs else 0.0
            units[name] = unit
        for name, (unit, num, den) in _rate_layers().items():
            top = sum(num(v, f) for v, f in pairs)
            bottom = sum(den(v, f) for v, f in pairs)
            values[name] = float(top / bottom) if bottom else 0.0
            units[name] = unit
        values["cartoon.rasterize.s"] = statistics.median(
            v.seconds("cartoon.rasterize") for v in self.setup_views)
        units["cartoon.rasterize.s"] = "s"
        values["trace.op_p50_s"] = statistics.median(self.op_times) \
            if self.op_times else 0.0
        units["trace.op_p50_s"] = "s"
        return values, units

    def result(self):
        values, units = self.per_layer() if self.tracer else self.end_to_end()
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": values[k], "unit": units[k]}
                            for k in sorted(values)}}


def run_workload(name, seed, seconds, trace, short=False):
    import approxrate
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed)
    tracer = Tracer(approxrate) if trace else None
    if tracer:
        tracer.install()
    try:
        run = Run(wl, tracer)
        items = wl.items[:1] if short else wl.items
        prepared = run.setup(items, *((1, 1) if short else (SETUP_MIN, SETUP_MAX)))
        run.measure(prepared, seconds, max_passes=1 if short else None)
        result = run.result()
        if tracer:
            OUT_DIR.mkdir(exist_ok=True)
            tracer.dump(OUT_DIR / f"trace-{name}-seed{seed}.json",
                        {"workload": name, "seed": seed, "seconds": seconds,
                         "op_seconds": run.op_times,
                         "setup_seconds": run.setup_times})
    finally:
        if tracer:
            tracer.close()
    return result, run.error


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["wedge-target", "wedge-decode", "net-quantize",
                                 "hamming-cover", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true",
                        help="one op of each selected workload, all checks")
    args = parser.parse_args(argv)

    if not (SRC / "approxrate" / "__init__.py").is_file():
        print(f"error: no approxrate sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # BLAS reads these once, when numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))

    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result, error = run_workload(name, args.seed, args.seconds,
                                     args.trace, args.short)
        if error:
            print(f"check failed: {error}", file=sys.stderr)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
