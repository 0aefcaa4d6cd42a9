"""lieop benchmark: one closed-loop client, one process, one workload per run.

    python3 perfbench/run.py --workload {bundle,gl4,gcs_sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.  With
--trace 0 the run measures the end-to-end metrics with tracing off.  With
--trace 1 every input runs twice, untraced and then traced, and the run
reports per-layer metrics from the traced ops plus the tracing overhead.
Every op's output is checked.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the same numbers for people, with the metrics the JSON leaves out.

End-to-end times are scaled to a reference machine speed with a calibration
kernel timed around every op step (see calib.py), because the shared machines
this runs on drift in speed by up to 2x; the wall-clock values are printed
beside them.  Per-layer times from the traced run are wall-clock;
trace.overhead_ratio compares times at reference speed.
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

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROBES = 9

# Runs in a fresh interpreter: times `import lieop` plus the objects the
# workload builds once and reuses, but not the benchmark's input generation,
# then times the calibration kernel in the same interpreter.
SETUP_PROBE = """
import statistics, sys, time
src, here, name, seed = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
sys.path[:0] = [src, here]
t0 = time.perf_counter()
import lieop
imported = time.perf_counter() - t0
import calib, workloads
w = workloads.WORKLOADS[name](seed)
t1 = time.perf_counter()
w.setup()
setup = imported + time.perf_counter() - t1
cal = []
calib.sample(cal, 9)
print(setup, statistics.median(cal))
"""


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("bundle", "gl4", "gcs_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_library():
    """Import lieop from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "lieop", "__init__.py")):
        sys.stderr.write(f"error: no lieop package under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import lieop
    if os.path.dirname(os.path.dirname(os.path.abspath(lieop.__file__))) != SRC:
        sys.stderr.write(f"error: lieop imported from {lieop.__file__}, not {SRC}\n")
        sys.exit(2)


def measure_setup(name, seed):
    """Median set-up seconds over fresh interpreters, raw and at reference speed."""
    raw, ref = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, "-c", SETUP_PROBE, SRC, HERE, name, str(seed)],
                             capture_output=True, text=True, timeout=120, check=True)
        setup, kernel = map(float, out.stdout.split())
        raw.append(setup)
        ref.append(setup * calib.REF_KERNEL_S / kernel)
    return statistics.median(raw), statistics.median(ref)


class Run:
    """Op samples and failure counts of one run.

    Calibration kernels are timed before, between and after the steps of every
    op, into `gaps`, which runs that take turns share.  Each step's time is
    scaled to the reference machine by the kernel timings of the two gaps
    around it (see calib.py).
    """

    def __init__(self, workload, gaps):
        self.w = workload
        self.gaps = gaps
        self.attempted = 0
        self.failed = 0
        self.samples = []
        self.ref_samples = []

    def _gap(self):
        self.gaps.append([])
        calib.sample(self.gaps[-1])

    def op(self, state, k, tracer):
        """One checked op; returns its time at reference speed, or None if it raised."""
        from workloads import drive
        self.attempted += 1
        if not self.gaps:
            self._gap()
        first = len(self.gaps) - 1
        steps = None
        try:
            out, steps = drive(self.w.op(state, k, tracer), self._gap)
            bad = self.w.check(out, k)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bad = ["op raised"]
        self._gap()
        if bad:
            self.failed += 1
            sys.stderr.write(f"op {k} failed: {'; '.join(bad)}\n")
        if steps is None:
            return None
        around = self.gaps[first:]
        ref = sum(t * calib.REF_KERNEL_S / statistics.median(around[j] + around[j + 1])
                  for j, t in enumerate(steps))
        self.samples.append(sum(steps))
        self.ref_samples.append(ref)
        return ref


def run_untraced(w, state, seconds):
    """Ops back to back until the time is up."""
    from spans import Tracer
    run, idle = Run(w, []), Tracer()
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        run.op(state, k, idle)
        k += 1
    return run


def run_traced(w, state, seconds):
    """Each input runs untraced, then traced.  Returns both runs, the tracer
    and, per input, the traced time over the untraced time."""
    from spans import Tracer, instrument, restore
    gaps = []
    plain, traced = Run(w, gaps), Run(w, gaps)
    idle, tracer = Tracer(), Tracer()
    ratios = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        before = plain.op(state, k, idle)
        undo = instrument(tracer) if w.instrumented else []
        try:
            with tracer.op_span(k):
                after = traced.op(state, k, tracer)
        finally:
            restore(undo)
        if before is not None and after is not None:
            ratios.append(after / before)
        k += 1
    return plain, traced, tracer, ratios


def _p50_ms(samples):
    return statistics.median(samples) * 1e3 if samples else 0.0


def _human(name, value, unit, note=""):
    print(f"{name} = {value:.6g} {unit}{note}")


def _p90(samples, name):
    """The 90th percentile, when at least ten samples lie beyond it."""
    if len(samples) < 100:
        print(f"{name}: not reported, {len(samples)} samples leave fewer than 10 beyond p90")
        return
    p90 = statistics.quantiles(samples, n=10)[-1]
    beyond = sum(s > p90 for s in samples)
    _human(name, p90 * 1e3, "ms", f" ({len(samples)} samples, {beyond} beyond p90)")


def main(argv=None):
    args = _parse(argv)
    _import_library()
    import gen
    import workloads
    cls = workloads.WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    w = cls(args.seed)
    state = w.setup()
    print(f"workload {w.name}: seed {args.seed}, {args.seconds:g} s, "
          f"closed loop, 1 client, 1 process")
    correct = True

    if not args.trace:
        run = run_untraced(w, state, args.seconds)
        ref = run.ref_samples
        n = len(ref)
        if not n:
            sys.stderr.write("error: every op raised\n")
            return 1
        metrics = {
            "setup_s": (setup[1], "s"),
            "op_p50_ms": (_p50_ms(ref), "ms"),
            "ops_per_s": (n / sum(ref), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        for name, (value, unit) in metrics.items():
            _human(name, value, unit)
        print(f"note: one op is {w.op_is}")
        _p90(ref, "op_p90_ms")
        kernels = [t for g in run.gaps for t in g]
        print(f"note: times above are at reference machine speed, where the calibration "
              f"kernel takes {calib.REF_KERNEL_S * 1e3:g} ms; here it took "
              f"{statistics.median(kernels) * 1e3:.4g} ms (median of {len(kernels)}), "
              f"and as measured here:")
        _human("setup_wall_s", setup[0], "s")
        _human("op_p50_wall_ms", _p50_ms(run.samples), "ms")
        _human("ops_per_wall_s", len(run.samples) / sum(run.samples), "1/s")
        _p90(run.samples, "op_p90_wall_ms")
        attempted, failed = run.attempted, run.failed
    else:
        plain, traced, tracer, ratios = run_traced(w, state, args.seconds)
        if not ratios:
            sys.stderr.write("error: every op raised\n")
            return 1
        from spans import EXACTLA_NOTE, layer_metrics
        metrics, (accepted, tuples) = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1, "ratio")
        for name, (value, unit) in metrics.items():
            _human(name, value, unit)
        print(f"note: {EXACTLA_NOTE}")
        print(f"note: trace.overhead_ratio is the median over {len(ratios)} inputs of "
              f"traced time / untraced time of the same input, both at reference "
              f"speed, minus 1")
        if w.name == "gcs_sweep":
            # A correctness gate, not a metric: the ratio falls as more slices run.
            want = sum(w.expected_valid(k) for k in range(traced.attempted))
            want_tuples = traced.attempted * gen.SLICE_TUPLES
            print(f"note: gcsholo.accept_ratio = {accepted}/{tuples}; "
                  f"the exhaustive map gives {want}/{want_tuples}")
            correct = (accepted, tuples) == (want, want_tuples)
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{w.name}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"note: {len(tracer.spans)} spans written to "
              f"{os.path.relpath(path, ROOT)}")
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed

    _human("failed_op_ratio", failed / attempted, "ratio", f" ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
