"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from lieop import cli  # noqa: E402
from lieop.fixtures import standard_fixtures  # noqa: E402
from lieop.liecore import LieAlgebra  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# --- generators -------------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    assert gen.gl_workspace(3, 7) == gen.gl_workspace(3, 7)
    assert gen.gl_workspace(3, 7) != gen.gl_workspace(3, 8)
    assert gen.omega_coefficients(7, 16) == gen.omega_coefficients(7, 16)
    assert any(gen.omega_coefficients(7, 16))
    assert gen.gcs_slice_order(7) == gen.gcs_slice_order(7)
    assert gen.gcs_slice_order(7) != gen.gcs_slice_order(8)


def test_gl_structure_is_gl_n():
    n = 3
    c = gen.gl_structure(n)
    g = LieAlgebra(n * n, c)  # validates skew symmetry and Jacobi
    e = lambda i, j: i * n + j  # noqa: E731
    assert g.c[e(0, 1)][e(1, 2)][e(0, 2)] == 1      # [E01, E12] = E02
    assert g.c[e(0, 1)][e(1, 0)][e(0, 0)] == 1      # [E01, E10] = E00 - E11
    assert g.c[e(0, 1)][e(1, 0)][e(1, 1)] == -1


def test_gcs_slice_order_covers_the_space_and_reaches_the_accept_path():
    for seed in range(20):
        order = gen.gcs_slice_order(seed)
        assert sorted(order) == [(a, b) for a in range(81) for b in range(81)]
        assert set(gen.VALID_PER_SLICE) <= set(order[:gen.ACCEPT_WITHIN])


def test_generated_aff1_module_is_the_criterion_02_carrier():
    _, reps, _ = standard_fixtures()
    rep = cli.Workspace.load([gen.aff1_adjoint_workspace()]).get("aff1_adj").value
    assert rep.action == reps["aff1_adj"].action
    assert rep.algebra.c == reps["aff1_adj"].algebra.c


# --- smoke runs and their output checks -------------------------------------

def test_bundle_op_passes_and_its_check_can_fail():
    w = workloads.Bundle(seed=3)
    out, _ = workloads.drive(w.op(w.setup(), 0, spans.Tracer()))
    assert w.check(out, 0) == []
    report, rendered = out
    assert w.check((report, rendered + " "), 1)
    report["suites"]["cybe_coadjoint_oracle"]["agree"] -= 1
    assert w.check((report, rendered), 2)


def test_gl_op_passes_at_small_size_and_its_check_can_fail():
    w = workloads.GL(seed=3, n=3)
    out, _ = workloads.drive(w.op(w.setup(), 0, spans.Tracer()))
    assert w.check(out, 0) == []
    verdicts, sd, tw, basis, mc, strong = out
    assert len(basis) == 9
    assert w.check((verdicts, sd, tw, basis[1:], mc, strong), 1)
    assert w.check(({**verdicts, "T_rand0": True}, sd, tw, basis, mc, strong), 2)


def test_gcs_sweep_ops_pass_on_accepting_and_rejecting_slices():
    w = workloads.GCSSweep(seed=3)
    rep = w.setup()
    accepting = [k for k in range(gen.ACCEPT_WITHIN) if w.expected_valid(k)]
    rejecting = next(k for k in range(gen.ACCEPT_WITHIN) if not w.expected_valid(k))
    for k in accepting + [rejecting]:
        out, _ = workloads.drive(w.op(rep, k, spans.Tracer()))
        assert w.check(out, k) == []
        key, direct, comps = out
        assert sum(direct) == w.expected_valid(k)
        flipped = [not direct[0]] + direct[1:]
        assert w.check((key, flipped, comps), k)


def test_traced_op_records_spans_and_restores_the_library():
    original = cli.check_entry
    tracer = spans.Tracer()
    w = workloads.GL(seed=3, n=2)
    undo = spans.instrument(tracer)
    try:
        assert cli.check_entry is not original
        with tracer.op_span(0):
            out, _ = workloads.drive(w.op(w.setup(), 0, tracer))
    finally:
        spans.restore(undo)
    assert cli.check_entry is original
    assert isinstance(vars(cli.Workspace)["load"], staticmethod)
    assert w.check(out, 0) == []
    metrics, _ = spans.layer_metrics(tracer)
    assert metrics["cli.load_ms"][0] > 0
    assert metrics["cohomology.one_cocycle_basis_ms"][0] > 0
    assert metrics["twilled.twilled_from_o_ms"][0] > 0
    assert metrics["cli.calls"][0] == 1 + len(out[0])


# --- the command line and BENCHMARK.json ------------------------------------

def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_printed_metrics_match_benchmark_json():
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for name in ("bundle", "gcs_sweep"):
        for trace in (0, 1):
            res = _result(_run("--workload", name, "--seed", "5", "--seconds", "0.2",
                               "--trace", str(trace)))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
            assert {k: v["unit"] for k, v in res["metrics"].items()} == declared[trace]


def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "bundle", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
