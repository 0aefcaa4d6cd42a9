"""The three benchmark workloads.

Each workload is driven closed loop by one client in one process.  An op
builds fresh lieop objects from its input, the way one CLI run does, so the
per-object caches start cold, except where `setup` builds an object on purpose
for every op to reuse.  `check` returns the reasons an op's output is wrong,
an empty list when it is right.

An op is a generator: it yields between its steps, so that the runner can time
a calibration kernel there (see calib.py), and returns its output.
"""

from __future__ import annotations

import json
import time

from lieop import cli, cohomology, fixtures, gcsholo, liecore, twilled
from lieop.exactla import Matrix

import gen


class Bundle:
    """The shipped 56-object bundle through load, report and JSON render."""

    name = "bundle"
    op_is = "one workspace"
    objects = 56
    instrumented = True

    def __init__(self, seed):
        self.seed = seed
        self.text = fixtures.bundle_json()
        self.rendered = None

    def setup(self):
        return None

    def op(self, state, k, tracer):
        ws = cli.Workspace.load([json.loads(self.text)])
        yield
        report = cli.build_report(ws, self.seed)
        yield
        return report, cli.render_report(report, "json")

    def check(self, out, k):
        report, rendered = out
        bad = []
        objs = report["objects"]
        if len(objs) != self.objects:
            bad.append(f"{len(objs)} objects, expected {self.objects}")
        bad += [f"{n} invalid" for n, info in sorted(objs.items()) if not info["valid"]]
        bad += [f"suite {n}: {s['agree']}/{s['total']}"
                for n, s in sorted(report["suites"].items())
                if s["agree"] != s["total"] or not s["total"]]
        if self.rendered is None:
            self.rendered = rendered
        elif rendered != self.rendered:
            bad.append("rendered report differs from the first op's")
        return bad


class GL:
    """A generated gl(n) workspace: load, check every object, then build the
    semi-direct product, the twilled algebra of the centre projection and the
    1-cocycle basis, and check a strong Maurer-Cartan solution on it."""

    name = "gl4"
    op_is = "one workspace"
    instrumented = True

    def __init__(self, seed, n=4):
        self.n = n
        self.doc = gen.gl_workspace(n, seed)
        self.text = json.dumps(self.doc)
        self.expected = gen.gl_expected_verdicts(self.doc)
        self.coeffs = gen.omega_coefficients(seed, n * n)
        self.reloaded_total = None

    def setup(self):
        return None

    def op(self, state, k, tracer):
        ws = cli.Workspace.load([json.loads(self.text)])
        yield
        verdicts = {}
        for name, entry in sorted(ws.entries.items()):
            verdicts[name] = cli.check_entry(ws, entry)[0]
            yield
        adj = ws.get("gl_adj").value
        centre = ws.get("T_centre").value[1]
        sd = liecore.semidirect(ws.get("gl_coadj").value)
        yield
        tw = twilled.twilled_from_o(adj, centre)
        yield
        basis = cohomology.one_cocycle_basis(adj)
        yield
        omega = Matrix.zeros(adj.dim_m, adj.algebra.dim)
        for c, b in zip(self.coeffs, basis):
            omega = omega + b.scale(c)
        mc = twilled.mc_check(tw, omega)[0]
        yield
        strong = twilled.strong_mc_check(tw, omega)[0]
        return verdicts, sd, tw, basis, mc, strong

    def check(self, out, k):
        verdicts, sd, tw, basis, mc, strong = out
        d = self.n * self.n
        bad = [f"{n}: verdict {v}, pinned {self.expected.get(n)}"
               for n, v in sorted(verdicts.items()) if v != self.expected.get(n)]
        if set(verdicts) != set(self.expected):
            bad.append("checked objects differ from the workspace")
        if sd.dim != 2 * d:
            bad.append(f"semidirect has dim {sd.dim}")
        # Der(gl_n) = ad(sl_n) + (scalar-valued trace maps): dimension n^2.
        if len(basis) != d:
            bad.append(f"1-cocycle basis has {len(basis)} elements, expected {d}")
        # M^T is abelian and the bar action vanishes for the centre projection,
        # so every 1-cocycle is a strong Maurer-Cartan solution.
        if not (mc and strong):
            bad.append(f"omega: mc={mc} strong={strong}, expected both")
        if self.reloaded_total is None:
            self.reloaded_total = _reload_twilled(tw)
        if tw.total.c != self.reloaded_total:
            bad.append("twilled algebra does not match its reloaded form")
        return bad


def _reload_twilled(tw):
    """Emit the twilled algebra as a workspace and load it back."""
    d = tw.dim_a + tw.dim_b
    ident = Matrix.identity(d)
    doc = {"objects": {
        "total": cli.lie_algebra_to_json(tw.total),
        "tw": {"kind": "twilled", "total_ref": "total",
               "a_basis": [cli.vector_to_json(ident.row(i)) for i in range(tw.dim_a)],
               "b_basis": [cli.vector_to_json(ident.row(tw.dim_a + i))
                           for i in range(tw.dim_b)]}}}
    ws = cli.Workspace.load([json.loads(json.dumps(doc))])
    return ws.get("tw", "twilled").value.total.c


class GCSSweep:
    """Slices of the criterion-02 space at (2, 2) on aff1_adj, both routes on
    every tuple of a slice."""

    name = "gcs_sweep"
    op_is = f"one slice of {gen.SLICE_TUPLES} tuples"
    instrumented = False

    def __init__(self, seed):
        self.doc = gen.aff1_adjoint_workspace()
        self.slices = gen.gcs_slice_order(seed)
        self.pairs = [(g, s) for g in gen.BLOCKS for s in gen.BLOCKS]

    def setup(self):
        """The module and its GCS context, built once and reused by every op."""
        rep = cli.Workspace.load([self.doc]).get("aff1_adj").value
        zero = gen.BLOCKS[gen.ZERO_BLOCK]
        gcsholo.gcs_check_direct(rep, zero, zero, zero, zero)
        return rep

    def op(self, rep, k, tracer):
        n_idx, t_idx = self.slices[k % len(self.slices)]
        nb, tb = gen.BLOCKS[n_idx], gen.BLOCKS[t_idx]
        direct_check = gcsholo.gcs_check_direct
        comps_check = gcsholo.gcs_check_components
        with tracer.span("gcsholo.gcs_check_direct", gen.SLICE_TUPLES) as sp:
            direct = [direct_check(rep, nb, tb, g, s) for g, s in self.pairs]
            sp.accepted = sum(direct)
        yield
        with tracer.span("gcsholo.gcs_check_components", gen.SLICE_TUPLES) as sp:
            comps = [comps_check(rep, nb, tb, g, s) for g, s in self.pairs]
            sp.accepted = sum(comps)
        return (n_idx, t_idx), direct, comps

    def expected_valid(self, k):
        return gen.VALID_PER_SLICE.get(self.slices[k % len(self.slices)], 0)

    def check(self, out, k):
        key, direct, comps = out
        bad = []
        split = sum(a != b for a, b in zip(direct, comps))
        if split:
            bad.append(f"slice {key}: routes disagree on {split} tuples")
        valid, want = sum(direct), self.expected_valid(k)
        if valid != want:
            bad.append(f"slice {key}: {valid} valid tuples, exhaustive map says {want}")
        return bad


def drive(steps, gap=None):
    """Run an op to its end, calling gap() where it yields.

    Returns the op's output and the seconds each of its steps took.
    """
    times = []
    while True:
        t0 = time.perf_counter()
        try:
            next(steps)
        except StopIteration as stop:
            times.append(time.perf_counter() - t0)
            return stop.value, times
        times.append(time.perf_counter() - t0)
        if gap is not None:
            gap()


WORKLOADS = {w.name: w for w in (Bundle, GL, GCSSweep)}
