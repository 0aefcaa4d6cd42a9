"""Span recording for the traced benchmark run.

A span records a name, start, end, parent span and op id.  Spans stay in memory
and are written out when the run ends.  The layer of a span is the part of its
name before the first dot; the layers are the modules under src/lieop.

In the traced run, `instrument` replaces layer functions by span-recording
wrappers at every lieop module attribute (and class attribute) that callers
call through, and `restore` puts the originals back.  The untraced run never
installs them, so it executes unmodified code.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

from lieop import cli, cohomology, gcsholo, liecore, ooper, onstruct, twilled
from lieop.errors import LieOpError

LAYERS = ("cli", "liecore", "cohomology", "ooper", "onstruct", "twilled", "gcsholo")

# Layer functions wrapped in the traced run of the workloads that go through
# cli.  exactla is absent: its helpers are called from inside every layer, and
# its cost stays in the self time of the layer that calls them.
LAYER_FUNCTIONS = {
    cli: ("check_entry", "build_report", "render_report"),
    liecore: ("semidirect", "adjoint", "dual_rep", "coadjoint"),
    cohomology: ("ce_differential", "one_cocycle_basis", "derived_bracket", "build_mu2"),
    ooper: ("graph_oracle", "graph_check", "is_o_operator", "o_residual",
            "lemma_r_equiv", "schouten_self", "induced_lie", "pre_lie_defect_tensor"),
    onstruct: ("is_nijenhuis", "is_nijenhuis_structure", "is_on_structure",
               "is_pn_structure", "is_infinitesimal_deformation", "tilde_action",
               "deformed_bracket"),
    twilled: ("twilled_from_o", "twilled_new", "bar_action", "mc_check", "strong_mc_check"),
    gcsholo: ("gcs_oracle", "gcs_check_direct", "gcs_check_components", "gcs_lie_check",
              "is_module_complex_pair", "is_holomorphic_o", "is_holomorphic_r",
              "is_complex_structure"),
}
# (class, attribute, span name): construction-time validation and Workspace.load.
LAYER_METHODS = (
    (cli.Workspace, "load", "cli.load"),
    (liecore.LieAlgebra, "_validate", "liecore.validate_algebra"),
    (liecore.Representation, "_validate", "liecore.validate_representation"),
)
MODULES = (cli, cohomology, gcsholo, liecore, ooper, onstruct, twilled)

EXACTLA_NOTE = ("exactla is not yet separated: its cost lands in the self time "
                "of the liecore, cohomology and ooper spans")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "count", "accepted", "error")

    def __init__(self, name, start, parent, op, count):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.count = count
        self.accepted = 0
        self.error = False

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    def row(self):
        return [self.name, self.start, self.end, self.parent, self.op,
                self.count, self.accepted, self.error]


class Tracer:
    """Collects spans for the ops it is told about; records nothing between ops."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []

    def _open(self, name, count=1):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.op, count))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, count=1):
        """A span around a block; the block may set `accepted` on it."""
        if self.op is None:
            yield Span(name, 0.0, None, None, count)
            return
        sp = self._open(name, count)
        try:
            yield sp
        except LieOpError:
            sp.error = True
            raise
        finally:
            self._close(sp)

    @contextmanager
    def op_span(self, op_id):
        self.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except LieOpError:
                sp.error = True
                raise
            finally:
                self._close(sp)
            if result is True:
                sp.accepted = 1
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """One JSON array per line; a span's id is its line number after the header."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(list(Span.__slots__)) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(sp.row()) + "\n")


def instrument(tracer: Tracer):
    """Install span wrappers; returns what `restore` needs to undo them."""
    undo = []
    for layer_mod, names in LAYER_FUNCTIONS.items():
        layer = layer_mod.__name__.rsplit(".", 1)[1]
        for fname in names:
            orig = getattr(layer_mod, fname)
            traced = tracer.wrap(f"{layer}.{fname}", orig)
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, attr, orig))
                        setattr(mod, attr, traced)
    for owner, attr, name in LAYER_METHODS:
        raw = vars(owner)[attr]
        undo.append((owner, attr, raw))
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, tracer.wrap(name, raw))
    return undo


def restore(undo):
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def _per_op(spans):
    """{op id: {metric: value}} from recorded spans."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    ops = {}
    for i, sp in enumerate(spans):
        acc = ops.setdefault(sp.op, {})
        if sp.name == "op":
            continue
        dur = sp.end - sp.start
        layer = sp.layer
        outermost = True
        p = sp.parent
        while p is not None:
            if spans[p].layer == layer:
                outermost = False
                break
            p = spans[p].parent

        def add(key, value):
            acc[key] = acc.get(key, 0) + value

        add(f"{layer}.calls", 1)
        add(f"{layer}.errors", int(sp.error))
        add(f"{layer}.self_ms", (dur - child_time[i]) * 1e3)
        if outermost:
            add(f"{layer}.busy_ms", dur * 1e3)
        add(f"span:{sp.name}:ms", dur * 1e3)
        add(f"span:{sp.name}:self_ms", (dur - child_time[i]) * 1e3)
        add(f"span:{sp.name}:count", sp.count)
        add(f"span:{sp.name}:accepted", sp.accepted)
    return ops


# Per-layer metrics: name -> (unit, key in the per-op table).  Times are the
# median over traced ops of the per-op sum; calls are per op; errors are the
# run total.
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.busy_ms"] = ("ms", f"{_layer}.busy_ms")
    PER_LAYER[f"{_layer}.self_ms"] = ("ms", f"{_layer}.self_ms")
    PER_LAYER[f"{_layer}.calls"] = ("count", f"{_layer}.calls")
    PER_LAYER[f"{_layer}.errors"] = ("count", f"{_layer}.errors")
PER_LAYER.update({
    "cli.load_ms": ("ms", "span:cli.load:ms"),
    "cli.report_self_ms": ("ms", "span:cli.build_report:self_ms"),
    "cli.render_ms": ("ms", "span:cli.render_report:ms"),
    "liecore.semidirect_ms": ("ms", "span:liecore.semidirect:ms"),
    "cohomology.one_cocycle_basis_ms": ("ms", "span:cohomology.one_cocycle_basis:ms"),
    "cohomology.ce_differential_ms": ("ms", "span:cohomology.ce_differential:ms"),
    "ooper.graph_oracle_ms": ("ms", "span:ooper.graph_oracle:ms"),
    "twilled.twilled_from_o_ms": ("ms", "span:twilled.twilled_from_o:ms"),
    "twilled.mc_check_ms": ("ms", "span:twilled.mc_check:ms"),
})
PER_TUPLE = {
    "gcsholo.direct_us_per_tuple": "gcsholo.gcs_check_direct",
    "gcsholo.components_us_per_tuple": "gcsholo.gcs_check_components",
}


def layer_metrics(tracer: Tracer):
    """Every per-layer metric except trace.overhead_ratio, as {name: (value, unit)},
    and the tuples gcs_check_direct accepted and checked, as (accepted, tuples).

    A layer or span that no traced op reached reads 0.
    """
    ops = [v for k, v in _per_op(tracer.spans).items() if k is not None]
    out = {}
    for name, (unit, key) in PER_LAYER.items():
        values = [op.get(key, 0) for op in ops]
        if name.endswith(".errors"):
            out[name] = (sum(values), unit)
        else:
            out[name] = (statistics.median(values) if values else 0, unit)

    def total(key):
        return sum(op.get(key, 0) for op in ops)

    for name, span_name in PER_TUPLE.items():
        tuples = total(f"span:{span_name}:count")
        ms = total(f"span:{span_name}:ms")
        out[name] = (ms * 1e3 / tuples if tuples else 0, "us")
    accepted = total("span:gcsholo.gcs_check_direct:accepted")
    tuples = total("span:gcsholo.gcs_check_direct:count")
    return out, (accepted, tuples)
