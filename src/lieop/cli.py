"""Batch front door: load JSON workspaces, validate every object, run checks
and constructions, and emit deterministic machine-readable reports.

One document format: a top-level "objects" map from names to typed entries.
All rationals travel as strings ("p" or "p/q"); matrices are row-major arrays
of such strings; sparse tensors use [i, j, [coefficients]] triples.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations

from . import cohomology, gcsholo, liecore, onstruct, ooper, twilled
from .errors import DimensionMismatch, LieOpError, OracleDisagreement, WorkspaceError
from .exactla import Matrix, is_zero_vec, parse_scalar, scalar_str
from .liecore import LieAlgebra, Representation, Subspace
from .onstruct import DeformationData
from .ooper import Bivector


# ---------------------------------------------------------------------------
# JSON encoding helpers
# ---------------------------------------------------------------------------

def matrix_to_json(m: Matrix):
    return [[scalar_str(x) for x in row] for row in m.entries]


def matrix_from_json(rows, shape=None) -> Matrix:
    m = Matrix([[parse_scalar(x) for x in row] for row in rows],
               cols=shape[1] if shape and not rows else None)
    if shape is not None and m.shape() != tuple(shape):
        raise WorkspaceError(f"matrix has shape {m.shape()}, expected {tuple(shape)}")
    return m


def vector_to_json(v):
    return [scalar_str(x) for x in v]


def vector_from_json(row):
    return tuple(parse_scalar(x) for x in row)


def brackets_to_json(g: LieAlgebra):
    out = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if not is_zero_vec(g.c[i][j]):
                out.append([i, j, vector_to_json(g.c[i][j])])
    return out


def lie_algebra_to_json(g: LieAlgebra):
    return {"kind": "lie_algebra", "dim": g.dim, "brackets": brackets_to_json(g)}


def lie_algebra_from_json(raw) -> LieAlgebra:
    dim = raw["dim"]
    entries = {}
    for i, j, coeffs in raw.get("brackets", []):
        entries[(i, j)] = vector_from_json(coeffs)
    return LieAlgebra.from_brackets(dim, entries)


def bivector_entries_to_json(r: Bivector):
    return [[i, j, scalar_str(v)] for (i, j), v in sorted(r.pairs().items())]


def bivector_from_entries(dim, entries) -> Bivector:
    return Bivector.from_pairs(dim, {(i, j): parse_scalar(v) for i, j, v in entries})


def triples_to_json(dim, tensor):
    out = []
    for i in range(dim):
        for j in range(dim):
            if not is_zero_vec(tensor[i][j]):
                out.append([i, j, vector_to_json(tensor[i][j])])
    return out


def triples_from_json(dim, triples, skew=False):
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, coeffs in triples:
        for k in (i, j):
            if type(k) is not int or not 0 <= k < dim:
                raise WorkspaceError(f"triple index {k!r} is not an integer in [0, {dim})")
        v = vector_from_json(coeffs)
        if len(v) != dim:
            raise WorkspaceError(f"triple ({i}, {j}) has {len(v)} coefficients, expected {dim}")
        c[i][j] = list(v)
        if skew:
            c[j][i] = [-x for x in v]
    return c


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    name: str
    kind: str
    raw: dict
    value: object


_BUILD_ORDER = ("lie_algebra", "subspace", "representation", "linmap",
                "bivector", "cochain", "o_operator", "nijenhuis",
                "nijenhuis_structure", "on_structure", "pn_structure",
                "pre_lie", "gcs_module", "gcs_lie", "complex_pair", "holo_o",
                "holo_r", "deformation", "twilled", "mc_solution")


class Workspace:
    """Named objects loaded from JSON documents, cross-checked on load."""

    def __init__(self):
        self.entries: dict[str, Entry] = {}

    @staticmethod
    def load(documents):
        ws = Workspace()
        raws = {}
        for doc in documents:
            objs = doc.get("objects") if isinstance(doc, dict) else None
            if not isinstance(objs, dict):
                raise WorkspaceError("document has no top-level 'objects' map")
            for name, raw in objs.items():
                if name in raws:
                    raise WorkspaceError(f"duplicate object name {name!r}")
                if not isinstance(raw, dict):
                    raise WorkspaceError(f"object {name!r} is not a map")
                raws[name] = raw
        defects = []
        structural = False
        for kind in _BUILD_ORDER:
            for name in sorted(raws):
                raw = raws[name]
                if raw.get("kind") != kind:
                    continue
                try:
                    value = ws._build(kind, raw)
                    ws.entries[name] = Entry(name, kind, raw, value)
                except (LieOpError, KeyError, ValueError, TypeError) as exc:
                    if isinstance(exc, OracleDisagreement):
                        raise
                    if isinstance(exc, (KeyError, ValueError, TypeError,
                                        WorkspaceError, DimensionMismatch)):
                        structural = True
                    defects.append((name, f"{type(exc).__name__}: {exc}"))
        for name in sorted(raws):
            if raws[name].get("kind") not in _BUILD_ORDER:
                structural = True
                defects.append((name, f"unknown object kind {raws[name].get('kind')!r}"))
        if defects:
            err = WorkspaceError("workspace failed to load", defects)
            err.structural = structural
            raise err
        return ws

    @staticmethod
    def load_files(paths):
        docs = []
        for p in paths:
            with open(p, "r", encoding="utf-8") as fh:
                docs.append(json.load(fh))
        return Workspace.load(docs)

    def get(self, name, kind=None):
        if name not in self.entries:
            raise WorkspaceError(f"unknown object {name!r}")
        entry = self.entries[name]
        if kind is not None and entry.kind != kind:
            raise WorkspaceError(
                f"object {name!r} has kind {entry.kind}, expected {kind}")
        return entry

    def _ref(self, raw, key, kind):
        return self.get(raw[key], kind).value

    def _build(self, kind, raw):
        dim = raw.get("dim", 0)
        if type(dim) is not int or dim < 0:
            raise WorkspaceError(f"dim must be a non-negative integer, got {dim!r}")
        if kind == "lie_algebra":
            return lie_algebra_from_json(raw)
        if kind == "subspace":
            return Subspace(raw["ambient"], [vector_from_json(v) for v in raw["basis"]])
        if kind == "representation":
            g = self._ref(raw, "algebra_ref", "lie_algebra")
            dim = raw["dim"]
            mats = [matrix_from_json(m, (dim, dim)) for m in raw["actions"]]
            return Representation(g, dim, mats)
        if kind == "linmap":
            return matrix_from_json(raw["matrix"])
        if kind == "bivector":
            g = self._ref(raw, "algebra_ref", "lie_algebra") if "algebra_ref" in raw else None
            dim = raw["dim"] if g is None else g.dim
            return (g, bivector_from_entries(dim, raw.get("entries", [])))
        if kind == "cochain":
            values = {tuple(idx): vector_from_json(v) for idx, v in raw.get("values", [])}
            return cohomology.Cochain(raw["degree"], raw["source_dim"],
                                      raw["target_dim"], values)
        if kind == "o_operator":
            rep = self._ref(raw, "rep_ref", "representation")
            return (rep, matrix_from_json(raw["matrix"], (rep.algebra.dim, rep.dim_m)))
        if kind == "nijenhuis":
            g = self._ref(raw, "algebra_ref", "lie_algebra")
            return (g, matrix_from_json(raw["matrix"], (g.dim, g.dim)))
        if kind == "nijenhuis_structure":
            rep = self._ref(raw, "rep_ref", "representation")
            return (rep,
                    matrix_from_json(raw["n"], (rep.algebra.dim, rep.algebra.dim)),
                    matrix_from_json(raw["s"], (rep.dim_m, rep.dim_m)))
        if kind == "on_structure":
            rep = self._ref(raw, "rep_ref", "representation")
            return (rep,
                    matrix_from_json(raw["t"], (rep.algebra.dim, rep.dim_m)),
                    matrix_from_json(raw["n"], (rep.algebra.dim, rep.algebra.dim)),
                    matrix_from_json(raw["s"], (rep.dim_m, rep.dim_m)))
        if kind == "pn_structure":
            g = self._ref(raw, "algebra_ref", "lie_algebra")
            return (g, bivector_from_entries(g.dim, raw.get("r", [])),
                    matrix_from_json(raw["n"], (g.dim, g.dim)))
        if kind == "pre_lie":
            dim = raw["dim"]
            return (dim, triples_from_json(dim, raw.get("products", [])))
        if kind == "gcs_module":
            rep = self._ref(raw, "rep_ref", "representation")
            d, m = rep.algebra.dim, rep.dim_m
            return (rep, matrix_from_json(raw["n"], (d, d)),
                    matrix_from_json(raw["t"], (d, m)),
                    matrix_from_json(raw["sigma"], (m, d)),
                    matrix_from_json(raw["s"], (m, m)))
        if kind == "gcs_lie":
            g = self._ref(raw, "algebra_ref", "lie_algebra")
            sig = bivector_from_entries(g.dim, raw.get("sigma2", []))
            return (g, matrix_from_json(raw["n"], (g.dim, g.dim)),
                    bivector_from_entries(g.dim, raw.get("r", [])),
                    Matrix(sig.m))
        if kind == "complex_pair":
            rep = self._ref(raw, "rep_ref", "representation")
            return (rep,
                    matrix_from_json(raw["i"], (rep.algebra.dim, rep.algebra.dim)),
                    matrix_from_json(raw["i_m"], (rep.dim_m, rep.dim_m)))
        if kind == "holo_o":
            rep = self._ref(raw, "rep_ref", "representation")
            d, m = rep.algebra.dim, rep.dim_m
            return (rep, matrix_from_json(raw["j"], (d, d)),
                    matrix_from_json(raw["j_m"], (m, m)),
                    matrix_from_json(raw["t_r"], (d, m)),
                    matrix_from_json(raw["t_i"], (d, m)))
        if kind == "holo_r":
            g = self._ref(raw, "algebra_ref", "lie_algebra")
            return (g, matrix_from_json(raw["j"], (g.dim, g.dim)),
                    bivector_from_entries(g.dim, raw.get("r_r", [])),
                    bivector_from_entries(g.dim, raw.get("r_i", [])))
        if kind == "deformation":
            rep = self._ref(raw, "rep_ref", "representation")
            g = rep.algebra
            bracket1 = triples_from_json(g.dim, raw.get("bracket1", []), skew=True)
            action1 = [matrix_from_json(m, (rep.dim_m, rep.dim_m))
                       for m in raw["action1"]]
            return (rep, DeformationData.build(g.dim, rep.dim_m, bracket1, action1))
        if kind == "twilled":
            total = self._ref(raw, "total_ref", "lie_algebra")
            a = Subspace(total.dim, [vector_from_json(v) for v in raw["a_basis"]])
            b = Subspace(total.dim, [vector_from_json(v) for v in raw["b_basis"]])
            return twilled.twilled_new(total, a, b)
        if kind == "mc_solution":
            tw = self._ref(raw, "twilled_ref", "twilled")
            return (tw, matrix_from_json(raw["omega"], (tw.dim_b, tw.dim_a)))
        raise WorkspaceError(f"unknown object kind {kind!r}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _first_defect(defects):
    for key in sorted(defects):
        if not is_zero_vec(defects[key]):
            return f"first defect at {key}: {vector_to_json(defects[key])}"
    return ""


def check_entry(ws: Workspace, entry: Entry):
    """(verdict, detail) for one object; carriers are valid by construction."""
    kind, value = entry.kind, entry.value
    if kind in ("lie_algebra", "subspace", "representation", "cochain",
                "twilled", "linmap"):
        return True, "validated on load"
    if kind == "bivector":
        g, r = value
        if g is None:
            return True, "antisymmetry validated on load"
        verdict = ooper.lemma_r_equiv(g, r)
        return verdict, "" if verdict else \
            f"[r,r] has support {sorted(ooper.schouten_self(g, r))}"
    if kind == "o_operator":
        rep, t = value
        verdict = ooper.graph_oracle(rep, t)
        detail = "" if verdict else _first_defect(ooper.o_residual(rep, t))
        return verdict, detail
    if kind == "nijenhuis":
        g, n = value
        verdict, defect = onstruct.is_nijenhuis(g, n)
        return verdict, "" if verdict else f"defect at {defect[:2]}"
    if kind == "nijenhuis_structure":
        rep, n, s = value
        return onstruct.is_nijenhuis_structure(rep, n, s), ""
    if kind == "on_structure":
        rep, t, n, s = value
        verdict, report = onstruct.is_on_structure(rep, t, n, s)
        failed = [k for k, v in report.items() if not v]
        return verdict, "" if verdict else f"failed clauses: {failed}"
    if kind == "pn_structure":
        g, r, n = value
        return onstruct.is_pn_structure(g, r, n), ""
    if kind == "pre_lie":
        dim, tensor = value
        bad = ooper.pre_lie_defect_tensor(dim, liecore.sparse(tensor))
        return bad is None, "" if bad is None else f"identity fails at triple {bad}"
    if kind == "gcs_module":
        rep, n, t, sigma, s = value
        verdict = gcsholo.gcs_oracle(rep, n, t, sigma, s)
        if verdict:
            return True, ""
        _, failed = gcsholo.gcs_check_components(rep, n, t, sigma, s, report=True)
        return False, f"failed identities: {failed}"
    if kind == "gcs_lie":
        g, n, r, sigma2 = value
        return gcsholo.gcs_lie_check(g, n, r, sigma2), ""
    if kind == "complex_pair":
        rep, i, im = value
        return gcsholo.is_module_complex_pair(rep, i, im), ""
    if kind == "holo_o":
        rep, j, jm, tr, ti = value
        return gcsholo.is_holomorphic_o(rep, j, jm, tr, ti), ""
    if kind == "holo_r":
        g, j, rr, ri = value
        return gcsholo.is_holomorphic_r(g, j, rr, ri), ""
    if kind == "deformation":
        rep, d = value
        verdict, which = onstruct.is_infinitesimal_deformation(rep, d)
        return verdict, "" if verdict else f"condition {which} fails"
    if kind == "mc_solution":
        tw, omega = value
        verdict, defects = twilled.strong_mc_check(tw, omega)
        if verdict:
            return True, "strong"
        weak, _ = twilled.mc_check(tw, omega)
        return weak, "weak only" if weak else "not a Maurer-Cartan solution"
    raise WorkspaceError(f"no validator for kind {kind!r}")


CHECK_KINDS = {
    "o-operator": ("o_operator", 1),
    "r-matrix": ("bivector", 1),
    "compatible": ("o_operator", 2),
    "nijenhuis": ("nijenhuis", 1),
    "nijenhuis-structure": ("nijenhuis_structure", 1),
    "on": ("on_structure", 1),
    "pn": ("pn_structure", 1),
    "twilled": ("twilled", 1),
    "mc": ("mc_solution", 1),
    "strong-mc": ("mc_solution", 1),
    "gcs": ("gcs_module", 1),
    "gcs-lie": ("gcs_lie", 1),
    "complex": ("complex_pair", 1),
    "holo-o": ("holo_o", 1),
    "holo-r": ("holo_r", 1),
    "pre-lie": ("pre_lie", 1),
}


def run_check(ws: Workspace, kind, names):
    expected_kind, arity = CHECK_KINDS[kind]
    if len(names) != arity:
        raise WorkspaceError(f"check {kind} takes {arity} object name(s)")
    entries = [ws.get(n, expected_kind) for n in names]
    if kind == "compatible":
        (rep1, t1), (rep2, t2) = entries[0].value, entries[1].value
        if rep1 is not rep2:
            raise WorkspaceError("compatible check needs operators over one module")
        verdict = ooper.are_compatible(rep1, t1, t2)
        detail = "" if verdict else _first_defect(
            ooper.compatibility_defect(rep1, t1, t2))
        return verdict, detail
    if kind == "r-matrix":
        g, r = entries[0].value
        if g is None:
            raise WorkspaceError("bivector has no algebra_ref to check against")
        return check_entry(ws, entries[0])
    if kind == "mc":
        tw, omega = entries[0].value
        verdict, defects = twilled.mc_check(tw, omega)
        return verdict, "" if verdict else _first_defect(defects)
    if kind == "strong-mc":
        tw, omega = entries[0].value
        verdict, _ = twilled.strong_mc_check(tw, omega)
        return verdict, ""
    return check_entry(ws, entries[0])


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

def _emit_rep(rep: Representation, algebra_name, out):
    return {"kind": "representation", "algebra_ref": algebra_name,
            "dim": rep.dim_m, "actions": [matrix_to_json(a) for a in rep.action]}


def run_derive(ws: Workspace, kind, args):
    """Returns ({name: json}, dependency names to copy verbatim)."""
    if kind in DERIVE_KINDS and len(args) != DERIVE_KINDS[kind]:
        raise WorkspaceError(f"derive {kind} takes {DERIVE_KINDS[kind]} argument(s)")
    new = {}
    deps = set()

    def dep(name):
        deps.add(name)
        entry = ws.get(name)
        for key in ("algebra_ref", "rep_ref", "total_ref", "twilled_ref"):
            if key in entry.raw:
                dep(entry.raw[key])
        return entry

    if kind == "induced-lie":
        (name,) = args
        rep, t = dep(name).value
        out = ooper.induced_lie(rep, t)
        new[f"{name}__induced"] = lie_algebra_to_json(out)
    elif kind == "semidirect":
        (name,) = args
        rep = dep(name).value
        new[f"{name}__semidirect"] = lie_algebra_to_json(liecore.semidirect(rep))
    elif kind == "adjoint":
        (name,) = args
        g = dep(name).value
        new[f"{name}__adjoint"] = _emit_rep(liecore.adjoint(g), name, new)
    elif kind == "coadjoint":
        (name,) = args
        g = dep(name).value
        new[f"{name}__coadjoint"] = _emit_rep(liecore.coadjoint(g), name, new)
    elif kind == "dual":
        (name,) = args
        entry = dep(name)
        rep = entry.value
        new[f"{name}__dual"] = _emit_rep(liecore.dual_rep(rep),
                                         entry.raw["algebra_ref"], new)
    elif kind == "deformed-bracket":
        (name,) = args
        g, n = dep(name).value
        new[f"{name}__deformed"] = lie_algebra_to_json(onstruct.deformed_bracket(g, n))
    elif kind == "gauge":
        tname, bname = args
        rep, t = dep(tname).value
        b = dep(bname).value
        tb = ooper.gauge_transform(rep, t, b)
        new[f"{tname}__gauge__{bname}"] = {
            "kind": "o_operator", "rep_ref": ws.get(tname).raw["rep_ref"],
            "matrix": matrix_to_json(tb)}
    elif kind == "reduce":
        tname, hname, ename, nname = args
        rep, t = dep(tname).value
        h = dep(hname).value
        e = dep(ename).value
        nsub = dep(nname).value
        red = ooper.mr_reduce(rep, t, h, e, nsub)
        base = f"{tname}__reduced"
        new[f"{base}_algebra"] = lie_algebra_to_json(red.quotient.algebra)
        new[f"{base}_rep"] = _emit_rep(red.reduced_rep, f"{base}_algebra", new)
        new[base] = {"kind": "o_operator", "rep_ref": f"{base}_rep",
                     "matrix": matrix_to_json(red.reduced_T)}
        new[f"{base}_module"] = {
            "kind": "subspace", "ambient": rep.dim_m,
            "basis": [vector_to_json(v) for v in red.module_basis]}
    elif kind == "hierarchy":
        depth, name = args
        if not depth.isdecimal():
            raise WorkspaceError(f"hierarchy depth must be a non-negative integer, got {depth!r}")
        rep, t, n, s = dep(name).value
        ts = onstruct.hierarchy(rep, t, n, s, int(depth))
        for k, tk in enumerate(ts):
            new[f"{name}__t{k}"] = {
                "kind": "o_operator", "rep_ref": ws.get(name).raw["rep_ref"],
                "matrix": matrix_to_json(tk)}
    elif kind == "tilde-action":
        (name,) = args
        rep, n, s = dep(name).value
        tilde = onstruct.tilde_action(rep, n, s)
        new[f"{name}__deformed_algebra"] = lie_algebra_to_json(tilde.algebra)
        new[f"{name}__tilde"] = _emit_rep(tilde, f"{name}__deformed_algebra", new)
    elif kind == "twilled-from-o":
        (name,) = args
        rep, t = dep(name).value
        tw = twilled.twilled_from_o(rep, t)
        new[f"{name}__total"] = lie_algebra_to_json(tw.total)
        d = tw.dim_a + tw.dim_b
        ident = Matrix.identity(d)
        new[f"{name}__twilled"] = {
            "kind": "twilled", "total_ref": f"{name}__total",
            "a_basis": [vector_to_json(ident.row(i)) for i in range(tw.dim_a)],
            "b_basis": [vector_to_json(ident.row(tw.dim_a + i)) for i in range(tw.dim_b)]}
    elif kind == "on-from-pair":
        n1, n2 = args
        rep, t1 = dep(n1).value
        rep2, t2 = dep(n2).value
        if rep is not rep2:
            raise WorkspaceError("operators live over different modules")
        on = onstruct.on_from_compatible_pair(rep, t1, t2)
        new[f"{n2}__on"] = {
            "kind": "on_structure", "rep_ref": ws.get(n1).raw["rep_ref"],
            "t": matrix_to_json(on.T), "n": matrix_to_json(on.N),
            "s": matrix_to_json(on.S)}
    elif kind == "on-from-mc":
        tname, mcname = args
        rep, t = dep(tname).value
        mc_entry = dep(mcname)
        _, omega = mc_entry.value
        on = twilled.on_from_strong_mc(rep, t, omega)
        new[f"{tname}__on_from_mc"] = {
            "kind": "on_structure", "rep_ref": ws.get(tname).raw["rep_ref"],
            "t": matrix_to_json(on.T), "n": matrix_to_json(on.N),
            "s": matrix_to_json(on.S)}
    elif kind == "mc-from-on":
        (name,) = args
        rep, t, n, s = dep(name).value
        omega = twilled.strong_mc_from_on(rep, t, n, s)
        tw = twilled.twilled_from_o(rep, t)
        new[f"{name}__total"] = lie_algebra_to_json(tw.total)
        d = tw.dim_a + tw.dim_b
        ident = Matrix.identity(d)
        new[f"{name}__twilled"] = {
            "kind": "twilled", "total_ref": f"{name}__total",
            "a_basis": [vector_to_json(ident.row(i)) for i in range(tw.dim_a)],
            "b_basis": [vector_to_json(ident.row(tw.dim_a + i)) for i in range(tw.dim_b)]}
        new[f"{name}__mc"] = {"kind": "mc_solution", "twilled_ref": f"{name}__twilled",
                              "omega": matrix_to_json(omega)}
    elif kind == "gcs-from-o":
        (name,) = args
        rep, t = dep(name).value
        j = gcsholo.gcs_from_invertible_o(rep, t)
        new[f"{name}__gcs"] = {
            "kind": "gcs_module", "rep_ref": ws.get(name).raw["rep_ref"],
            "n": matrix_to_json(j.N), "t": matrix_to_json(j.T),
            "sigma": matrix_to_json(j.sigma), "s": matrix_to_json(j.S)}
    elif kind == "opposite-gcs":
        (name,) = args
        entry = dep(name)
        rep, n, t, sigma, s = entry.value
        j = gcsholo.opposite_gcs(gcsholo.GCSModule(rep, n, t, sigma, s))
        new[f"{name}__opposite"] = {
            "kind": "gcs_module", "rep_ref": entry.raw["rep_ref"],
            "n": matrix_to_json(j.N), "t": matrix_to_json(j.T),
            "sigma": matrix_to_json(j.sigma), "s": matrix_to_json(j.S)}
    elif kind == "pre-lie-from-o":
        (name,) = args
        rep, t = dep(name).value
        p = ooper.pre_lie_from_o(rep, t)
        new[f"{name}__prelie"] = {"kind": "pre_lie", "dim": p.dim,
                                  "products": triples_to_json(p.dim, p.p)}
    else:
        raise WorkspaceError(f"unknown derive kind {kind!r}")
    return new, deps


# derive kind -> number of positional arguments
DERIVE_KINDS = {
    "induced-lie": 1, "gauge": 2, "reduce": 4, "hierarchy": 2,
    "deformed-bracket": 1, "tilde-action": 1, "twilled-from-o": 1,
    "on-from-mc": 2, "mc-from-on": 1, "on-from-pair": 2, "gcs-from-o": 1,
    "pre-lie-from-o": 1, "opposite-gcs": 1, "semidirect": 1, "dual": 1,
    "adjoint": 1, "coadjoint": 1,
}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _suite_oracles(ws: Workspace, seed):
    """Small seeded property suites over loaded reps and algebras."""
    rng = random.Random(seed)
    suites = {}
    reps = [(n, e.value) for n, e in sorted(ws.entries.items())
            if e.kind == "representation"]
    algs = [(n, e.value) for n, e in sorted(ws.entries.items())
            if e.kind == "lie_algebra"]
    graph_total = graph_agree = 0
    for _, rep in reps:
        for _ in range(10):
            t = Matrix([[rng.randint(-2, 2) for _ in range(rep.dim_m)]
                        for _ in range(rep.algebra.dim)])
            graph_total += 1
            graph_agree += (ooper.graph_check(rep, t) ==
                            ooper.is_o_operator(rep, t))
    suites["o_operator_graph_oracle"] = {"agree": graph_agree, "total": graph_total}
    cybe_total = cybe_agree = 0
    for _, g in algs:
        for _ in range(6):
            pairs = {(i, j): rng.randint(-1, 1)
                     for i in range(g.dim) for j in range(i + 1, g.dim)}
            r = Bivector.from_pairs(g.dim, pairs)
            cybe_total += 1
            cybe_agree += (ooper.is_r_matrix(g, r) ==
                           ooper.is_o_operator(liecore.coadjoint(g), ooper.r_sharp(r)))
    suites["cybe_coadjoint_oracle"] = {"agree": cybe_agree, "total": cybe_total}
    dsq_total = dsq_ok = 0
    for _, rep in reps:
        for degree in (0, 1):
            vals = {idx: tuple(rng.randint(-2, 2) for _ in range(rep.dim_m))
                    for idx in combinations(range(rep.algebra.dim), degree)}
            f = cohomology.Cochain(degree, rep.algebra.dim, rep.dim_m, vals)
            dsq_total += 1
            dsq_ok += cohomology.ce_differential(
                rep, cohomology.ce_differential(rep, f)).is_zero()
    suites["ce_differential_squares_to_zero"] = {"agree": dsq_ok, "total": dsq_total}
    return suites


def build_report(ws: Workspace, seed=0):
    objects = {}
    for name in sorted(ws.entries):
        entry = ws.entries[name]
        verdict, detail = check_entry(ws, entry)
        objects[name] = {"kind": entry.kind, "valid": verdict, "detail": detail}
    return {"objects": objects, "suites": _suite_oracles(ws, seed)}


def render_report(report, fmt):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []
    for name in sorted(report["objects"]):
        info = report["objects"][name]
        status = "valid" if info["valid"] else "INVALID"
        suffix = f" ({info['detail']})" if info["detail"] else ""
        lines.append(f"{name} [{info['kind']}] {status}{suffix}")
    for sname in sorted(report["suites"]):
        s = report["suites"][sname]
        lines.append(f"suite {sname}: {s['agree']}/{s['total']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser():
    p = argparse.ArgumentParser(prog="lieop", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, output=False):
        sp.add_argument("--input", nargs="+", required=True, metavar="FILE")
        sp.add_argument("--format", choices=("json", "text"), default="text")
        sp.add_argument("--seed", type=int, default=0)
        if output:
            sp.add_argument("--output", required=True, metavar="FILE")

    sp = sub.add_parser("validate", help="validate every object in the workspace")
    common(sp)
    sp = sub.add_parser("check", help="run one verification")
    sp.add_argument("kind", choices=sorted(CHECK_KINDS))
    sp.add_argument("names", nargs="+")
    common(sp)
    sp = sub.add_parser("derive", help="run one construction and write results")
    sp.add_argument("kind", choices=sorted(DERIVE_KINDS))
    sp.add_argument("args", nargs="+")
    common(sp, output=True)
    sp = sub.add_parser("report", help="consolidated deterministic summary")
    common(sp)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except OracleDisagreement as exc:
        # a library bug, never a verdict on the input: its own exit code
        sys.stdout.write(f"error: {exc}\n")
        return 3


def _run(args):
    try:
        ws = Workspace.load_files(args.input)
    except WorkspaceError as exc:
        sys.stdout.write(f"error: {exc}\n")
        for name, detail in exc.defects or []:
            sys.stdout.write(f"  {name}: {detail}\n")
        # a workspace whose objects fail their validators is invalid (1);
        # unparseable or unresolvable input is an error (2)
        if args.command == "validate" and not getattr(exc, "structural", True):
            return 1
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(f"error: {exc}\n")
        return 2

    if args.command == "validate":
        report = build_report(ws, seed=args.seed)
        sys.stdout.write(render_report(report, args.format))
        return 0 if all(o["valid"] for o in report["objects"].values()) else 1

    if args.command == "check":
        try:
            verdict, detail = run_check(ws, args.kind, args.names)
        except OracleDisagreement:
            raise
        except LieOpError as exc:
            sys.stdout.write(f"error: {exc}\n")
            return 2
        word = "valid" if verdict else "invalid"
        suffix = f" {detail}" if detail else ""
        sys.stdout.write(f"{args.kind} {' '.join(args.names)}: {word}{suffix}\n")
        return 0 if verdict else 1

    if args.command == "derive":
        try:
            new, deps = run_derive(ws, args.kind, args.args)
        except OracleDisagreement:
            raise
        except LieOpError as exc:
            sys.stdout.write(f"error: {exc}\n")
            return 2
        doc = {"objects": {}}
        for name in sorted(deps):
            doc["objects"][name] = ws.get(name).raw
        doc["objects"].update({k: new[k] for k in sorted(new)})
        Workspace.load([doc])  # round-trip: outputs must re-validate
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        sys.stdout.write(f"wrote {len(new)} object(s) to {args.output}\n")
        return 0

    if args.command == "report":
        report = build_report(ws, seed=args.seed)
        sys.stdout.write(render_report(report, args.format))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
