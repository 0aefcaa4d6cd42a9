"""Batch front door: load JSON workspaces, validate every object, run checks
and constructions, and emit deterministic machine-readable reports.

One document format: a top-level "objects" map from names to typed entries.
`KINDS` is that format: for each kind, its fields in order, each a key and one
parser, and `DUMP` holds each parser's serialiser.  Loading (`Workspace.load`),
writing (`emit`), `derive` and the fuzz test all read it.  All rationals travel
as strings ("p" or "p/q"); matrices are row-major arrays of such strings;
sparse tensors use [i, j, coefficients] triples, and a sparse field may be
omitted (it is then zero).  The same rules hold for every field: an array is a
JSON array, never a string or a map; an index is a JSON integer in range and a
count a non-negative JSON integer, never a boolean; a reference is an object
name; a count beside a reference that fixes it must agree with it; and a
missing or unknown key is an error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

from . import cohomology, gcsholo, liecore, onstruct, ooper, twilled
from .errors import DimensionMismatch, LieOpError, OracleDisagreement, WorkspaceError, oracle
from .exactla import Matrix, is_zero_vec, parse_scalar, scalar_str, vec_add
from .liecore import LieAlgebra, Representation, Subspace
from .onstruct import DeformationData
from .ooper import Bivector


# ---------------------------------------------------------------------------
# the workspace format
# ---------------------------------------------------------------------------

def matrix_to_json(m: Matrix):
    return [[scalar_str(x) for x in row] for row in m.entries]


def vector_to_json(v):
    return [scalar_str(x) for x in v]


def _list(x, what):
    """x itself if it is a JSON array: a string or a map is never read as one."""
    if not isinstance(x, list):
        raise WorkspaceError(f"{what} must be a list, got {x!r}")
    return x


def _coeffs(x, n, what):
    v = tuple(parse_scalar(a) for a in _list(x, what))
    if len(v) != n:
        raise WorkspaceError(f"{what} has {len(v)} coefficients, expected {n}")
    return v


def _index(k, n, what):
    if type(k) is not int or not 0 <= k < n:
        raise WorkspaceError(f"{what} index {k!r} is not an integer in [0, {n})")
    return k


# Each parser is called as parse(ws, dims, key, x, *args): x is the field's
# JSON value, and dims maps the letters g, m, a, b, k to the dims that earlier
# fields of the same object set.

def count(ws, dims, key, x, name):
    """A non-negative integer, the dim `name`."""
    if type(x) is not int or x < 0:
        raise WorkspaceError(f"{key} must be a non-negative integer, got {x!r}")
    if dims.setdefault(name, x) != x:
        raise WorkspaceError(f"{key} is {x}, but the referenced object has {dims[name]}")
    return x


# the dims that an object of each referenceable kind lends to later fields
_LENDS = {
    "lie_algebra": lambda g: {"g": g.dim},
    "representation": lambda rep: {"g": rep.algebra.dim, "m": rep.dim_m},
    "twilled": lambda tw: {"a": tw.dim_a, "b": tw.dim_b},
}


def ref(ws, dims, key, x, kind):
    """The name of an object of `kind`, which loads earlier; gives its value."""
    if not isinstance(x, str):
        raise WorkspaceError(f"{key} must be an object name, got {x!r}")
    value = ws.get(x, kind).value
    dims.update(_LENDS[kind](value))
    return value


def matrix(ws, dims, key, x, shape=""):
    """A matrix of shape (dims[shape[0]], dims[shape[1]]); any shape if "".  The
    string "0", most entries of a sparse operator, is read without parsing."""
    want = tuple(dims[c] for c in shape)
    m = Matrix([[0 if a == "0" else parse_scalar(a) for a in _list(row, "matrix row")]
                for row in _list(x, key)],
               cols=want[1] if want else None)
    if want and m.shape() != want:
        raise WorkspaceError(f"matrix has shape {m.shape()}, expected {want}")
    return m


def matrices(ws, dims, key, x, shape):
    return [matrix(ws, dims, key, m, shape) for m in _list(x, key)]


def vectors(ws, dims, key, x, n):
    return [_coeffs(v, dims[n], "vector") for v in _list(x, key)]


def _table(key, x, n, upper, skew, vector):
    """The n x n table of [i, j, c] items, c a length-n vector or a scalar.
    With `upper` each item needs i < j and each pair may appear once; with
    `skew` the item also sets [j][i] to -c."""
    zero = (0,) * n if vector else 0
    t = [[zero] * n for _ in range(n)]
    seen = set()
    for i, j, c in _list(x, key):
        for k in (i, j):
            _index(k, n, "triple")
        if upper:
            if not i < j:
                raise WorkspaceError(f"triple ({i}, {j}) needs i < j")
            if (i, j) in seen:
                raise WorkspaceError(f"triple ({i}, {j}) appears twice")
            seen.add((i, j))
        v = _coeffs(c, n, f"triple ({i}, {j})") if vector else parse_scalar(c)
        t[i][j] = v
        if skew:
            t[j][i] = tuple(-a for a in v) if vector else -v
    return t


def brackets(ws, dims, key, x, n):
    """Bracket triples [i, j, [e_i, e_j]] with i < j; [e_j, e_i] by skew symmetry."""
    return _table(key, x, dims[n], upper=True, skew=True, vector=True)


def bivector(ws, dims, key, x, n):
    """Bivector entries [i, j, r^{ij}] with i < j."""
    return Bivector(dims[n], _table(key, x, dims[n], upper=True, skew=True, vector=False))


def triples(ws, dims, key, x, n):
    """Product triples [i, j, e_i e_j], any pair; the last of a repeat wins."""
    return _table(key, x, dims[n], upper=False, skew=False, vector=True)


def skew_triples(ws, dims, key, x, n):
    """Triples as for `triples`, each also setting [j][i] to minus its vector."""
    return _table(key, x, dims[n], upper=False, skew=True, vector=True)


def values(ws, dims, key, x, n, m):
    """Cochain values [[i_1, ..., i_k], vector of length dims[m]]."""
    out = {}
    for idx, v in _list(x, key):
        idx = tuple(_index(i, dims[n], "cochain") for i in _list(idx, "index tuple"))
        if idx in out:
            raise WorkspaceError(f"cochain index tuple {idx} appears twice")
        out[idx] = _coeffs(v, dims[m], f"value at {idx}")
    return out


SPARSE = (brackets, bivector, triples, skew_triples, values)


def _dump_table(t, upper):
    n = len(t)
    return [[i, j, vector_to_json(t[i][j])] for i in range(n)
            for j in range(i + 1 if upper else 0, n) if not is_zero_vec(t[i][j])]


# the one serialiser of each parser: DUMP[parse](parse(..., x, ...)) == x for
# x in canonical form (sorted, without zero entries)
DUMP = {
    count: lambda x: x,
    ref: lambda name: name,
    matrix: matrix_to_json,
    matrices: lambda ms: [matrix_to_json(m) for m in ms],
    vectors: lambda vs: [vector_to_json(v) for v in vs],
    brackets: lambda t: _dump_table(t, upper=True),
    bivector: lambda r: [[i, j, scalar_str(v)] for (i, j), v in sorted(r.pairs().items())],
    triples: lambda t: _dump_table(t, upper=False),
    skew_triples: lambda t: _dump_table(t, upper=False),
    values: lambda vals: [[list(i), vector_to_json(v)] for i, v in sorted(vals.items())],
}


class Field(NamedTuple):
    key: str
    parse: object
    args: tuple = ()
    optional: bool = False  # a missing optional reference loads as None


def _f(key, parse, *args):
    return Field(key, parse, args)


_ALG = _f("algebra_ref", ref, "lie_algebra")
_REP = _f("rep_ref", ref, "representation")

# kind -> its fields, in load order and in the argument order of `emit`; kinds
# load in this order, so a reference names a kind above its own
KINDS = {
    "lie_algebra": (_f("dim", count, "g"), _f("brackets", brackets, "g")),
    "subspace": (_f("ambient", count, "g"), _f("basis", vectors, "g")),
    "representation": (_ALG, _f("dim", count, "m"), _f("actions", matrices, "mm")),
    "linmap": (_f("matrix", matrix),),
    "bivector": (_ALG._replace(optional=True), _f("dim", count, "g"),
                 _f("entries", bivector, "g")),
    "cochain": (_f("degree", count, "k"), _f("source_dim", count, "g"),
                _f("target_dim", count, "m"), _f("values", values, "g", "m")),
    "o_operator": (_REP, _f("matrix", matrix, "gm")),
    "nijenhuis": (_ALG, _f("matrix", matrix, "gg")),
    "nijenhuis_structure": (_REP, _f("n", matrix, "gg"), _f("s", matrix, "mm")),
    "on_structure": (_REP, _f("t", matrix, "gm"), _f("n", matrix, "gg"),
                     _f("s", matrix, "mm")),
    "pn_structure": (_ALG, _f("r", bivector, "g"), _f("n", matrix, "gg")),
    "pre_lie": (_f("dim", count, "g"), _f("products", triples, "g")),
    "gcs_module": (_REP, _f("n", matrix, "gg"), _f("t", matrix, "gm"),
                   _f("sigma", matrix, "mg"), _f("s", matrix, "mm")),
    "gcs_lie": (_ALG, _f("n", matrix, "gg"), _f("r", bivector, "g"),
                _f("sigma2", bivector, "g")),
    "complex_pair": (_REP, _f("i", matrix, "gg"), _f("i_m", matrix, "mm")),
    "holo_o": (_REP, _f("j", matrix, "gg"), _f("j_m", matrix, "mm"),
               _f("t_r", matrix, "gm"), _f("t_i", matrix, "gm")),
    "holo_r": (_ALG, _f("j", matrix, "gg"), _f("r_r", bivector, "g"),
               _f("r_i", bivector, "g")),
    "deformation": (_REP, _f("bracket1", skew_triples, "g"),
                    _f("action1", matrices, "mm")),
    "twilled": (_f("total_ref", ref, "lie_algebra"), _f("a_basis", vectors, "g"),
                _f("b_basis", vectors, "g")),
    "mc_solution": (_f("twilled_ref", ref, "twilled"), _f("omega", matrix, "ba")),
}

# how a kind's value is made from its field values, where it is not their tuple
_MAKE = {
    "lie_algebra": LieAlgebra,
    "subspace": Subspace,
    "representation": Representation,
    "linmap": lambda m: m,
    "bivector": lambda g, dim, r: (g, r),
    "cochain": cohomology.Cochain,
    "deformation": lambda rep, bracket1, action1: (
        rep, DeformationData.build(rep.algebra.dim, rep.dim_m, bracket1, action1)),
    "twilled": lambda total, a, b: twilled.twilled_new(
        total, Subspace(total.dim, a), Subspace(total.dim, b)),
}


def emit(kind, *field_values):
    """The JSON entry of a `kind` object from its field values, in KINDS order."""
    return {"kind": kind, **{f.key: DUMP[f.parse](v)
                             for f, v in zip(KINDS[kind], field_values, strict=True)}}


def lie_algebra_to_json(g: LieAlgebra):
    return emit("lie_algebra", g.dim, g.c)


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

@dataclass
class Entry:
    name: str
    kind: str
    raw: dict
    value: object


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
        for kind in KINDS:
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
            kind = raws[name].get("kind")
            if not isinstance(kind, str) or kind not in KINDS:
                structural = True
                defects.append((name, f"unknown object kind {kind!r}"))
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

    def _build(self, kind, raw):
        fields = KINDS[kind]
        unknown = sorted(set(raw) - {"kind"} - {f.key for f in fields})
        if unknown:
            raise WorkspaceError(f"unknown key {unknown[0]!r} for kind {kind}")
        dims, vals = {}, []
        for f in fields:
            if f.key in raw:
                vals.append(f.parse(self, dims, f.key, raw[f.key], *f.args))
            elif f.parse in SPARSE:
                vals.append(f.parse(self, dims, f.key, [], *f.args))
            elif f.optional:
                vals.append(None)
            else:
                raise WorkspaceError(f"missing key {f.key!r}")
        make = _MAKE.get(kind)
        return make(*vals) if make else tuple(vals)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _first_defect(defects):
    """The detail of a failed check: the first nonzero of the per-pair defects
    that decided it."""
    key = next(k for k in sorted(defects) if not is_zero_vec(defects[k]))
    return f"first defect at {key}: {vector_to_json(defects[key])}"


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
        verdict, support = ooper.r_matrix_defect(g, r)
        return verdict, "" if verdict else f"[r,r] has support {support}"
    if kind == "o_operator":
        verdict, defect = ooper.graph_oracle(*value)
        return verdict, "" if verdict else _first_defect(dict([defect]))
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
        ok, failed = gcsholo.gcs_check_components(rep, n, t, sigma, s, report=True)
        verdict = oracle("gcs characterization", gcsholo.gcs_check_direct(rep, n, t, sigma, s),
                         ok, "direct={a} components={b}")
        return verdict, "" if verdict else f"failed identities: {failed}"
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
        # the cocycle and quadratic parts of each pair sum to its MC residual
        weak = all(is_zero_vec(vec_add(*parts)) for parts in defects.values())
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
        defects = ooper.compatibility_defect(rep1, t1, t2)
        verdict = ooper.compatibility_oracle(rep1, t1, t2, defects)
        return verdict, "" if verdict else _first_defect(defects)
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

def run_derive(ws: Workspace, kind, args):
    """Returns ({name: json}, dependency names to copy verbatim)."""
    if kind in DERIVE_KINDS and len(args) != DERIVE_KINDS[kind]:
        raise WorkspaceError(f"derive {kind} takes {DERIVE_KINDS[kind]} argument(s)")
    new = {}
    deps = set()

    def dep(name, kind=None):
        deps.add(name)
        entry = ws.get(name, kind)
        for f in KINDS[entry.kind]:
            if f.parse is ref and f.key in entry.raw:
                dep(entry.raw[f.key])
        return entry

    def emit_twilled(name, tw):
        basis = Matrix.identity(tw.dim_a + tw.dim_b).entries
        new[f"{name}__total"] = lie_algebra_to_json(tw.total)
        new[f"{name}__twilled"] = emit("twilled", f"{name}__total",
                                       basis[:tw.dim_a], basis[tw.dim_a:])

    if kind == "induced-lie":
        (name,) = args
        rep, t = dep(name, "o_operator").value
        new[f"{name}__induced"] = lie_algebra_to_json(ooper.induced_lie(rep, t))
    elif kind == "semidirect":
        (name,) = args
        rep = dep(name, "representation").value
        new[f"{name}__semidirect"] = lie_algebra_to_json(liecore.semidirect(rep))
    elif kind == "adjoint":
        (name,) = args
        rep = liecore.adjoint(dep(name, "lie_algebra").value)
        new[f"{name}__adjoint"] = emit("representation", name, rep.dim_m, rep.action)
    elif kind == "coadjoint":
        (name,) = args
        rep = liecore.coadjoint(dep(name, "lie_algebra").value)
        new[f"{name}__coadjoint"] = emit("representation", name, rep.dim_m, rep.action)
    elif kind == "dual":
        (name,) = args
        entry = dep(name, "representation")
        rep = liecore.dual_rep(entry.value)
        new[f"{name}__dual"] = emit("representation", entry.raw["algebra_ref"],
                                    rep.dim_m, rep.action)
    elif kind == "deformed-bracket":
        (name,) = args
        g, n = dep(name, "nijenhuis").value
        new[f"{name}__deformed"] = lie_algebra_to_json(onstruct.deformed_bracket(g, n))
    elif kind == "gauge":
        tname, bname = args
        entry = dep(tname, "o_operator")
        tb = ooper.gauge_transform(*entry.value, dep(bname, "linmap").value)
        new[f"{tname}__gauge__{bname}"] = emit("o_operator", entry.raw["rep_ref"], tb)
    elif kind == "reduce":
        tname, hname, ename, nname = args
        rep, t = dep(tname, "o_operator").value
        h, e, nsub = (dep(n, "subspace").value for n in (hname, ename, nname))
        red = ooper.mr_reduce(rep, t, h, e, nsub)
        base = f"{tname}__reduced"
        new[f"{base}_algebra"] = lie_algebra_to_json(red.quotient.algebra)
        new[f"{base}_rep"] = emit("representation", f"{base}_algebra",
                                  red.reduced_rep.dim_m, red.reduced_rep.action)
        new[base] = emit("o_operator", f"{base}_rep", red.reduced_T)
        new[f"{base}_module"] = emit("subspace", rep.dim_m, red.module_basis)
    elif kind == "hierarchy":
        depth, name = args
        if depth not in {str(k) for k in range(MAX_HIERARCHY_DEPTH + 1)}:
            raise WorkspaceError(
                f"hierarchy depth must be an integer in [0, {MAX_HIERARCHY_DEPTH}], got {depth!r}")
        entry = dep(name, "on_structure")
        for k, tk in enumerate(onstruct.hierarchy(*entry.value, int(depth))):
            new[f"{name}__t{k}"] = emit("o_operator", entry.raw["rep_ref"], tk)
    elif kind == "tilde-action":
        (name,) = args
        tilde = onstruct.tilde_action(*dep(name, "nijenhuis_structure").value)
        new[f"{name}__deformed_algebra"] = lie_algebra_to_json(tilde.algebra)
        new[f"{name}__tilde"] = emit("representation", f"{name}__deformed_algebra",
                                     tilde.dim_m, tilde.action)
    elif kind == "twilled-from-o":
        (name,) = args
        emit_twilled(name, twilled.twilled_from_o(*dep(name, "o_operator").value))
    elif kind == "on-from-pair":
        n1, n2 = args
        entry = dep(n1, "o_operator")
        rep, t1 = entry.value
        rep2, t2 = dep(n2, "o_operator").value
        if rep is not rep2:
            raise WorkspaceError("operators live over different modules")
        on = onstruct.on_from_compatible_pair(rep, t1, t2)
        new[f"{n2}__on"] = emit("on_structure", entry.raw["rep_ref"], on.T, on.N, on.S)
    elif kind == "on-from-mc":
        tname, mcname = args
        entry = dep(tname, "o_operator")
        _, omega = dep(mcname, "mc_solution").value
        on = twilled.on_from_strong_mc(*entry.value, omega)
        new[f"{tname}__on_from_mc"] = emit("on_structure", entry.raw["rep_ref"],
                                           on.T, on.N, on.S)
    elif kind == "mc-from-on":
        (name,) = args
        rep, t, n, s = dep(name, "on_structure").value
        omega = twilled.strong_mc_from_on(rep, t, n, s)
        emit_twilled(name, twilled.twilled_from_o(rep, t))
        new[f"{name}__mc"] = emit("mc_solution", f"{name}__twilled", omega)
    elif kind == "gcs-from-o":
        (name,) = args
        entry = dep(name, "o_operator")
        j = gcsholo.gcs_from_invertible_o(*entry.value)
        new[f"{name}__gcs"] = emit("gcs_module", entry.raw["rep_ref"],
                                   j.N, j.T, j.sigma, j.S)
    elif kind == "opposite-gcs":
        (name,) = args
        entry = dep(name, "gcs_module")
        j = gcsholo.opposite_gcs(gcsholo.GCSModule(*entry.value))
        new[f"{name}__opposite"] = emit("gcs_module", entry.raw["rep_ref"],
                                        j.N, j.T, j.sigma, j.S)
    elif kind == "pre-lie-from-o":
        (name,) = args
        p = ooper.pre_lie_from_o(*dep(name, "o_operator").value)
        new[f"{name}__prelie"] = emit("pre_lie", p.dim, liecore.dense(p.s, p.dim))
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
# the deepest `derive hierarchy`: its work grows faster than the square of the depth
MAX_HIERARCHY_DEPTH = 64


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

    def common(sp, report=False):
        sp.add_argument("--input", nargs="+", required=True, metavar="FILE")
        if report:
            sp.add_argument("--format", choices=("json", "text"), default="text")
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("validate", help="validate every object in the workspace")
    common(sp, report=True)
    sp = sub.add_parser("check", help="run one verification")
    sp.add_argument("kind", choices=sorted(CHECK_KINDS))
    sp.add_argument("names", nargs="+")
    common(sp)
    sp = sub.add_parser("derive", help="run one construction and write results")
    sp.add_argument("kind", choices=sorted(DERIVE_KINDS))
    sp.add_argument("args", nargs="+")
    common(sp)
    sp.add_argument("--output", required=True, metavar="FILE")
    sp = sub.add_parser("report", help="consolidated deterministic summary")
    common(sp, report=True)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except OracleDisagreement as exc:
        # a library bug, never a verdict on the input: its own exit code
        sys.stdout.write(f"error: {exc}\n")
        return 3
    except LieOpError as exc:
        # an input the library refuses, such as a failed precondition
        sys.stdout.write(f"error: {exc}\n")
        return 2


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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        sys.stdout.write(f"error: {exc}\n")
        return 2

    if args.command == "validate":
        report = build_report(ws, seed=args.seed)
        sys.stdout.write(render_report(report, args.format))
        return 0 if all(o["valid"] for o in report["objects"].values()) else 1

    if args.command == "check":
        verdict, detail = run_check(ws, args.kind, args.names)
        word = "valid" if verdict else "invalid"
        suffix = f" {detail}" if detail else ""
        sys.stdout.write(f"{args.kind} {' '.join(args.names)}: {word}{suffix}\n")
        return 0 if verdict else 1

    if args.command == "derive":
        new, deps = run_derive(ws, args.kind, args.args)
        doc = {"objects": {}}
        for name in sorted(deps):
            doc["objects"][name] = ws.get(name).raw
        doc["objects"].update({k: new[k] for k in sorted(new)})
        Workspace.load([doc])  # round-trip: outputs must re-validate
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
                fh.write("\n")
        except OSError as exc:
            sys.stdout.write(f"error: {exc}\n")
            return 2
        sys.stdout.write(f"wrote {len(new)} object(s) to {args.output}\n")
        return 0

    if args.command == "report":
        report = build_report(ws, seed=args.seed)
        sys.stdout.write(render_report(report, args.format))
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
