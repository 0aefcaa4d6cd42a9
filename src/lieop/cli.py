"""Batch front door: load JSON workspaces, validate every object, run checks
and constructions, and emit deterministic machine-readable reports.

One document format: a top-level "objects" map from names to typed entries.
`KINDS` is that format: for each kind, its fields in order, each a key and one
parser, and `DUMP` holds each parser's serialiser.  Loading (`Workspace.load`),
writing (`emit`, and `write`, its inverse of loading, through which `derive`
writes every object it makes) and the fuzz test all read it.  Verdicts, `check`
commands and `derive` kinds are one table each: `VERDICTS`, `CHECKS` and
`DERIVES`.  All rationals travel as strings ("p" or "p/q"); matrices are
row-major arrays of such strings; sparse tensors use [i, j, coefficients]
triples, and a sparse field may be omitted (it is then zero).  The same rules
hold for every field: an array is a JSON array, never a string or a map; an
index is a JSON integer in range and a count a non-negative JSON integer, never
a boolean; a reference is an object name; a count beside a reference that fixes
it must agree with it; and a missing or unknown key is an error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations
from typing import NamedTuple

from . import cohomology, gcsholo, liecore, onstruct, ooper, twilled
from .errors import DimensionMismatch, LieOpError, OracleDisagreement, WorkspaceError, oracle
from .exactla import Matrix, is_zero_vec, parse_scalar, scalar_str, vec_add, vec_zero
from .liecore import LieAlgebra, Representation, Subspace, _units
from .onstruct import DeformationData


# ---------------------------------------------------------------------------
# the workspace format
# ---------------------------------------------------------------------------

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
    rows = [[0 if a == "0" else parse_scalar(a) for a in _list(row, "matrix row")]
            for row in _list(x, key)]
    m = Matrix(rows, cols=want[1] if want and not rows else None)
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
    zero = vec_zero(n) if vector else 0
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
    """The entries [i, j, r^{ij}], i < j, of a bivector, read as its antisymmetric matrix."""
    return Matrix(_table(key, x, dims[n], upper=True, skew=True, vector=False), cols=dims[n])


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
    matrix: lambda m: DUMP[vectors](m.entries),
    matrices: lambda ms: [DUMP[matrix](m) for m in ms],
    vectors: lambda vs: [vector_to_json(v) for v in vs],
    brackets: lambda t: _dump_table(t, upper=True),
    bivector: lambda r: [[i, j, scalar_str(v)] for i, row in enumerate(r.sparse_rows())
                         for j, v in row if i < j],
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


def _unmake_twilled(tw):
    """A twilled value's total is in block coordinates, a first, so its halves
    are the identity rows split after dim_a."""
    rows = _units(tw.total.dim)
    return tw.total, rows[:tw.dim_a], rows[tw.dim_a:]


# kind -> how its value is made from its field values, where it is not their
# tuple, and the inverse: the field values, in KINDS order, read off the value
_MAKE = {
    "lie_algebra": (LieAlgebra, lambda g: (g.dim, g.c)),
    "subspace": (Subspace, lambda sub: (sub.ambient_dim, sub.basis)),
    "representation": (Representation, lambda rep: (rep.algebra, rep.dim_m, rep.action)),
    "linmap": (lambda m: m, lambda m: (m,)),
    "bivector": (lambda g, dim, r: (g, r), lambda value: (value[0], value[1].rows, value[1])),
    "cochain": (cohomology.Cochain, lambda f: (f.degree, f.source_dim, f.target_dim,
                                               {idx: f.value(idx) for idx in f.values})),
    "deformation": (
        lambda rep, bracket1, action1: (
            rep, DeformationData.build(rep.algebra.dim, rep.dim_m, bracket1, action1)),
        lambda value: (value[0], liecore.dense(value[1].bracket1, value[0].algebra.dim),
                       liecore.action_matrices(value[1].action1, value[0].dim_m))),
    "twilled": (lambda total, a, b: twilled.twilled_new(
        total, Subspace(total.dim, a), Subspace(total.dim, b)), _unmake_twilled),
}


def emit(kind, *field_values):
    """The JSON entry of a `kind` object from its field values, in KINDS order."""
    return {"kind": kind, **{f.key: DUMP[f.parse](v)
                             for f, v in zip(KINDS[kind], field_values, strict=True)}}


def write(kind, value, names):
    """The JSON entry of a `kind` object from its value as Workspace._build
    makes it: the inverse of _build.  A reference field is written as the name
    that `names` gives the id of the referenced value, and one it names no
    value of is refused."""
    fields = _MAKE[kind][1](value) if kind in _MAKE else value

    def name(f, v):
        if id(v) not in names:
            raise WorkspaceError(f"{kind} field {f.key!r} refers to an object with no name")
        return names[id(v)]

    return emit(kind, *(name(f, v) if f.parse is ref else v
                        for f, v in zip(KINDS[kind], fields, strict=True)))


def lie_algebra_to_json(g: LieAlgebra):
    return write("lie_algebra", g, {})


# ---------------------------------------------------------------------------
# workspace
# ---------------------------------------------------------------------------

class Entry:
    """One loaded object: its name, kind, JSON entry and parsed value."""

    __slots__ = ("name", "kind", "raw", "value")

    def __init__(self, name: str, kind: str, raw: dict, value):
        self.name, self.kind, self.raw, self.value = name, kind, raw, value


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
        return _MAKE[kind][0](*vals) if kind in _MAKE else tuple(vals)


# ---------------------------------------------------------------------------
# verdicts and checks
# ---------------------------------------------------------------------------
# Every table entry looks its library routes up through their module when it
# runs, so a route patched in its module is the route that runs.

def _first_defect(defects):
    """The detail of a failed check: the first nonzero of the per-pair defects
    that decided it."""
    key = next(k for k in sorted(defects) if not is_zero_vec(defects[k]))
    return f"first defect at {key}: {vector_to_json(defects[key])}"


def _fails(result, say):
    """(verdict, detail) from a route's (verdict, witness): the detail says
    the witness of a failed verdict."""
    verdict, witness = result
    return verdict, "" if verdict else say(witness)


def _loaded(value):
    return True, "validated on load"


def _bivector(value):
    g, r = value
    if g is None:
        return True, "antisymmetry validated on load"
    return _fails(ooper.r_matrix_defect(g, r), "[r,r] has support {}".format)


def _pre_lie(value):
    dim, tensor = value
    bad = ooper.pre_lie_defect_tensor(dim, liecore.sparse(tensor))
    return bad is None, "" if bad is None else f"identity fails at triple {bad}"


def _mc(value):
    """(strong, weak, MC residual per pair) from one strong_mc_check: the
    cocycle and quadratic parts of each pair sum to its MC residual."""
    strong, parts = twilled.strong_mc_check(*value)
    residual = {key: vec_add(*pair) for key, pair in parts.items()}
    return strong, all(is_zero_vec(v) for v in residual.values()), residual


def _mc_solution(value):
    strong, weak, _ = _mc(value)
    if strong:
        return True, "strong"
    return weak, "weak only" if weak else "not a Maurer-Cartan solution"


# kind -> its verdict on an object's value, as (verdict, detail)
VERDICTS = {
    **dict.fromkeys(("lie_algebra", "subspace", "representation", "linmap", "cochain",
                     "twilled"), _loaded),
    "bivector": _bivector,
    "o_operator": lambda value: _fails(ooper.graph_oracle(*value),
                                       lambda defect: _first_defect(dict([defect]))),
    "nijenhuis": lambda value: _fails(onstruct.is_nijenhuis(*value),
                                      lambda defect: f"defect at {defect[:2]}"),
    "nijenhuis_structure": lambda value: (onstruct.is_nijenhuis_structure(*value), ""),
    "on_structure": lambda value: _fails(
        onstruct.is_on_structure(*value),
        lambda report: f"failed clauses: {[k for k, ok in report.items() if not ok]}"),
    "pn_structure": lambda value: (onstruct.is_pn_structure(*value), ""),
    "pre_lie": _pre_lie,
    "gcs_module": lambda value: _fails(gcsholo.gcs_oracle(*value),
                                       "failed identities: {}".format),
    "gcs_lie": lambda value: (gcsholo.gcs_lie_check(*value), ""),
    "complex_pair": lambda value: (gcsholo.is_module_complex_pair(*value), ""),
    "holo_o": lambda value: (gcsholo.is_holomorphic_o(*value), ""),
    "holo_r": lambda value: (gcsholo.is_holomorphic_r(*value), ""),
    "deformation": lambda value: _fails(onstruct.is_infinitesimal_deformation(*value),
                                        "condition {} fails".format),
    "mc_solution": _mc_solution,
}


def check_entry(ws: Workspace, entry: Entry):
    """(verdict, detail) for one object: its kind's entry in VERDICTS."""
    return VERDICTS[entry.kind](entry.value)


def _r_matrix(value):
    if value[0] is None:
        raise WorkspaceError("bivector has no algebra_ref to check against")
    return _bivector(value)


def _compatible(op1, op2):
    (rep, t1), (rep2, t2) = op1, op2
    if rep is not rep2:
        raise WorkspaceError("compatible check needs operators over one module")
    verdict, defects = ooper.compatibility(rep, t1, t2)
    return verdict, "" if verdict else _first_defect(defects)


# check command -> (the kinds of the objects it names, its decision on their
# values); a command on one object decides it as VERDICTS does, except these
CHECKS = {
    **{command: ((kind,), VERDICTS[kind]) for command, kind in (
        ("o-operator", "o_operator"), ("nijenhuis", "nijenhuis"),
        ("nijenhuis-structure", "nijenhuis_structure"), ("on", "on_structure"),
        ("pn", "pn_structure"), ("twilled", "twilled"), ("gcs", "gcs_module"),
        ("gcs-lie", "gcs_lie"), ("complex", "complex_pair"), ("holo-o", "holo_o"),
        ("holo-r", "holo_r"), ("pre-lie", "pre_lie"), ("deformation", "deformation"))},
    "r-matrix": (("bivector",), _r_matrix),
    "compatible": (("o_operator", "o_operator"), _compatible),
    "mc": (("mc_solution",), lambda value: _fails(_mc(value)[1:], _first_defect)),
    "strong-mc": (("mc_solution",), lambda value: (_mc(value)[0], "")),
}


def run_check(ws: Workspace, command, names):
    kinds, decide = CHECKS[command]
    if len(names) != len(kinds):
        raise WorkspaceError(f"check {command} takes {len(kinds)} object name(s)")
    return decide(*(ws.get(name, kind).value for name, kind in zip(names, kinds)))


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

# the deepest `derive hierarchy`: its work grows faster than the square of the depth
MAX_HIERARCHY_DEPTH = 64


def _depth(arg):
    """The depth argument of `derive hierarchy`."""
    if arg not in {str(k) for k in range(MAX_HIERARCHY_DEPTH + 1)}:
        raise WorkspaceError(
            f"hierarchy depth must be an integer in [0, {MAX_HIERARCHY_DEPTH}], got {arg!r}")
    return int(arg)


def _fields(x):
    """A carrier's slot values in order, which is the KINDS order of the kind
    it carries."""
    return tuple(getattr(x, f) for f in type(x).__slots__)


def _twilled(name, tw):
    return {f"{name}__total": ("lie_algebra", tw.total), f"{name}__twilled": ("twilled", tw)}


def _reduce(op, h, e, n):
    red = ooper.mr_reduce(*op.value, h.value, e.value, n.value)
    base = f"{op.name}__reduced"
    return {f"{base}_algebra": ("lie_algebra", red.quotient.algebra),
            f"{base}_rep": ("representation", red.reduced_rep),
            base: ("o_operator", (red.reduced_rep, red.reduced_T)),
            f"{base}_module": ("subspace", red.module)}


def _tilde_action(ns):
    tilde = onstruct.tilde_action(*ns.value)
    return {f"{ns.name}__deformed_algebra": ("lie_algebra", tilde.algebra),
            f"{ns.name}__tilde": ("representation", tilde)}


def _on_from_pair(op1, op2):
    (rep, t1), (rep2, t2) = op1.value, op2.value
    if rep is not rep2:
        raise WorkspaceError("operators live over different modules")
    on = onstruct.on_from_compatible_pair(rep, t1, t2)
    return {f"{op2.name}__on": ("on_structure", _fields(on))}


def _mc_from_on(on):
    rep, t, n, s = on.value
    omega = twilled.strong_mc_from_on(rep, t, n, s)
    tw = twilled.twilled_from_o(rep, t)
    return {**_twilled(on.name, tw), f"{on.name}__mc": ("mc_solution", (tw, omega))}


def _pre_lie_from_o(op):
    p = ooper.pre_lie_from_o(*op.value)
    return {f"{op.name}__prelie": ("pre_lie", (p.dim, liecore.dense(p.s, p.dim)))}


# derive kind -> (for each argument, the kind of the object it names or the
# parser of a plain argument; the construction from the arguments' entries,
# as {name: (kind, value as Workspace._build makes it)})
DERIVES = {
    "induced-lie": (("o_operator",), lambda op: {
        f"{op.name}__induced": ("lie_algebra", ooper.induced_lie(*op.value))}),
    "semidirect": (("representation",), lambda rep: {
        f"{rep.name}__semidirect": ("lie_algebra", liecore.semidirect(rep.value))}),
    "adjoint": (("lie_algebra",), lambda g: {
        f"{g.name}__adjoint": ("representation", liecore.adjoint(g.value))}),
    "coadjoint": (("lie_algebra",), lambda g: {
        f"{g.name}__coadjoint": ("representation", liecore.coadjoint(g.value))}),
    "dual": (("representation",), lambda rep: {
        f"{rep.name}__dual": ("representation", liecore.dual_rep(rep.value))}),
    "deformed-bracket": (("nijenhuis",), lambda n: {
        f"{n.name}__deformed": ("lie_algebra", onstruct.deformed_bracket(*n.value))}),
    "gauge": (("o_operator", "linmap"), lambda op, b: {
        f"{op.name}__gauge__{b.name}": (
            "o_operator", (op.value[0], ooper.gauge_transform(*op.value, b.value)))}),
    "reduce": (("o_operator", "subspace", "subspace", "subspace"), _reduce),
    "hierarchy": ((_depth, "on_structure"), lambda depth, on: {
        f"{on.name}__t{k}": ("o_operator", (on.value[0], tk))
        for k, tk in enumerate(onstruct.hierarchy(*on.value, depth))}),
    "tilde-action": (("nijenhuis_structure",), _tilde_action),
    "twilled-from-o": (("o_operator",), lambda op: _twilled(
        op.name, twilled.twilled_from_o(*op.value))),
    "on-from-pair": (("o_operator", "o_operator"), _on_from_pair),
    "on-from-mc": (("o_operator", "mc_solution"), lambda op, mc: {
        f"{op.name}__on_from_mc": (
            "on_structure", _fields(twilled.on_from_strong_mc(*op.value, mc.value[1])))}),
    "mc-from-on": (("on_structure",), _mc_from_on),
    "gcs-from-o": (("o_operator",), lambda op: {
        f"{op.name}__gcs": ("gcs_module", _fields(gcsholo.gcs_from_invertible_o(*op.value)))}),
    "opposite-gcs": (("gcs_module",), lambda j: {
        f"{j.name}__opposite": (
            "gcs_module", _fields(gcsholo.opposite_gcs(gcsholo.GCSModule(*j.value))))}),
    "pre-lie-from-o": (("o_operator",), _pre_lie_from_o),
}


def run_derive(ws: Workspace, kind, args):
    """Returns ({name: json}, dependency names to copy verbatim)."""
    if kind not in DERIVES:
        raise WorkspaceError(f"unknown derive kind {kind!r}")
    kinds, construct = DERIVES[kind]
    if len(args) != len(kinds):
        raise WorkspaceError(f"derive {kind} takes {len(kinds)} argument(s)")
    deps = set()

    def dep(name, kind=None):
        deps.add(name)
        entry = ws.get(name, kind)
        for f in KINDS[entry.kind]:
            if f.parse is ref and f.key in entry.raw:
                dep(entry.raw[f.key])
        return entry

    made = construct(*(dep(arg, kind) if isinstance(kind, str) else kind(arg)
                       for arg, kind in zip(args, kinds)))
    # a reference names a workspace object, or one made before it
    names = {id(entry.value): name for name, entry in ws.entries.items()}
    new = {}
    for name, (out_kind, value) in made.items():
        new[name] = write(out_kind, value, names)
        names[id(value)] = name
    return new, deps


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _tally(draws):
    """A suite's count of draws.  Each draw runs its two routes through
    `errors.oracle`, which raises on a split, so every draw agrees."""
    n = sum(1 for _ in draws)
    return {"agree": n, "total": n}


def _suite_oracles(ws: Workspace, seed):
    """Small seeded property suites over loaded reps and algebras."""
    rng = random.Random(seed)
    reps = [e.value for _, e in sorted(ws.entries.items()) if e.kind == "representation"]
    algs = [e.value for _, e in sorted(ws.entries.items()) if e.kind == "lie_algebra"]

    def graph(rep):
        ooper.graph_oracle(rep, Matrix([[rng.randint(-2, 2) for _ in range(rep.dim_m)]
                                        for _ in range(rep.algebra.dim)]))

    def cybe(g):
        ooper.r_matrix_defect(g, ooper.bivector(g.dim, {
            (i, j): rng.randint(-1, 1) for i in range(g.dim) for j in range(i + 1, g.dim)}))

    def d_squared(rep, degree):
        vals = {idx: tuple(rng.randint(-2, 2) for _ in range(rep.dim_m))
                for idx in combinations(range(rep.algebra.dim), degree)}
        f = cohomology.Cochain(degree, rep.algebra.dim, rep.dim_m, vals)
        oracle("ce differential squares to zero",
               cohomology.ce_differential(rep, cohomology.ce_differential(rep, f)).is_zero(),
               True, "d(d f) != 0 for the degree-{n} cochain with values {vals}",
               n=degree, vals=vals)

    # the suites draw from one generator, in this order
    return {"o_operator_graph_oracle": _tally(graph(rep) for rep in reps for _ in range(10)),
            "cybe_coadjoint_oracle": _tally(cybe(g) for g in algs for _ in range(6)),
            "ce_differential_squares_to_zero": _tally(
                d_squared(rep, degree) for rep in reps for degree in (0, 1))}


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
    sp.add_argument("kind", choices=sorted(CHECKS))
    sp.add_argument("names", nargs="+")
    common(sp)
    sp = sub.add_parser("derive", help="run one construction and write results")
    sp.add_argument("kind", choices=sorted(DERIVES))
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
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: a document nested past the JSON decoder's depth
        sys.stdout.write(f"error: {exc}\n")
        return 2

    if args.command == "check":
        verdict, detail = run_check(ws, args.kind, args.names)
        word = "valid" if verdict else "invalid"
        suffix = f" {detail}" if detail else ""
        sys.stdout.write(f"{args.kind} {' '.join(args.names)}: {word}{suffix}\n")
        return 0 if verdict else 1

    if args.command == "derive":
        new, deps = run_derive(ws, args.kind, args.args)
        doc = {"objects": {**{name: ws.get(name).raw for name in deps}, **new}}
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

    # validate and report differ only in their exit code
    report = build_report(ws, seed=args.seed)
    sys.stdout.write(render_report(report, args.format))
    valid = all(o["valid"] for o in report["objects"].values())
    return 0 if valid or args.command == "report" else 1


if __name__ == "__main__":
    sys.exit(main())
