"""The shipped fixture library: small Lie algebras, modules over them, and at
least one validated instance of every structure kind the checker knows.

Everything here was found by linear solving plus small-coefficient filtering
and is re-validated by the test suite on every run.  `bundle()` produces the
JSON workspace document the command line tool consumes.
"""

from __future__ import annotations

import json

from .cli import emit, lie_algebra_to_json, write
from .exactla import Matrix
from .liecore import (
    LieAlgebra, Representation, action_matrices, adjoint, coadjoint, dense, trivial_rep,
)
from .onstruct import on_from_compatible_pair, trivial_deformation_from
from .ooper import Bivector, bivector_from_sharp, pre_lie_from_o
from .twilled import twilled_from_o


def ab(n) -> LieAlgebra:
    return LieAlgebra(n, [[[0] * n for _ in range(n)] for _ in range(n)])


def aff1() -> LieAlgebra:
    """[e1, e2] = e2."""
    return LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})


def h3() -> LieAlgebra:
    """Heisenberg: [e1, e2] = e3."""
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def sl2() -> LieAlgebra:
    """[h, e] = 2e, [h, f] = -2f, [e, f] = h in the basis (h, e, f)."""
    return LieAlgebra.from_brackets(3, {
        (0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})


def h3_rep2(g=None) -> Representation:
    """A two-dimensional module over the Heisenberg algebra."""
    g = g or h3()
    return Representation(g, 2, [Matrix([[0, 1], [0, 0]]),
                                 Matrix.zeros(2), Matrix.zeros(2)])


ROT = Matrix([[0, -1], [1, 0]])

AFF1_ADJ_T = Matrix([[0, 0], [1, 0]])
AFF1_COADJ_T1 = Matrix([[0, 0], [0, 1]])
AFF1_COADJ_T2 = Matrix([[0, -1], [1, 0]])
H3_ADJ_T = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
H3_ADJ_T1 = Matrix([[-1, -1, 0], [-1, 0, 0], [-1, 0, 1]])
H3_ADJ_T2 = Matrix([[-1, -1, 0], [-1, 0, 0], [-1, -1, 1]])
H3_COADJ_T = Matrix([[0, 0, -1], [0, 0, -1], [0, -1, -1]])
SL2_COADJ_T = Matrix([[-1, -1, -1], [-1, -1, -1], [-1, -1, -1]])

AFF1_N = Matrix([[1, 0], [0, 0]])
H3_N = Matrix.diag((2, 1, 2))
SL2_N = Matrix.diag((1, 1, 2))

AFF1_NS_S = Matrix([[1, 0], [1, 1]])           # Eq-(20) partner for AFF1_N
AFF1_DEFORM_S = Matrix([[1, 0], [-1, 1]])      # Eq-(15) partner for AFF1_N

AFF1_ADJ_B = Matrix([[0, 0], [1, 0]])          # gauge cocycle on the adjoint
AFF1_COADJ_B = Matrix([[1, 0], [0, 0]])        # gauge cocycle on the coadjoint

AFF1_ADJ_OMEGA = Matrix([[0, 0], [-2, -2]])    # strong MC solution for AFF1_ADJ_T

J4 = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
HOLO4_SHARP_I = Matrix([[0, 0, 1, 0], [0, 0, 0, -1],
                        [-1, 0, 0, 0], [0, 1, 0, 0]])


def standard_fixtures():
    """Live objects for tests: algebras, reps, and structure instances."""
    algebras = {"ab2": ab(2), "ab4": ab(4), "aff1": aff1(), "h3": h3(), "sl2": sl2()}
    reps = {
        "ab2_triv2": trivial_rep(algebras["ab2"], 2),
        "aff1_adj": adjoint(algebras["aff1"]),
        "aff1_coadj": coadjoint(algebras["aff1"]),
        "aff1_triv2": trivial_rep(algebras["aff1"], 2),
        "h3_adj": adjoint(algebras["h3"]),
        "h3_coadj": coadjoint(algebras["h3"]),
        "h3_rep2": h3_rep2(algebras["h3"]),
        "sl2_adj": adjoint(algebras["sl2"]),
        "sl2_coadj": coadjoint(algebras["sl2"]),
    }
    o_operators = {
        "aff1_adj_T": ("aff1_adj", AFF1_ADJ_T),
        "aff1_coadj_T1": ("aff1_coadj", AFF1_COADJ_T1),
        "aff1_coadj_T2": ("aff1_coadj", AFF1_COADJ_T2),
        "h3_adj_T": ("h3_adj", H3_ADJ_T),
        "h3_adj_T1": ("h3_adj", H3_ADJ_T1),
        "h3_adj_T2": ("h3_adj", H3_ADJ_T2),
        "h3_coadj_T": ("h3_coadj", H3_COADJ_T),
        "sl2_coadj_T": ("sl2_coadj", SL2_COADJ_T),
    }
    return algebras, reps, o_operators


def bundle() -> dict:
    """The JSON workspace document shipping every fixture kind."""
    algebras, reps, o_ops = standard_fixtures()
    objects = {}
    for name, g in algebras.items():
        objects[name] = lie_algebra_to_json(g)
    for name, rep in reps.items():  # a module's name starts with its algebra's
        objects[name] = emit("representation", name.split("_")[0], rep.dim_m, rep.action)
    for name, (rep_name, t) in o_ops.items():
        objects[name] = emit("o_operator", rep_name, t)

    for g, dim, pair in (("aff1", 2, (0, 1)), ("h3", 3, (0, 2)), ("sl2", 3, (0, 1))):
        objects[f"{g}_r"] = emit("bivector", g, dim, Bivector.from_pairs(dim, {pair: 1}))

    objects["aff1_adj_B"] = emit("linmap", AFF1_ADJ_B)
    objects["aff1_coadj_B"] = emit("linmap", AFF1_COADJ_B)

    objects["aff1_N"] = emit("nijenhuis", "aff1", AFF1_N)
    objects["h3_N"] = emit("nijenhuis", "h3", H3_N)
    objects["sl2_N"] = emit("nijenhuis", "sl2", SL2_N)

    objects["aff1_ns"] = emit("nijenhuis_structure", "aff1_adj", AFF1_N, AFF1_NS_S)
    objects["h3_ns"] = emit("nijenhuis_structure", "h3_coadj", H3_N, H3_N.transpose())

    on_aff1 = on_from_compatible_pair(reps["aff1_coadj"], AFF1_COADJ_T1, AFF1_COADJ_T2)
    on_h3 = on_from_compatible_pair(reps["h3_adj"], H3_ADJ_T1, H3_ADJ_T2)
    objects["aff1_on"] = emit("on_structure", "aff1_coadj", on_aff1.T, on_aff1.N, on_aff1.S)
    objects["h3_on"] = emit("on_structure", "h3_adj", on_h3.T, on_h3.N, on_h3.S)
    objects["aff1_on_id"] = emit("on_structure", "aff1_adj", AFF1_ADJ_T,
                                 Matrix.identity(2), Matrix.identity(2))

    objects["h3_pn"] = emit("pn_structure", "h3", Bivector.from_pairs(3, {(0, 2): 1}), H3_N)

    prelie = pre_lie_from_o(reps["aff1_coadj"], AFF1_COADJ_T2)
    objects["aff1_prelie"] = emit("pre_lie", 2, dense(prelie.s, 2))

    deform = trivial_deformation_from(reps["aff1_adj"], AFF1_N, AFF1_DEFORM_S)
    objects["aff1_deform"] = emit("deformation", "aff1_adj", dense(deform.bracket1, 2),
                                  action_matrices(deform.action1, 2))

    tw = twilled_from_o(reps["aff1_adj"], AFF1_ADJ_T)
    objects["aff1_tw_total"] = lie_algebra_to_json(tw.total)
    objects["aff1_tw"] = write("twilled", tw, {id(tw.total): "aff1_tw_total"})
    objects["h3_tw"] = emit("twilled", "h3", [(1, 0, 0), (0, 0, 1)], [(0, 1, 0)])

    objects["aff1_mc"] = emit("mc_solution", "aff1_tw", AFF1_ADJ_OMEGA)

    zero2 = Matrix.zeros(2)
    objects["aff1_gcs"] = emit("gcs_module", "aff1_coadj", zero2, AFF1_COADJ_T2, ROT, zero2)
    objects["ab2_gcs"] = emit("gcs_module", "ab2_triv2", ROT, zero2, zero2, -ROT)

    r01 = Bivector.from_pairs(2, {(0, 1): 1})
    objects["ab2_gcslie"] = emit("gcs_lie", "ab2", zero2, r01, r01)
    r0 = Bivector.from_pairs(2, {})
    objects["ab2_gcslie_cx"] = emit("gcs_lie", "ab2", ROT, r0, r0)

    objects["ab2_cx"] = emit("complex_pair", "ab2_triv2", ROT, ROT)
    objects["aff1_cx"] = emit("complex_pair", "aff1_coadj", ROT, ROT)

    objects["ab2_holo_o"] = emit("holo_o", "ab2_triv2", ROT, ROT, ROT, Matrix.identity(2))

    ri = bivector_from_sharp(HOLO4_SHARP_I)
    rr = bivector_from_sharp(HOLO4_SHARP_I * J4.transpose())
    objects["ab4_holo_r"] = emit("holo_r", "ab4", J4, rr, ri)

    objects["h3_center"] = emit("subspace", 3, [(0, 0, 1)])
    objects["h3_sub"] = emit("subspace", 3, [(1, 0, 0), (0, 0, 1)])
    objects["h3_submod"] = emit("subspace", 3, [(0, 1, 0), (0, 0, 1)])
    objects["h3_full"] = emit("subspace", 3, Matrix.identity(3).entries)
    objects["h3_zero"] = emit("subspace", 3, [])

    objects["h3_cochain"] = emit("cochain", 2, 3, 3, {(0, 1): (0, 0, 1)})
    return {"objects": objects}


def bundle_json() -> str:
    return json.dumps(bundle(), sort_keys=True, separators=(",", ":")) + "\n"


def write_bundle(path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bundle_json())
