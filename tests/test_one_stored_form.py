"""One stored form per value: a bivector is its antisymmetric Matrix, read only
through `schouten_self` or `r_sharp`, which refuse any other matrix; a
subspace keeps only its RREF basis; a module builds its g + M when something
reads it; and a glued Jacobi walk builds only the triples it checks."""

import random
from pathlib import Path

import pytest

import lieop
from lieop import exactla, liecore, ooper
from lieop.cli import Workspace, run_derive
from lieop.errors import DimensionMismatch, NotAntisymmetric
from lieop.exactla import Matrix, rref
from lieop.fixtures import (
    H3_ADJ_T, H3_N, HOLO4_SHARP_I, J4, ROT, ab, bundle, h3, standard_fixtures,
)
from lieop.gcsholo import gcs_lie_check, is_holomorphic_r
from lieop.liecore import Representation, Subspace, adjoint, restrict_to_subalgebra
from lieop.onstruct import is_pn_structure, pn_hierarchy
from lieop.ooper import (
    bivector, is_r_matrix, lemma_r_equiv, mr_reduce, r_matrix_defect, r_sharp, schouten_self,
)
from lieop.twilled import twilled_new

from test_sparse_carriers import gl

PERFBENCH = Path(lieop.__file__).parents[2] / "perfbench"

# reader -> a call of it on the bivector r over h3 (dim 3) or ab(2) (dim 2)
READERS = {
    "schouten_self": (3, lambda r: schouten_self(h3(), r)),
    "is_r_matrix": (3, lambda r: is_r_matrix(h3(), r)),
    "r_matrix_defect": (3, lambda r: r_matrix_defect(h3(), r)),
    "lemma_r_equiv": (3, lambda r: lemma_r_equiv(h3(), r)),
    "is_pn_structure": (3, lambda r: is_pn_structure(h3(), r, H3_N)),
    "pn_hierarchy": (3, lambda r: pn_hierarchy(h3(), r, H3_N, 2)),
    "gcs_lie_check r": (2, lambda r: gcs_lie_check(ab(2), Matrix.zeros(2), r, Matrix.zeros(2))),
    "is_holomorphic_r r_R": (2, lambda r: is_holomorphic_r(ab(2), ROT, r, bivector(2, {}))),
    "is_holomorphic_r r_I": (2, lambda r: is_holomorphic_r(ab(2), ROT, bivector(2, {}), r)),
}


def _symmetric(n):
    return Matrix([[1 if {i, j} == {0, 1} else 0 for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_bivector_reader_refuses_a_matrix_that_is_not_antisymmetric(reader):
    n, read = READERS[reader]
    read(bivector(n, {(0, n - 1): 1}))
    for bad in (_symmetric(n), Matrix.identity(n)):
        with pytest.raises(NotAntisymmetric):
            read(bad)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_bivector_reader_refuses_a_matrix_of_the_wrong_shape(reader):
    n, read = READERS[reader]
    for bad in (bivector(n + 1, {(0, 1): 1}), Matrix.zeros(n, n + 1), Matrix.zeros(n - 1)):
        with pytest.raises(DimensionMismatch):
            read(bad)


@pytest.mark.parametrize("reader", ["is_pn_structure", "pn_hierarchy"])
def test_a_pn_pair_names_the_bivector_in_a_shape_error(reader):
    """The bivector's shape is read before the coadjoint ON route, whose
    operator check would name an operator instead."""
    with pytest.raises(DimensionMismatch, match=r"^matrix has shape \(2, 2\), wanted \(3, 3\)$"):
        READERS[reader][1](bivector(2, {(0, 1): 1}))


def test_a_bivector_is_its_antisymmetric_matrix():
    r = bivector(3, {(0, 2): 5, (1, 2): -1})
    assert r == Matrix([[0, 0, 5], [0, 0, -1], [-5, 1, 0]])
    assert r_sharp(r) == r.transpose() == -r and r_sharp(r_sharp(r)) == r
    assert r + r == r.scale(2) and (r + -r).is_zero()
    for pairs in ({(1, 0): 1}, {(0, 0): 1}, {(0, 3): 1}):
        with pytest.raises(DimensionMismatch):
            bivector(3, pairs)


def test_a_loaded_bivector_is_its_matrix():
    ws = Workspace.load([bundle()])
    g, r = ws.get("h3_r").value
    assert r == bivector(3, {(0, 2): 1}) and g.dim == 3
    _, j, rr, ri = ws.get("ab4_holo_r").value
    assert (j, rr, ri) == (J4, r_sharp(HOLO4_SHARP_I * J4.transpose()), r_sharp(HOLO4_SHARP_I))


def test_the_schouten_square_reads_the_cached_columns(monkeypatch):
    r = bivector(3, {(0, 1): 1})
    assert schouten_self(h3(), r) == {(0, 1, 2): 2}
    monkeypatch.setattr(Matrix, "col", lambda *args: pytest.fail("dense column read"))
    assert schouten_self(h3(), r) == {(0, 1, 2): 2}


# --- subspaces ---------------------------------------------------------------

def test_a_subspace_keeps_the_rref_of_its_vectors():
    """Seeded vector lists over the spaces of the nine bundle modules."""
    _, reps, _ = standard_fixtures()
    rng = random.Random(25)
    seen = set()
    for rep in reps.values():
        n = rep.dim_m
        for _ in range(40):
            vs = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, n + 1))]
            rows, pivots = rref(vs) if vs else ([], [])
            span = Subspace.span(n, vs)
            assert (span.basis, span.pivots) == (tuple(rows), tuple(pivots))
            if len(rows) == len(vs):
                W = Subspace(n, vs)
                assert (W.basis, W.pivots) == (span.basis, span.pivots) and W == span
                seen.add("independent")
            else:
                with pytest.raises(DimensionMismatch, match="linearly dependent"):
                    Subspace(n, vs)
                seen.add("dependent")
        with pytest.raises(DimensionMismatch, match="length mismatch"):
            Subspace(n, [(1,) * (n + 1)])
    assert seen == {"independent", "dependent"}
    assert not hasattr(Subspace(2, [(1, 1)]), "rref_rows")


def _count_rref(monkeypatch):
    calls = []
    rref_ = liecore.rref
    monkeypatch.setattr(liecore, "rref", lambda rows: calls.append(rows) or rref_(rows))
    return calls


def test_a_reduction_row_reduces_four_times_and_a_restriction_none(monkeypatch):
    """A reduction of h3 by span{e3} rebuilds no subspace from rows that are
    already RREF: 4 rref calls (the intersection E cap h, E cap h read in h,
    the annihilator and its intersection with N), and the subalgebra 0."""
    rep, full, e3 = adjoint(h3()), Subspace.full(3), Subspace(3, [(0, 0, 1)])
    calls = _count_rref(monkeypatch)
    restrict_to_subalgebra(rep.algebra, full)
    assert calls == []
    mr_reduce(rep, H3_ADJ_T, full, e3, full)
    assert len(calls) == 4


def test_derive_reduce_emits_the_reduced_module_without_row_reducing_it_again(monkeypatch):
    ws = Workspace.load([bundle()])
    calls = _count_rref(monkeypatch)
    new, _ = run_derive(ws, "reduce", ["h3_adj_T", "h3_full", "h3_center", "h3_full"])
    assert len(calls) == 4
    assert new["h3_adj_T__reduced_module"]["basis"] == [["1", "0", "0"], ["0", "1", "0"],
                                                        ["0", "0", "1"]]


def test_a_twilled_split_row_reduces_its_block_basis_once(monkeypatch):
    calls = []
    rref_ = exactla.rref
    monkeypatch.setattr(exactla, "rref", lambda rows: calls.append(rows) or rref_(rows))
    tw = twilled_new(h3(), Subspace(3, [(1, 0, 0), (0, 0, 1)]), Subspace(3, [(0, 1, 0)]))
    assert (tw.dim_a, tw.dim_b, len(calls)) == (2, 1, 1)


# --- work the modules skip ---------------------------------------------------

def test_a_module_builds_its_semidirect_product_only_when_read(monkeypatch):
    """One in-process op of the bundle benchmark workload builds 51 modules,
    and the g + M of 31 of them is read, so block_rows runs 31 times; reading
    it again builds nothing."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    calls = []
    block = liecore.block_rows
    monkeypatch.setattr(liecore, "block_rows", lambda *a: calls.append(1) or block(*a))
    w = workloads.Bundle(0)
    out, _ = workloads.drive(w.op(w.setup(), 0, None))
    assert w.check(out, 0) == []
    assert len(calls) == 31
    rep = adjoint(h3())
    calls.clear()
    assert liecore.semidirect(rep) is liecore.semidirect(rep) and len(calls) == 1


def test_a_glued_walk_builds_only_the_triples_it_checks(monkeypatch):
    """The module given by gl(4)'s adjoint matrices builds the 564 triples that
    meet g and M, not the 740 reached ones, and walks each once."""
    g = gl(4)
    built = []
    reached = liecore._reached
    monkeypatch.setattr(liecore, "_reached",
                        lambda a, b, split: built.append(reached(a, b, split)) or built[-1])
    rep = Representation(g, 16, adjoint(g).action)
    (triples,) = built
    assert len(triples) == 564 and all(i < 16 <= k for i, _, k in triples)
    sd = liecore.semidirect(rep).s
    assert triples == {t for t in liecore.reached_triples(sd, sd) if t[0] < 16 <= t[2]}
    assert len(liecore.reached_triples(sd, sd)) == 740


def test_no_module_names_the_removed_forms():
    src = Path(lieop.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "Bivector" not in text and "rref_rows" not in text, path
    assert not hasattr(ooper, "Bivector") and not hasattr(ooper, "bivector_from_sharp")
    assert lieop.bivector is ooper.bivector and not hasattr(lieop, "Bivector")
