"""Nothing is validated twice.  An algebra glued by `block_rows` from two
validated blocks walks only the triples that meet both, with the verdict and
the witness of the full walk.  The carriers a theorem makes valid (the adjoint,
a dual, a trivial module, a twilled splitting and a swap) walk nothing, and a
guard runs the full validator on every one of them the command line builds."""

import random
from pathlib import Path

import pytest

import lieop
from lieop import liecore
from lieop.cli import Workspace, build_report, run_derive
from lieop.errors import JacobiViolation, RepViolation, Singular, SkewViolation
from lieop.exactla import Matrix, invert
from lieop.fixtures import bundle
from lieop.liecore import (
    LieAlgebra, Representation, Subspace, adjoint, block_rows, coadjoint, semidirect, sparse,
    trivial_rep, zero_rows,
)
from lieop.twilled import join, swap, twilled_from_o, twilled_new

from test_sparse_carriers import DERIVES, _assert_canonical, gl, reference_semidirect_tensor

SRC = Path(lieop.__file__).parent
PERFBENCH = SRC.parents[1] / "perfbench"


@pytest.fixture(scope="module")
def ws():
    return Workspace.load([bundle()])


def _values(ws, kind):
    return [e.value for _, e in sorted(ws.entries.items()) if e.kind == kind]


# --- the guard --------------------------------------------------------------

def _built_by_theorem(monkeypatch, run):
    """The algebras and modules the private constructors build while run() runs."""
    built = []
    for cls in (LieAlgebra, Representation):
        make = cls._by_theorem
        monkeypatch.setattr(cls, "_by_theorem", staticmethod(
            lambda *args, make=make: built.append(make(*args)) or built[-1]))
    run()
    monkeypatch.undo()
    return built


def _validate_fully(carriers):
    """Each carrier's rows pass the public validator, and a module keeps the
    semi-direct product of the dense reference."""
    for x in carriers:
        if isinstance(x, LieAlgebra):
            _assert_canonical(x.s, x.dim, x.dim, x.dim)
            LieAlgebra.from_rows(x.dim, x.s)
        else:
            _assert_canonical(x.s, x.algebra.dim, x.dim_m, x.dim_m)
            Representation.from_rows(x.algebra, x.dim_m, x.s)
            want = reference_semidirect_tensor(x.algebra.c, x.t, x.dim_m)
            assert semidirect(x).s == sparse(want), x


def _command_line(monkeypatch):
    """Bundle load, every derive kind, the report, a swap of every twilled
    entry, and validate on a generated gl(3) workspace."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    doc = gen.gl_workspace(3, 0)

    def run():
        ws = Workspace.load([bundle()])
        for kind, args in DERIVES:
            run_derive(ws, kind, args)
        build_report(ws, 0)
        for tw in _values(ws, "twilled"):
            swap(tw)
        build_report(Workspace.load([doc]), 0)
    return run


def test_every_carrier_built_by_theorem_passes_the_full_validator(monkeypatch):
    built = _built_by_theorem(monkeypatch, _command_line(monkeypatch))
    assert {type(x) for x in built} == {LieAlgebra, Representation} and len(built) > 40
    _validate_fully(built)


def _negated(rows):
    return tuple(tuple(liecore._neg(r) for r in row) for row in rows)


@pytest.mark.parametrize("builder, mutate", [
    ("block_rows", lambda route: lambda sa, sb, s1, s2: route(sa, sb, _negated(s1), s2)),
    ("transpose_rows", lambda route: lambda cols, n: cols),
])
def test_the_guard_sees_a_mutated_row_builder(monkeypatch, builder, mutate):
    """With the action glued in with the wrong sign, or the dual read without
    its transpose, the adjoint and the coadjoint of gl(3) fail the guard.  A
    module builds its g + M when it is first read, so the run reads it."""
    g = gl(3)
    monkeypatch.setattr(liecore, builder, mutate(getattr(liecore, builder)))
    built = _built_by_theorem(monkeypatch, lambda: semidirect(coadjoint(g)))
    assert len(built) == 2
    with pytest.raises((AssertionError, JacobiViolation, RepViolation, SkewViolation)):
        _validate_fully(built)


# --- the glued walk equals the full walk ------------------------------------

def _invertible(rng, n):
    while True:
        p = Matrix([[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(n)])
        try:
            invert(p)
        except Singular:
            continue
        return p


def _conjugate(rng, mats):
    """The module P rho P^{-1} for a seeded invertible P."""
    n = mats[0].shape()[0]
    p = _invertible(rng, n)
    pinv = invert(p)
    return [p * a * pinv for a in mats]


def _perturbed(rng, mats):
    """One entry of one action matrix moved by one."""
    mats = [[list(row) for row in a.entries] for a in mats]
    a, n = rng.randrange(len(mats)), len(mats[0])
    mats[a][rng.randrange(n)][rng.randrange(n)] += rng.choice((-1, 1))
    return [Matrix(m) for m in mats]


def _walk(build):
    """None, or the witness the validator raises."""
    try:
        build()
    except (JacobiViolation, RepViolation) as exc:
        return exc.indices, exc.defect
    return None


def _full_walk(sa, sb, s1, s2):
    rows = block_rows(sa, sb, s1, s2)
    return _walk(lambda: LieAlgebra.from_rows(len(rows), rows))


def _cols(mats):
    return tuple(a.sparse_cols() for a in mats)


def test_module_check_gives_the_verdict_and_witness_of_the_full_walk(ws):
    """Seeded actions of the five bundle algebras and gl(3), conjugates of
    modules and their one-entry perturbations: the module check walks the
    triples that meet g and M only, and raises on the pair and with the column
    of the first failing triple of the full walk over g + M."""
    rng = random.Random(24)
    algebras = [ws.get(name).value for name in ("ab2", "ab4", "aff1", "h3", "sl2")] + [gl(3)]
    seen = set()
    for _ in range(120):
        g = rng.choice(algebras)
        mats = rng.choice([adjoint(g), coadjoint(g), trivial_rep(g, rng.randint(1, 3))]).action
        mats = _conjugate(rng, mats)
        if rng.random() < 0.6:
            mats = _perturbed(rng, mats)
        d, m, s = g.dim, mats[0].shape()[0], _cols(mats)
        glued = _walk(lambda: Representation.from_rows(g, m, s))
        full = _full_walk(g.s, zero_rows(m, m), s, zero_rows(m, d))
        seen.add(glued is None)
        assert (glued is None) == (full is None)
        if glued is not None:
            (i, j), defect = glued
            (fi, fj, k), jac = full
            assert (i, j) == (fi, fj) and k >= d and not any(jac[:d])
            assert defect.col(k - d) == jac[d:]
    assert seen == {True, False}


def _matched_pairs(ws):
    """The actions of every bundle twilled entry and of the twilled algebra of
    every bundle O-operator, both ways round."""
    tws = _values(ws, "twilled") + [twilled_from_o(*op) for op in _values(ws, "o_operator")]
    return [(tw.action1, tw.action2) for tw in tws] + [(tw.action2, tw.action1) for tw in tws]


def test_join_gives_the_verdict_and_witness_of_the_full_walk(ws):
    """Matched pairs, the same pairs with one action conjugated, and
    semi-direct pairs with a random module: `join` walks the triples that meet
    both parts only, and raises on the first failing triple of the full walk."""
    rng = random.Random(25)
    pairs = _matched_pairs(ws)
    cases = list(pairs)
    for act1, act2 in pairs:
        conjugated = _cols(_conjugate(rng, act2.action))
        cases.append((act1, Representation.from_rows(act2.algebra, act2.dim_m, conjugated)))
        # an abelian b acted on by any module of a, acting back trivially
        g, m = act1.algebra, act1.dim_m
        module = Representation.from_rows(g, m, _cols(_conjugate(rng, act1.action)))
        cases.append((module, trivial_rep(LieAlgebra.from_rows(m, zero_rows(m, m)), g.dim)))
    seen = set()
    for act1, act2 in cases:
        a, b = act1.algebra, act2.algebra
        glued = _walk(lambda: join(act1, act2))
        full = _full_walk(a.s, b.s, act1.s, act2.s)
        seen.add(glued is None)
        assert glued == full
        if glued is not None:
            i, _, k = glued[0]
            assert i < a.dim <= k
    assert seen == {True, False}


# --- work counts --------------------------------------------------------------

def _count_validators(monkeypatch):
    walked = []
    for cls in (LieAlgebra, Representation):
        validate = cls._validate
        monkeypatch.setattr(cls, "_validate", lambda self, *args, validate=validate:
                            walked.append(self) or validate(self, *args))
    return walked


def test_loading_a_twilled_entry_validates_its_total_once(monkeypatch):
    """The loaded total is validated; its split, read in a new basis, is not."""
    objects = bundle()["objects"]
    doc = {"objects": {name: objects[name] for name in ("aff1_tw_total", "aff1_tw")}}
    walked = _count_validators(monkeypatch)
    tw = Workspace.load([doc]).get("aff1_tw", "twilled").value
    assert [(type(x), x.dim) for x in walked] == [(LieAlgebra, 4)]
    assert tw.total.s == block_rows(tw.a_algebra.s, tw.b_algebra.s, tw.action1.s, tw.action2.s)


def test_the_theorem_carriers_call_no_validator(ws, monkeypatch):
    g = gl(3)
    tw = _values(ws, "twilled")[0]
    ident = Matrix.identity(tw.total.dim).entries
    a, b = Subspace(len(ident), ident[:tw.dim_a]), Subspace(len(ident), ident[tw.dim_a:])
    walked = _count_validators(monkeypatch)
    coadjoint(g)
    trivial_rep(g, 2)
    swapped = swap(tw)
    split = twilled_new(tw.total, a, b)
    assert walked == []
    assert swap(swapped).total.s == split.total.s == tw.total.s


def test_a_gl4_op_evaluates_the_cyclic_form_fewer_times(monkeypatch):
    """One op of the gl4 benchmark workload, run in-process, accumulates the
    cyclic form on 3348 triples, in 9 passes, one per Jacobi identity checked;
    walking g's own triples in every module and validating the theorem
    carriers again takes 6448."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    from lieop import ooper, onstruct
    w = workloads.GL(0)
    triples = []
    kernel = liecore.cyclic_sums

    def counted(a, b, split=0, sums=None):
        before = len(sums or ())
        out = kernel(a, b, split, sums)
        triples.append(len(out) - before)
        return out

    for module in (liecore, ooper, onstruct):
        monkeypatch.setattr(module, "cyclic_sums", counted)
    out, _ = workloads.drive(w.op(w.setup(), 0, None))
    assert w.check(out, 0) == []
    assert len(triples) == 9 and sum(triples) == 3348
