"""Sparse-first carriers: the row builders against the dense tensors they
replaced, the canonical form of every carrier the command line builds, and the
memory large sparse constructions take."""

import itertools
import tracemalloc
from fractions import Fraction

import pytest

from lieop.cli import Workspace, build_report, run_derive
from lieop.cohomology import Cochain, bracket_cochain, build_mu2
from lieop.exactla import Matrix, vec_zero
from lieop.fixtures import ab, bundle
from lieop.liecore import (
    LieAlgebra, Representation, adjoint, coadjoint, dual_rep, semidirect, sparse, trivial_rep,
)
from lieop.onstruct import DeformationData, trivial_deformation_from
from lieop.ooper import PreLieProduct, pre_lie_from_o
from lieop.twilled import twilled_from_o


def reference_block_tensor(ca, cb, t1, t2):
    """The retired dense builder: the bracket tensor on a + b (a first) with
    [x, u] = x .1 u - u .2 x, from the structure tensors ca, cb and the action
    tensors t1[x][u] = x .1 u, t2[u][x] = u .2 x."""
    da, db = len(ca), len(cb)
    n = da + db
    za, zb = vec_zero(da), vec_zero(db)
    c = [[None] * n for _ in range(n)]
    for i in range(da):
        for j in range(da):
            c[i][j] = tuple(ca[i][j]) + zb
        for u in range(db):
            v = tuple(-x for x in t2[u][i]) + t1[i][u]
            c[i][da + u] = v
            c[da + u][i] = tuple(-x for x in v)
    for u in range(db):
        for w in range(db):
            c[da + u][da + w] = za + cb[u][w]
    return c


def reference_semidirect_tensor(c, t, m):
    """The retired dense semi-direct product tensor on g + M, dim M = m."""
    d = len(c)
    return reference_block_tensor(c, ((vec_zero(m),) * m,) * m, t, ((vec_zero(d),) * d,) * m)


def reference_action_tensor(mats):
    """The retired dense action tensor t[a][b] = e_a . f_b of action matrices."""
    return tuple(tuple(a.col(b) for b in range(a.cols)) for a in mats)


def gl(n):
    """gl(n) in the basis E_ab (index a*n + b): [E_ab, E_cd] = d_bc E_ad - d_da E_cb."""
    d = n * n
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a, b, x, y in itertools.product(range(n), repeat=4):
        if b == x:
            c[a * n + b][x * n + y][a * n + y] += 1
        if y == a:
            c[a * n + b][x * n + y][x * n + b] -= 1
    return LieAlgebra(d, c)


@pytest.fixture(scope="module")
def ws():
    return Workspace.load([bundle()])


def _values(ws, kind):
    return [e.value for e in ws.entries.values() if e.kind == kind]


def _modules(ws):
    """The 9 bundle modules, then gl(3) adjoint and coadjoint."""
    g = gl(3)
    reps = _values(ws, "representation") + [adjoint(g), coadjoint(g)]
    assert len(reps) == 11
    return reps


def test_semidirect_matches_the_dense_reference(ws):
    for rep in _modules(ws):
        want = reference_semidirect_tensor(rep.algebra.c, rep.t, rep.dim_m)
        assert semidirect(rep).s == sparse(want), rep


def test_adjoint_and_dual_match_the_matrix_references(ws):
    for rep in _modules(ws):
        dual = reference_action_tensor([(-a).transpose() for a in rep.action])
        assert dual_rep(rep).s == sparse(dual), rep
    for g in _values(ws, "lie_algebra") + [gl(3)]:
        ad = [Matrix.from_cols([g.c[i][j] for j in range(g.dim)]) for i in range(g.dim)]
        assert adjoint(g).s == sparse(reference_action_tensor(ad)), g


def test_twilled_algebras_match_the_dense_reference(ws):
    """Every bundle twilled entry and the twilled algebra of every bundle
    O-operator; build_mu2 reads the same block bracket with a abelian."""
    tws = _values(ws, "twilled") + [twilled_from_o(rep, T) for rep, T in _values(ws, "o_operator")]
    assert len(tws) == 10
    for tw in tws:
        want = reference_block_tensor(tw.a_algebra.c, tw.b_algebra.c, tw.action1.t, tw.action2.t)
        assert tw.total.s == sparse(want)
        da, db = tw.dim_a, tw.dim_b
        abelian = ((vec_zero(da),) * da,) * da
        inert = ((vec_zero(db),) * db,) * da
        mu2 = reference_block_tensor(abelian, tw.b_algebra.c, inert, tw.action2.t)
        assert build_mu2(da, db, tw.b_algebra, tw.action2) == bracket_cochain(sparse(mu2))


def _assert_canonical(rows, p, r, n):
    """p x r rows of coordinates below n, ascending, with normalised nonzero values."""
    assert len(rows) == p and all(len(row) == r for row in rows)
    for entry in itertools.chain.from_iterable(rows):
        ks = [k for k, _ in entry]
        assert ks == sorted(set(ks)) and all(0 <= k < n for k in ks), entry
        assert all(type(v) is int and v or type(v) is Fraction and v.denominator != 1
                   for _, v in entry), entry


# every derive kind, with arguments from the bundle
DERIVES = [
    ("induced-lie", ["aff1_adj_T"]), ("gauge", ["aff1_adj_T", "aff1_adj_B"]),
    ("reduce", ["h3_adj_T", "h3_full", "h3_center", "h3_full"]), ("hierarchy", ["3", "h3_on"]),
    ("deformed-bracket", ["sl2_N"]), ("tilde-action", ["aff1_ns"]),
    ("twilled-from-o", ["h3_coadj_T"]), ("on-from-mc", ["aff1_adj_T", "aff1_mc"]),
    ("mc-from-on", ["aff1_on"]), ("on-from-pair", ["aff1_coadj_T1", "aff1_coadj_T2"]),
    ("gcs-from-o", ["aff1_coadj_T2"]), ("pre-lie-from-o", ["aff1_coadj_T2"]),
    ("opposite-gcs", ["aff1_gcs"]), ("semidirect", ["sl2_coadj"]), ("dual", ["h3_rep2"]),
    ("adjoint", ["sl2"]), ("coadjoint", ["h3"]),
]


# the method every constructor of each carrier runs
CARRIERS = ((LieAlgebra, "_validate"), (Representation, "_validate"), (Cochain, "_set"),
            (PreLieProduct, "_set"), (DeformationData, "__init__"))


def test_every_carrier_the_command_line_builds_is_canonical(monkeypatch):
    """Every algebra, module, cochain, pre-Lie product and deformation built
    while the bundle is made and loaded, while each derive kind runs and while
    the report is built stores canonical rows only, so row equality is tensor
    equality."""
    built = []
    for cls, name in CARRIERS:
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, *args, method=method:
                            built.append(self) or method(self, *args))
    ws = Workspace.load([bundle()])
    for kind, args in DERIVES:
        run_derive(ws, kind, args)
    build_report(ws, 0)
    monkeypatch.undo()
    assert {type(x) for x in built} == {cls for cls, _ in CARRIERS} and len(built) > 100
    for x in built:
        if isinstance(x, LieAlgebra):
            _assert_canonical(x.s, x.dim, x.dim, x.dim)
        elif isinstance(x, Representation):
            _assert_canonical(x.s, x.algebra.dim, x.dim_m, x.dim_m)
            assert x.by_col == tuple(tuple(sa[b] for sa in x.s) for b in range(x.dim_m))
        elif isinstance(x, Cochain):
            for idx, row in x.values.items():
                assert len(idx) == x.degree and list(idx) == sorted(set(idx)), idx
                assert all(0 <= i < x.source_dim for i in idx) and row, (idx, row)
            _assert_canonical((tuple(x.values.values()),), 1, len(x.values), x.target_dim)
        elif isinstance(x, PreLieProduct):
            assert PreLieProduct.__slots__ == ("dim", "s")
            _assert_canonical(x.s, x.dim, x.dim, x.dim)
        else:
            d, m = len(x.bracket1), len(x.action1[0])
            _assert_canonical(x.bracket1, d, d, d)
            _assert_canonical(x.action1, d, m, m)


def test_semidirect_of_a_large_abelian_coadjoint_stays_small():
    """No dense d^3 tensor is built: the semi-direct product of the coadjoint
    module of the abelian algebra of dim 100 (dim 200, no nonzero constant)
    allocates under 5 MB at its peak."""
    g = ab(100)
    tracemalloc.start()
    try:
        sd = semidirect(coadjoint(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sd.dim == 200 and not any(map(any, sd.s))
    assert peak < 5 * 2 ** 20, peak


def test_pre_lie_product_of_a_large_abelian_adjoint_stays_small():
    """No dense d^3 tensor is built: the pre-Lie product of the identity on the
    adjoint module of the abelian algebra of dim 60 (all products zero)
    allocates under 1 MB at its peak; with the dense tensor it took 3.8 MB."""
    g = ab(60)
    tracemalloc.start()
    try:
        p = pre_lie_from_o(adjoint(g), Matrix.identity(60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.dim == 60 and not any(map(any, p.s))
    assert peak < 2 ** 20, peak


def test_deformation_check_of_a_large_abelian_algebra_stays_small():
    """The deformation conditions walk their triples lazily: the trivial
    deformation of the identity on a one-dimensional trivial module of the
    abelian algebra of dim 60 allocates under 1 MB at its peak; with the triple
    lists held in memory it took 2.5 MB."""
    I60, I1 = Matrix.identity(60), Matrix.identity(1)
    rep = trivial_rep(ab(60), 1)
    tracemalloc.start()
    try:
        d = trivial_deformation_from(rep, I60, I1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(map(any, d.bracket1))
    assert peak < 2 ** 20, peak
