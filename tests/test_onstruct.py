import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from lieop import liecore, onstruct, ooper
from lieop.cli import Workspace
from lieop.errors import (
    DimensionMismatch, NotNijenhuis, NotNijenhuisStructure, NotONStructure, NotPN, Singular,
)
from lieop.exactla import Matrix, is_zero_vec, vec, vec_add, vec_sub
from lieop.fixtures import bundle, h3_rep2
from lieop.gcsholo import gcs_check_direct
from lieop.liecore import (
    LieAlgebra, _unit, adjoint, coadjoint, contract, dense, semidirect, sparse, trivial_rep,
    zero_rows,
)
from lieop.ooper import bivector, is_o_operator, is_r_matrix
from lieop.onstruct import (
    DeformationData, ONStructure, deformation_pair_defect, deformed_action,
    deformed_bracket, hierarchy,
    is_infinitesimal_deformation, is_nijenhuis, is_nijenhuis_structure,
    is_on_structure, is_pn_structure, nijenhuis_power_props,
    on_from_compatible_pair, pn_hierarchy, tilde_action,
    trivial_deformation_from,
)


def aff1():
    return LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})


def h3():
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def sl2():
    return LieAlgebra.from_brackets(3, {
        (0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})


AFF1_N = Matrix([[1, 0], [0, 0]])
COADJ_T2 = Matrix([[0, -1], [1, 0]])
COADJ_T1 = Matrix([[0, 0], [0, 1]])


def test_is_nijenhuis_basics():
    g = aff1()
    assert is_nijenhuis(g, Matrix.identity(2))[0]
    assert is_nijenhuis(g, Matrix.zeros(2))[0]
    assert is_nijenhuis(g, AFF1_N)[0]
    ok, defect = is_nijenhuis(sl2(), Matrix.diag((2, 1, 1)))
    assert not ok and defect is not None


def test_deformed_bracket():
    g = aff1()
    assert deformed_bracket(g, Matrix.identity(2)).s == g.s
    assert not any(map(any, deformed_bracket(g, Matrix.zeros(2)).s))
    dn = deformed_bracket(g, AFF1_N)
    assert dn.bracket_vec((1, 0), (0, 1)) == (0, 1)
    with pytest.raises(NotNijenhuis):
        deformed_bracket(sl2(), Matrix.diag((2, 1, 1)))


def aff1_tw_total():
    return LieAlgebra.from_brackets(4, {
        (0, 1): (0, 1, 0, 0), (0, 2): (0, 1, 0, 0), (0, 3): (0, 0, 0, 1),
        (1, 2): (0, 0, 0, -1)})


# its tower has a nonzero C(a, b) half, so a mixed Jacobi term read from one
# half alone disagrees with the Nijenhuis-Richardson route; the diagonal N
# below make both halves vanish
AFF1_TW_N = Matrix([[-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]])


def test_power_props():
    for g, n in ((aff1(), Matrix.identity(2)),
                 (aff1(), Matrix.zeros(2)),
                 (aff1(), AFF1_N),
                 (h3(), Matrix.diag((2, 1, 2))),
                 (sl2(), Matrix.diag((1, 1, 2))),
                 (aff1_tw_total(), AFF1_TW_N)):
        rpt = nijenhuis_power_props(g, n, 3)
        assert all(rpt.values()), (g, n, rpt)


def test_infinitesimal_deformation_zero_and_doubling():
    rep = adjoint(h3())
    zero = DeformationData.build(3, 3, [[[0] * 3] * 3] * 3,
                                 [Matrix.zeros(3)] * 3)
    assert is_infinitesimal_deformation(rep, zero)[0]
    doubling = DeformationData.build(
        3, 3, [[list(rep.algebra.c[i][j]) for j in range(3)] for i in range(3)],
        list(rep.action))
    assert is_infinitesimal_deformation(rep, doubling)[0]


@pytest.mark.parametrize("bracket1", [
    [[(0,), (0,)], [(0,), (0,)]],          # vectors of length 1 at dim 2
    [[(0, 0), (0, 0)]],                    # one row of two
    [[(0, 0)], [(0, 0)]],                  # two rows of one
    [[(0, 0, 0), (0, 0)], [(0, 0), (0, 0)]],
])
def test_deformation_bracket_must_be_a_cube(bracket1):
    with pytest.raises(DimensionMismatch):
        DeformationData.build(2, 2, bracket1, [Matrix.zeros(2)] * 2)


def test_infinitesimal_deformation_rejects_junk():
    rep = adjoint(h3())
    # [e2,e3]_1 = e2 breaks the cocycle condition: the cyclic sum picks up [e1,e2]
    cocycle_bad = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    cocycle_bad[1][2] = [0, 1, 0]
    cocycle_bad[2][1] = [0, -1, 0]
    d = DeformationData.build(3, 3, cocycle_bad, [Matrix.zeros(3)] * 3)
    ok, which = is_infinitesimal_deformation(rep, d)
    assert not ok and which == "two_cocycle"
    # [e1,e2]_1 = e1 passes the brackets but not the mixed module condition
    mixed_bad = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mixed_bad[0][1] = [1, 0, 0]
    mixed_bad[1][0] = [-1, 0, 0]
    d2 = DeformationData.build(3, 3, mixed_bad, [Matrix.zeros(3)] * 3)
    ok, which = is_infinitesimal_deformation(rep, d2)
    assert not ok and which == "mixed_module"


def reference_infinitesimal_deformation(rep, d):
    """The four coefficient conditions as four plain loops over basis vectors."""
    g = rep.algebra
    dim, m = g.dim, rep.dim_m
    c1 = dense(d.bracket1, dim)
    br1 = partial(contract, d.bracket1, dim)
    act1 = partial(contract, d.action1, m)
    for i in range(dim):
        for j in range(dim):
            if tuple(c1[i][j]) != tuple(-x for x in c1[j][i]):
                return False, "bracket1_skew"
    for i, j, k in itertools.combinations(range(dim), 3):
        ei, ej, ek = _unit(dim, i), _unit(dim, j), _unit(dim, k)
        total = vec_add(
            vec_add(g.bracket_vec(ei, br1(ej, ek)), g.bracket_vec(ej, br1(ek, ei))),
            g.bracket_vec(ek, br1(ei, ej)))
        total = vec_add(total, vec_add(
            vec_add(br1(ei, g.c[j][k]), br1(ej, g.c[k][i])), br1(ek, g.c[i][j])))
        if not is_zero_vec(total):
            return False, "two_cocycle"
    for i, j, k in itertools.combinations(range(dim), 3):
        ei, ej, ek = _unit(dim, i), _unit(dim, j), _unit(dim, k)
        total = vec_add(vec_add(br1(ei, br1(ej, ek)), br1(ej, br1(ek, ei))),
                        br1(ek, br1(ei, ej)))
        if not is_zero_vec(total):
            return False, "bracket1_jacobi"
    for i, j in itertools.combinations(range(dim), 2):
        ei, ej = _unit(dim, i), _unit(dim, j)
        for t in range(m):
            mt = _unit(m, t)
            lhs = act1(br1(ei, ej), mt)
            rhs = vec_sub(act1(ei, act1(ej, mt)), act1(ej, act1(ei, mt)))
            if lhs != rhs:
                return False, "action1_rep"
    for i, j in itertools.combinations(range(dim), 2):
        ei, ej = _unit(dim, i), _unit(dim, j)
        for t in range(m):
            mt = _unit(m, t)
            lhs = vec_add(act1(g.c[i][j], mt), rep.act(br1(ei, ej), mt))
            rhs = vec_add(
                vec_sub(rep.act(ei, act1(ej, mt)), rep.act(ej, act1(ei, mt))),
                vec_sub(act1(ei, rep.act(ej, mt)), act1(ej, rep.act(ei, mt))))
            if lhs != rhs:
                return False, "mixed_module"
    return True, None


def _random_deformation(rng, rep):
    """bracket1 a multiple of the bracket, a random skew tensor, zero, or zero but
    one entry; action1 a multiple of the action, one random matrix, or all random."""
    dim, m = rep.algebra.dim, rep.dim_m

    def small():
        return rng.choice((-1, 1, 0, 0, 0, 0))

    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    mode = rng.randrange(4)
    if mode == 0:
        lam = rng.choice((0, 1, -2))
        c = [[[lam * x for x in rep.algebra.c[i][j]] for j in range(dim)] for i in range(dim)]
    elif mode == 1:
        for i, j in itertools.combinations(range(dim), 2):
            c[i][j] = [small() for _ in range(dim)]
            c[j][i] = [-x for x in c[i][j]]
    elif mode == 2:
        c[rng.randrange(dim)][rng.randrange(dim)] = [small() for _ in range(dim)]
    mode = rng.randrange(3)
    if mode == 0:
        acts = [a.scale(rng.choice((0, 1, -2))) for a in rep.action]
    else:
        acts = [Matrix([[small() for _ in range(m)] for _ in range(m)]) for _ in range(dim)]
        if mode == 1:
            keep = rng.randrange(dim)
            acts = [a if k == keep else Matrix.zeros(m) for k, a in enumerate(acts)]
    return DeformationData.build(dim, m, c, acts)


def test_infinitesimal_deformation_matches_reference_loops():
    ws = Workspace.load([bundle()])
    reps = [e.value for e in ws.entries.values() if e.kind == "representation"]
    rng = random.Random(12)
    seen = Counter()
    for _ in range(600):
        rep = rng.choice(reps)
        d = _random_deformation(rng, rep)
        want = reference_infinitesimal_deformation(rep, d)
        assert is_infinitesimal_deformation(rep, d) == want
        seen[want] += 1
    assert set(seen) == {(True, None), (False, "bracket1_skew"), (False, "two_cocycle"),
                         (False, "bracket1_jacobi"), (False, "action1_rep"),
                         (False, "mixed_module")}, seen


def test_quadratic_identities_walk_no_triple_of_an_abelian_algebra(monkeypatch):
    """Every reader of the cyclic form walks only the triples a nonzero constant
    reaches, so on an abelian dim-40 algebra with a one-dimensional trivial
    module none of them evaluates it; and the semi-direct product is the one
    the module was validated with."""
    g = LieAlgebra.from_rows(40, zero_rows(40, 40))
    calls = []
    form = liecore.cyclic_form
    # raising=False: onstruct reads the form through liecore.mixed_form and
    # binds no name of its own
    for module in (liecore, ooper, onstruct):
        monkeypatch.setattr(module, "cyclic_form", lambda *a: calls.append(a[3:]) or form(*a),
                            raising=False)
    rep = trivial_rep(g, 1)
    ident = Matrix.identity(40)
    assert ooper.pre_lie_from_o(adjoint(g), ident).dim == 40
    assert trivial_deformation_from(rep, ident, Matrix.identity(1)).bracket1 == g.s
    assert all(nijenhuis_power_props(g, ident, 3).values())
    assert onstruct.mixed_jacobi_defect(40, g.s, g.s) is None
    assert calls == []
    validated = []
    monkeypatch.setattr(LieAlgebra, "_validate", lambda self: validated.append(self))
    assert semidirect(rep).dim == 41 and validated == []


def test_trivial_deformation_from():
    rep = adjoint(aff1())
    d = trivial_deformation_from(rep, Matrix.identity(2), Matrix.identity(2))
    assert d.bracket1 == rep.algebra.s
    assert d.action1 == rep.s
    dz = trivial_deformation_from(rep, Matrix.zeros(2), Matrix.zeros(2))
    assert dz.action1 == zero_rows(2, 2)
    s = Matrix([[1, 0], [-1, 1]])
    d2 = trivial_deformation_from(rep, AFF1_N, s)
    assert is_infinitesimal_deformation(rep, d2)[0]
    with pytest.raises(NotNijenhuisStructure):
        trivial_deformation_from(rep, AFF1_N, Matrix([[0, 1], [1, 0]]))


def test_nijenhuis_structure_examples():
    rep = adjoint(aff1())
    assert is_nijenhuis_structure(rep, Matrix.identity(2), Matrix.identity(2))
    # scalar N pairs with itself on any module
    assert is_nijenhuis_structure(rep, Matrix.diag((2, 2)), Matrix.diag((2, 2)))
    # (N, N) on the adjoint is NOT automatic, even for Nijenhuis N
    assert not is_nijenhuis_structure(rep, AFF1_N, AFF1_N)
    # (N, N^T) on the coadjoint module holds for every Nijenhuis operator
    for g, n in ((aff1(), AFF1_N), (h3(), Matrix.diag((2, 1, 2))),
                 (sl2(), Matrix.diag((1, 1, 2)))):
        assert is_nijenhuis_structure(coadjoint(g), n, n.transpose())


def test_nijenhuis_structure_powers():
    # the pairs (N^i, S^i) inherit the structure; property-tested, not assumed
    cases = [
        (adjoint(aff1()), AFF1_N, Matrix([[1, 0], [1, 1]])),
        (coadjoint(h3()), Matrix.diag((2, 1, 2)), Matrix.diag((2, 1, 2))),
        (coadjoint(sl2()), Matrix.diag((1, 1, 2)), Matrix.diag((1, 1, 2))),
    ]
    for rep, n, s in cases:
        assert is_nijenhuis_structure(rep, n, s)
        npow, spow = n, s
        for _ in range(3):
            npow = npow * n
            spow = spow * s
            assert is_nijenhuis_structure(rep, npow, spow)


def test_nijenhuis_structure_oracle_agreement_random():
    rep = adjoint(aff1())
    rng = random.Random(11)
    for _ in range(200):
        n = Matrix([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
        s = Matrix([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
        is_nijenhuis_structure(rep, n, s)  # raises on oracle disagreement


def test_tilde_action():
    rep = adjoint(aff1())
    t = tilde_action(rep, Matrix.identity(2), Matrix.zeros(2))
    assert list(t.action) == list(rep.action)
    tz = tilde_action(rep, Matrix.zeros(2), Matrix.zeros(2))
    assert all(m.is_zero() for m in tz.action)
    assert not any(map(any, tz.algebra.s))
    with pytest.raises(NotNijenhuisStructure):
        tilde_action(rep, AFF1_N, AFF1_N)


def test_on_structure_examples():
    co = coadjoint(aff1())
    assert is_on_structure(co, COADJ_T2, Matrix.identity(2), Matrix.identity(2))[0]
    rep = adjoint(aff1())
    assert is_on_structure(rep, Matrix.zeros(2), Matrix.identity(2),
                           Matrix.identity(2))[0]
    on = on_from_compatible_pair(co, COADJ_T1, COADJ_T2)
    assert is_on_structure(co, on.T, on.N, on.S)[0]
    ok, report = is_on_structure(co, COADJ_T2, Matrix.diag((1, 2)), Matrix.diag((1, 2)))
    assert not ok and not report["intertwine"] or not ok
    with pytest.raises(NotONStructure):
        ONStructure(co, COADJ_T2, Matrix.diag((1, 2)), Matrix.diag((2, 1)))


def test_bracket_clause_alone_rejects():
    """T an O-operator, (N, S) a Nijenhuis structure and NT = TS, yet
    [m, n]^{NT} != [m, n]^T_S: the bracket clause alone decides the verdict."""
    rep = adjoint(sl2())
    T = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    S = Matrix([[0, 0, 0], [0, 0, 1], [0, 0, 0]])
    ok, report = is_on_structure(rep, T, Matrix.zeros(3), S)
    assert not ok
    assert report == {"o_operator": True, "nijenhuis_structure": True,
                      "intertwine": True, "bracket_equality": False}


def test_on_from_compatible_pair_trivial():
    co = coadjoint(aff1())
    on0 = on_from_compatible_pair(co, Matrix.zeros(2), COADJ_T2)
    assert on0.N.is_zero() and on0.S.is_zero()
    on1 = on_from_compatible_pair(co, COADJ_T2, COADJ_T2)
    assert on1.N == Matrix.identity(2) and on1.S == Matrix.identity(2)
    with pytest.raises(Singular):
        on_from_compatible_pair(co, COADJ_T2, Matrix.zeros(2))


def test_theorem_consequences_for_on():
    # T an O-operator for the tilde action over the deformed algebra,
    # N T an O-operator, T and N T compatible
    from lieop.ooper import are_compatible, o_residual
    from lieop.exactla import is_zero_vec
    cases = [
        (coadjoint(aff1()), on_from_compatible_pair(
            coadjoint(aff1()), COADJ_T1, COADJ_T2)),
        (adjoint(h3()), on_from_compatible_pair(
            adjoint(h3()),
            Matrix([[-1, -1, 0], [-1, 0, 0], [-1, 0, 1]]),
            Matrix([[-1, -1, 0], [-1, 0, 0], [-1, -1, 1]]))),
    ]
    for rep, on in cases:
        tilde = tilde_action(rep, on.N, on.S)
        assert all(is_zero_vec(v) for v in o_residual(tilde, on.T).values())
        assert is_o_operator(rep, on.N * on.T)
        assert are_compatible(rep, on.T, on.N * on.T)


def test_hierarchy_trivial_and_fixture():
    co = coadjoint(aff1())
    ts = hierarchy(co, COADJ_T2, Matrix.identity(2), Matrix.identity(2), 3)
    assert all(t == COADJ_T2 for t in ts)
    rep = adjoint(aff1())
    tz = hierarchy(rep, Matrix.zeros(2), Matrix.identity(2), Matrix.identity(2), 3)
    assert all(t.is_zero() for t in tz)
    on = on_from_compatible_pair(co, COADJ_T1, COADJ_T2)
    ts = hierarchy(co, on.T, on.N, on.S, 3)
    assert len(ts) == 4
    assert all(is_o_operator(co, t) for t in ts)


def test_hierarchy_on_h3():
    rep = adjoint(h3())
    t2 = Matrix([[-1, -1, 0], [-1, 0, 0], [-1, -1, 1]])
    t1 = Matrix([[-1, -1, 0], [-1, 0, 0], [-1, 0, 1]])
    on = on_from_compatible_pair(rep, t1, t2)
    ts = hierarchy(rep, on.T, on.N, on.S, 3)
    assert len(ts) == 4


def test_hierarchy_o_identity_count(monkeypatch):
    ws = Workspace.load([bundle()])
    calls = []
    original = ooper.is_o_operator

    def counted(rep, T, *p):
        calls.append(T)
        return original(rep, T, *p)

    monkeypatch.setattr(ooper, "is_o_operator", counted)
    monkeypatch.setattr(onstruct, "is_o_operator", counted)
    for name in ("aff1_on", "aff1_on_id", "h3_on"):
        assert len(hierarchy(*ws.get(name, "on_structure").value, 6)) == 7
    # per structure: the ON check (T_0), the 6 members T_1..T_6, and T_k + T_l
    # for each of the 21 pairs; no member is checked twice
    assert len(calls) == 3 * (1 + 6 + 21) == 84


def test_hierarchy_builds_each_member_product_once(monkeypatch):
    """hierarchy(h3_on, 6) builds 31 o_products: 3 in the ON check, one per
    member T_0..T_6, read by every mixed residual and bracket, and one for each
    of the 21 sums T_k + T_l of the compatibility oracle."""
    args = Workspace.load([bundle()]).get("h3_on", "on_structure").value
    calls = []
    original = ooper.o_product

    def counted(*a):
        calls.append(a)
        return original(*a)

    monkeypatch.setattr(ooper, "o_product", counted)
    monkeypatch.setattr(onstruct, "o_product", counted)
    hierarchy(*args, 6)
    assert len(calls) == 3 + 7 + 21 == 31


def test_pn_structure():
    g = h3()
    r = bivector(3, {(0, 2): 1})
    assert is_pn_structure(g, bivector(3, {}), Matrix.diag((2, 1, 2)))
    assert is_pn_structure(g, r, Matrix.identity(3))
    assert is_pn_structure(g, r, Matrix.diag((2, 1, 2)))
    assert not is_pn_structure(g, r, Matrix.diag((2, 1, 1)))


def test_pn_structure_oracle_sweep():
    g = aff1()
    idx = [(0, 1)]
    for val in (-1, 0, 1):
        r = bivector(2, dict(zip(idx, [val])))
        for flat in itertools.product((-1, 0, 1), repeat=4):
            n = Matrix([flat[0:2], flat[2:4]])
            is_pn_structure(g, r, n)  # oracle agreement is the assertion


def test_pn_hierarchy():
    g = h3()
    r = bivector(3, {(0, 2): 1})
    rs = pn_hierarchy(g, r, Matrix.identity(3), 3)
    assert all(rk == r for rk in rs)
    zs = pn_hierarchy(g, bivector(3, {}), Matrix.diag((2, 1, 2)), 3)
    assert all(z.is_zero() for z in zs)
    rs = pn_hierarchy(g, r, Matrix.diag((2, 1, 2)), 3)
    assert len(rs) == 4
    assert rs[1] == bivector(3, {(0, 2): 2})
    assert rs[2] == bivector(3, {(0, 2): 4})
    assert all(is_r_matrix(g, rk) for rk in rs)
    with pytest.raises(NotPN):
        pn_hierarchy(g, r, Matrix.diag((2, 1, 1)), 2)


def _count_calls(monkeypatch, name, keep):
    """Wrap onstruct.<name> and record the arguments of the calls `keep` accepts."""
    seen = []
    original = getattr(onstruct, name)

    def counted(*args):
        if keep(*args):
            seen.append(args)
        return original(*args)

    monkeypatch.setattr(onstruct, name, counted)
    return seen


def test_on_check_runs_nijenhuis_on_the_algebra_once(monkeypatch):
    rep, T, N, S = Workspace.load([bundle()]).get("h3_on", "on_structure").value
    on_g = _count_calls(monkeypatch, "is_nijenhuis",
                        lambda g, M: g is rep.algebra and M == N)
    ok, _ = is_on_structure(rep, T, N, S)
    assert ok and len(on_g) == 1


def test_on_check_builds_the_s_deformed_bracket_once(monkeypatch):
    """The bracket clause and the tilde oracle share one S-deformed bracket: two
    deformed_tensor calls (that one and [.,.]_N for the tilde module) and three
    pre-Lie products (T's, read by the O-identity and M^T, M^{NT}'s and the
    tilde module's)."""
    rep, T, N, S = Workspace.load([bundle()]).get("h3_on", "on_structure").value
    deformed = _count_calls(monkeypatch, "deformed_tensor", lambda *args: True)
    products = []
    o_product = ooper.o_product

    def counted(*a):
        products.append(a)
        return o_product(*a)

    monkeypatch.setattr(ooper, "o_product", counted)
    monkeypatch.setattr(onstruct, "o_product", counted)
    ok, _ = is_on_structure(rep, T, N, S)
    assert ok and len(deformed) == 2 and len(products) == 3


def test_pn_check_runs_the_shared_bracket_clause_once(monkeypatch):
    g, r, N = Workspace.load([bundle()]).get("h3_pn", "pn_structure").value
    calls = _count_calls(monkeypatch, "_brackets_agree", lambda *args: True)
    assert is_pn_structure(g, r, N)
    assert len(calls) == 1


def test_pn_check_runs_nijenhuis_on_the_algebra_once(monkeypatch):
    g, r, N = Workspace.load([bundle()]).get("h3_pn", "pn_structure").value
    on_g = _count_calls(monkeypatch, "is_nijenhuis", lambda h, M: h is g and M == N)
    assert is_pn_structure(g, r, N)
    assert len(on_g) == 1


def test_nijenhuis_richardson_coding_matches_is_nijenhuis():
    # every endomorphism of a 2-dimensional Lie algebra is Nijenhuis, so the
    # False verdicts come from h3 and sl2
    rng = random.Random(5)
    seen = set()
    for g in (LieAlgebra.from_brackets(2, {}), aff1(), h3(), sl2()):
        for _ in range(150):
            N = Matrix([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(g.dim)]
                        for _ in range(g.dim)])
            verdict = is_nijenhuis(g, N)[0]
            assert onstruct.is_nijenhuis_nr(g, N) == verdict, (g, N)
            seen.add(verdict)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# the deformed form against the codings it replaced
# ---------------------------------------------------------------------------

def reference_is_nijenhuis(g, N):
    """[Nx, Ny] = N([Nx, y] + [x, Ny] - N[x, y]) from dense brackets, pair by pair."""
    for i in range(g.dim):
        ni = N.col(i)
        for j in range(i + 1, g.dim):
            nj = N.col(j)
            ei, ej = _unit(g.dim, i), _unit(g.dim, j)
            lhs = g.bracket_vec(ni, nj)
            inner = vec_sub(vec_add(g.bracket_vec(ni, ej), g.bracket_vec(ei, nj)),
                            N.apply(g.c[i][j]))
            if lhs != N.apply(inner):
                return False, (i, j, vec_sub(lhs, N.apply(inner)))
    return True, None


def reference_deformation_pair_defect(rep, N, S):
    """First (i, t, lhs - rhs) of N(x).S(m) = S(Nx.m + x.Sm - S(x.m)) from dense
    actions, pair by pair, or None."""
    g, m, act = rep.algebra, rep.dim_m, rep.act
    for i in range(g.dim):
        ei, ni = _unit(g.dim, i), N.col(i)
        for t in range(m):
            mt, st = _unit(m, t), S.col(t)
            lhs = act(ni, st)
            rhs = S.apply(vec_sub(vec_add(act(ni, mt), act(ei, st)), S.apply(act(ei, mt))))
            if lhs != rhs:
                return (i, t, vec_sub(lhs, rhs))
    return None


def reference_deformed_action(rep, N, S):
    """rho(Nx) + [rho(x), S] for each basis vector x, as Matrix products, read
    as action rows."""
    return tuple((rep.rho(N.col(i)) + rep.action[i] * S - S * rep.action[i]).sparse_cols()
                 for i in range(rep.algebra.dim))


def reference_j_integrable(sd, J):
    """[Ju, Jv] - [u, v] = J([Ju, v] + [u, Jv]) on basis pairs u < v, from dense
    brackets: integrability of a J with J J = -id."""
    n = sd.dim
    for u in range(n):
        for v in range(u + 1, n):
            ju, jv = J.col(u), J.col(v)
            lhs = vec_sub(sd.bracket_vec(ju, jv), sd.c[u][v])
            inner = vec_add(sd.bracket_vec(ju, _unit(n, v)), sd.bracket_vec(_unit(n, u), jv))
            if lhs != J.apply(inner):
                return False
    return True


def _seeded_matrix(rng, rows, cols):
    return Matrix([[rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(cols)]
                   for _ in range(rows)])


def test_is_nijenhuis_matches_the_dense_reference():
    """Every {-1, 0, 1} endomorphism of aff1 (all Nijenhuis, as on any
    2-dimensional algebra), then seeded ones on sl2, h3 and a semi-direct
    product: same verdict and same defect."""
    cases = [(aff1(), Matrix([flat[:2], flat[2:]]))
             for flat in itertools.product((-1, 0, 1), repeat=4)]
    rng = random.Random(31)
    for g in (sl2(), h3(), semidirect(h3_rep2())):
        cases += [(g, _seeded_matrix(rng, g.dim, g.dim)) for _ in range(150)]
    seen = Counter()
    for g, N in cases:
        got = is_nijenhuis(g, N)
        assert got == reference_is_nijenhuis(g, N), (g, N)
        seen[got[0]] += 1
    assert set(seen) == {True, False}, seen


def test_deformation_pair_and_deformed_action_match_the_matrix_references():
    """Seeded (N, S) on every bundle module, a quarter of them scalar pairs
    (lam id, lam id), which satisfy the deformation identity: same defect, and
    the action rho(Nx) + [rho(x), S] with S and with -S."""
    ws = Workspace.load([bundle()])
    reps = [e.value for e in ws.entries.values() if e.kind == "representation"]
    rng = random.Random(32)
    seen = Counter()
    for rep in reps:
        d, m = rep.algebra.dim, rep.dim_m
        for _ in range(60):
            if rng.random() < 0.25:
                lam = rng.choice((0, 1, -1, 2, Fraction(1, 2)))
                N, S = Matrix.identity(d).scale(lam), Matrix.identity(m).scale(lam)
            else:
                N, S = _seeded_matrix(rng, d, d), _seeded_matrix(rng, m, m)
            want = reference_deformation_pair_defect(rep, N, S)
            assert deformation_pair_defect(rep, N, S) == want, (rep, N, S)
            assert deformed_action(rep, N, S) == reference_deformed_action(rep, N, S)
            assert deformed_action(rep, N, -S) == reference_deformed_action(rep, N, -S)
            seen[want is None] += 1
    assert set(seen) == {True, False}, seen


def reference_nijenhuis_structure_defect(rep, N, S):
    """The retired dense loop: first (i, t, lhs - rhs) of
    N(x).S(m) = S(Nx.m) + x.S^2 m - S(x.Sm) on unit vectors, or None."""
    d, m, act = rep.algebra.dim, rep.dim_m, rep.act
    for i, t in itertools.product(range(d), range(m)):
        ei, ni, mt, st = _unit(d, i), N.col(i), _unit(m, t), S.col(t)
        lhs = act(ni, st)
        rhs = vec_sub(vec_add(S.apply(act(ni, mt)), act(ei, S.apply(st))), S.apply(act(ei, st)))
        if lhs != rhs:
            return (i, t, vec(vec_sub(lhs, rhs)))
    return None


def test_nijenhuis_structure_defect_matches_the_dense_loop():
    """Seeded (N, S) on the 9 bundle modules, a quarter of them (lam id, lam id)
    or (0, lam id), which satisfy the identity: same first pair, same defect."""
    ws = Workspace.load([bundle()])
    reps = [e.value for e in ws.entries.values() if e.kind == "representation"]
    assert len(reps) == 9
    rng = random.Random(40)
    seen = Counter()
    for rep in reps:
        d, m = rep.algebra.dim, rep.dim_m
        for _ in range(60):
            if rng.random() < 0.25:
                lam = rng.choice((0, 1, -1, 2, Fraction(1, 2)))
                N = Matrix.identity(d).scale(rng.choice((0, lam)))
                S = Matrix.identity(m).scale(lam)
            else:
                N, S = _seeded_matrix(rng, d, d), _seeded_matrix(rng, m, m)
            want = reference_nijenhuis_structure_defect(rep, N, S)
            assert onstruct.nijenhuis_structure_defect(rep, N, S) == want, (rep, N, S)
            seen[want is None] += 1
    assert set(seen) == {True, False}, seen


def test_nijenhuis_structure_defects_are_normalised():
    """Seeded rational (N, S) on every bundle module: each defect that
    nijenhuis_structure_defect reports holds ints and Fractions in lowest terms,
    never a Fraction with denominator 1."""
    ws = Workspace.load([bundle()])
    reps = [e.value for e in ws.entries.values() if e.kind == "representation"]
    rng = random.Random(39)
    seen = Counter()
    for rep in reps:
        d, m = rep.algebra.dim, rep.dim_m
        for _ in range(40):
            defect = onstruct.nijenhuis_structure_defect(
                rep, _seeded_matrix(rng, d, d), _seeded_matrix(rng, m, m))
            if defect is not None:
                assert not any(type(x) is Fraction and x.denominator == 1 for x in defect[2])
                seen[any(type(x) is Fraction for x in defect[2])] += 1
    assert set(seen) == {True, False}, seen


def test_gcs_direct_route_matches_the_dense_integrability_reference():
    """On the slice (N, T) = ([[0, -1], [1, 0]], 0) of aff1's adjoint module, 18 of the 6561 tuples (sigma, S) give J J = -id and 9 of
    those an integrable J: gcs_check_direct agrees with J J = -id followed by
    the dense integrability loop on every tuple."""
    rep = adjoint(aff1())
    sd = semidirect(rep)
    n_blk, t_blk = ((0, -1), (1, 0)), ((0, 0), (0, 0))
    blocks = [(t[0:2], t[2:4]) for t in itertools.product((-1, 0, 1), repeat=4)]
    seen = Counter()
    for sigma, s in itertools.product(blocks, blocks):
        J = Matrix([n_blk[0] + t_blk[0], n_blk[1] + t_blk[1],
                    sigma[0] + tuple(-x for x in s[0]), sigma[1] + tuple(-x for x in s[1])])
        almost = (J * J + Matrix.identity(4)).is_zero()
        want = almost and reference_j_integrable(sd, J)
        assert gcs_check_direct(rep, n_blk, t_blk, sigma, s) == want, (sigma, s)
        seen[almost, want] += 1
    assert seen == {(False, False): 6561 - 18, (True, False): 9, (True, True): 9}


# (module, N shape, S shape): each pair has one operator of the wrong shape
BAD_SHAPES = [
    ("aff1_adj", (1, 1), (2, 2)), ("aff1_adj", (2, 3), (2, 2)), ("aff1_adj", (3, 2), (2, 2)),
    ("aff1_adj", (2, 2), (3, 3)), ("aff1_adj", (2, 2), (2, 3)), ("aff1_adj", (2, 2), (3, 2)),
    ("h3_rep2", (2, 2), (3, 3)), ("h3_rep2", (3, 3), (3, 3)), ("h3_rep2", (2, 2), (2, 2)),
]

PAIR_ENTRY_POINTS = {
    "deformation_pair_defect": deformation_pair_defect,
    "nijenhuis_structure_defect": onstruct.nijenhuis_structure_defect,
    "deformed_action": deformed_action,
    "trivial_deformation_from": trivial_deformation_from,
    "tilde_action": tilde_action,
    "is_nijenhuis_structure": is_nijenhuis_structure,
    "is_on_structure": lambda rep, N, S: is_on_structure(
        rep, Matrix.zeros(rep.algebra.dim, rep.dim_m), N, S),
}


def _diagonal(shape):
    return Matrix([[1 if i == j else 0 for j in range(shape[1])] for i in range(shape[0])])


@pytest.mark.parametrize("entry", sorted(PAIR_ENTRY_POINTS))
@pytest.mark.parametrize("rep_name,n_shape,s_shape", BAD_SHAPES)
def test_mis_shaped_pairs_are_refused_up_front(entry, rep_name, n_shape, s_shape):
    rep = adjoint(aff1()) if rep_name == "aff1_adj" else h3_rep2()
    with pytest.raises(DimensionMismatch):
        PAIR_ENTRY_POINTS[entry](rep, _diagonal(n_shape), _diagonal(s_shape))
