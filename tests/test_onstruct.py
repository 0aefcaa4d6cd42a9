import itertools
import random
from collections import Counter
from functools import partial

import pytest

from lieop import onstruct, ooper
from lieop.cli import Workspace
from lieop.errors import (
    NotNijenhuis, NotNijenhuisStructure, NotONStructure, NotPN, Singular,
)
from lieop.exactla import Matrix, is_zero_vec, vec_add, vec_sub
from lieop.fixtures import bundle
from lieop.liecore import (
    LieAlgebra, _unit, action_tensor, adjoint, coadjoint, contract, sparse,
)
from lieop.ooper import Bivector, is_o_operator, is_r_matrix
from lieop.onstruct import (
    DeformationData, ONStructure, deformed_bracket, hierarchy,
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
    assert deformed_bracket(g, Matrix.identity(2)).bracket_tensor_equal(g)
    assert deformed_bracket(g, Matrix.zeros(2)).is_abelian()
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
    c1 = d.bracket1
    br1 = partial(contract, sparse(c1), dim)
    act1 = partial(contract, sparse(action_tensor(d.action1)), m)
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


def test_trivial_deformation_from():
    rep = adjoint(aff1())
    d = trivial_deformation_from(rep, Matrix.identity(2), Matrix.identity(2))
    assert d.bracket1 == rep.algebra.c
    assert list(d.action1) == list(rep.action)
    dz = trivial_deformation_from(rep, Matrix.zeros(2), Matrix.zeros(2))
    assert all(m.is_zero() for m in dz.action1)
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
    assert tz.algebra.is_abelian()
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
    assert on1.N.is_identity() and on1.S.is_identity()
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

    def counted(rep, T):
        calls.append(T)
        return original(rep, T)

    monkeypatch.setattr(ooper, "is_o_operator", counted)
    monkeypatch.setattr(onstruct, "is_o_operator", counted)
    for name in ("aff1_on", "aff1_on_id", "h3_on"):
        assert len(hierarchy(*ws.get(name, "on_structure").value, 6)) == 7
    # per structure: the ON check (T_0), the 6 members T_1..T_6, and T_k + T_l
    # for each of the 21 pairs; no member is checked twice
    assert len(calls) == 3 * (1 + 6 + 21) == 84


def test_pn_structure():
    g = h3()
    r = Bivector.from_pairs(3, {(0, 2): 1})
    assert is_pn_structure(g, Bivector.from_pairs(3, {}), Matrix.diag((2, 1, 2)))
    assert is_pn_structure(g, r, Matrix.identity(3))
    assert is_pn_structure(g, r, Matrix.diag((2, 1, 2)))
    assert not is_pn_structure(g, r, Matrix.diag((2, 1, 1)))


def test_pn_structure_oracle_sweep():
    g = aff1()
    idx = [(0, 1)]
    for val in (-1, 0, 1):
        r = Bivector.from_pairs(2, dict(zip(idx, [val])))
        for flat in itertools.product((-1, 0, 1), repeat=4):
            n = Matrix([flat[0:2], flat[2:4]])
            is_pn_structure(g, r, n)  # oracle agreement is the assertion


def test_pn_hierarchy():
    g = h3()
    r = Bivector.from_pairs(3, {(0, 2): 1})
    rs = pn_hierarchy(g, r, Matrix.identity(3), 3)
    assert all(rk == r for rk in rs)
    zs = pn_hierarchy(g, Bivector.from_pairs(3, {}), Matrix.diag((2, 1, 2)), 3)
    assert all(z.is_zero() for z in zs)
    rs = pn_hierarchy(g, r, Matrix.diag((2, 1, 2)), 3)
    assert len(rs) == 4
    assert rs[1].pairs() == {(0, 2): 2}
    assert rs[2].pairs() == {(0, 2): 4}
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
