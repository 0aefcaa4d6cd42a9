import random
from fractions import Fraction

import pytest

from lieop import ooper, twilled
from lieop.errors import (
    LieOpError, NotComplementary, NotOOperator, NotStrongMC, NotSubalgebra,
)
from lieop.cli import Workspace
from lieop.cohomology import one_cocycle_basis
from lieop.exactla import Matrix, is_zero_vec, vec_add, vec_sub
from lieop.fixtures import AFF1_ADJ_OMEGA, AFF1_ADJ_T, ab, bundle, standard_fixtures
from lieop.liecore import (
    LieAlgebra, Subspace, _unit, adjoint, coadjoint, semidirect, trivial_rep,
)
from lieop.onstruct import ONStructure, hierarchy, on_from_compatible_pair
from lieop.ooper import is_o_operator
from lieop.twilled import (
    bar_action, find_strong_mc, mc_check, omega_structures,
    on_from_strong_mc, strong_mc_check, strong_mc_from_on, swap,
    twilled_from_o, twilled_new,
)
from test_sparse_carriers import gl


def aff1():
    return LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})


def h3():
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


AFF1_T = Matrix([[0, 0], [1, 0]])


def test_twilled_new_splittings():
    g = aff1()
    tw = twilled_new(g, Subspace(2, [(1, 0)]), Subspace(2, [(0, 1)]))
    assert (tw.dim_a, tw.dim_b) == (1, 1)
    k = h3()
    tw2 = twilled_new(k, Subspace(3, [(1, 0, 0), (0, 0, 1)]), Subspace(3, [(0, 1, 0)]))
    assert not any(map(any, tw2.a_algebra.s)) and not any(map(any, tw2.b_algebra.s))
    rep = adjoint(g)
    s = semidirect(rep)
    tw3 = twilled_new(s, Subspace(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
                      Subspace(4, [(0, 0, 1, 0), (0, 0, 0, 1)]))
    assert all(m.is_zero() for m in tw3.action2.action)  # module side acts trivially


def test_twilled_new_guards():
    g = h3()
    with pytest.raises(NotComplementary):
        twilled_new(g, Subspace(3, [(1, 0, 0)]), Subspace(3, [(1, 0, 0), (0, 1, 0)]))
    with pytest.raises(NotSubalgebra):
        twilled_new(g, Subspace(3, [(1, 0, 0), (0, 1, 0)]), Subspace(3, [(0, 0, 1)]))


def test_twilled_from_o():
    rep = adjoint(aff1())
    tw = twilled_from_o(rep, AFF1_T)
    assert (tw.dim_a, tw.dim_b) == (2, 2)
    assert not any(map(any, tw.b_algebra.s))   # M^T for this fixture
    with pytest.raises(NotOOperator):
        twilled_from_o(rep, Matrix.identity(2))
    # T = 0: the bar action collapses to zero and the twilled algebra is the
    # plain semi-direct product
    tw0 = twilled_from_o(rep, Matrix.zeros(2))
    assert tw0.total.s == semidirect(rep).s
    # trivial action: bar reduces to [T(m), x]
    triv = trivial_rep(aff1(), 2)
    t = Matrix([[0, 0], [1, 0]])
    assert is_o_operator(triv, t)
    tw1 = twilled_from_o(triv, t)
    g = aff1()
    for b in range(2):
        for i in range(2):
            expected = g.bracket_vec(t.col(b), (1, 0) if i == 0 else (0, 1))
            assert tw1.action2.action[b].col(i) == expected


def test_twilled_from_o_passes_generic_validation():
    rep = adjoint(aff1())
    tw = twilled_from_o(rep, AFF1_T)
    d = tw.dim_a + tw.dim_b
    ident = Matrix.identity(d)
    again = twilled_new(tw.total,
                        Subspace(d, [ident.row(i) for i in range(tw.dim_a)]),
                        Subspace(d, [ident.row(tw.dim_a + i) for i in range(tw.dim_b)]))
    assert again.total.s == tw.total.s
    assert all(a == b for a, b in zip(again.action1.action, tw.action1.action))
    assert all(a == b for a, b in zip(again.action2.action, tw.action2.action))


def _parts(tw):
    return (tw.total.c, tw.dim_a, tw.dim_b, tw.a_algebra.c, tw.b_algebra.c,
            tw.action1.action, tw.action2.action)


def test_swap_involution():
    """swap is an involution, and swap(tw) equals twilled_new of the same
    total with b's basis first, in the total and in all four parts."""
    _, reps, o_ops = standard_fixtures()
    for name, (rep_name, t) in sorted(o_ops.items()):
        tw = twilled_from_o(reps[rep_name], t)
        assert _parts(swap(swap(tw))) == _parts(tw), name
        units = Matrix.identity(tw.dim_a + tw.dim_b).entries
        d = len(units)
        split = twilled_new(tw.total, Subspace(d, units[tw.dim_a:]),
                            Subspace(d, units[:tw.dim_a]))
        assert _parts(swap(tw)) == _parts(split), name


def test_mc_trivial_cases():
    rep = adjoint(aff1())
    tw = twilled_from_o(rep, AFF1_T)
    ok, _ = strong_mc_check(tw, Matrix.zeros(2))
    assert ok
    triv = trivial_rep(LieAlgebra(2, [[[0, 0]] * 2] * 2), 2)
    tw0 = twilled_from_o(triv, Matrix.zeros(2))
    rng = random.Random(0)
    for _ in range(10):
        om = Matrix([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        ok, _ = strong_mc_check(tw0, om)
        assert ok  # everything vanishes on an abelian pair with zero actions


def test_a_twilled_algebra_builds_its_mu2_once(monkeypatch):
    """mc_check and strong_mc_check on one twilled algebra, over accepted and
    rejected candidates, build mu2 once, the cochain build_mu2 gives; another
    algebra builds its own."""
    built = []
    build = twilled.build_mu2
    monkeypatch.setattr(twilled, "build_mu2", lambda *a: built.append(a) or build(*a))
    tw = twilled_from_o(adjoint(aff1()), AFF1_T)
    verdicts = [(mc_check(tw, om)[0], strong_mc_check(tw, om)[0])
                for om in (Matrix.zeros(2), Matrix([[1, 2], [0, -1]]))]
    assert verdicts == [(True, True), (False, False)] and len(built) == 1
    assert tw.mu2 is tw.mu2
    assert tw.mu2.values == build(tw.dim_a, tw.dim_b, tw.b_algebra, tw.action2).values
    other = twilled_from_o(adjoint(aff1()), AFF1_T)
    assert "mu2" not in vars(other)
    assert strong_mc_check(other, Matrix.zeros(2))[0]
    assert len(built) == 2


def test_mc_oracle_agreement_random():
    rep = adjoint(aff1())
    tw = twilled_from_o(rep, AFF1_T)
    k = h3()
    tw2 = twilled_new(k, Subspace(3, [(1, 0, 0), (0, 0, 1)]), Subspace(3, [(0, 1, 0)]))
    rng = random.Random(5)
    for _ in range(120):
        om = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        mc_check(tw, om)
        strong_mc_check(tw, om)
        mc_check(tw2, Matrix([[rng.randint(-2, 2), rng.randint(-2, 2)]]))


def reference_cocycle_residual(tw, omega):
    """The retired dense loop: x .1 Omega(y) - y .1 Omega(x) - Omega([x, y]) on
    unit vectors, per pair."""
    out = {}
    da = tw.dim_a
    for i in range(da):
        for j in range(i + 1, da):
            ei, ej = _unit(da, i), _unit(da, j)
            acted = vec_sub(tw.action1.act(ei, omega.col(j)), tw.action1.act(ej, omega.col(i)))
            out[(i, j)] = vec_sub(acted, omega.apply(tw.a_algebra.bracket_vec(ei, ej)))
    return out


def gl3_centre_projection():
    """gl(3) on itself with T x = (tr x / 3) I, an O-operator."""
    rep = adjoint(gl(3))
    diag = (0, 4, 8)
    return rep, Matrix([[Fraction(1, 3) if k in diag and b in diag else 0 for b in range(9)]
                        for k in range(9)])


def test_cocycle_residual_matches_the_dense_loop():
    """Seeded Omega over the bundle twilled algebras, the twilled algebra of
    every bundle O-operator and of the gl(3) centre projection; a third of the
    draws are integer combinations of 1-cocycles, whose residual vanishes."""
    ws = Workspace.load([bundle()])
    tws = [e.value for e in ws.entries.values() if e.kind == "twilled"]
    tws += [twilled_from_o(*e.value) for e in ws.entries.values() if e.kind == "o_operator"]
    tws.append(twilled_from_o(*gl3_centre_projection()))
    assert len(tws) == 11
    rng = random.Random(44)
    seen = {True: 0, False: 0}
    for tw in tws:
        basis = one_cocycle_basis(tw.action1)
        for _ in range(30):
            if basis and rng.random() < 1 / 3:
                om = Matrix.zeros(tw.dim_b, tw.dim_a)
                for base in basis:
                    om = om + base.scale(rng.randint(-2, 2))
            else:
                om = Matrix([[rng.choice((0, 0, 1, -1, Fraction(1, 2))) for _ in range(tw.dim_a)]
                             for _ in range(tw.dim_b)])
            want = reference_cocycle_residual(tw, om)
            assert twilled.cocycle_residual(tw, om) == want
            seen[all(is_zero_vec(v) for v in want.values())] += 1
    assert min(seen.values()) > 0, seen


def test_mc_weak_vs_strong():
    # a weak MC solution that is not strong would satisfy (30) with nonzero
    # cocycle part; verify the two verdicts can be computed independently
    rep = adjoint(aff1())
    tw = twilled_from_o(rep, AFF1_T)
    rng = random.Random(9)
    weak_only = 0
    for _ in range(400):
        om = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        mc_ok, _ = mc_check(tw, om)
        strong_ok, _ = strong_mc_check(tw, om)
        if strong_ok:
            assert mc_ok
        if mc_ok and not strong_ok:
            weak_only += 1
    assert weak_only > 0


def _reference_action_omega(rep, T, omega):
    """x . m = [Omega x, m]^T + Omega(m bar. x), one matrix per basis vector of g."""
    bar = bar_action(rep, T)
    d, m = rep.algebra.dim, rep.dim_m
    units = Matrix.identity(m).entries
    return tuple(Matrix.from_cols([
        vec_add(bar.algebra.bracket_vec(omega.col(i), units[j]),
                omega.apply(bar.action[j].col(i)))
        for j in range(m)]) for i in range(d))


def test_find_strong_mc_and_structures():
    rep = adjoint(aff1())
    sols = find_strong_mc(rep, AFF1_T)
    assert any(not s.is_zero() for s in sols)
    for om in sols[:6]:
        bundle = omega_structures(rep, AFF1_T, om)
        assert bundle.big_bracket.dim == 4
        on = on_from_strong_mc(rep, AFF1_T, om)
        assert on.N == AFF1_T * om and on.S == om * AFF1_T


def test_find_strong_mc_refuses_a_box_past_its_budget(monkeypatch):
    """On the trivial module of ab(3) every one of the 9 maps is a 1-cocycle,
    so T = 0 has 5^9 candidates: refused before any O-identity is read.  The
    bundle's operators, h3's 5^6 among them, stay within the budget."""
    ws = Workspace.load([bundle()])
    dims = {len(one_cocycle_basis(e.value[0])) for e in ws.entries.values()
            if e.kind == "o_operator"}
    assert max(dims) == 6 and 5 ** 6 <= twilled.MAX_MC_CANDIDATES < 5 ** 9
    rep = trivial_rep(ab(3), 3)
    assert len(one_cocycle_basis(rep)) == 9
    calls = []
    for module in (ooper, twilled):
        monkeypatch.setattr(module, "is_o_operator", lambda *args: calls.append(args))
    with pytest.raises(LieOpError, match=r"^5\^9 strong MC candidates exceed the budget"):
        find_strong_mc(rep, Matrix.zeros(3))
    assert calls == []


def test_find_strong_mc_budget_counts_distinct_coefficients():
    """Repeated coefficients are dropped before the budget check: 4 listed
    but 2 distinct give 2^9 = 512 candidates on ab(3)'s trivial module, every
    one a solution and no two equal, and a repeated coefficient changes no
    list."""
    sols = find_strong_mc(trivial_rep(ab(3), 3), Matrix.zeros(3), coeffs=(0, 0, 0, 1))
    assert len(sols) == len(set(sols)) == 2 ** 9
    rep, t = adjoint(aff1()), AFF1_ADJ_T
    assert find_strong_mc(rep, t, coeffs=(0, 1, 1, -1)) == find_strong_mc(rep, t, coeffs=(0, 1, -1))


def test_find_strong_mc_stops_at_its_limit():
    rep = adjoint(aff1())
    assert find_strong_mc(rep, AFF1_ADJ_T, limit=0) == []
    two = find_strong_mc(rep, AFF1_ADJ_T, limit=2)
    assert len(two) == 2 and two == find_strong_mc(rep, AFF1_ADJ_T)[:2]


@pytest.mark.parametrize("limit", [-1, 1.5, "2", True])
def test_find_strong_mc_refuses_a_bad_limit(monkeypatch, limit):
    """A negative or non-integer limit is refused before any cocycle is solved."""
    calls = []
    monkeypatch.setattr(twilled, "one_cocycle_basis", lambda *args: calls.append(args))
    with pytest.raises(LieOpError, match="^limit must be None or a non-negative integer"):
        find_strong_mc(adjoint(aff1()), AFF1_ADJ_T, limit=limit)
    assert calls == []


def test_omega_action_matches_reference_formula():
    _, reps, o_ops = standard_fixtures()
    nonzero = 0
    for name, (rep_name, t) in sorted(o_ops.items()):
        rep = reps[rep_name]
        for om in find_strong_mc(rep, t, coeffs=(-1, 0, 1), limit=6):
            got = omega_structures(rep, t, om).action_omega.action
            assert got == _reference_action_omega(rep, t, om), name
            nonzero += any(not a.is_zero() for a in got)
    assert nonzero


def test_omega_zero_collapses_big_bracket():
    # plain substitution: only the bar action and the module bracket survive
    rep = adjoint(aff1())
    bundle = omega_structures(rep, AFF1_T, Matrix.zeros(2))
    assert not any(map(any, bundle.g_omega.s))
    assert all(m.is_zero() for m in bundle.action_omega.action)
    big = bundle.big_bracket
    tw = twilled_from_o(rep, AFF1_T)
    for i in range(2):
        for j in range(2):
            assert big.c[i][j] == (0, 0, 0, 0)                       # g side abelian
            assert big.c[2 + i][2 + j] == tw.total.c[2 + i][2 + j]   # module bracket kept
            mixed = big.bracket_vec(
                (1 if k == i else 0 for k in range(4)),
                tuple(1 if k == 2 + j else 0 for k in range(4)))
            expected = tuple(-x for x in bundle.bar_rep.action[j].col(i)) + (0, 0)
            assert mixed == expected


def test_omega_structures_checks_omega_over_the_bar_module_once(monkeypatch):
    calls = []
    original = ooper.is_o_operator

    def counted(rep, T, *p):
        if T == AFF1_ADJ_OMEGA:
            calls.append(rep)
        return original(rep, T, *p)

    monkeypatch.setattr(ooper, "is_o_operator", counted)
    monkeypatch.setattr(twilled, "is_o_operator", counted)
    out = omega_structures(adjoint(aff1()), AFF1_ADJ_T, AFF1_ADJ_OMEGA)
    assert len(calls) == 1 and calls[0] is out.bar_rep


def test_not_strong_mc_raises(monkeypatch):
    """Both constructions refuse a map that is not a strong MC solution after
    one strong check."""
    rep = adjoint(aff1())
    tw = twilled_from_o(rep, AFF1_T)
    rng = random.Random(2)
    bad = None
    while bad is None:
        om = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        if not strong_mc_check(tw, om)[0]:
            bad = om
    calls = []
    check = twilled.strong_mc_check
    monkeypatch.setattr(twilled, "strong_mc_check", lambda *a: calls.append(a) or check(*a))
    for construction in (omega_structures, on_from_strong_mc):
        calls.clear()
        with pytest.raises(NotStrongMC):
            construction(rep, AFF1_T, bad)
        assert len(calls) == 1 and calls[0][1] == bad, construction.__name__


def test_strong_mc_on_roundtrip():
    co = coadjoint(aff1())
    t2 = Matrix([[0, -1], [1, 0]])
    t1 = Matrix([[0, 0], [0, 1]])
    on = on_from_compatible_pair(co, t1, t2)
    om = strong_mc_from_on(co, on.T, on.N, on.S)
    back = on_from_strong_mc(co, on.T, om)
    assert (back.T, back.N, back.S) == (on.T, on.N, on.S)
    # N = S = id with invertible T gives Omega = T^{-1}
    on_id = ONStructure(co, t2, Matrix.identity(2), Matrix.identity(2))
    om_id = strong_mc_from_on(co, on_id.T, on_id.N, on_id.S)
    from lieop.exactla import invert
    assert om_id == invert(t2)
    # zero N, S force Omega = 0
    on_zero = ONStructure(co, t2, Matrix.zeros(2), Matrix.zeros(2))
    assert strong_mc_from_on(co, on_zero.T, on_zero.N, on_zero.S).is_zero()


def test_corollary_hierarchy_from_strong_mc():
    rep = adjoint(aff1())
    sols = [s for s in find_strong_mc(rep, AFF1_T) if not s.is_zero()]
    om = sols[0]
    on = on_from_strong_mc(rep, AFF1_T, om)
    ts = hierarchy(rep, on.T, on.N, on.S, 3)
    for k, tk in enumerate(ts):
        expected = AFF1_T
        for _ in range(k):
            expected = (AFF1_T * om) * expected
        assert tk == expected


def test_bar_action_is_representation():
    co = coadjoint(h3())
    t = Matrix([[0, 0, -1], [0, 0, -1], [0, -1, -1]])
    assert is_o_operator(co, t)
    bar = bar_action(co, t)
    assert bar.dim_m == 3
    assert bar.algebra.dim == 3
