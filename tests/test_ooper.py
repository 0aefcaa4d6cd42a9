import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieop import liecore, ooper
from lieop.errors import (
    DimensionMismatch, ImageEscapesH, NotAdmissible, NotCocycle, NotOOperator, NotPreLie,
    NotStable, Singular,
)
from lieop.cli import Workspace
from lieop.exactla import Matrix, invert, is_zero_vec, vec_add, vec_sub
from lieop.fixtures import bundle, standard_fixtures
from lieop.liecore import (
    LieAlgebra, Subspace, _unit, adjoint, coadjoint, contract, is_subalgebra, semidirect,
    sparse, trivial_rep, zero_rows,
)
from lieop.cohomology import one_cocycle_basis
from lieop.onstruct import _brackets_agree, deformed_tensor
from lieop.ooper import (
    OOperator, are_compatible, bivector,
    compatibility_defect, gauge_iso_check, gauge_transform, graph_check,
    graph_oracle, induced_lie, is_o_operator, is_r_matrix, lemma_r_equiv,
    mr_reduce, nijenhuis_from_pair, o_residual, pre_lie_compatible,
    pre_lie_from_o, r_sharp, schouten_self, structure_report,
)


def aff1():
    return LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})


def h3():
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def e(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


AFF1_T = Matrix([[0, 0], [1, 0]])          # e1 -> e2, e2 -> 0 on the adjoint module
COADJ_T2 = Matrix([[0, -1], [1, 0]])       # invertible on the coadjoint module
COADJ_T1 = Matrix([[0, 0], [0, 1]])
H3_T = Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])   # e1 -> e2 on the adjoint module


def test_o_residual_examples():
    rep = adjoint(aff1())
    assert all(is_zero_vec(v) for v in o_residual(rep, Matrix.zeros(2)).values())
    assert is_o_operator(rep, AFF1_T)
    res = o_residual(rep, Matrix.identity(2))
    assert res[(0, 1)] == (0, -1)
    assert not is_o_operator(rep, Matrix.identity(2))


def test_ooperator_wrapper():
    rep = adjoint(aff1())
    OOperator(rep, AFF1_T)
    with pytest.raises(NotOOperator):
        OOperator(rep, Matrix.identity(2))


def test_induced_lie():
    rep = adjoint(aff1())
    assert not any(map(any, induced_lie(rep, Matrix.zeros(2)).s))
    assert not any(map(any, induced_lie(rep, AFF1_T).s))
    co = coadjoint(aff1())
    mt = induced_lie(co, COADJ_T2)
    # invertible O-operators are isomorphisms onto their image
    for i in range(2):
        for j in range(2):
            lhs = COADJ_T2.apply(mt.c[i][j])
            rhs = aff1().bracket_vec(COADJ_T2.col(i), COADJ_T2.col(j))
            assert lhs == rhs


def test_graph_oracle_examples():
    rep = adjoint(aff1())
    assert graph_check(rep, Matrix.zeros(2))
    assert graph_check(rep, AFF1_T)
    assert not graph_check(rep, Matrix.identity(2))
    assert graph_oracle(rep, Matrix.zeros(2)) == (True, None)
    assert graph_oracle(rep, AFF1_T) == (True, None)
    assert graph_oracle(rep, Matrix.identity(2)) == (False, ((0, 1), (0, -1)))


def reference_graph_check(rep, T):
    """Gr(T) as a row-reduced subspace of the semidirect product, tested by
    is_subalgebra on its basis pairs."""
    d, m = rep.algebra.dim, rep.dim_m
    graph = Subspace(d + m, [T.col(b) + _unit(m, b) for b in range(m)])
    return is_subalgebra(semidirect(rep), graph)[0]


def test_graph_check_matches_row_reduced_graph():
    """x = Tn on the bracket of each two graph basis vectors against membership in
    the row-reduced graph, on seeded operators over every bundle representation."""
    ws = Workspace.load([bundle()])
    reps = [e.value for e in ws.entries.values() if e.kind == "representation"]
    known = [e.value for e in ws.entries.values() if e.kind == "o_operator"]
    rng = random.Random(14)
    seen = set()
    for rep in reps:
        ours = [t for r, t in known if r is rep] + [Matrix.zeros(rep.algebra.dim, rep.dim_m)]
        for _ in range(40):
            if rng.randrange(3):
                t = Matrix([[rng.choice((-1, 0, 0, 0, 1)) for _ in range(rep.dim_m)]
                            for _ in range(rep.algebra.dim)])
            else:
                t = rng.choice(ours).scale(rng.choice((1, -1, 2, Fraction(1, 2))))
            want = reference_graph_check(rep, t)
            assert graph_check(rep, t) == want
            seen.add(want)
    assert seen == {True, False}


def test_graph_check_does_not_read_the_o_identity(monkeypatch):
    def refuse(*args):
        raise AssertionError("the graph route read the O-identity coding")

    for name in ("o_product", "o_form", "o_defect"):
        monkeypatch.setattr(ooper, name, refuse)
    rep = adjoint(aff1())
    assert graph_check(rep, AFF1_T)
    assert not graph_check(rep, Matrix.identity(2))
    assert graph_check(coadjoint(aff1()), COADJ_T2)


def test_structure_report():
    rep = adjoint(aff1())
    rpt = structure_report(rep, Matrix.zeros(2))
    assert rpt["kernel_is_ideal_in_MT"] and rpt["image_is_subalgebra"]
    for T in (AFF1_T,):
        rpt = structure_report(rep, T)
        assert rpt["kernel_is_ideal_in_MT"] and rpt["image_is_subalgebra"]
    rpt = structure_report(coadjoint(aff1()), COADJ_T2)
    assert rpt["kernel_is_ideal_in_MT"] and rpt["image_is_subalgebra"]


def test_r_sharp():
    z = bivector(2, {})
    assert r_sharp(z).is_zero()
    r = bivector(2, {(0, 1): 1})
    sharp = r_sharp(r)
    assert sharp.col(0) == (0, 1)       # r_sharp(eps1) = e2
    assert sharp.col(1) == (-1, 0)      # r_sharp(eps2) = -e1
    assert sharp.is_antisymmetric()
    assert r_sharp(sharp) == r


def test_schouten_examples():
    anything = bivector(2, {(0, 1): 3})
    abelian = LieAlgebra(2, [[[0, 0]] * 2] * 2)
    assert schouten_self(abelian, anything) == {}
    g = h3()
    assert schouten_self(g, bivector(3, {(0, 2): 1})) == {}
    assert schouten_self(g, bivector(3, {(0, 1): 1})) == {(0, 1, 2): 2}
    assert is_r_matrix(g, bivector(3, {(0, 2): 5}))
    assert not is_r_matrix(g, bivector(3, {(0, 1): 1}))


def test_lemma_r_equiv():
    g = h3()
    abelian = LieAlgebra(2, [[[0, 0]] * 2] * 2)
    assert lemma_r_equiv(abelian, bivector(2, {(0, 1): 2}))
    assert lemma_r_equiv(g, bivector(3, {(0, 2): 1}))
    assert not lemma_r_equiv(g, bivector(3, {(0, 1): 1}))


def test_lemma_r_equiv_exhaustive_small():
    for g in (aff1(), h3()):
        dim = g.dim
        idx = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        for vals in itertools.product((-1, 0, 1), repeat=len(idx)):
            lemma_r_equiv(g, bivector(dim, dict(zip(idx, vals))))


def test_gauge_trivial_cases():
    rep = adjoint(aff1())
    assert gauge_transform(rep, AFF1_T, Matrix.zeros(2)) == AFF1_T
    # nonzero cocycle with B T = 0 leaves T untouched
    B = Matrix([[0, 0], [1, 0]])
    assert (B * AFF1_T).is_zero() and not B.is_zero()
    assert gauge_transform(rep, AFF1_T, B) == AFF1_T
    assert gauge_iso_check(rep, AFF1_T, B)


def test_gauge_iso_check_reuses_the_two_o_products(monkeypatch):
    """gauge_iso_check reads the O-products of T and T_B that the transform
    built: one each."""
    ws = Workspace.load([bundle()])
    rep, t = ws.entries["aff1_adj_T"].value
    b = ws.entries["aff1_adj_B"].value
    calls = []
    product = ooper.o_product
    monkeypatch.setattr(ooper, "o_product", lambda *args: calls.append(args) or product(*args))
    assert gauge_iso_check(rep, t, b)
    assert len(calls) == 2


def test_gauge_requires_cocycle():
    rep = adjoint(aff1())
    bad = Matrix([[1, 0], [0, 0]])  # a = 1 violates the cocycle equations
    with pytest.raises(NotCocycle):
        gauge_transform(rep, AFF1_T, bad)


def test_gauge_cocycle_instances():
    rep = adjoint(aff1())
    cocycles = one_cocycle_basis(rep)
    assert len(cocycles) == 2
    found = 0
    for coeffs in itertools.product((-2, -1, 0, 1, 2), repeat=len(cocycles)):
        B = Matrix.zeros(2)
        for c, base in zip(coeffs, cocycles):
            B = B + base.scale(c)
        try:
            tb = gauge_transform(rep, AFF1_T, B)
        except NotAdmissible:
            continue
        assert is_o_operator(rep, tb)
        assert gauge_iso_check(rep, AFF1_T, B)
        found += 1
    assert found >= 5


def test_gauge_inverse_formula():
    co = coadjoint(aff1())
    T = COADJ_T2
    assert is_o_operator(co, T)
    for B in one_cocycle_basis(co):
        try:
            tb = gauge_transform(co, T, B)
        except NotAdmissible:
            continue
        assert invert(tb) == invert(T) + B


def test_mr_reduce_nothing_quotiented():
    rep = adjoint(aff1())
    red = mr_reduce(rep, AFF1_T, Subspace.full(2), Subspace.zero(2), Subspace.full(2))
    assert red.quotient.algebra.dim == 2
    assert red.reduced_T.shape() == (2, 2)
    # with nothing removed the reduced operator is T in the identity basis
    assert red.reduced_T == AFF1_T


def test_mr_reduce_ideal_consequence():
    g = h3()
    rep = adjoint(g)
    assert is_o_operator(rep, H3_T)
    red = mr_reduce(rep, H3_T, Subspace.full(3), Subspace(3, [e(3, 2)]),
                    Subspace.full(3))
    # E = span{e3} is central, so the annihilator is everything
    assert red.module.dim() == 3
    assert red.quotient.algebra.dim == 2
    assert not any(map(any, red.quotient.algebra.s))
    assert not red.reduced_T.is_zero()


def test_mr_reduce_restriction_consequence():
    g = h3()
    rep = adjoint(g)
    h = Subspace(3, [e(3, 0), e(3, 2)])
    n = Subspace(3, [e(3, 1), e(3, 2)])
    red = mr_reduce(rep, H3_T, h, Subspace.zero(3), n)
    assert red.quotient.algebra.dim == 2
    assert red.module.dim() == 2
    assert red.reduced_T.is_zero()  # T maps N into span{e2}, reduced through h-coords


def test_mr_reduce_hypothesis_failures():
    g = h3()
    rep = adjoint(g)
    from lieop.errors import NotSubalgebra
    with pytest.raises(NotSubalgebra):
        mr_reduce(rep, H3_T, Subspace(3, [e(3, 0), e(3, 1)]), Subspace.zero(3),
                  Subspace.full(3))
    with pytest.raises(NotStable):
        mr_reduce(rep, H3_T, Subspace.full(3), Subspace.zero(3),
                  Subspace(3, [e(3, 0)]))
    co = coadjoint(aff1())
    with pytest.raises(ImageEscapesH):
        mr_reduce(co, COADJ_T2, Subspace(2, [e(2, 0)]), Subspace.zero(2),
                  Subspace.full(2))


def test_compatibility_examples():
    rep = adjoint(aff1())
    assert are_compatible(rep, AFF1_T, Matrix.zeros(2))
    assert are_compatible(rep, AFF1_T, AFF1_T)
    co = coadjoint(aff1())
    assert are_compatible(co, COADJ_T1, COADJ_T2)
    defects = compatibility_defect(co, COADJ_T1, COADJ_T2)
    assert all(is_zero_vec(v) for v in defects.values())


def test_are_compatible_evaluates_each_o_identity_once(monkeypatch):
    calls = []
    original = ooper.is_o_operator

    def counted(rep, T, *p):
        calls.append(T)
        return original(rep, T, *p)

    monkeypatch.setattr(ooper, "is_o_operator", counted)
    assert are_compatible(coadjoint(aff1()), COADJ_T1, COADJ_T2)
    assert calls == [COADJ_T1, COADJ_T2, COADJ_T1 + COADJ_T2]


@pytest.mark.parametrize("build", [induced_lie, pre_lie_from_o])
def test_products_of_an_o_operator_build_its_pre_lie_rows_once(monkeypatch, build):
    """induced_lie and pre_lie_from_o check the O-identity from the same rows
    P = o_product(rep, T) they build their result from."""
    rep, T = Workspace.load([bundle()]).get("aff1_adj_T", "o_operator").value
    calls = []
    original = ooper.o_product
    monkeypatch.setattr(ooper, "o_product", lambda *args: calls.append(args) or original(*args))
    build(rep, T)
    assert len(calls) == 1


def test_not_o_operator_residual_is_read_from_the_same_rows():
    rep = coadjoint(h3())
    T = Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    for build in (induced_lie, pre_lie_from_o, lambda *args: OOperator(*args)):
        with pytest.raises(NotOOperator) as ei:
            build(rep, T)
        assert ei.value.residual == o_residual(rep, T) and not is_o_operator(rep, T)


def test_incompatible_pair_exists():
    co = coadjoint(h3())
    t1 = Matrix([[0, 0, -1], [0, 0, -1], [0, -1, -1]])
    t2 = Matrix([[0, 0, -1], [0, 1, 1], [1, -1, 1]])
    assert is_o_operator(co, t1) and is_o_operator(co, t2)
    assert not are_compatible(co, t1, t2)
    assert not is_o_operator(co, t1 + t2)


def test_nijenhuis_from_pair():
    co = coadjoint(aff1())
    assert nijenhuis_from_pair(co, Matrix.zeros(2), COADJ_T2).is_zero()
    assert nijenhuis_from_pair(co, COADJ_T2, COADJ_T2) == Matrix.identity(2)
    n = nijenhuis_from_pair(co, COADJ_T1, COADJ_T2)
    assert n == COADJ_T1 * invert(COADJ_T2)
    with pytest.raises(Singular):
        nijenhuis_from_pair(co, Matrix.zeros(2), COADJ_T1)


def test_invertible_pair_nijenhuis_equivalence():
    # compat <-> N = T1 T2^{-1} Nijenhuis, both directions, where invertible
    from lieop.onstruct import is_nijenhuis
    g = h3()
    rep = adjoint(g)
    rng = random.Random(3)
    inv_ops = []
    for flat in itertools.product((-1, 0, 1), repeat=9):
        T = Matrix([flat[0:3], flat[3:6], flat[6:9]])
        if is_o_operator(rep, T):
            try:
                invert(T)
            except Singular:
                continue
            inv_ops.append(T)
    pairs = [(a, b) for a, b in itertools.combinations(inv_ops, 2)]
    rng.shuffle(pairs)
    both = 0
    for t1, t2 in pairs[:60]:
        comp = are_compatible(rep, t1, t2)
        nij = is_nijenhuis(g, t1 * invert(t2))[0]
        assert comp == nij
        both += comp
    assert both > 0


def test_pre_lie_from_o():
    rep = adjoint(aff1())
    assert pre_lie_from_o(rep, Matrix.zeros(2)).s == zero_rows(2, 2)
    p = pre_lie_from_o(rep, AFF1_T)
    assert p.s[0][0] == ((1, -1),)   # T(e1) . e1 = [e2, e1] = -e2
    assert p.s[0][1] == ()
    assert pre_lie_from_o(trivial_rep(aff1(), 2), Matrix.zeros(2)).s == zero_rows(2, 2)


def test_pre_lie_validation():
    from lieop.ooper import PreLieProduct
    with pytest.raises(NotPreLie):
        # e1 * e1 = e2, e2 * e1 = e1 fails associator symmetry
        PreLieProduct(2, [[(0, 1), (0, 0)], [(1, 0), (0, 0)]])


@pytest.mark.parametrize("tensor", [
    [[(0, 0), (0, 0)]],                    # one row of two
    [[(0, 0)], [(0, 0)]],                  # two rows of one
    [[(0,), (0,)], [(0,), (0,)]],          # vectors of length 1
    [[(0, 0), (0, 0)], [(0, 0), (0, 0)], [(0, 0), (0, 0)]],
])
def test_pre_lie_product_must_be_a_cube(tensor):
    with pytest.raises(DimensionMismatch):
        ooper.PreLieProduct(2, tensor)


def test_fixture_operators_are_morphisms():
    # T intertwines [.,.]^T with the bracket of g for every accepted operator
    from lieop.fixtures import standard_fixtures
    _, reps, o_ops = standard_fixtures()
    for name, (rep_name, t) in o_ops.items():
        rep = reps[rep_name]
        mt = induced_lie(rep, t)
        for i in range(rep.dim_m):
            for j in range(rep.dim_m):
                lhs = t.apply(mt.c[i][j])
                rhs = rep.algebra.bracket_vec(t.col(i), t.col(j))
                assert lhs == rhs, name


def test_pre_lie_compatibility():
    co = coadjoint(aff1())
    p1 = pre_lie_from_o(co, COADJ_T1)
    p2 = pre_lie_from_o(co, COADJ_T2)
    zero = pre_lie_from_o(co, Matrix.zeros(2))
    assert pre_lie_compatible(p1, zero)
    assert pre_lie_compatible(p1, p1)
    assert pre_lie_compatible(p1, p2)  # theorem: compatible pair gives compatible products


def reference_pre_lie_defect(dim, p):
    """First triple of the full cube violating the left pre-Lie identity, by
    nested contractions of basis vectors; p is sparse."""
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                ei, ej, ek = _unit(dim, i), _unit(dim, j), _unit(dim, k)
                lhs = vec_sub(contract(p, dim, contract(p, dim, ei, ej), ek),
                              contract(p, dim, ei, contract(p, dim, ej, ek)))
                rhs = vec_sub(contract(p, dim, contract(p, dim, ej, ei), ek),
                              contract(p, dim, ej, contract(p, dim, ei, ek)))
                if lhs != rhs:
                    return (i, j, k)
    return None


def test_pre_lie_defect_matches_reference_loop():
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for _ in range(600):
        d = rng.randint(1, 4)
        density = rng.choice((0.05, 0.1, 0.2, 0.4))
        p = sparse([[[rng.choice((-1, 1, 2)) if rng.random() < density else 0
                      for _ in range(d)] for _ in range(d)] for _ in range(d)])
        want = reference_pre_lie_defect(d, p)
        assert ooper.pre_lie_defect_tensor(d, p) == want
        seen[want is None] += 1
    assert min(seen.values()) > 0, seen


def associator_form(acc, a, at, b, i, j, k):
    """The retired associator form: acc += A(a, b)(e_i, e_j, e_k) =
    (e_i e_j)e_k - e_i(e_j e_k) - (e_j e_i)e_k + e_j(e_i e_k), a the outer and
    b the inner sparse product, at the transpose rows of a.  A(p, p) is the
    pre-Lie identity; A(a, b) + A(b, a) its mixed term."""
    liecore._add_rows(acc, 1, b[i][j], at[k])
    liecore._add_rows(acc, -1, b[j][k], a[i])
    liecore._add_rows(acc, -1, b[j][i], at[k])
    liecore._add_rows(acc, 1, b[i][k], a[j])
    return acc


def reference_pre_lie_all_triples(dim, p):
    """The retired walk: the associator form on every triple i < j, k of the
    cube, in cube order; p is sparse."""
    pt = tuple(zip(*p))
    cube = ((i, j, k) for i in range(dim) for j in range(i + 1, dim) for k in range(dim))
    return next((t for t in cube if any(associator_form({}, p, pt, p, *t).values())), None)


def reference_mixed_all_triples(p1, p2):
    """The retired direct route of pre_lie_compatible: A(p1, p2) + A(p2, p1) on
    every triple i < j, k."""
    d, t1, t2 = p1.dim, tuple(zip(*p1.s)), tuple(zip(*p2.s))
    return not any(any(associator_form(associator_form({}, p1.s, t1, p2.s, *t),
                                       p2.s, t2, p1.s, *t).values())
                   for t in itertools.product(range(d), repeat=3) if t[0] < t[1])


def test_pre_lie_walk_matches_the_all_triples_loop():
    """The reached-triple walk returns the first violating triple of the cube,
    and the mixed identity of two products reads the same on every triple."""
    rng = random.Random(41)
    seen = {True: 0, False: 0}
    valid = {}
    for _ in range(600):
        d = rng.randint(1, 7)
        density = rng.choice((0.02, 0.05, 0.1, 0.2))
        p = sparse([[[rng.choice((-1, 1, 2)) if rng.random() < density else 0
                      for _ in range(d)] for _ in range(d)] for _ in range(d)])
        want = reference_pre_lie_all_triples(d, p)
        assert ooper.pre_lie_defect_tensor(d, p) == want
        seen[want is None] += 1
        if want is None:
            valid.setdefault(d, []).append(ooper.PreLieProduct.from_rows(d, p))
    assert min(seen.values()) > 0, seen
    seen = {True: 0, False: 0}
    for products in valid.values():
        for p1, p2 in itertools.combinations(products[:12], 2):
            want = reference_mixed_all_triples(p1, p2)
            assert pre_lie_compatible(p1, p2) == want
            seen[want] += 1
    assert min(seen.values()) > 0, seen


def test_pre_lie_from_o_on_an_abelian_algebra_visits_no_triple(monkeypatch):
    g = LieAlgebra.from_rows(100, zero_rows(100, 100))
    passes = []
    kernel = ooper.cyclic_sums
    monkeypatch.setattr(ooper, "cyclic_sums",
                        lambda *a, **k: passes.append(kernel(*a, **k)) or passes[-1])
    assert pre_lie_from_o(adjoint(g), Matrix.identity(100)).dim == 100
    assert passes == [{}]


def reference_o_residual(rep, T):
    """The O-identity [Tm_i, Tm_j] - T(Tm_i . m_j - Tm_j . m_i) as a plain loop
    over basis pairs i < j."""
    g, m = rep.algebra, rep.dim_m
    out = {}
    for i, j in itertools.combinations(range(m), 2):
        ti, tj = T.col(i), T.col(j)
        inner = vec_sub(rep.act(ti, _unit(m, j)), rep.act(tj, _unit(m, i)))
        out[(i, j)] = vec_sub(g.bracket_vec(ti, tj), T.apply(inner))
    return out


def reference_mixed_residual(rep, T1, T2):
    """[T1 m, T2 n] + [T2 m, T1 n] - T1(T2 m.n - T2 n.m) - T2(T1 m.n - T1 n.m) as a
    plain loop over basis pairs m < n."""
    g, m = rep.algebra, rep.dim_m
    out = {}
    for i, j in itertools.combinations(range(m), 2):
        ei, ej = _unit(m, i), _unit(m, j)
        t1i, t1j, t2i, t2j = T1.col(i), T1.col(j), T2.col(i), T2.col(j)
        lhs = vec_add(g.bracket_vec(t1i, t2j), g.bracket_vec(t2i, t1j))
        rhs = vec_add(T1.apply(vec_sub(rep.act(t2i, ej), rep.act(t2j, ei))),
                      T2.apply(vec_sub(rep.act(t1i, ej), rep.act(t1j, ei))))
        out[(i, j)] = vec_sub(lhs, rhs)
    return out


def reference_ind_bracket(rep, T, x, y):
    """[x, y]^T = T(x) . y - T(y) . x on coordinate vectors."""
    return vec_sub(rep.act(T.apply(x), y), rep.act(T.apply(y), x))


def reference_deformed_module_bracket(rep, T, S):
    """[m, n]^T_S = [Sm, n]^T + [m, Sn]^T - S([m, n]^T) on every basis pair."""
    m = rep.dim_m
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            ei, ej = _unit(m, i), _unit(m, j)
            row.append(vec_sub(vec_add(reference_ind_bracket(rep, T, S.col(i), ej),
                                       reference_ind_bracket(rep, T, ei, S.col(j))),
                               S.apply(reference_ind_bracket(rep, T, ei, ej))))
        out.append(row)
    return out


def test_o_form_and_induced_tensor_match_reference_loops():
    """O(T, T), O(T1, T2) + O(T2, T1), the tensor of M^T and its S-deformation,
    and the ON bracket clause, each against its plain basis loop on the bundle."""
    ws = Workspace.load([bundle()])
    reps = [e.value for e in ws.entries.values() if e.kind == "representation"]
    known = [e.value for e in ws.entries.values() if e.kind == "o_operator"]
    rng = random.Random(13)

    def operator(rep):
        ours = [t for r, t in known if r is rep]
        mode = rng.randrange(4)
        if mode == 0 and ours:
            return rng.choice(ours).scale(rng.choice((1, -1, 2)))
        if mode == 1:
            return Matrix.zeros(rep.algebra.dim, rep.dim_m)
        return Matrix([[rng.choice((-1, 0, 0, 0, 1)) for _ in range(rep.dim_m)]
                       for _ in range(rep.algebra.dim)])

    seen = {"o": set(), "mixed": set(), "clause": set()}
    for _ in range(500):
        rep = rng.choice(reps)
        m, d = rep.dim_m, rep.algebra.dim
        t1, t2 = operator(rep), operator(rep)
        want = reference_o_residual(rep, t1)
        assert o_residual(rep, t1) == want
        assert is_o_operator(rep, t1) == all(is_zero_vec(v) for v in want.values())
        seen["o"].add(is_o_operator(rep, t1))
        want = reference_mixed_residual(rep, t1, t2)
        p1, p2 = ooper.o_product(rep, t1), ooper.o_product(rep, t2)
        assert ooper.mixed_residual(rep, t1, t2, p1, p2) == want
        seen["mixed"].add(all(is_zero_vec(v) for v in want.values()))
        bracket = ooper.induced_tensor(rep, t1)
        assert bracket == sparse([[reference_ind_bracket(rep, t1, _unit(m, i), _unit(m, j))
                                   for j in range(m)] for i in range(m)])
        lam = rng.choice((0, 1, 2))
        if rng.randrange(2):
            n, s = Matrix.identity(d).scale(lam), Matrix.identity(m).scale(lam)
        else:
            n = Matrix([[rng.choice((-1, 0, 0, 1)) for _ in range(d)] for _ in range(d)])
            s = Matrix([[rng.choice((-1, 0, 0, 1)) for _ in range(m)] for _ in range(m)])
        deformed = reference_deformed_module_bracket(rep, t1, s)
        assert deformed_tensor(bracket, m, s) == sparse(deformed)
        clause = all(reference_ind_bracket(rep, n * t1, _unit(m, i), _unit(m, j))
                     == deformed[i][j] for i, j in itertools.combinations(range(m), 2))
        assert _brackets_agree(rep, t1, n, deformed_tensor(bracket, m, s)) == clause
        seen["clause"].add(clause)
    assert all(v == {True, False} for v in seen.values()), seen


def test_pre_lie_compatible_on_bundle_pairs():
    # every ordered pair of one dimension among the bundle's pre-Lie products
    # and those of its O-operators; the oracle compares with the sum product
    ws = Workspace.load([bundle()])
    prods = [pre_lie_from_o(*e.value) for e in ws.entries.values() if e.kind == "o_operator"]
    prods += [ooper.PreLieProduct(*e.value) for e in ws.entries.values()
              if e.kind == "pre_lie"]
    verdicts = [pre_lie_compatible(p1, p2) for p1 in prods for p2 in prods
                if p1.dim == p2.dim]
    assert (len(verdicts), verdicts.count(True)) == (41, 21)


def test_zero_dimensional_module():
    g = aff1()
    rep = trivial_rep(g, 0)
    t = Matrix([(), ()], cols=0)
    assert is_o_operator(rep, t)
    assert induced_lie(rep, t).dim == 0
    assert graph_check(rep, t)


def gl(n):
    """gl(n) in the basis E_ij (index i*n + j): [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    d = n * n
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if j == k:
            c[i * n + j][k * n + l][i * n + l] += 1
        if l == i:
            c[i * n + j][k * n + l][k * n + j] -= 1
    return LieAlgebra(d, c)


CYBE_ALGEBRAS = sorted(standard_fixtures()[0].items()) + [("gl2", gl(2))]


def _signed_entry(br, a, b, c):
    """[r, r]^{abc} for any index triple: antisymmetric, 0 on repeated indices."""
    if len({a, b, c}) < 3:
        return 0
    triple = (a, b, c)
    inversions = sum(triple[x] > triple[y] for x in range(3) for y in range(x + 1, 3))
    return (-1) ** inversions * br.get(tuple(sorted(triple)), 0)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_coadjoint_o_residual_is_half_the_schouten_bracket(data):
    """The O-identity defect of r-sharp on the coadjoint module, pair (a, b) and
    coordinate c, is half of [r, r]^{abc}: the coordinate formula for [r, r] is
    pinned by value against the independent coadjoint route."""
    _, g = data.draw(st.sampled_from(CYBE_ALGEBRAS))
    n = g.dim
    coeff = st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=4))
    pairs = {(i, j): data.draw(coeff) for i in range(n) for j in range(i + 1, n)}
    r = bivector(n, pairs)
    br = schouten_self(g, r)
    assert all(a < b < c and v for (a, b, c), v in br.items())
    residual = o_residual(coadjoint(g), r_sharp(r))
    for (a, b), defect in residual.items():
        for c in range(n):
            assert defect[c] == Fraction(1, 2) * _signed_entry(br, a, b, c)


def _first_nonzero(residual):
    """The first (pair, vector) of a residual with a nonzero vector, or None."""
    return next(((key, v) for key, v in residual.items() if not is_zero_vec(v)), None)


# the entries of the int draws and of the Fraction draws
DRAW_VALUES = ((-1, 1, 2), (-1, 1, 2, Fraction(1, 2), Fraction(-3, 4)))


def test_per_pair_o_defect_matches_the_full_table_residual():
    """o_defect builds the two entries of P of each pair it visits; its first
    failing pair and witness are those of the full-table o_residual and of the
    plain basis loop, on seeded int and Fraction draws over every bundle module
    and the adjoint and coadjoint modules of gl(3)."""
    ws = Workspace.load([bundle()])
    reps = [e.value for e in ws.entries.values() if e.kind == "representation"]
    reps += [adjoint(gl(3)), coadjoint(gl(3))]
    rng = random.Random(29)
    seen = set()
    for rep in reps:
        d, m = rep.algebra.dim, rep.dim_m
        for draw in range(24):
            values, density = DRAW_VALUES[draw % 2], rng.choice((0.05, 0.2, 0.6))
            T = Matrix([[rng.choice(values) if rng.random() < density else 0
                         for _ in range(m)] for _ in range(d)])
            p = ooper.o_product(rep, T)
            defect = ooper.o_defect(rep, T)
            assert defect == _first_nonzero(o_residual(rep, T, p))
            assert defect == _first_nonzero(reference_o_residual(rep, T))
            assert o_residual(rep, T) == o_residual(rep, T, p)
            seen.add("valid" if defect is None else "later pair" if defect[0] != (0, 1)
                     else "first pair")
            if any(type(v) is Fraction for col in T.sparse_cols() for _, v in col):
                seen.add("fraction")
    assert seen == {"valid", "first pair", "later pair", "fraction"}


def test_o_defect_refuses_a_misshaped_operator_without_pairs():
    """The shape check runs before the pair walk, so a module of dimension 0 or
    1, which has no pairs, still refuses a T of the wrong shape."""
    g = aff1()
    for m in (0, 1):
        rep = trivial_rep(g, m)
        for T in (Matrix.zeros(3, m), Matrix.zeros(2, m + 1)):
            for check in (ooper.o_defect, o_residual, is_o_operator):
                with pytest.raises(DimensionMismatch):
                    check(rep, T)
        assert ooper.o_defect(rep, Matrix.zeros(2, m)) is None


def test_the_o_identity_builds_only_the_entries_it_reads(monkeypatch):
    """On h3's adjoint module the identity fails at pair (0, 1): the rejection
    builds P[0][1] and P[1][0] only.  An O-operator's full pass builds the
    m(m - 1) = 6 off-diagonal entries, each once, and no o_product table."""
    rep = adjoint(h3())
    entries, tables = [], []
    entry, table = ooper._o_entry, ooper.o_product
    monkeypatch.setattr(ooper, "_o_entry", lambda ti, rows: entries.append((ti, rows))
                        or entry(ti, rows))
    monkeypatch.setattr(ooper, "o_product", lambda *a: tables.append(a) or table(*a))
    assert ooper.o_defect(rep, Matrix.identity(3))[0] == (0, 1)
    cols = Matrix.identity(3).sparse_cols()
    assert entries == [(cols[0], rep.by_col[1]), (cols[1], rep.by_col[0])]
    entries.clear()
    assert is_o_operator(rep, H3_T)
    cols = H3_T.sparse_cols()
    assert entries == [e for i, j in itertools.combinations(range(3), 2)
                       for e in ((cols[i], rep.by_col[j]), (cols[j], rep.by_col[i]))]
    assert len(entries) == 6 and tables == []
