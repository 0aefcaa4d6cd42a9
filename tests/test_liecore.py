import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lieop import liecore, ooper
from lieop.errors import (
    DimensionMismatch, JacobiViolation, NotIdeal, NotSubalgebra, OracleDisagreement, RepViolation,
    SkewViolation,
)
from lieop.exactla import Matrix, vec_add, vec_scale, vec_zero
from lieop.fixtures import H3_ADJ_T
from lieop.liecore import (
    LieAlgebra, Representation, Subspace, adjoint, annihilator,
    coadjoint, contract, dual_rep, intersect, is_ideal, is_subalgebra, quotient,
    restrict_to_subalgebra, semidirect, sparse, trivial_rep,
)
from lieop.ooper import mr_reduce


def ab(n):
    return LieAlgebra(n, [[[0] * n for _ in range(n)] for _ in range(n)])


def aff1():
    # [e1, e2] = e2
    return LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})


def h3():
    # [e1, e2] = e3
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def sl2():
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h
    return LieAlgebra.from_brackets(3, {
        (0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})


def e(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def test_accepts_standard_algebras():
    for g in (ab(2), aff1(), h3(), sl2()):
        for i in range(g.dim):
            assert g.c[i][i] == (0,) * g.dim


def test_rejects_skew_violation():
    c = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
    with pytest.raises(SkewViolation):
        LieAlgebra(2, c)


def test_rejects_jacobi_violation():
    # [e1,e2]=e1, [e2,e3]=e2, [e3,e1]=e3 has cyclic Jacobi defect e1+e2+e3
    with pytest.raises(JacobiViolation) as ei:
        LieAlgebra.from_brackets(3, {
            (0, 1): (1, 0, 0), (1, 2): (0, 1, 0), (0, 2): (0, 0, -1)})
    assert ei.value.defect == (1, 1, 1)


def test_rep_trivial_and_adjoint():
    g = aff1()
    trivial_rep(g, 3)
    rep = adjoint(g)
    assert rep.action[0] == Matrix([[0, 0], [0, 1]])
    assert rep.action[1] == Matrix([[0, 0], [-1, 0]])


def test_rep_violation():
    g = aff1()
    with pytest.raises(RepViolation):
        Representation(g, 2, [Matrix.identity(2), Matrix.identity(2)])


def test_adjoint_h3():
    rep = adjoint(h3())
    assert rep.act(e(3, 0), e(3, 1)) == (0, 0, 1)
    assert rep.act(e(3, 1), e(3, 0)) == (0, 0, -1)
    assert rep.action[2].is_zero()


def test_dual_rep():
    g = aff1()
    co = coadjoint(g)
    assert co.action[0] == Matrix([[0, 0], [0, -1]])
    assert co.action[1] == Matrix([[0, 1], [0, 0]])
    assert dual_rep(trivial_rep(g, 2)).action[0].is_zero()
    rep = adjoint(h3())
    dd = dual_rep(dual_rep(rep))
    assert all(a == b for a, b in zip(dd.action, rep.action))


def test_semidirect():
    assert not any(map(any, semidirect(trivial_rep(ab(2), 3)).s))
    s = semidirect(adjoint(aff1()))
    assert s.dim == 4
    assert semidirect(coadjoint(h3())).dim == 6
    # [(x,0),(0,n)] = (0, x . n)
    assert s.bracket_vec(e(4, 0), e(4, 3)) == (0, 0, 0, 1)


def test_is_subalgebra():
    g = aff1()
    assert is_subalgebra(g, Subspace.full(2))[0]
    assert is_subalgebra(g, Subspace(2, [(0, 1)]))[0]
    k = h3()
    assert is_subalgebra(k, Subspace(3, [(1, 1, 0)]))[0]
    ok, witness = is_subalgebra(k, Subspace(3, [e(3, 0), e(3, 1)]))
    assert not ok
    assert k.bracket_vec(*witness) == (0, 0, 1)


def test_is_ideal():
    g = aff1()
    assert is_ideal(g, Subspace.zero(2))[0]
    assert is_ideal(g, Subspace(2, [(0, 1)]))[0]
    ok, witness = is_ideal(g, Subspace(2, [(1, 0)]))
    assert not ok and witness is not None


def test_restrict_to_subalgebra():
    g = sl2()
    sub, basis = restrict_to_subalgebra(g, Subspace(3, [e(3, 0), e(3, 1)]))
    assert sub.dim == 2
    assert sub.bracket_vec((1, 0), (0, 1)) == (0, 2)
    with pytest.raises(NotSubalgebra):
        restrict_to_subalgebra(h3(), Subspace(3, [e(3, 0), e(3, 1)]))


def test_quotient_whole_and_lines():
    g = aff1()
    qz = quotient(g, Subspace.zero(2))
    assert qz.algebra.s == g.s
    q1 = quotient(g, Subspace(2, [(0, 1)]))
    assert q1.algebra.dim == 1 and not any(map(any, q1.algebra.s))
    q2 = quotient(h3(), Subspace(3, [e(3, 2)]))
    assert q2.algebra.dim == 2 and not any(map(any, q2.algebra.s))
    with pytest.raises(NotIdeal):
        quotient(aff1(), Subspace(2, [(1, 0)]))


def test_quotient_projection_is_morphism():
    g = h3()
    qt = quotient(g, Subspace(3, [e(3, 2)]))
    for i in range(3):
        for j in range(3):
            lhs = qt.projection.apply(g.bracket_vec(e(3, i), e(3, j)))
            rhs = qt.algebra.bracket_vec(
                qt.projection.apply(e(3, i)), qt.projection.apply(e(3, j)))
            assert lhs == rhs


def test_quotient_homomorphism_check_is_an_oracle(monkeypatch):
    """Once is_ideal has passed, a projection that is not a homomorphism is a
    library bug, not an input error."""
    monkeypatch.setattr(liecore, "is_ideal", lambda g, W: (True, None))
    with pytest.raises(OracleDisagreement, match="quotient"):
        quotient(aff1(), Subspace(2, [(1, 0)]))


def test_quotient_reduces_each_unit_vector_once(monkeypatch):
    """The projection reads every unit vector reduced modulo W, once each: 3
    reductions for h3 / span{e3}, beside the 3 of is_ideal."""
    calls = []
    reduce = Subspace.reduce
    monkeypatch.setattr(Subspace, "reduce", lambda W, v: calls.append(v) or reduce(W, v))
    qt = quotient(h3(), Subspace(3, [e(3, 2)]))
    assert qt.projection == Matrix([[1, 0, 0], [0, 1, 0]])
    assert len(calls) == 6 and calls[3:] == [e(3, 0), e(3, 1), e(3, 2)]


def test_pivot_rows_read_a_vector_in_the_rref_basis():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 5)
        W = Subspace.span(n, [tuple(rng.randint(-2, 2) for _ in range(n))
                              for _ in range(rng.randint(0, n))])
        x = [rng.randint(-3, 3) for _ in W.basis]
        v = vec_zero(n)
        for xt, row in zip(x, W.basis):
            v = vec_add(v, vec_scale(xt, row))
        assert W.pivot_rows().shape() == (W.dim(), n)
        assert W.pivot_rows().apply(v) == tuple(x)


@pytest.mark.parametrize("vectors", [[(1, 0, 0), (0, 1, 0, 5)], [(1, 0, 0), (0, 1, 0, 0)]])
def test_span_refuses_vectors_of_another_length(vectors):
    with pytest.raises(DimensionMismatch):
        Subspace.span(3, vectors)


def test_span_row_reduces_once(monkeypatch):
    """span keeps the RREF rows it computed as the basis: 1 rref call for
    span{e1, e2}, and 4 in a reduction of h3 by span{e3} beside the 3 that
    build its arguments."""
    calls = []
    rref = liecore.rref
    monkeypatch.setattr(liecore, "rref", lambda rows: calls.append(rows) or rref(rows))
    W = Subspace.span(3, [e(3, 1), e(3, 0), vec_add(e(3, 0), e(3, 1))])
    assert len(calls) == 1
    monkeypatch.undo()
    want = Subspace(3, [e(3, 0), e(3, 1)])
    assert (W.basis, W.pivots, W.ambient_dim) == (want.basis, want.pivots, want.ambient_dim)
    rep = adjoint(h3())
    monkeypatch.setattr(liecore, "rref", lambda rows: calls.append(rows) or rref(rows))
    calls.clear()
    mr_reduce(rep, H3_ADJ_T, Subspace.full(3), Subspace(3, [e(3, 2)]), Subspace.full(3))
    assert len(calls) == 3 + 4


def test_annihilator():
    g = h3()
    rep = adjoint(g)
    assert annihilator(rep, Subspace.zero(3)).dim() == 3
    assert annihilator(trivial_rep(g, 2), Subspace.full(3)).dim() == 2
    ann = annihilator(rep, Subspace(3, [e(3, 0)]))
    assert ann == Subspace(3, [e(3, 0), e(3, 2)])


def test_annihilator_carries_quotient_action():
    # W = span{e2} is an ideal of aff1; the annihilator of W in the adjoint
    # module is W itself and the quotient acts on it through lifts
    g = aff1()
    rep = adjoint(g)
    w = Subspace(2, [(0, 1)])
    assert is_ideal(g, w)[0]
    ann = annihilator(rep, w)
    assert ann == w
    qt = quotient(g, w)
    lift = qt.section.col(0)
    acted = rep.act(lift, ann.basis[0])
    assert ann.contains(acted)
    # the induced action matrices form a representation of the quotient
    mat = Matrix([ann.pivot_rows().apply(acted)])
    Representation(qt.algebra, 1, [mat])


def test_intersect():
    W = Subspace(3, [e(3, 0), e(3, 1)])
    assert intersect(W, W) == W
    assert intersect(W, Subspace.zero(3)).dim() == 0
    other = Subspace(3, [e(3, 1), e(3, 2)])
    assert intersect(W, other) == Subspace(3, [e(3, 1)])


def test_dim_zero_everywhere():
    z = ab(0)
    rep = trivial_rep(z, 0)
    assert semidirect(rep).dim == 0
    assert annihilator(rep, Subspace.zero(0)).dim() == 0


skew3 = st.lists(st.integers(-2, 2), min_size=9, max_size=9)


@settings(max_examples=50, deadline=None)
@given(skew3)
def test_random_skew_tensors_have_zero_diagonal_when_accepted(flat):
    entries = {}
    it = iter(flat)
    for i in range(3):
        for j in range(i + 1, 3):
            entries[(i, j)] = (next(it), next(it), next(it))
    try:
        g = LieAlgebra.from_brackets(3, entries)
    except JacobiViolation:
        return
    for i in range(3):
        assert g.c[i][i] == (0, 0, 0)
    # semidirect of the adjoint action revalidates Jacobi in higher dimension
    semidirect(adjoint(g))


def reference_contract(t, n, x, y):
    """The plain double sum of x_a y_b t[a][b], no zero skipping."""
    out = vec_zero(n)
    for a, xa in enumerate(x):
        for b, yb in enumerate(y):
            out = vec_add(out, vec_scale(xa * yb, t[a][b]))
    return out


# zero-heavy exact scalars, so drawn tensors and arguments are sparse
sparse_scalars = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                           st.fractions(-3, 3, max_denominator=4))


@st.composite
def contraction_cases(draw):
    da, db, n = (draw(st.integers(0, 4)) for _ in range(3))
    vector = st.lists(sparse_scalars, min_size=n, max_size=n).map(tuple)
    t = tuple(tuple(draw(vector) for _ in range(db)) for _ in range(da))
    x = tuple(draw(st.lists(sparse_scalars, min_size=da, max_size=da)))
    y = tuple(draw(st.lists(sparse_scalars, min_size=db, max_size=db)))
    return t, n, x, y


@settings(max_examples=300, deadline=None)
@given(contraction_cases())
@example(case=((((), ()),), 0, (1,), (2, Fraction(1, 3))))               # n = 0
@example(case=((((0, 0), (0, 0)), ((0, 0), (0, 0))), 2, (1, Fraction(1, 2)), (3, -1)))
@example(case=((((1, 2), (Fraction(1, 2), 0)), ((0, -1), (3, 3))), 2, (0, 0), (0, 0)))
@example(case=((((Fraction(1, 2),),),), 1, (2,), (1,)))  # a Fraction sum that is an int
def test_contract_matches_reference_double_sum(case):
    t, n, x, y = case
    got = contract(sparse(t), n, x, y)
    assert got == reference_contract(t, n, x, y)
    assert len(got) == n
    assert all(type(v) is int or v.denominator != 1 for v in got)


@settings(max_examples=100, deadline=None)
@given(contraction_cases())
@example(case=((((), ()),), 0, (1,), (2, 3)))                             # n = 0
@example(case=((((0, 0), (0, 0)), ((0, 0), (0, 0))), 2, (1, 0), (0, 1)))  # all zero
def test_sparse_holds_only_nonzeros_and_expands_back(case):
    t, n = case[0], case[1]
    s = sparse(t)
    assert len(s) == len(t) and all(len(sa) == len(ta) for sa, ta in zip(s, t))
    for sa in s:
        for pairs in sa:
            assert all(v != 0 for _, v in pairs)
            assert [k for k, _ in pairs] == sorted({k for k, _ in pairs})
    expanded = tuple(tuple(tuple(dict(pairs).get(k, 0) for k in range(n)) for pairs in sa)
                     for sa in s)
    assert expanded == t


def reference_jacobi_violation(d, c):
    """First triple i < j < k with a nonzero Jacobi sum, by plain loops over c."""
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = [0] * d
                for a, bc in ((i, c[j][k]), (j, c[k][i]), (k, c[i][j])):
                    for l in range(d):
                        for m in range(d):
                            total[m] += bc[l] * c[a][l][m]
                if any(total):
                    return (i, j, k), tuple(total)
    return None


@st.composite
def skew_tensors(draw):
    d = draw(st.integers(3, 5))
    entries = {(i, j): tuple(draw(st.lists(sparse_scalars, min_size=d, max_size=d)))
               for i in range(d) for j in range(i + 1, d)}
    return d, entries


@settings(max_examples=150, deadline=None)
@given(skew_tensors())
def test_jacobi_witness_matches_reference_triple_loop(case):
    d, entries = case
    c = [[[0] * d for _ in range(d)] for _ in range(d)]
    for (i, j), v in entries.items():
        c[i][j] = list(v)
        c[j][i] = [-x for x in v]
    want = reference_jacobi_violation(d, c)
    if want is None:
        LieAlgebra.from_brackets(d, entries)
        return
    with pytest.raises(JacobiViolation) as ei:
        LieAlgebra.from_brackets(d, entries)
    assert ei.value.indices == want[0]
    assert ei.value.defect == want[1]


def reference_jacobi_check(d, c):
    """The validator over every triple: the skew check, then the cyclic form on
    each i < j < k in order; raises as LieAlgebra does."""
    s = sparse(c)
    for i in range(d):
        for j in range(i, d):
            if s[i][j] != tuple((k, -v) for k, v in s[j][i]):
                k = next(k for k in range(d) if c[i][j][k] != -c[j][i][k])
                raise SkewViolation(i, j, k)
    for i, j, k in itertools.combinations(range(d), 3):
        acc = liecore.cyclic_form({}, s, s, i, j, k)
        if any(acc.values()):
            raise JacobiViolation(i, j, k, liecore._dense(acc, d))


def _outcome(build):
    try:
        build()
    except (SkewViolation, JacobiViolation) as exc:
        return type(exc).__name__, exc.indices, getattr(exc, "defect", None)
    return "valid"


def test_jacobi_check_on_reached_triples_matches_every_triple():
    """Seeded tensors of dims 2-6 at several densities, some made non-skew:
    the same verdict, and the same first violating triple and defect."""
    rng = random.Random(5)
    seen = set()
    for _ in range(3000):
        d = rng.randint(2, 6)
        p = rng.choice((0.05, 0.1, 0.2, 0.4))
        c = [[[0] * d for _ in range(d)] for _ in range(d)]
        for i, j in itertools.combinations(range(d), 2):
            if rng.random() < p:
                for k in rng.sample(range(d), rng.randint(1, 2)):
                    c[i][j][k] = rng.choice((-2, -1, 1, 2, Fraction(1, 2)))
                c[j][i] = [-x for x in c[i][j]]
        if rng.random() < 0.1:
            i, j, k = (rng.randrange(d) for _ in range(3))
            c[i][j][k] += 1
        want = _outcome(lambda: reference_jacobi_check(d, c))
        assert _outcome(lambda: LieAlgebra(d, c)) == want
        seen.add(want if want == "valid" else want[0])
    assert seen == {"valid", "SkewViolation", "JacobiViolation"}


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


def test_jacobi_check_visits_only_reached_triples(monkeypatch):
    """No triple of an abelian algebra, and 564 of the 4960 triples of the
    dim-32 semidirect product of gl(4) on itself, which validates a module
    given by gl(4)'s adjoint matrices as it is built: the 740 reached triples
    less the 176 inside gl(4), whose Jacobi identity gl(4) passed.  adjoint(g)
    is a module because g is Lie, so it walks none."""
    g = gl(4)
    calls = []
    form = liecore.cyclic_form
    monkeypatch.setattr(liecore, "cyclic_form", lambda *a: calls.append(a[3:]) or form(*a))
    ab(40)
    assert calls == []
    assert semidirect(adjoint(g)).dim == 32 and calls == []
    rep = Representation(g, 16, adjoint(g).action)
    assert len(calls) == len(set(calls)) == 564 and calls == sorted(calls)
    assert all(i < 16 <= k for i, _, k in calls)
    assert semidirect(rep).s == semidirect(adjoint(g)).s


def _random_rows(rng, rows, cols, n, density, skew=False):
    """Seeded canonical sparse rows of a rows x cols tensor of length-n vectors,
    made skew on request."""
    out = [[() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        for j in range(i + 1 if skew else 0, cols):
            if rng.random() < density:
                out[i][j] = tuple((k, rng.choice((-2, -1, 1, Fraction(1, 2))))
                                  for k in sorted(rng.sample(range(n), rng.randint(1, min(2, n)))))
                if skew:
                    out[j][i] = tuple((k, -v) for k, v in out[i][j])
    return tuple(map(tuple, out))


def test_reached_triples_omit_only_vanishing_triples():
    """C(a, b) vanishes on every triple of distinct indices that reached_triples
    omits: over seeded sparse skew tensors, and over the block rows of random
    modules and pre-Lie products, whether or not they are valid."""
    rng = random.Random(23)
    omitted = nonzero = 0
    for _ in range(300):
        kind = rng.randrange(3)
        if kind == 0:
            d = rng.randint(3, 7)
            b = _random_rows(rng, d, d, d, rng.choice((0.1, 0.3)), skew=True)
            a = b if rng.random() < 0.5 else _random_rows(rng, d, d, d, 0.3, skew=True)
        elif kind == 1:
            g = rng.choice((aff1(), h3(), sl2(), ab(3)))
            m = rng.randint(1, 3)
            act = _random_rows(rng, g.dim, m, m, rng.choice((0.2, 0.5)))
            a = b = liecore.block_rows(g.s, liecore.zero_rows(m, m), act,
                                       liecore.zero_rows(m, g.dim))
        else:
            n = rng.randint(1, 4)
            a = b = ooper._pre_lie_rows(_random_rows(rng, n, n, n, rng.choice((0.1, 0.3))))
        reached = liecore.reached_triples(a, b)
        for t in itertools.combinations(range(len(a)), 3):
            value = any(liecore.cyclic_form({}, a, b, *t).values())
            if t in reached:
                nonzero += value
            else:
                assert not value, t
                omitted += 1
    assert omitted and nonzero


def reference_rep_violation(g, mats):
    """First pair i < j with rho_i rho_j - rho_j rho_i != rho([e_i, e_j]), by
    dense Matrix products, and that difference."""
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            defect = mats[i] * mats[j] - mats[j] * mats[i]
            for k, v in enumerate(g.c[i][j]):
                defect = defect - mats[k].scale(v)
            if not defect.is_zero():
                return (i, j), defect
    return None


@st.composite
def actions(draw):
    g = draw(st.sampled_from([ab(2), aff1(), h3(), sl2()]))
    m = draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-2, 2),
                      st.fractions(-2, 2, max_denominator=3))
    mats = [Matrix([[draw(entry) for _ in range(m)] for _ in range(m)])
            for _ in range(g.dim)]
    return g, m, mats


@settings(max_examples=150, deadline=None)
@given(actions())
def test_rep_witness_matches_reference_matrix_products(case):
    g, m, mats = case
    want = reference_rep_violation(g, mats)
    if want is None:
        Representation(g, m, mats)
        return
    with pytest.raises(RepViolation) as ei:
        Representation(g, m, mats)
    assert ei.value.indices == want[0]
    assert ei.value.defect == want[1]


def reference_all_pairs_violation(rep):
    """The retired module validator: every pair i < j, column by column, from
    the action rows; the first violating (i, j) and its defect matrix."""
    g, s, m, by_col = rep.algebra, rep.s, rep.dim_m, rep.by_col
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            cols = [{} for _ in range(m)]
            for b, acc in enumerate(cols):
                liecore._add_rows(acc, 1, s[j][b], s[i])
                liecore._add_rows(acc, -1, s[i][b], s[j])
                liecore._add_rows(acc, -1, g.s[i][j], by_col[b])
            if any(any(acc.values()) for acc in cols):
                return (i, j), Matrix.from_cols([liecore._dense(acc, m) for acc in cols])
    return None


def test_rep_validator_skips_only_pairs_that_vanish(monkeypatch):
    """Seeded actions on algebras with many zero brackets, where whole action
    matrices are often zero: the validator that visits only the pairs with a
    nonzero bracket or two nonzero actions gives the verdict and the witness of
    the all-pairs loop."""
    rng = random.Random(16)
    h3_plus = LieAlgebra.from_brackets(4, {(0, 1): (0, 0, 0, 1)})
    algebras = [ab(3), ab(4), aff1(), h3(), sl2(), h3_plus]
    monkeypatch.setattr(Representation, "_validate", lambda self: None)
    cases = []
    for _ in range(400):
        g, m = rng.choice(algebras), rng.randint(1, 3)
        base = Matrix([[rng.choice((0, 1, -1)) for _ in range(m)] for _ in range(m)])
        mats = []
        for _ in range(g.dim):
            kind = rng.randrange(4)
            if kind == 0:
                mats.append(Matrix.zeros(m))
            elif kind == 1:  # commutes with every other power of base
                mats.append(base * base if rng.randrange(2) else base.scale(rng.choice((1, -2))))
            else:
                mats.append(Matrix([[rng.choice((0, 0, 0, 1, -1, Fraction(1, 2)))
                                     for _ in range(m)] for _ in range(m)]))
        cases.append((Representation(g, m, mats), g, m, mats))
    monkeypatch.undo()
    seen = set()
    for unchecked, g, m, mats in cases:
        want = reference_all_pairs_violation(unchecked)
        seen.add(want is None)
        if want is None:
            Representation(g, m, mats)
            continue
        with pytest.raises(RepViolation) as ei:
            Representation(g, m, mats)
        assert (ei.value.indices, ei.value.defect) == want
    assert seen == {True, False}
