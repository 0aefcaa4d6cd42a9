import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from lieop import cli, cohomology
from lieop.errors import DimensionMismatch, JacobiViolation
from lieop.exactla import Matrix, is_zero_vec, kernel, q, vec_add, vec_scale, vec_zero
from lieop.fixtures import ab, bundle_json, standard_fixtures
from lieop.liecore import LieAlgebra, _add_rows, _neg, _row, adjoint, coadjoint, trivial_rep
from lieop.cohomology import (
    Cochain, _perm_sign, bracket_cochain, ce_differential, circle_product,
    derived_bracket, differential, is_cocycle, nr_bracket, one_cocycle_basis,
)

from test_sparse_carriers import gl


def aff1():
    return LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})


def h3():
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def sl2():
    return LieAlgebra.from_brackets(3, {
        (0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})


def random_cochain(rng, degree, source, target):
    from itertools import combinations
    vals = {}
    for idx in combinations(range(source), degree):
        vals[idx] = tuple(rng.randint(-2, 2) for _ in range(target))
    return Cochain(degree, source, target, vals)


def test_zero_and_degree_overflow():
    rep = adjoint(aff1())
    z = Cochain(1, 2, 2)
    assert ce_differential(rep, z).is_zero()
    top = random_cochain(random.Random(0), 2, 2, 2)
    assert ce_differential(rep, top).is_zero()  # degree 3 > dim 2


def test_degree_zero_trivial_action():
    rep = trivial_rep(aff1(), 2)
    m = Cochain(0, 2, 2, {(): (1, -1)})
    assert ce_differential(rep, m).is_zero()


def test_identity_cochain_on_aff1():
    rep = adjoint(aff1())
    f = Cochain.from_linmap(Matrix.identity(2))
    df = ce_differential(rep, f)
    # x . f(y) - y . f(x) - f([x, y]) at (e1, e2) equals e2
    assert df.value((0, 1)) == (0, 1)
    ok, defect = is_cocycle(rep, f)
    assert not ok and not defect.is_zero()


def test_cocycle_examples():
    rep = adjoint(aff1())
    assert is_cocycle(rep, Cochain(1, 2, 2))[0]
    g = random_cochain(random.Random(1), 1, 2, 2)
    assert is_cocycle(rep, ce_differential(rep, g))[0]


def test_one_cocycle_basis_aff1_adjoint():
    rep = adjoint(aff1())
    basis = one_cocycle_basis(rep)
    # B = [[a, b], [c, d]] with delta B = 0 forces a = b = 0 here
    assert len(basis) == 2
    for B in basis:
        assert is_cocycle(rep, Cochain.from_linmap(B))[0]
        assert B.row(0) == (0, 0)


def test_nr_with_zero_and_endomorphisms():
    g = sl2()
    mu = bracket_cochain(g.s)
    assert nr_bracket(mu, Cochain(2, 3, 3)).is_zero()
    A = Matrix([[1, 2, 0], [0, 1, 0], [3, 0, 0]])
    B = Matrix([[0, 1, 1], [1, 0, 0], [0, 0, 2]])
    br = nr_bracket(Cochain.from_linmap(A), Cochain.from_linmap(B))
    assert br == Cochain.from_linmap(A * B - B * A)


def test_nr_self_bracket_of_lie_bracket_vanishes():
    for g in (aff1(), h3(), sl2()):
        mu = bracket_cochain(g.s)
        assert nr_bracket(mu, mu).is_zero()


def test_nr_detects_jacobi_failure():
    # the tensor from the liecore Jacobi counterexample, fed in raw
    c = Cochain(2, 3, 3, {(0, 1): (1, 0, 0), (1, 2): (0, 1, 0), (0, 2): (0, 0, -1)})
    assert not nr_bracket(c, c).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mu_mu_zero_iff_jacobi_dim3(seed):
    rng = random.Random(seed)
    mu = random_cochain(rng, 2, 3, 3)
    nr_zero = nr_bracket(mu, mu).is_zero()
    rows = tuple(tuple(mu.values.get((i, j), ()) if i < j else _neg(mu.values.get((j, i), ()))
                       for j in range(3)) for i in range(3))
    try:
        LieAlgebra.from_rows(3, rows)
        accepted = True
    except JacobiViolation:
        accepted = False
    assert nr_zero == accepted


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 3))
def test_nr_graded_skew(seed, dp, dq):
    rng = random.Random(seed)
    P = random_cochain(rng, dp, 3, 3)
    Q = random_cochain(rng, dq, 3, 3)
    p, q = dp - 1, dq - 1
    lhs = nr_bracket(P, Q)
    rhs = nr_bracket(Q, P).scale(-1 if (p * q) % 2 == 0 else 1)
    assert lhs == rhs


@pytest.mark.parametrize("maker", [aff1, h3, sl2])
def test_d_squared_zero(maker):
    g = maker()
    reps = [adjoint(g), coadjoint(g), trivial_rep(g, 2)]
    rng = random.Random(7)
    for rep in reps:
        for degree in range(0, 4):
            if degree > g.dim:
                continue
            f = random_cochain(rng, degree, g.dim, rep.dim_m)
            assert ce_differential(rep, ce_differential(rep, f)).is_zero()


def test_shape_guards():
    with pytest.raises(DimensionMismatch):
        Cochain(1, 2, 2, {(0, 1): (1, 0)})
    with pytest.raises(DimensionMismatch):
        circle_product(Cochain(1, 2, 2), Cochain(1, 3, 3))


# zero-heavy exact scalars, so drawn cochains and vectors are sparse
sparse_scalars = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                           st.fractions(-3, 3, max_denominator=4))


def reference_cocycle_basis(rep):
    """Kernel of the full dense 1-cocycle system, zero rows included."""
    g, d, m = rep.algebra, rep.algebra.dim, rep.dim_m
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            for t in range(m):
                row = [0] * (m * d)
                for r in range(m):
                    row[r * d + j] += rep.action[i][t, r]
                    row[r * d + i] -= rep.action[j][t, r]
                for c in range(d):
                    row[t * d + c] -= g.c[i][j][c]
                rows.append(row)
    basis = kernel(Matrix(rows, cols=m * d)) if rows else \
        [tuple(int(s == t) for t in range(m * d)) for s in range(m * d)]
    return [Matrix([[v[r * d + c] for c in range(d)] for r in range(m)], cols=d)
            for v in basis]


# every fixture module, plus a system with no rows and one with no unknowns
COCYCLE_REPS = {**standard_fixtures()[1],
                "ab1_triv2": trivial_rep(LieAlgebra(1, [[[0]]]), 2),
                "sl2_triv0": trivial_rep(sl2(), 0)}


@pytest.mark.parametrize("name", sorted(COCYCLE_REPS))
def test_one_cocycle_basis_matches_kernel_of_full_system(name):
    rep = COCYCLE_REPS[name]
    got, want = one_cocycle_basis(rep), reference_cocycle_basis(rep)
    assert repr(got) == repr(want)
    assert [b.shape() for b in got] == [b.shape() for b in want]


def reference_eval_first(P, x, rest):
    """P(x, e_{rest[0]}, ...) as a vector: the alternating extension of P's
    values, summed over the coordinates of x."""
    out = [0] * P.target_dim
    for k, xk in enumerate(x):
        idxs = (k,) + rest
        if xk and len(set(idxs)) == len(idxs):
            val = P.value(sorted(idxs))
            for i in range(P.target_dim):
                out[i] += _perm_sign(idxs) * xk * val[i]
    return tuple(q(v) for v in out)


def reference_circle_product(P, Q):
    """P o Q summed over every output index tuple and every shuffle."""
    d = P.source_dim
    p, qdeg = P.degree - 1, Q.degree - 1
    n = p + qdeg + 1
    out = {}
    if n > d:
        return Cochain(n, d, d)
    positions = tuple(range(n))
    for idx in combinations(range(d), n):
        total = vec_zero(d)
        for first in combinations(positions, qdeg + 1):
            restpos = tuple(t for t in positions if t not in first)
            sign = _perm_sign(first + restpos)
            inner = Q.value(tuple(idx[t] for t in first))
            if is_zero_vec(inner):
                continue
            term = reference_eval_first(P, inner, tuple(idx[t] for t in restpos))
            if not is_zero_vec(term):
                total = vec_add(total, vec_scale(sign, term))
        if not is_zero_vec(total):
            out[idx] = total
    return Cochain(n, d, d, out)


@st.composite
def sparse_self_valued(draw, dim, degree):
    """A self-valued cochain with a few (possibly zero) values."""
    keys = list(combinations(range(dim), degree))
    if not keys:
        return Cochain(degree, dim, dim)
    vals = draw(st.dictionaries(
        st.sampled_from(keys), st.lists(sparse_scalars, min_size=dim, max_size=dim),
        max_size=4))
    return Cochain(degree, dim, dim, vals)


@st.composite
def circle_operands(draw):
    dim = draw(st.integers(0, 6))
    return (draw(sparse_self_valued(dim, draw(st.integers(1, 3)))),
            draw(sparse_self_valued(dim, draw(st.integers(1, 3)))))


def _same_cochain(got, want):
    assert (got.degree, got.source_dim, got.target_dim) == \
        (want.degree, want.source_dim, want.target_dim)
    assert repr(got.values) == repr(want.values)  # values, int/Fraction types, order


@settings(max_examples=300, deadline=None)
@given(circle_operands())
@example(ops=(Cochain(1, 0, 0), Cochain(3, 0, 0)))             # dim 0
@example(ops=(Cochain(2, 3, 3), Cochain(1, 3, 3, {(0,): (1, 0, 2)})))  # zero P
@example(ops=(Cochain(2, 3, 3, {(0, 1): (0, 0, 1)}), Cochain(2, 3, 3)))  # zero Q
@example(ops=(Cochain(3, 4, 4, {(0, 1, 2): (1, 0, 0, 1)}),                 # n = 5 > d = 4
              Cochain(3, 4, 4, {(1, 2, 3): (1, 1, 0, 0)})))
def test_circle_product_matches_all_index_reference(ops):
    P, Q = ops
    _same_cochain(circle_product(P, Q), reference_circle_product(P, Q))


def test_circle_product_work_follows_the_nonzeros():
    # the all-index reference would visit C(300, 3), about 4.5M, index triples
    d = 300
    P = Cochain(2, d, d, {(40, 120): (0,) * 299 + (5,)})
    Q = Cochain(2, d, d, {(10, 250): (0,) * 40 + (3,) + (0,) * 259})
    # P(Q(e10, e250), e120) = 15 e299 on the shuffle (10, 250 | 120) of sign -1
    got = circle_product(P, Q)
    assert got == Cochain(3, d, d, {(10, 120, 250): (0,) * 299 + (-15,)})


def test_derived_bracket_of_zero_mu2_on_a_large_split_is_zero():
    da = db = 32
    rng = random.Random(11)
    P = random_cochain(rng, 1, da, db)
    got = derived_bracket(Cochain(2, da + db, da + db), P, P, da, db)
    assert got == Cochain(2, da, db)


# --- the differential walk ---------------------------------------------------

def reference_add_first(f, acc, scale, pairs, rest):
    """acc += scale * (value of f on (x, e_{rest[0]}, ...)), for x given by its
    nonzero (k, x_k) pairs."""
    for k, xk in pairs:
        idxs = (k,) + rest
        if len(set(idxs)) != len(idxs):
            continue
        sign = scale * _perm_sign(idxs) * xk
        for i, a in f.values.get(tuple(sorted(idxs)), ()):
            acc[i] = acc.get(i, 0) + sign * a
    return acc


def reference_ce_differential(rep, f):
    """d f at every (n+1)-subset of the basis, whatever f's support."""
    g = rep.algebra
    n = f.degree
    out = {}
    if n + 1 > g.dim:
        return Cochain(n + 1, g.dim, rep.dim_m)
    for idx in combinations(range(g.dim), n + 1):
        acc = {}
        for a in range(n + 1):
            _add_rows(acc, -1 if a % 2 else 1, f.values.get(idx[:a] + idx[a + 1:], ()),
                      rep.s[idx[a]])
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                br = g.s[idx[a]][idx[b]]
                if br:
                    rest = tuple(x for t, x in enumerate(idx) if t != a and t != b)
                    # (-1)^{i+j} for 1-based i, j: even a+b in 0-based positions
                    reference_add_first(f, acc, -1 if (a + b) % 2 else 1, br, rest)
        out[idx] = _row(acc)
    return Cochain.from_rows(n + 1, g.dim, rep.dim_m, out)


# every fixture module, plus gl(3) acting on itself and on its dual
WALK_REPS = {**standard_fixtures()[1], "gl3_adj": adjoint(gl(3)), "gl3_coadj": coadjoint(gl(3))}


def sparse_cochain(rng, degree, source, target):
    """Up to three values, each with one or two nonzero coordinates."""
    keys = list(combinations(range(source), degree))
    vals = {}
    for idx in rng.sample(keys, min(3, len(keys))):
        v = [0] * target
        for t in rng.sample(range(target), min(2, target)):
            v[t] = rng.choice((-3, -1, 1, 2))
        vals[idx] = v
    return Cochain(degree, source, target, vals)


@pytest.mark.parametrize("name", sorted(WALK_REPS))
def test_the_walk_matches_the_all_subset_reference(name):
    rep, rng = WALK_REPS[name], random.Random(26)
    d, m = rep.algebra.dim, rep.dim_m
    for degree in range(min(d, 3) + 1):
        for f in (sparse_cochain(rng, degree, d, m), random_cochain(rng, degree, d, m)):
            _same_cochain(ce_differential(rep, f), reference_ce_differential(rep, f))


def _by_column(rows):
    cols = {}
    for key, row in rows.items():
        for col, x in row.items():
            cols.setdefault(col, {})[key] = x
    return cols


@pytest.mark.parametrize("name", sorted(standard_fixtures()[1]))
def test_the_differential_matrix_is_ce_differential_on_unit_cochains(name):
    """Column r C(dim, n) + u of differential(rep, n) is d of the unit cochain
    e_r on the u-th n-tuple, for n = 0, 1, 2."""
    rep = standard_fixtures()[1][name]
    d, m = rep.algebra.dim, rep.dim_m
    for n in range(min(d, 2) + 1):
        cols = _by_column(differential(rep, n))
        subsets = list(combinations(range(d), n))
        for r in range(m):
            for u, idx in enumerate(subsets):
                df = ce_differential(rep, Cochain.from_rows(n, d, m, {idx: ((r, 1),)}))
                want = {(J, t): x for J, row in df.values.items() for t, x in row}
                assert cols.pop(r * len(subsets) + u, {}) == want
        assert cols == {}


@pytest.mark.parametrize("name", sorted(WALK_REPS))
def test_d_squared_is_zero_as_a_sparse_product(name):
    """differential(rep, n + 1) . differential(rep, n) = 0 for n = 0, 1: row
    (J, t) of d on C^n is column t C(dim, n + 1) + u of d on C^{n + 1}, J the
    u-th (n + 1)-tuple.  On gl(3) the two matrices meet."""
    rep = WALK_REPS[name]
    reached = 0
    for n in (0, 1):
        inner, outer = differential(rep, n), differential(rep, n + 1)
        subsets = list(combinations(range(rep.algebra.dim), n + 1))
        for row in outer.values():
            acc = {}
            for col, x in row.items():
                for c, w in inner.get((subsets[col % len(subsets)], col // len(subsets)),
                                      {}).items():
                    acc[c] = acc.get(c, 0) + x * w
                    reached += 1
            assert not any(acc.values())
    assert reached or not name.startswith("gl3")


def test_d_of_a_one_entry_cochain_on_abelian_dim_80_walks_no_tuple(monkeypatch):
    """The all-subset walk visits all C(80, 3) = 82,160 tuples here; this walk
    runs once, on the one value, and yields no term on an abelian algebra with
    a trivial module, and one term once [e_0, e_1] = e_3."""
    walked, terms = [], []
    walk = cohomology._walk

    def counted(rep, reach, idx, support):
        walked.append(idx)
        for term in walk(rep, reach, idx, support):
            terms.append(term[0])
            yield term

    monkeypatch.setattr(cohomology, "_walk", counted)
    f = Cochain(2, 80, 1, {(3, 41): (1,)})
    assert ce_differential(trivial_rep(ab(80), 1), f).is_zero()
    assert (walked, terms) == ([(3, 41)], [])
    e3 = tuple(int(k == 3) for k in range(80))
    rep = trivial_rep(LieAlgebra.from_brackets(80, {(0, 1): e3}), 1)
    # (d f)(e_0, e_1, e_41) = -f([e_0, e_1], e_41) = -f(e_3, e_41)
    assert ce_differential(rep, f) == Cochain(3, 80, 1, {(0, 1, 41): (-1,)})
    assert terms == [(0, 1, 41)]


@pytest.mark.parametrize("dropped", ["action", "bracket"])
def test_check_mc_exits_3_when_the_walk_drops_a_term(tmp_path, monkeypatch, capsys, dropped):
    """d_CE of the aff1 MC solution needs both terms of the walk: without either,
    its grid disagrees with the direct cocycle residual."""
    path = tmp_path / "bundle.json"
    path.write_text(bundle_json(), encoding="utf-8")
    argv = ["check", "mc", "aff1_mc", "--input", str(path)]
    assert cli.main(argv) == 0
    walk = cohomology._walk

    def mutated(rep, reach, idx, support):
        # bracket terms carry the identity columns reach[2], action terms rep.s[x]
        return (term for term in walk(rep, reach, idx, support)
                if (term[2] is reach[2]) == (dropped == "action"))

    capsys.readouterr()
    monkeypatch.setattr(cohomology, "_walk", mutated)
    assert cli.main(argv) == 3
    assert "strong mc cocycle residual" in capsys.readouterr().out
