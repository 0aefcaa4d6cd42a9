import itertools
import random

import pytest

from lieop.errors import (
    DimensionMismatch, InvalidGCS, NotComplexPair, NotComplexStructure, NotOOperator, Singular,
)
from lieop.exactla import Matrix, invert, is_zero_vec
from lieop.fixtures import h3_rep2
from lieop.liecore import (
    LieAlgebra, Subspace, adjoint, coadjoint, is_subalgebra, semidirect,
    trivial_rep,
)
from lieop.ooper import bivector, o_residual, r_sharp
from lieop.gcsholo import (
    GCSModule, gcs_check_components, gcs_check_direct, gcs_components_grid,
    gcs_direct_grid, gcs_from_complex, gcs_from_invertible_o, gcs_lie_check,
    gcs_oracle, is_complex_structure, is_holomorphic_o, is_holomorphic_r,
    is_module_complex_pair, opposite_gcs,
)


def aff1():
    return LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})


def ab(n):
    return LieAlgebra(n, [[[0] * n for _ in range(n)] for _ in range(n)])


K = Matrix([[0, -1], [1, 0]])
TINV = Matrix([[0, -1], [1, 0]])


def test_direct_examples():
    triv = trivial_rep(ab(2), 2)
    T = Matrix([[1, 1], [0, 1]])
    assert gcs_check_direct(triv, Matrix.zeros(2), T, -invert(T), Matrix.zeros(2))
    z = Matrix.zeros(2)
    assert not gcs_check_direct(triv, z, z, z, z)
    co = coadjoint(aff1())
    j = gcs_from_invertible_o(co, TINV)
    assert gcs_check_direct(co, j.N, j.T, j.sigma, j.S)


def test_components_match_direct_on_examples():
    co = coadjoint(aff1())
    j = gcs_from_invertible_o(co, TINV)
    assert gcs_oracle(co, j.N, j.T, j.sigma, j.S)
    z = Matrix.zeros(2)
    assert gcs_oracle(co, z, z, z, z) is False
    triv = trivial_rep(ab(2), 2)
    T = Matrix([[1, 1], [0, 1]])
    assert gcs_oracle(triv, z, T, -invert(T), z)


def test_identity56_certifies_o_operator_and_graph():
    co = coadjoint(aff1())
    j = gcs_from_invertible_o(co, TINV)
    assert all(is_zero_vec(v) for v in o_residual(co, j.T).values())
    # Gr((T, S)) = {(Tm, Sm)} is a subalgebra of the semi-direct product
    sd = semidirect(co)
    basis = [tuple(j.T.col(b)) + tuple(j.S.col(b)) for b in range(2)]
    assert is_subalgebra(sd, Subspace(4, basis))[0]


def test_report_mode_names_failed_identities():
    co = coadjoint(aff1())
    z = Matrix.zeros(2)
    ok, failed = gcs_check_components(co, z, z, z, z, report=True)
    assert not ok and 53 in failed and 55 in failed


def test_oracle_random_agreement():
    rep = adjoint(aff1())
    rng = random.Random(7)
    for _ in range(3000):
        mats = [tuple(tuple(rng.randint(-1, 1) for _ in range(2)) for _ in range(2))
                for _ in range(4)]
        gcs_oracle(rep, *mats)


def test_oracle_agreement_rectangular_dims():
    # dim g = 2, dim M = 3: adjoint extended by a trivial line
    g = aff1()
    adj = adjoint(g)
    mats = []
    for a in adj.action:
        rows = [list(a.row(0)) + [0], list(a.row(1)) + [0], [0, 0, 0]]
        mats.append(Matrix(rows))
    from lieop.liecore import Representation
    rep = Representation(g, 3, mats)
    rng = random.Random(23)
    for _ in range(400):
        n = tuple(tuple(rng.randint(-1, 1) for _ in range(2)) for _ in range(2))
        t = tuple(tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(2))
        sg = tuple(tuple(rng.randint(-1, 1) for _ in range(2)) for _ in range(3))
        s = tuple(tuple(rng.randint(-1, 1) for _ in range(3)) for _ in range(3))
        gcs_oracle(rep, n, t, sg, s)


def test_opposite():
    co = coadjoint(aff1())
    j = gcs_from_invertible_o(co, TINV)
    opp = opposite_gcs(j)
    assert opp.T == -j.T and opp.sigma == -j.sigma
    assert opp.N == j.N and opp.S == j.S
    back = opposite_gcs(opp)
    assert (back.N, back.T, back.sigma, back.S) == (j.N, j.T, j.sigma, j.S)
    triv = trivial_rep(ab(2), 2)
    cj = gcs_from_complex(triv, K, K)
    copp = opposite_gcs(cj)
    assert (copp.N, copp.T, copp.sigma, copp.S) == (cj.N, cj.T, cj.sigma, cj.S)


def test_gcs_from_invertible_o_guards():
    co = coadjoint(aff1())
    with pytest.raises(Singular):
        gcs_from_invertible_o(co, Matrix.zeros(2))
    rep = adjoint(aff1())
    with pytest.raises(NotOOperator):
        gcs_from_invertible_o(rep, Matrix.identity(2))
    with pytest.raises(InvalidGCS):
        GCSModule(co, Matrix.identity(2), Matrix.zeros(2), Matrix.zeros(2),
                  Matrix.zeros(2))


def test_complex_structures():
    assert is_complex_structure(ab(2), K)
    assert is_complex_structure(aff1(), K)
    one = LieAlgebra(1, [[[0]]])
    for v in (-2, -1, 0, 1, 2):
        assert not is_complex_structure(one, Matrix([[v]]))
    assert not is_complex_structure(ab(2), Matrix.identity(2))


def test_module_complex_pairs():
    triv = trivial_rep(ab(2), 2)
    assert is_module_complex_pair(triv, K, K)
    assert is_module_complex_pair(triv, K, -K)
    assert not is_module_complex_pair(triv, K, Matrix.identity(2))
    co = coadjoint(aff1())
    assert is_module_complex_pair(co, K, K)
    j = gcs_from_complex(co, K, K)
    assert gcs_check_direct(co, j.N, j.T, j.sigma, j.S)


def test_module_complex_pair_oracle_sweep():
    co = coadjoint(aff1())
    for f in itertools.product((-1, 0, 1), repeat=8):
        i_mat = Matrix([f[0:2], f[2:4]])
        im_mat = Matrix([f[4:6], f[6:8]])
        is_module_complex_pair(co, i_mat, im_mat)  # assertion is oracle agreement


def test_gcs_lie_check():
    g = ab(2)
    r = bivector(2, {(0, 1): 1})
    sig = Matrix([[0, 1], [-1, 0]])
    assert gcs_lie_check(g, Matrix.zeros(2), r, sig)
    assert gcs_lie_check(g, K, bivector(2, {}), Matrix.zeros(2))
    assert not gcs_lie_check(g, Matrix.zeros(2), bivector(2, {}),
                             Matrix.zeros(2))
    # wrong scaling breaks J^2 = -id
    assert not gcs_lie_check(g, Matrix.zeros(2), r.scale(2), sig)


def test_holomorphic_o():
    triv = trivial_rep(ab(2), 2)
    assert is_holomorphic_o(triv, K, K, Matrix.zeros(2), Matrix.zeros(2))
    # any equivariant T_I works over the trivial module
    count = 0
    for f in itertools.product((-1, 0, 1), repeat=4):
        ti = Matrix([f[0:2], f[2:4]])
        if K * ti == ti * K:
            assert is_holomorphic_o(triv, K, K, ti * K, ti)
            count += 1
    assert count > 3
    assert not is_holomorphic_o(triv, K, K, Matrix.identity(2), Matrix.identity(2))
    with pytest.raises(NotComplexPair):
        is_holomorphic_o(triv, K, Matrix.identity(2), Matrix.zeros(2), Matrix.zeros(2))


def test_holomorphic_o_clauses_are_independent():
    # (K, K) on the coadjoint module is a complex pair but not a Nijenhuis
    # structure, so no (T_R, T_I) over it is holomorphic, not even zero
    from lieop.onstruct import is_nijenhuis_structure
    co = coadjoint(aff1())
    assert is_module_complex_pair(co, K, K)
    assert not is_nijenhuis_structure(co, K, K)
    assert not is_holomorphic_o(co, K, K, Matrix.zeros(2), Matrix.zeros(2))


def test_holomorphic_r():
    g = aff1()
    zero2 = bivector(2, {})
    assert is_holomorphic_r(g, K, zero2, zero2)
    assert not is_holomorphic_r(g, K, bivector(2, {(0, 1): 1}), zero2)
    with pytest.raises(NotComplexStructure):
        is_holomorphic_r(g, Matrix.identity(2), zero2, zero2)


def test_holomorphic_r_nontrivial_abelian4():
    g = ab(4)
    j4 = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert is_complex_structure(g, j4)
    sharp_i = Matrix([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
    ri = r_sharp(sharp_i)
    rr = r_sharp(sharp_i * j4.transpose())
    assert is_holomorphic_r(g, j4, rr, ri)
    # breaking the sharp relation flips the verdict
    assert not is_holomorphic_r(g, j4, ri, ri)


def test_holomorphic_r_exhaustive_ab2():
    g = ab(2)
    js = [Matrix([[0, -1], [1, 0]]), Matrix([[0, 1], [-1, 0]])]
    for j in js:
        assert is_complex_structure(g, j)
        for a, b in itertools.product((-1, 0, 1), repeat=2):
            rr = bivector(2, {(0, 1): a})
            ri = bivector(2, {(0, 1): b})
            verdict = is_holomorphic_r(g, j, rr, ri)
            # on ab2 the intertwining forces r_I = 0, hence r_R = 0
            assert verdict == (a == 0 and b == 0)


def _grid_of_one(grid):
    return lambda rep, N, T, sigma, S: grid(rep, N, T, [sigma], [S])[0]


ROUTES = (gcs_check_direct, gcs_check_components,
          _grid_of_one(gcs_direct_grid), _grid_of_one(gcs_components_grid))

_Z2 = ((0, 0), (0, 0))


@pytest.mark.parametrize("blocks", [
    (((0, -1), (1,)), _Z2, _Z2, _Z2),
    (((0, -1), (1, 0, 5)), _Z2, _Z2, _Z2),
    # N = T = 0 fails the g x g block N^2 + T sigma = -id, which never reads S
    (_Z2, _Z2, _Z2, ((0, -1), (1,))),
], ids=["short-row", "long-row", "ragged-S-rejected-sigma"])
def test_ragged_component_is_a_shape_error(blocks):
    rep = adjoint(aff1())
    for route in ROUTES:
        with pytest.raises(DimensionMismatch):
            route(rep, *blocks)


def test_empty_blocks_on_a_zero_dim_algebra():
    rep = trivial_rep(ab(0), 2)
    N, T, sigma = Matrix.zeros(0, 0), Matrix.zeros(0, 2), Matrix.zeros(2, 0)
    for route in ROUTES:
        # a complex structure on the trivial module M is a GCS on 0 + M
        assert route(rep, N, T, sigma, K)
        assert route(rep, (), (), ((), ()), K)
        assert not route(rep, N, T, sigma, Matrix.identity(2))


def _random_block(rng, rows, cols):
    return tuple(tuple(rng.randint(-1, 1) for _ in range(cols)) for _ in range(rows))


def _as_input(rng, block, cols):
    """The block as a Matrix, a list of lists, a tuple of lists or a tuple of
    tuples."""
    form = rng.randrange(4)
    if form == 0:
        return Matrix(block, cols=cols)
    if form == 1:
        return [list(row) for row in block]
    return tuple(list(row) for row in block) if form == 2 else block


def test_grids_match_the_single_tuple_checks():
    """Each grid is the single-tuple check on every (sigma, S) of
    product(sigmas, Ss), for random {-1, 0, 1} blocks around known GCSs, in
    every input form the checks take."""
    rng = random.Random(10)
    co = coadjoint(aff1())
    j = gcs_from_invertible_o(co, TINV)
    rot, z = ((0, -1), (1, 0)), _Z2
    # (rep, known GCSs as (N, T, sigma, S)); h3 + M has odd dimension, so none
    cases = [
        (adjoint(aff1()), [(rot, z, z, ((0, 1), (-1, 0)))]),
        (h3_rep2(), []),
        (co, [tuple(x.entries for x in (j.N, j.T, j.sigma, j.S)),
              (K.entries, z, z, (-K).entries)]),
        (trivial_rep(ab(0), 2), [((), (), ((), ()), K.entries)]),
    ]
    seen = {gcs_direct_grid: set(), gcs_components_grid: set()}
    for rep, known in cases:
        d, m = rep.algebra.dim, rep.dim_m
        for trial in range(12):
            if known and trial % 2:
                N, T, sigma, S = known[trial // 2 % len(known)]
            else:
                N, T, sigma, S = (_random_block(rng, d, d), _random_block(rng, d, m),
                                  _random_block(rng, m, d), _random_block(rng, m, m))
            sigmas = [sigma] + [_random_block(rng, m, d) for _ in range(3)]
            Ss = [S] + [_random_block(rng, m, m) for _ in range(3)]
            rng.shuffle(sigmas)
            rng.shuffle(Ss)
            N, T = _as_input(rng, N, d), _as_input(rng, T, m)
            sigmas = [_as_input(rng, x, d) for x in sigmas]
            Ss = [_as_input(rng, x, m) for x in Ss]
            pairs = list(itertools.product(sigmas, Ss))
            for grid, single in ((gcs_direct_grid, gcs_check_direct),
                                 (gcs_components_grid, gcs_check_components)):
                verdicts = grid(rep, N, T, sigmas, Ss)
                assert verdicts == [single(rep, N, T, g, s) for g, s in pairs]
                seen[grid].update(verdicts)
    assert all(verdicts == {True, False} for verdicts in seen.values())


def _module_complex_identity(rep, I, IM):
    """I(x).I_M(m) - x.m - I_M(I(x).m + x.I_M(m)) = 0 on all basis pairs."""
    for i in range(rep.algebra.dim):
        x = tuple(int(k == i) for k in range(rep.algebra.dim))
        for b in range(rep.dim_m):
            m = tuple(int(k == b) for k in range(rep.dim_m))
            mixed = [u + v for u, v in zip(rep.act(I.col(i), m), rep.act(x, IM.col(b)))]
            rhs = [u + v for u, v in zip(rep.act(x, m), IM.apply(mixed))]
            if list(rep.act(I.col(i), IM.col(b))) != rhs:
                return False
    return True


def _random_complex_structure(rng):
    """P K P^{-1} for a random invertible integer P."""
    while True:
        P = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        try:
            return P * K * invert(P)
        except Singular:
            pass


def test_module_complex_pair_on_conjugated_complex_structures():
    """Random conjugates of K on the aff1 and ab2 modules: both verdicts of the
    module identity, read through the Nijenhuis-structure identity of (I, -I_M),
    run against the semi-direct oracle and match a plain reference loop."""
    rng = random.Random(20)
    modules = [trivial_rep(ab(2), 2), adjoint(aff1()), coadjoint(aff1()),
               trivial_rep(aff1(), 2)]
    seen = set()
    for rep in modules:
        for _ in range(60):
            I, IM = _random_complex_structure(rng), _random_complex_structure(rng)
            verdict = is_module_complex_pair(rep, I, IM)
            assert is_complex_structure(rep.algebra, I)
            assert verdict == _module_complex_identity(rep, I, IM)
            seen.add(verdict)
    assert seen == {True, False}
