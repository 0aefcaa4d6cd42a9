"""The morphism form `liecore.morphism_defect` against the dense loops it
replaced in the gauge, hierarchy, quotient and reduction checks: the same
verdict and the same first failing pair, on random tensors and on the bundle."""

import itertools
import random
from fractions import Fraction

import pytest

from lieop.cli import Workspace
from lieop.exactla import Matrix, is_zero_vec, vec, vec_sub
from lieop.fixtures import bundle
from lieop.liecore import (
    Subspace, _neg, _unit, contract, is_ideal, morphism_defect, quotient, sparse, zero_rows,
)
from lieop.onstruct import deformed_tensor
from lieop.ooper import _bracket_rows, _gauge, o_product


def reference_morphism_defect(dst, A, B, C, src, pairs):
    """The retired dense loop: dst(Ae_i, Be_j) - C src(e_i, e_j) on unit vectors,
    through `contract` and `Matrix.apply`, for src a sparse tensor."""
    for i, j in pairs:
        lhs = contract(dst, C.rows, A.col(i), B.col(j))
        value = contract(src, C.cols, _unit(len(src), i), _unit(len(src[i]), j))
        diff = vec(vec_sub(lhs, C.apply(value)))
        if not is_zero_vec(diff):
            return i, j, diff
    return None


def _both(dst, A, B, C, src, pairs):
    """morphism_defect and its reference on one input, asserted equal."""
    pairs = list(pairs)
    got = morphism_defect(dst, A, B, C, lambda i, j: src[i][j], pairs)
    assert got == reference_morphism_defect(dst, A, B, C, src, pairs)
    return got


def _opposite(rows):
    """The rows of the tensor -s."""
    return tuple(tuple(map(_neg, row)) for row in rows)


@pytest.fixture(scope="module")
def ws():
    return Workspace.load([bundle()])


def _random_matrix(rng, rows, cols):
    return Matrix([[rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(cols)]
                   for _ in range(rows)], cols=cols)


def test_random_maps_agree_with_the_dense_loop():
    """C = [I | K] maps src onto dst along A and B when src(e_i, e_j) is
    dst(Ae_i, Be_j) padded with zeros; a change in the kernel of C keeps the
    morphism, a change outside it breaks it at that pair."""
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for _ in range(200):
        p, r, t = rng.randint(1, 3), rng.randint(1, 3), rng.randint(2, 4)
        big_p, big_r, big_t = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, t - 1)
        A, B = _random_matrix(rng, big_p, p), _random_matrix(rng, big_r, r)
        K = _random_matrix(rng, big_t, t - big_t)
        C = Matrix([tuple(row) + K.row(k) for k, row in
                    enumerate(Matrix.identity(big_t).entries)])
        dst = sparse([[[rng.choice((0, 0, 1, -1)) for _ in range(big_t)] for _ in range(big_r)]
                      for _ in range(big_p)])
        src = [[list(contract(dst, big_t, A.col(i), B.col(j))) + [0] * (t - big_t)
                for j in range(r)] for i in range(p)]
        i, j = rng.randrange(p), rng.randrange(r)
        v = [rng.choice((0, 1, -1)) for _ in range(t - big_t)]
        kernel_shift = [-x for x in K.apply(v)] + v
        if rng.random() < 0.5:
            kernel_shift[rng.randrange(t)] += 1
        src[i][j] = [a + b for a, b in zip(src[i][j], kernel_shift)]
        pairs = list(itertools.product(range(p), range(r)))
        rng.shuffle(pairs)
        got = _both(dst, A, B, C, sparse(src), pairs)
        if got is not None:
            assert (got[0], got[1]) == (i, j)
        seen[got is None] += 1
    assert min(seen.values()) > 20, seen


def test_gauge_isomorphisms_agree_with_the_dense_loop(ws):
    """phi = id + BT maps [.,.]^T onto [.,.]^{T_B} for the bundle's gauge pairs,
    and the opposite bracket onto it only where [.,.]^T vanishes."""
    failed = 0
    for tname, bname in (("aff1_adj_T", "aff1_adj_B"), ("aff1_coadj_T2", "aff1_coadj_B")):
        rep, T = ws.entries[tname].value
        _, phi, p, p_b = _gauge(rep, T, ws.entries[bname].value)
        ct, ctb = _bracket_rows(p), _bracket_rows(p_b)
        pairs = list(itertools.combinations(range(rep.dim_m), 2))
        assert _both(ctb, phi, phi, phi, ct, pairs) is None
        failed += _both(ctb, phi, phi, phi, _opposite(ct), pairs) is not None
    assert failed


@pytest.mark.parametrize("name", ["aff1_on", "h3_on"])
def test_hierarchy_levels_agree_with_the_dense_loop(ws, name):
    """T_k maps [.,.]^{T_{k+l}} onto [.,.]_{N^l}, and the opposite bracket
    -[.,.]^{T_{k+l}} onto it only where T_k [.,.]^{T_{k+l}} vanishes."""
    rep, T, N, S = ws.entries[name].value
    g, m, kmax = rep.algebra, rep.dim_m, 3
    npow, spow = [Matrix.identity(g.dim)], [Matrix.identity(m)]
    for _ in range(kmax):
        npow.append(npow[-1] * N)
        spow.append(spow[-1] * S)
    ts = [T * s for s in spow]
    brackets = [_bracket_rows(o_product(rep, t)) for t in ts]
    g_brackets = [deformed_tensor(g.s, g.dim, n) for n in npow]
    pairs = list(itertools.combinations(range(m), 2))
    failed = 0
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            assert _both(g_brackets[l], ts[k], ts[k], ts[k], brackets[k + l], pairs) is None
            failed += _both(g_brackets[l], ts[k], ts[k], ts[k], _opposite(brackets[k + l]),
                            pairs) is not None
    assert failed


def test_quotient_projections_agree_with_the_dense_loop(ws):
    """Every coordinate ideal of every bundle algebra: the projection is a
    morphism of the quotient bracket, and not of the zero bracket unless the
    quotient is abelian."""
    seen = {True: 0, False: 0}
    for entry in ws.entries.values():
        if entry.kind != "lie_algebra":
            continue
        h = entry.value
        for size in range(h.dim + 1):
            for support in itertools.combinations(range(h.dim), size):
                W = Subspace(h.dim, [_unit(h.dim, i) for i in support])
                if not is_ideal(h, W)[0]:
                    continue
                qt = quotient(h, W)
                pi, k = qt.projection, qt.algebra.dim
                pairs = list(itertools.combinations(range(h.dim), 2))
                assert _both(qt.algebra.s, pi, pi, pi, h.s, pairs) is None
                got = _both(zero_rows(k, k), pi, pi, pi, h.s, pairs)
                assert (got is None) == (not any(any(row) for row in qt.algebra.s))
                seen[got is None] += 1
    assert min(seen.values()) > 0, seen
