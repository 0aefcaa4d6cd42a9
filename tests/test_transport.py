"""The change of basis `liecore.transport` against the dense loops it replaced.

Each reference below is a retired loop: it brackets or acts on dense basis
vectors (`bracket_vec`, `act`) and reads the value in the new basis through a
dense matrix (`apply`) or this file's own row-reduction solve.  The builds
that now read their rows through `transport` (`restrict_to_subalgebra`,
`quotient`, `twilled_new` and the reduced action of `mr_reduce`) must give
the same rows and refuse the same inputs on seeded spans over the bundle
modules.
"""

import random
from fractions import Fraction

from lieop.errors import LieOpError, NotIdeal, NotSubalgebra
from lieop.exactla import Matrix, invert, q, rref
from lieop.fixtures import standard_fixtures
from lieop.liecore import (
    Subspace, check_complementary, contract, is_ideal, is_subalgebra, quotient,
    restrict_to_subalgebra, semidirect, sparse, transport,
)
from lieop.ooper import mr_reduce
from lieop.twilled import twilled_new

from test_membership import reference_reduce

_, REPS, O_OPERATORS = standard_fixtures()


def unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def nonzero(v):
    return tuple((k, q(x)) for k, x in enumerate(v) if x)


def solve(basis, v):
    """Coordinates of v in `basis` by row reduction of [basis | v], or None
    when v is outside its span."""
    n = len(basis)
    if not n:
        return () if not any(v) else None
    red, pivots = rref([tuple(b[i] for b in basis) + (v[i],) for i in range(len(v))])
    if n in pivots:
        return None
    x = [0] * n
    for r, c in enumerate(pivots):
        x[c] = red[r][n]
    return tuple(x)


def reference_restrict(g, W):
    ok, witness = is_subalgebra(g, W)
    if not ok:
        raise NotSubalgebra(witness)
    basis = list(W.basis)
    return tuple(tuple(nonzero(solve(basis, g.bracket_vec(x, y))) for y in basis)
                 for x in basis)


def reference_quotient(h, W):
    """The projection reads each unit vector reduced modulo W once per
    complement coordinate, and the rows are projected dense brackets."""
    ok, witness = is_ideal(h, W)
    if not ok:
        raise NotIdeal(witness)
    d = h.dim
    comp = tuple(i for i in range(d) if i not in W.pivots)
    projection = Matrix([[reference_reduce(W, unit(d, j))[ci] for j in range(d)] for ci in comp],
                        cols=d)
    section = Matrix.from_cols([unit(d, ci) for ci in comp]) if comp \
        else Matrix([()] * d, cols=0)
    rows = tuple(tuple(nonzero(projection.apply(h.bracket_vec(section.col(a), section.col(b))))
                       for b in range(len(comp))) for a in range(len(comp)))
    return rows, projection, section, comp


def reference_twilled_rows(total, a, b):
    """The rows of the total in the block basis, and the same refusals."""
    check_complementary(total.dim, a, b)
    basis = list(a.basis) + list(b.basis)
    Pinv = invert(Matrix.from_cols(basis))
    da, db = a.dim(), b.dim()
    c = [[nonzero(Pinv.apply(total.bracket_vec(x, y))) for y in basis] for x in basis]
    for i in range(da):
        for j in range(da):
            if c[i][j] and c[i][j][-1][0] >= da:
                raise NotSubalgebra(witness=(i, j), which="a")
    for i in range(db):
        for j in range(db):
            if c[da + i][da + j] and c[da + i][da + j][0][0] < da:
                raise NotSubalgebra(witness=(i, j), which="b")
    return tuple(map(tuple, c))


def reference_reduction(rep, T, h, red):
    """The reduced action, acting on the module basis with lifts of the
    quotient basis and solving for coordinates, and the reduced operator."""
    basis = list(red.module.basis)
    lift = h.matrix()
    section = red.quotient.section
    rows = []
    for t in range(section.cols):
        y = lift.apply(section.col(t))
        rows.append(tuple(nonzero(solve(basis, rep.act(y, a))) for a in basis))
    cols = [red.quotient.projection.apply(solve(h.basis, T.apply(a))) for a in basis]
    reduced_T = Matrix.from_cols(cols) if cols else Matrix([()] * section.cols, cols=0)
    return tuple(rows), reduced_T


def outcome(build, *args):
    """(True, what build returns) or (False, the refusal's type and message)."""
    try:
        return True, build(*args)
    except LieOpError as exc:
        return False, (type(exc), str(exc))


def random_span(rng, n, rmax=None):
    vectors = [tuple(rng.choice((-1, 0, 0, 1, 2)) for _ in range(n))
               for _ in range(rng.randint(0, n if rmax is None else rmax))]
    return Subspace.span(n, vectors)


def test_transport_is_the_projected_dense_bracket():
    rng = random.Random(2)
    for _ in range(200):
        rep = REPS[rng.choice(sorted(REPS))]
        s, d, m = rep.s, rep.algebra.dim, rep.dim_m
        ka, kb, kp = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)
        A = Matrix([[rng.randint(-2, 2) for _ in range(ka)] for _ in range(d)], cols=ka)
        B = Matrix([[rng.randint(-2, 2) for _ in range(kb)] for _ in range(m)], cols=kb)
        P = Matrix([[rng.choice((-1, 0, 1, Fraction(1, 2))) for _ in range(m)]
                    for _ in range(kp)], cols=m)
        dense = tuple(tuple(P.apply(contract(s, m, A.col(a), B.col(c))) for c in range(kb))
                      for a in range(ka))
        assert transport(s, A, B, P) == sparse(dense)


def test_builds_match_their_retired_dense_loops():
    rng = random.Random(5)
    seen = {"restrict": set(), "quotient": set(), "twilled": set(), "reduce": set()}
    nonzero_actions = 0
    for _ in range(1500):
        name = rng.choice(sorted(REPS))
        rep = REPS[name]
        g, d, m = rep.algebra, rep.algebra.dim, rep.dim_m

        W = random_span(rng, d)
        ok, got = outcome(restrict_to_subalgebra, g, W)
        assert (ok, got.s if ok else got) == outcome(reference_restrict, g, W)
        seen["restrict"].add(ok)

        W = random_span(rng, d)
        ok, got = outcome(quotient, g, W)
        if ok:
            got = got.algebra.s, got.projection, got.section, got.complement
        assert (ok, got) == outcome(reference_quotient, g, W)
        seen["quotient"].add(ok)

        total = semidirect(rep) if rng.random() < 0.5 else g
        n = total.dim
        a = random_span(rng, n)
        b = random_span(rng, n, n - a.dim()) if rng.random() < 0.5 else \
            Subspace(n, [unit(n, i) for i in range(n) if i not in a.pivots])
        ok, got = outcome(twilled_new, total, a, b)
        assert (ok, got.total.s if ok else got) == outcome(reference_twilled_rows, total, a, b)
        seen["twilled"].add(ok)

        T = rng.choice([t for r, t in O_OPERATORS.values() if r == name]
                       + [Matrix.zeros(d, m)])
        h, E, N = random_span(rng, d), random_span(rng, d), random_span(rng, m)
        ok, got = outcome(mr_reduce, rep, T, h, E, N)
        if ok:
            assert (got.reduced_rep.s, got.reduced_T) == reference_reduction(rep, T, h, got)
            nonzero_actions += any(map(any, got.reduced_rep.s))
        seen["reduce"].add(ok)
    assert seen == {build: {False, True} for build in seen}
    assert nonzero_actions > 0

