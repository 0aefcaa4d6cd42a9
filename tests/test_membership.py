"""Membership in a subspace is read off one map, `Subspace.residual`, against
the loops it retired.

Each reference below is a retired loop, kept as it was: `reference_reduce` is
the hand elimination behind the old `Subspace.contains`, `reference_is_subalgebra`
and `reference_is_ideal` the closure loops that called it once per vector,
`reference_column_space_equal` the three-rank image equality of the gauge
check, and `reference_reduce_hypotheses` the stability and image loops of
`mr_reduce`.  On seeded subspaces, the zero and full ones included, the new
checks give the same verdicts and the same witnesses.
"""

import json
import random
from collections import Counter
from itertools import product

import pytest

from lieop.cli import Workspace, emit, main, run_derive
from lieop.errors import (
    DimensionMismatch, ImageEscapesH, LieOpError, NotStable, NotSubalgebra, QuotientError,
)
from lieop.exactla import Matrix, is_zero_vec, q, rref_maps
from lieop.fixtures import bundle, standard_fixtures
from lieop.liecore import (
    Subspace, annihilator, intersect, is_ideal, is_subalgebra, restrict_to_subalgebra,
)
from lieop.ooper import OOperator, mr_reduce

from test_liecore import gl

ALGEBRAS, REPS, O_OPERATORS = standard_fixtures()


def unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def reference_reduce(W, v):
    """Residual of v after eliminating pivot coordinates against the RREF basis."""
    v = list(v)
    for row, p in zip(W.basis, W.pivots):
        f = v[p]
        if f:
            for k, r in enumerate(row):
                if r:
                    v[k] -= f * r
    return tuple(q(x) for x in v)


def reference_contains(W, v):
    return is_zero_vec(reference_reduce(W, v))


def reference_is_subalgebra(g, W):
    """Whether [W, W] is contained in W; on failure also returns a witness pair."""
    if W.ambient_dim != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    for a in range(W.dim()):
        for b in range(a + 1, W.dim()):
            w1, w2 = W.basis[a], W.basis[b]
            if not reference_contains(W, g.bracket_vec(w1, w2)):
                return False, (w1, w2)
    return True, None


def reference_is_ideal(g, W):
    """Whether [g, W] is contained in W."""
    if W.ambient_dim != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    for i in range(g.dim):
        ei = unit(g.dim, i)
        for w in W.basis:
            if not reference_contains(W, g.bracket_vec(ei, w)):
                return False, (ei, w)
    return True, None


def rank(A):
    """The number of pivots of the RREF of A."""
    return len(rref_maps(A.sparse_rows(), A.cols)[1])


def reference_column_space_equal(A, B):
    """Whether two matrices (same row count) have the same column span."""
    ra = rank(A)
    rb = rank(B)
    if ra != rb:
        return False
    return rank(A.hstack(B)) == ra


def reference_reduce_hypotheses(rep, T, h, E, N):
    """The hypothesis checks of `mr_reduce` through its image check, with the
    retired loops: the refusal they raise, or None when every one holds."""
    OOperator(rep, T)
    ok, witness = reference_is_subalgebra(rep.algebra, h)
    if not ok:
        raise NotSubalgebra(witness, which="h")
    for y in h.basis:
        for nvec in N.basis:
            if not reference_contains(N, rep.act(y, nvec)):
                raise NotStable((y, nvec))
    eh, h_alg = intersect(E, h), restrict_to_subalgebra(rep.algebra, h)
    eh_in_h = Subspace(h.dim(), [h.pivot_rows().apply(v) for v in eh.basis])
    if not reference_is_ideal(h_alg, eh_in_h)[0]:
        raise QuotientError("E cap h is not an ideal of h")
    for a in intersect(annihilator(rep, eh), N).basis:
        if not reference_contains(h, T.apply(a)):
            raise ImageEscapesH(a)
    return None


def outcome(check, *args):
    """(True, what check returns) or (False, the refusal's type and message)."""
    try:
        return True, check(*args)
    except LieOpError as exc:
        return False, (type(exc), str(exc))


def random_span(rng, n):
    """A seeded span in Q^n: zero, full, a span of unit vectors, or of small
    random vectors."""
    kind = rng.randrange(5)
    if kind == 0:
        return Subspace.zero(n)
    if kind == 1:
        return Subspace.full(n)
    if kind == 2:
        return Subspace(n, [unit(n, i) for i in sorted(rng.sample(range(n), rng.randint(0, n)))])
    return Subspace.span(n, [tuple(rng.choice((-1, 0, 0, 0, 1, 2)) for _ in range(n))
                             for _ in range(rng.randint(1, max(n, 1)))])


def random_vector(rng, W):
    """A vector of W about half the time, else a small random vector."""
    if rng.random() < 0.5:
        v = [0] * W.ambient_dim
        for row in W.basis:
            f = rng.randint(-2, 2)
            v = [a + f * b for a, b in zip(v, row)]
        return tuple(v)
    return tuple(rng.choice((-1, 0, 1, 3)) for _ in range(W.ambient_dim))


def test_residual_map_is_the_retired_elimination():
    """R v is the retired loop's residual; R is zero on W's basis, R R = R, and
    some row of R is nonzero on each v outside W."""
    rng = random.Random(11)
    seen = Counter()
    for _ in range(600):
        n = rng.randint(0, 6)
        W = random_span(rng, n)
        R = W.residual()
        assert R.shape() == (n, n) and R * R == R
        assert all(not any(R.apply(w)) for w in W.basis)
        for _ in range(4):
            v = random_vector(rng, W)
            inside = len(Subspace.span(n, [*W.basis, v]).basis) == W.dim()
            assert R.apply(v) == reference_reduce(W, v)
            assert any(row for row in R.sparse_rows() if sum(a * v[k] for k, a in row)) \
                != inside
            seen[inside] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_closure_verdicts_and_witnesses_match_the_retired_loops():
    rng = random.Random(12)
    algebras = [*ALGEBRAS.values(), gl(3)]
    seen = Counter()
    for g in algebras:
        for _ in range(60):
            W = random_span(rng, g.dim)
            sub, ideal = is_subalgebra(g, W), is_ideal(g, W)
            assert sub == reference_is_subalgebra(g, W)
            assert ideal == reference_is_ideal(g, W)
            seen["subalgebra", sub[0]] += 1
            seen["ideal", ideal[0]] += 1
    assert set(seen) == {(check, ok) for check in ("subalgebra", "ideal") for ok in (True, False)}


def test_image_equality_is_rref_equality():
    """Two column spans are equal exactly when the three-rank test says so."""
    rng = random.Random(13)
    seen = set()
    for _ in range(400):
        n, a, b = rng.randint(0, 4), rng.randint(0, 3), rng.randint(0, 3)
        A = Matrix([[rng.choice((-1, 0, 0, 1)) for _ in range(a)] for _ in range(n)], cols=a)
        B = A * Matrix([[rng.choice((-1, 0, 1)) for _ in range(b)] for _ in range(a)], cols=b) \
            if rng.random() < 0.5 else \
            Matrix([[rng.choice((-1, 0, 0, 1)) for _ in range(b)] for _ in range(n)], cols=b)
        equal = Subspace.span(n, A.transpose().entries) == Subspace.span(n, B.transpose().entries)
        assert equal == reference_column_space_equal(A, B)
        seen.add(equal)
    assert seen == {False, True}


def test_reduction_refusals_match_the_retired_loops():
    """mr_reduce refuses exactly where the retired loops did, with the same
    witness, and builds a reduction wherever they let it through."""
    rng = random.Random(14)
    seen = Counter()
    for _ in range(1200):
        name = rng.choice(sorted(REPS))
        rep = REPS[name]
        d, m = rep.algebra.dim, rep.dim_m
        T = rng.choice([t for r, t in O_OPERATORS.values() if r == name] + [Matrix.zeros(d, m)])
        h, E, N = random_span(rng, d), random_span(rng, d), random_span(rng, m)
        ok, got = outcome(mr_reduce, rep, T, h, E, N)
        want_ok, want = outcome(reference_reduce_hypotheses, rep, T, h, E, N)
        assert ok == want_ok and (ok or got == want)
        seen[got[0].__name__ if not ok else "reduced"] += 1
    assert set(seen) == {"NotSubalgebra", "NotStable", "QuotientError", "ImageEscapesH",
                         "reduced"}


def _sweep_workspace():
    """The bundle with one subspace more in each of Q^1, Q^2 and Q^4."""
    doc = bundle()
    for n in (1, 2, 4):
        doc["objects"][f"S{n}"] = emit("subspace", n, [tuple(1 for _ in range(n))])
    return doc


def test_derive_reduce_refuses_every_mismatched_input():
    """Every (h, E, N) over 8 subspaces, for 3 operators: each run builds a
    reduction or refuses its input, and an N outside the module, then an h or
    an E outside the algebra, is refused as such, not by a later check that
    names another space or a failed hypothesis."""
    ws = Workspace.load([_sweep_workspace()])
    names = sorted(name for name, entry in ws.entries.items() if entry.kind == "subspace")
    assert len(names) == 8
    seen = Counter()
    for op in ("aff1_adj_T", "h3_adj_T", "sl2_coadj_T"):
        rep, _ = ws.get(op).value
        d, m = rep.algebra.dim, rep.dim_m
        for h, E, N in product(names, repeat=3):
            ok, got = outcome(run_derive, ws, "reduce", [op, h, E, N])
            a = {x: ws.get(name).value.ambient_dim for x, name in zip("hEN", (h, E, N))}
            wrong = next((f"{x} lies in Q^{a[x]}, not in the {space} Q^{n}"
                          for x, space, n in (("N", "module", m), ("h", "algebra", d),
                                              ("E", "algebra", d)) if a[x] != n), None)
            if wrong:
                assert got == (DimensionMismatch, wrong)
            else:
                assert not ok or got[0] is not DimensionMismatch
            seen[wrong.split()[0] if wrong else ok] += 1
    assert sum(seen.values()) == 1536 and seen[True] > 0
    assert {"N", "h", "E"} <= set(seen)


@pytest.mark.parametrize("h, E, which, where", [
    ("h3_center", "S2", "h", "Q^3"),
    ("S2", "h3_center", "E", "Q^3"),
])
def test_cli_refuses_an_h_or_an_e_from_another_space(tmp_path, capsys, h, E, which, where):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_sweep_workspace()), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["derive", "reduce", "aff1_adj_T", h, E, "S2",
            "--input", str(path), "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == f"error: {which} lies in {where}, not in the algebra Q^2\n"
    assert not out.exists()


def test_cli_refuses_an_n_from_another_space(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_sweep_workspace()), encoding="utf-8")
    out = tmp_path / "out.json"
    argv = ["derive", "reduce", "aff1_adj_T", "S2", "h3_center", "h3_center",
            "--input", str(path), "--output", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().out == "error: N lies in Q^3, not in the module Q^2\n"
    assert not out.exists()
