"""Nijenhuis operators and structures, infinitesimal deformations of modules,
ON-structures with their compatible hierarchies, and PN-structures.

One form, `deformed_form`: s_{A,B}(x, y) = s(Ax, y) + s(x, By) - B s(x, y) for
a sparse tensor s.  [.,.]_N is s_{N,N}, and over an action tensor s_{N,+-S} is
rho(Nx) +- [rho(x), S]; each Nijenhuis-type identity is the homomorphism
identity s(Ax, By) = B s_{A,B}(x, y).

Nijenhuis structures and PN-structures are double-checked against their
semi-direct / coadjoint characterizations through `errors.oracle`, since sign
conventions are the main hazard in this corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .cohomology import Cochain, bracket_cochain, nr_bracket
from .errors import (
    DimensionMismatch, NotCompatible, NotNijenhuis, NotNijenhuisStructure, NotONStructure,
    NotPN, oracle, theorem,
)
from .exactla import Matrix, invert
from .liecore import (
    LieAlgebra, Representation, _add_rows, _dense, _neg, _row, block_rows, coadjoint,
    direct_sum_map, dual_rep, mixed_form, morphism_defect, reached_triples, semidirect,
    sparse_cube, zero_rows,
)
from .ooper import (
    _bivector_of, _bracket_rows, compatibility_defect, compatibility_oracle, induced_tensor,
    is_o_operator, is_r_matrix, mixed_residual, o_product, r_sharp,
)


def deformed_form(acc, s, st, a, b, i, j):
    """acc += s_{A,B}(e_i, e_j) = s(Ae_i, e_j) + s(e_i, Be_j) - B s(e_i, e_j), for s
    a sparse tensor, st its transpose rows st[j][l] = s[l][j], and a, b the
    sparse columns of A and B."""
    _add_rows(acc, 1, a[i], st[j])
    _add_rows(acc, 1, b[j], s[i])
    _add_rows(acc, -1, s[i][j], b)
    return acc


def _homomorphism_defect(s, st, A: Matrix, B: Matrix, pairs):
    """First (i, j, s(Ae_i, Be_j) - B s_{A,B}(e_i, e_j)) that is nonzero over
    the basis pairs (i, j), or None; s_{A,B} is formed per pair, up to the first
    failing one."""
    a, b = A.sparse_cols(), B.sparse_cols()
    return morphism_defect(s, A, B, B, lambda i, j: deformed_form({}, s, st, a, b, i, j).items(),
                           pairs)


def is_nijenhuis(g: LieAlgebra, N):
    """[Nx, Ny] = N([Nx, y] + [x, Ny] - N[x, y]) on all basis pairs x < y."""
    if N.shape() != (g.dim, g.dim):
        raise DimensionMismatch("Nijenhuis candidate must be an endomorphism")
    defect = _homomorphism_defect(g.s, tuple(zip(*g.s)), N, N,
                                  combinations(range(g.dim), 2))
    return defect is None, defect


def is_nijenhuis_nr(g: LieAlgebra, N) -> bool:
    """[[mu, N], N] = [mu, N^2] in the Nijenhuis-Richardson bracket, mu the
    bracket of g: the two sides differ by twice the Nijenhuis torsion of N."""
    if N.shape() != (g.dim, g.dim):
        raise DimensionMismatch("Nijenhuis candidate must be an endomorphism")
    mu, n = bracket_cochain(g.s), Cochain.from_linmap(N)
    return nr_bracket(nr_bracket(mu, n), n) == nr_bracket(mu, Cochain.from_linmap(N * N))


def deformed_tensor(s, dim, N: Matrix):
    """The canonical rows of [x,y]_N = [Nx,y] + [x,Ny] - N[x,y] over the rows s of
    any bracket tensor."""
    st, cols = tuple(zip(*s)), N.sparse_cols()
    return tuple(tuple(_row(deformed_form({}, s, st, cols, cols, i, j)) for j in range(dim))
                 for i in range(dim))


def deformed_bracket(g: LieAlgebra, N) -> LieAlgebra:
    """The Lie algebra (g, [.,.]_N) of a Nijenhuis operator."""
    ok, defect = is_nijenhuis(g, N)
    if not ok:
        raise NotNijenhuis(defect)
    return theorem("deformed bracket", LieAlgebra.from_rows, g.dim, deformed_tensor(g.s, g.dim, N))


def mixed_jacobi_defect(dim, a, b):
    """First basis triple i < j < k where C(a, b) + C(b, a) is nonzero, or None,
    for the sparse rows a and b of skew bracket tensors: the mu lam term of the
    Jacobiator of mu a + lam b."""
    triples = sorted(reached_triples(a, b) | reached_triples(b, a))
    return next((t for t in triples if any(mixed_form(a, b, *t).values())), None)


def nijenhuis_power_props(g: LieAlgebra, N, kmax: int) -> dict:
    """Power properties: N^k Nijenhuis, iterated deformations collapse, and, as
    each [.,.]_{N^k} is then Lie, mu [.,.]_{N^k} + lam [.,.]_{N^l} is Lie for all
    scalars: the mixed Jacobi term vanishes, over basis triples and as the
    Nijenhuis-Richardson bracket of the two bracket cochains, for each k < l."""
    ok, defect = is_nijenhuis(g, N)
    if not ok:
        raise NotNijenhuis(defect)
    powers = [Matrix.identity(g.dim)]
    for _ in range(kmax):
        powers.append(powers[-1] * N)
    tensors = [deformed_tensor(g.s, g.dim, p) for p in powers]
    cochains = [bracket_cochain(t) for t in tensors]
    pairs = [(k, l) for k in range(kmax + 1) for l in range(kmax + 1)]
    return {
        "powers_nijenhuis": all(is_nijenhuis(g, p)[0] for p in powers),
        "iterated_deformation_coincides": all(
            deformed_tensor(tensors[k], g.dim, powers[l]) == tensors[k + l]
            for k, l in pairs if k + l <= kmax),
        "combinations_jacobi": all(
            oracle("nijenhuis power combinations",
                   mixed_jacobi_defect(g.dim, tensors[k], tensors[l]) is None,
                   nr_bracket(cochains[k], cochains[l]).is_zero(),
                   "k={k} l={l}: triples={a} nr={b}", k=k, l=l)
            for k, l in pairs if k < l),
    }


@dataclass
class DeformationData:
    """Linear coefficient of a one-parameter deformation of a module, as
    canonical sparse rows: bracket1[i][j] of [e_i, e_j]_1, in the format of
    LieAlgebra.s, and action1[i][b] of e_i ._1 f_b, in that of
    Representation.s.  `build` takes the dense tensor and one matrix per basis
    vector."""

    bracket1: tuple
    action1: tuple

    @staticmethod
    def build(dim, dim_m, bracket1, action1):
        mats = tuple(a if isinstance(a, Matrix) else Matrix(a) for a in action1)
        if len(mats) != dim or any(m.shape() != (dim_m, dim_m) for m in mats):
            raise DimensionMismatch("deformation action shape mismatch")
        return DeformationData(sparse_cube(dim, bracket1, "deformation bracket"),
                               tuple(a.sparse_cols() for a in mats))


def is_infinitesimal_deformation(rep: Representation, d: DeformationData):
    """The four coefficient conditions, checked in order; returns
    (verdict, name of the first failed condition or None).

    They are the Jacobi identity of mu + t mu1, the bracket on g + M of the
    deformed module (mu of g + M, mu1 of (bracket1, action1)): the t term
    C(mu, mu1) + C(mu1, mu) and the t^2 term C(mu1, mu1), on triples in g and
    on triples (x, y, m).  Triples with two indices in M vanish identically.
    """
    dim, m, s1 = rep.algebra.dim, rep.dim_m, d.bracket1
    if any(s1[i][j] != _neg(s1[j][i]) for i in range(dim) for j in range(dim)):
        return False, "bracket1_skew"
    mu = semidirect(rep).s
    mu1 = block_rows(s1, zero_rows(m, m), d.action1, zero_rows(m, dim))
    # the mixed term of (mu1, mu1) is 2 C(mu1, mu1); each reached set is built
    # once and read by the two conditions on it, on triples in g or (x, y, m)
    mixed, square = reached_triples(mu, mu1) | reached_triples(mu1, mu), reached_triples(mu1, mu1)
    for name, a, b, triples, with_m in (("two_cocycle", mu, mu1, mixed, False),
                                        ("bracket1_jacobi", mu1, mu1, square, False),
                                        ("action1_rep", mu1, mu1, square, True),
                                        ("mixed_module", mu, mu1, mixed, True)):
        if any(any(mixed_form(a, b, *t).values()) for t in triples if (t[2] >= dim) == with_m):
            return False, name
    return True, None


def _check_pair_shapes(rep: Representation, N, S):
    """N must be an endomorphism of the algebra and S one of the module."""
    if N.shape() != (rep.algebra.dim,) * 2 or S.shape() != (rep.dim_m,) * 2:
        raise DimensionMismatch(f"(N, S) of shapes {N.shape()}, {S.shape()} on {rep}")


def deformed_action(rep: Representation, N: Matrix, S: Matrix):
    """The canonical action rows of rho(Nx) + [rho(x), S]: s_{N,S}."""
    _check_pair_shapes(rep, N, S)
    a, b, m = N.sparse_cols(), S.sparse_cols(), rep.dim_m
    return tuple(tuple(_row(deformed_form({}, rep.s, rep.by_col, a, b, i, t)) for t in range(m))
                 for i in range(rep.algebra.dim))


def deformation_pair_defect(rep: Representation, N: Matrix, S: Matrix):
    """First (i, t, lhs - rhs) of N(x).S(m) = S(Nx.m + x.Sm - S(x.m)) that is
    nonzero on the basis pairs x = e_i, m = m_t, or None."""
    _check_pair_shapes(rep, N, S)
    return _homomorphism_defect(rep.s, rep.by_col, N, S,
                                product(range(rep.algebra.dim), range(rep.dim_m)))


def trivial_deformation_from(rep: Representation, N, S) -> DeformationData:
    """The trivial deformation generated by a Nijenhuis operator N and an S
    compatible with it on the module side."""
    _check_pair_shapes(rep, N, S)
    g = rep.algebra
    ok, defect = is_nijenhuis(g, N)
    if not ok:
        raise NotNijenhuis(defect)
    bad = deformation_pair_defect(rep, N, S)
    if bad is not None:
        raise NotNijenhuisStructure(
            f"pair fails the deformation compatibility identity at {bad}")
    d = DeformationData(deformed_tensor(g.s, g.dim, N), deformed_action(rep, N, S))
    ok, which = is_infinitesimal_deformation(rep, d)
    oracle("trivial deformation", ok, True, "condition {which} failed", which=which)
    return d


def nijenhuis_structure_defect(rep: Representation, N: Matrix, S: Matrix):
    """First (i, t, lhs - rhs) of N(x).S(m) = S(Nx.m) + x.S^2 m - S(x.Sm) that is
    nonzero on the basis pairs x = e_i, m = m_t, or None.  It is coded apart
    from `deformed_form`, as the direct route of the Nijenhuis-structure oracle:
    lhs - rhs = sum over (k, n_k) in N e_i of n_k e_k.S m_t
    + S(e_i.S m_t - N e_i.m_t) - e_i.S^2 m_t, read from the action rows."""
    _check_pair_shapes(rep, N, S)
    s, ncols, scols = rep.s, N.sparse_cols(), S.sparse_cols()
    s2cols = (S * S).sparse_cols()
    for i, t in product(range(rep.algebra.dim), range(rep.dim_m)):
        acc = {}
        for k, v in ncols[i]:
            _add_rows(acc, v, scols[t], s[k])
        inner = _add_rows(_add_rows({}, 1, scols[t], s[i]), -1, ncols[i], rep.by_col[t])
        _add_rows(acc, 1, inner.items(), scols)
        _add_rows(acc, -1, s2cols[t], s[i])
        if any(acc.values()):
            return i, t, _dense(acc, rep.dim_m)
    return None


def is_nijenhuis_structure(rep: Representation, N, S) -> bool:
    """Direct identity check against the dual semi-direct Nijenhuis lift."""
    _check_pair_shapes(rep, N, S)
    direct = is_nijenhuis(rep.algebra, N)[0] and \
        nijenhuis_structure_defect(rep, N, S) is None
    sd = semidirect(dual_rep(rep))
    lifted = direct_sum_map(N, S.transpose())
    return oracle("nijenhuis structure", direct, is_nijenhuis(sd, lifted)[0],
                  "direct={a} semidirect={b}")


def tilde_action(rep: Representation, N, S) -> Representation:
    """x ~. m = N(x).m - x.S(m) + S(x.m) as a module over (g, [.,.]_N)."""
    if not is_nijenhuis_structure(rep, N, S):
        raise NotNijenhuisStructure("tilde action needs a Nijenhuis structure")
    return _tilde_module(rep, N, S)


def _tilde_module(rep: Representation, N, S) -> Representation:
    """The module of tilde_action, for a pair already known to be a Nijenhuis
    structure, so N is Nijenhuis and [.,.]_N needs no second check."""
    g = rep.algebra
    deformed = theorem("tilde action", LieAlgebra.from_rows, g.dim, deformed_tensor(g.s, g.dim, N))
    return theorem("tilde action", Representation.from_rows, deformed, rep.dim_m,
                   deformed_action(rep, N, -S))


def _brackets_agree(rep: Representation, T, N, deformed) -> bool:
    """[.,.]^{NT} is `deformed`, the S-deformation of [.,.]^T: the bracket clause
    shared by ON-structures and PN-structures."""
    return induced_tensor(rep, N * T) == deformed


def is_on_structure(rep: Representation, T, N, S):
    """Clause-by-clause ON-structure verdict with a defect report."""
    p, report = o_product(rep, T), {}
    report["o_operator"] = is_o_operator(rep, T, p)
    report["nijenhuis_structure"] = is_nijenhuis_structure(rep, N, S)
    report["intertwine"] = (N * T == T * S)
    deformed = deformed_tensor(_bracket_rows(p), rep.dim_m, S)
    report["bracket_equality"] = _brackets_agree(rep, T, N, deformed)
    verdict = all(report.values())
    if verdict:
        oracle("on structure", induced_tensor(_tilde_module(rep, N, S), T), deformed,
               "tilde bracket disagrees with S-deformed bracket")
    return verdict, report


@dataclass(frozen=True)
class ONStructure:
    """A validated ON-structure (T, N, S) on a module."""

    rep: Representation
    T: Matrix
    N: Matrix
    S: Matrix

    def __post_init__(self):
        ok, report = is_on_structure(self.rep, self.T, self.N, self.S)
        if not ok:
            raise NotONStructure(report)


def hierarchy(rep: Representation, T, N, S, kmax: int):
    """T_k = N^k T = T S^k for k <= kmax, with every theorem-backed identity
    (operators, pairwise compatibility, deformed-bracket relations) verified."""
    ONStructure(rep, T, N, S)
    g = rep.algebra
    m = rep.dim_m
    npow = [Matrix.identity(g.dim)]
    spow = [Matrix.identity(m)]
    for _ in range(kmax):
        npow.append(npow[-1] * N)
        spow.append(spow[-1] * S)
    # each member's o_product is built once and read by every identity below
    ts, ps = [], []
    for k in range(kmax + 1):
        tk = oracle("hierarchy", npow[k] * T, T * spow[k], "N^{k} T != T S^{k}", k=k)
        ts.append(tk)
        ps.append(o_product(rep, tk))
        if k:  # T_0 = T was checked by ONStructure
            oracle("hierarchy", is_o_operator(rep, tk, ps[k]), True,
                   "T_{k} failed the O-identity", k=k)
    for k in range(kmax + 1):
        for l in range(k + 1, kmax + 1):
            compatible = compatibility_oracle(rep, ts[k], ts[l],
                                              mixed_residual(rep, ts[k], ts[l], ps[k], ps[l]))
            oracle("hierarchy", compatible, True, "T_{k} and T_{l} incompatible", k=k, l=l)
    brackets = [_bracket_rows(p) for p in ps]
    g_brackets = [deformed_tensor(g.s, g.dim, p) for p in npow]
    for k in range(kmax + 1):
        for l in range(kmax + 1 - k):
            # T_k [m, n]^{T_{k+l}} = [T_k m, T_k n]_{N^l}
            oracle("hierarchy", morphism_defect(g_brackets[l], ts[k], ts[k], ts[k],
                                                lambda i, j: brackets[k + l][i][j],
                                                combinations(range(m), 2)),
                   None, "bracket identity (k={k}, l={l}) failed", k=k, l=l)
            # the form the compatibility argument rests on: the T_{k+l}-bracket
            # is the S^l-deformation of the T_k one
            oracle("hierarchy", brackets[k + l], deformed_tensor(brackets[k], m, spow[l]),
                   "deformation identity (k={k}, l={l}) failed", k=k, l=l)
    return ts


def on_from_compatible_pair(rep: Representation, T1, T2) -> ONStructure:
    """(T2, T1 T2^{-1}, T2^{-1} T1) from a compatible pair with T2 invertible."""
    defects = compatibility_defect(rep, T1, T2)
    if not compatibility_oracle(rep, T1, T2, defects):
        raise NotCompatible(defects)
    t2inv = invert(T2)
    return theorem("on from compatible pair", ONStructure, rep, T2, T1 * t2inv, t2inv * T1)


def is_pn_structure(g: LieAlgebra, r: Matrix, N) -> bool:
    """Direct PN clauses against the coadjoint ON-structure characterization."""
    rsh = r_sharp(_bivector_of(r, g.dim))
    on, report = is_on_structure(coadjoint(g), rsh, N, N.transpose())
    # the intertwining and bracket clauses are the ON-structure's own; the
    # Nijenhuis clause is decided here by the Nijenhuis-Richardson coding
    direct = (is_r_matrix(g, r) and is_nijenhuis_nr(g, N) and report["intertwine"]
              and report["bracket_equality"])
    return oracle("pn structure", direct, on, "direct={a} coadjoint_on={b}")


def pn_hierarchy(g: LieAlgebra, r: Matrix, N, kmax: int):
    """The bivectors r_k with (r_k)^sharp = N^k r^sharp (antisymmetric, as (r, N)
    is PN), all classical r-matrices and pairwise compatible."""
    if not is_pn_structure(g, r, N):
        raise NotPN("input pair is not a PN-structure")
    out = []
    sharp = r_sharp(r)
    acc = Matrix.identity(g.dim)
    for k in range(kmax + 1):
        rk = theorem("pn hierarchy", r_sharp, acc * sharp)
        oracle("pn hierarchy", is_r_matrix(g, rk), True, "r_{k} is not an r-matrix", k=k)
        out.append(rk)
        acc = acc * N
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            oracle("pn hierarchy", is_r_matrix(g, out[i] + out[j]), True,
                   "r_{i} + r_{j} is not an r-matrix", i=i, j=j)
    return out
