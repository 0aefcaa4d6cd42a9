"""Nijenhuis operators and structures, infinitesimal deformations of modules,
ON-structures with their compatible hierarchies, and PN-structures.

Nijenhuis structures and PN-structures are double-checked against their
semi-direct / coadjoint characterizations through `errors.oracle`, since sign
conventions are the main hazard in this corner.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cohomology import Cochain, bracket_cochain, nr_bracket
from .errors import (
    DimensionMismatch, NotAntisymmetric, NotCompatible,
    NotNijenhuis, NotNijenhuisStructure, NotONStructure, NotPN, oracle,
)
from .exactla import Matrix, invert, vec_add, vec_sub
from .liecore import (
    LieAlgebra, Representation, _add_rows, _dense, _unit, action_tensor, coadjoint,
    contract, cyclic_form, direct_sum_map, dual_rep, semidirect, semidirect_tensor, sparse,
)
from .ooper import (
    Bivector, are_compatible, bivector_from_sharp, compatibility_defect,
    compatibility_oracle, induced_tensor, is_o_operator, is_r_matrix, mixed_residual,
    r_sharp,
)


def is_nijenhuis(g: LieAlgebra, N):
    """[Nx, Ny] = N([Nx, y] + [x, Ny] - N[x, y]) on all basis pairs."""
    if N.shape() != (g.dim, g.dim):
        raise DimensionMismatch("Nijenhuis candidate must be an endomorphism")
    for i in range(g.dim):
        ni = N.col(i)
        for j in range(i + 1, g.dim):
            nj = N.col(j)
            ei, ej = _unit(g.dim, i), _unit(g.dim, j)
            lhs = g.bracket_vec(ni, nj)
            inner = vec_sub(vec_add(g.bracket_vec(ni, ej), g.bracket_vec(ei, nj)),
                            N.apply(g.c[i][j]))
            if lhs != N.apply(inner):
                return False, (i, j, vec_sub(lhs, N.apply(inner)))
    return True, None


def is_nijenhuis_nr(g: LieAlgebra, N) -> bool:
    """[[mu, N], N] = [mu, N^2] in the Nijenhuis-Richardson bracket, mu the
    bracket of g: the two sides differ by twice the Nijenhuis torsion of N."""
    if N.shape() != (g.dim, g.dim):
        raise DimensionMismatch("Nijenhuis candidate must be an endomorphism")
    mu, n = bracket_cochain(g.c), Cochain.from_linmap(N)
    return nr_bracket(nr_bracket(mu, n), n) == nr_bracket(mu, Cochain.from_linmap(N * N))


def deformed_tensor(g_c, dim, N: Matrix):
    """Structure tensor of [x,y]_N = [Nx,y] + [x,Ny] - N[x,y] over any bracket tensor."""
    s = sparse(g_c)
    by_second, cols = tuple(zip(*s)), N.sparse_cols()
    c = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = {}
            _add_rows(acc, 1, cols[i], by_second[j])
            _add_rows(acc, 1, cols[j], s[i])
            _add_rows(acc, -1, s[i][j], cols)
            c[i][j] = _dense(acc, dim)
    return c


def deformed_bracket(g: LieAlgebra, N) -> LieAlgebra:
    """The Lie algebra (g, [.,.]_N) of a Nijenhuis operator."""
    ok, defect = is_nijenhuis(g, N)
    if not ok:
        raise NotNijenhuis(defect)
    return LieAlgebra(g.dim, deformed_tensor(g.c, g.dim, N))


def _mixed(a, b, i, j, k):
    """C(a, b) + C(b, a) on one basis triple, for sparse tensors a and b."""
    return cyclic_form(cyclic_form({}, a, b, i, j, k), b, a, i, j, k)


def mixed_jacobi_defect(dim, a, b):
    """First basis triple i < j < k where C(a, b) + C(b, a) is nonzero, or None,
    for skew bracket tensors a and b: the mu lam term of the Jacobiator of
    mu a + lam b."""
    a_s, b_s = sparse(a), sparse(b)
    return next((t for t in combinations(range(dim), 3) if any(_mixed(a_s, b_s, *t).values())),
                None)


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
    tensors = [deformed_tensor(g.c, g.dim, p) for p in powers]
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
    """Linear coefficient of a one-parameter deformation of a module."""

    bracket1: tuple   # dim^3 tensor, skew in the first two slots
    action1: tuple    # one matrix per algebra basis vector

    @staticmethod
    def build(dim, dim_m, bracket1, action1):
        c = tuple(tuple(tuple(x for x in bracket1[i][j]) for j in range(dim))
                  for i in range(dim))
        mats = tuple(a if isinstance(a, Matrix) else Matrix(a) for a in action1)
        if len(mats) != dim or any(m.shape() != (dim_m, dim_m) for m in mats):
            raise DimensionMismatch("deformation action shape mismatch")
        return DeformationData(c, mats)


def is_infinitesimal_deformation(rep: Representation, d: DeformationData):
    """The four coefficient conditions, checked in order; returns
    (verdict, name of the first failed condition or None).

    They are the Jacobi identity of mu + t mu1, the bracket on g + M of the
    deformed module (mu of g + M, mu1 of (bracket1, action1)): the t term
    C(mu, mu1) + C(mu1, mu) and the t^2 term C(mu1, mu1), on triples in g and
    on triples (x, y, m).  Triples with two indices in M vanish identically.
    """
    dim, m = rep.algebra.dim, rep.dim_m
    c1 = d.bracket1
    for i in range(dim):
        for j in range(dim):
            if tuple(c1[i][j]) != tuple(-x for x in c1[j][i]):
                return False, "bracket1_skew"
    mu = semidirect(rep).s
    mu1 = sparse(semidirect_tensor(c1, action_tensor(d.action1), m))
    in_g = list(combinations(range(dim), 3))
    with_m = [(i, j, dim + t) for i, j in combinations(range(dim), 2) for t in range(m)]
    # the mixed term of (mu1, mu1) is 2 C(mu1, mu1)
    for name, a, b, triples in (("two_cocycle", mu, mu1, in_g),
                                ("bracket1_jacobi", mu1, mu1, in_g),
                                ("action1_rep", mu1, mu1, with_m),
                                ("mixed_module", mu, mu1, with_m)):
        if any(any(_mixed(a, b, *t).values()) for t in triples):
            return False, name
    return True, None


def deformation_pair_defect(rep: Representation, N: Matrix, S: Matrix):
    """Defect of N(x).S(m) = S(Nx.m + x.Sm - S(x.m)) on basis pairs."""
    g = rep.algebra
    for i in range(g.dim):
        ni = N.col(i)
        for t in range(rep.dim_m):
            mt = _unit(rep.dim_m, t)
            st = S.col(t)
            lhs = rep.act(ni, st)
            rhs = S.apply(vec_sub(vec_add(rep.act(ni, mt), rep.act(_unit(g.dim, i), st)),
                                  S.apply(rep.act(_unit(g.dim, i), mt))))
            if lhs != rhs:
                return (i, t, vec_sub(lhs, rhs))
    return None


def trivial_deformation_from(rep: Representation, N, S) -> DeformationData:
    """The trivial deformation generated by a Nijenhuis operator N and an S
    compatible with it on the module side."""
    g = rep.algebra
    ok, defect = is_nijenhuis(g, N)
    if not ok:
        raise NotNijenhuis(defect)
    bad = deformation_pair_defect(rep, N, S)
    if bad is not None:
        raise NotNijenhuisStructure(
            f"pair fails the deformation compatibility identity at {bad}")
    bracket1 = deformed_tensor(g.c, g.dim, N)
    action1 = [rep.rho(N.col(i)) + rep.action[i] * S - S * rep.action[i]
               for i in range(g.dim)]
    d = DeformationData.build(g.dim, rep.dim_m, bracket1, action1)
    ok, which = is_infinitesimal_deformation(rep, d)
    oracle("trivial deformation", ok, True, "condition {which} failed", which=which)
    for i in range(g.dim):
        oracle("trivial deformation", S * d.action1[i], rep.rho(N.col(i)) * S,
               "triviality (10)")
    return d


def nijenhuis_structure_defect(rep: Representation, N: Matrix, S: Matrix):
    """Defect of N(x).S(m) = S(Nx.m) + x.S^2 m - S(x.Sm) on basis pairs."""
    g = rep.algebra
    s2 = S * S
    for i in range(g.dim):
        ni = N.col(i)
        ei = _unit(g.dim, i)
        for t in range(rep.dim_m):
            mt = _unit(rep.dim_m, t)
            lhs = rep.act(ni, S.col(t))
            rhs = vec_sub(vec_add(S.apply(rep.act(ni, mt)), rep.act(ei, s2.col(t))),
                          S.apply(rep.act(ei, S.col(t))))
            if lhs != rhs:
                return (i, t, vec_sub(lhs, rhs))
    return None


def is_nijenhuis_structure(rep: Representation, N, S) -> bool:
    """Direct identity check against the dual semi-direct Nijenhuis lift."""
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
    deformed = LieAlgebra(g.dim, deformed_tensor(g.c, g.dim, N))
    mats = [rep.rho(N.col(i)) - rep.action[i] * S + S * rep.action[i]
            for i in range(g.dim)]
    return Representation(deformed, rep.dim_m, mats)


def _brackets_agree(rep: Representation, T, N, S) -> bool:
    """[.,.]^{NT} is the S-deformation of [.,.]^T: the bracket clause shared by
    ON-structures and PN-structures."""
    return induced_tensor(rep, N * T) == deformed_tensor(induced_tensor(rep, T), rep.dim_m, S)


def is_on_structure(rep: Representation, T, N, S):
    """Clause-by-clause ON-structure verdict with a defect report."""
    report = {}
    report["o_operator"] = is_o_operator(rep, T)
    report["nijenhuis_structure"] = is_nijenhuis_structure(rep, N, S)
    report["intertwine"] = (N * T == T * S)
    report["bracket_equality"] = _brackets_agree(rep, T, N, S)
    verdict = all(report.values())
    if verdict:
        oracle("on structure", induced_tensor(_tilde_module(rep, N, S), T),
               deformed_tensor(induced_tensor(rep, T), rep.dim_m, S),
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
    ts = []
    for k in range(kmax + 1):
        tk = oracle("hierarchy", npow[k] * T, T * spow[k], "N^{k} T != T S^{k}", k=k)
        if k:  # T_0 = T was checked by ONStructure
            oracle("hierarchy", is_o_operator(rep, tk), True, "T_{k} failed the O-identity", k=k)
        ts.append(tk)
    for k in range(kmax + 1):
        for l in range(k + 1, kmax + 1):
            compatible = compatibility_oracle(rep, ts[k], ts[l], mixed_residual(rep, ts[k], ts[l]))
            oracle("hierarchy", compatible, True, "T_{k} and T_{l} incompatible", k=k, l=l)
    brackets = [induced_tensor(rep, t) for t in ts]
    # the T_s-bracket is the S^s-deformed T-bracket, for each s <= kmax
    for k in range(kmax + 1):
        oracle("hierarchy", brackets[k], deformed_tensor(brackets[0], m, spow[k]),
               "operator bracket (k+l={kl}) != S-deformed", kl=k)
    g_brackets = [sparse(deformed_tensor(g.c, g.dim, p)) for p in npow]
    pairs = list(combinations(range(m), 2))
    for k in range(kmax + 1):
        cols = [ts[k].col(i) for i in range(m)]
        for l in range(kmax + 1 - k):
            # T_k [m, n]^{T_{k+l}} = [T_k m, T_k n]_{N^l}
            oracle("hierarchy", [ts[k].apply(brackets[k + l][i][j]) for i, j in pairs],
                   [contract(g_brackets[l], g.dim, cols[i], cols[j]) for i, j in pairs],
                   "bracket identity (k={k}, l={l}) failed", k=k, l=l)
            # the form the compatibility argument rests on: the T_{k+l}-bracket
            # is the S^l-deformation of the T_k one (at k = 0, the check above)
            if k:
                oracle("hierarchy", brackets[k + l], deformed_tensor(brackets[k], m, spow[l]),
                       "deformation identity (k={k}, l={l}) failed", k=k, l=l)
    return ts


def on_from_compatible_pair(rep: Representation, T1, T2) -> ONStructure:
    """(T2, T1 T2^{-1}, T2^{-1} T1) from a compatible pair with T2 invertible."""
    if not are_compatible(rep, T1, T2):
        raise NotCompatible(compatibility_defect(rep, T1, T2))
    t2inv = invert(T2)
    return ONStructure(rep, T2, T1 * t2inv, t2inv * T1)


def is_pn_structure(g: LieAlgebra, r: Bivector, N) -> bool:
    """Direct PN clauses against the coadjoint ON-structure characterization."""
    rsh = r_sharp(r)
    on, report = is_on_structure(coadjoint(g), rsh, N, N.transpose())
    # the intertwining and bracket clauses are the ON-structure's own; the
    # Nijenhuis clause is decided here by the Nijenhuis-Richardson coding
    direct = (is_r_matrix(g, r) and is_nijenhuis_nr(g, N) and report["intertwine"]
              and report["bracket_equality"])
    return oracle("pn structure", direct, on, "direct={a} coadjoint_on={b}")


def pn_hierarchy(g: LieAlgebra, r: Bivector, N, kmax: int):
    """Bivectors r_k with (r_k)^sharp = N^k r^sharp, all classical r-matrices
    and pairwise compatible."""
    if not is_pn_structure(g, r, N):
        raise NotPN("input pair is not a PN-structure")
    out = []
    sharp = r_sharp(r)
    acc = Matrix.identity(g.dim)
    for k in range(kmax + 1):
        mk = acc * sharp
        if not mk.is_antisymmetric():
            raise NotAntisymmetric(f"N^{k} r_sharp is not induced by a bivector")
        rk = bivector_from_sharp(mk)
        oracle("pn hierarchy", is_r_matrix(g, rk), True, "r_{k} is not an r-matrix", k=k)
        out.append(rk)
        acc = acc * N
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            oracle("pn hierarchy", is_r_matrix(g, out[i].add(out[j])), True,
                   "r_{i} + r_{j} is not an r-matrix", i=i, j=j)
    return out
