"""O-operators on Lie algebra modules and what can be built from them:
induced Lie structures, r-matrices via the Schouten bracket, gauge
transformations by 1-cocycles, Marsden-Ratiu style reduction, compatible
pairs, and the associated pre-Lie products.

The O-identity is coded once, as the form O(A, B)(m, n) = [Am, Bn] - A([m, n]^B)
of `o_form`, read from the sparse rows P[i][j] = T(m_i) . m_j of `o_product`:
O(T, T) is the O-identity that `o_residual`, `is_o_operator` and the validating
`OOperator` read, and O(T1, T2) + O(T2, T1) the mixed term of compatible pairs.
P is also the pre-Lie product of T, and P - P^t the bracket tensor of M^T
(`induced_tensor`), which every bracket fact about M^T compares.  The Schouten
square [r, r] is computed from its coordinate formula over the nonzero structure
constants, not through the coadjoint module, so it stays an independent route
to the r-matrix verdict.

Wherever an independent second route to the same verdict exists (graph
subalgebra, coadjoint O-operator, sum-of-operators), both are computed and
compared through `errors.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .cohomology import Cochain, is_cocycle
from .errors import (
    DimensionMismatch, ImageEscapesH, NotAdmissible, NotAntisymmetric, NotCocycle,
    NotCompatible, NotIdeal, NotOOperator, NotPreLie, NotStable,
    NotSubalgebra, QuotientError, Singular, oracle,
)
from .exactla import (
    Matrix, column_space_equal, invert, is_zero_vec, kernel, q, vec, vec_add,
    vec_scale, vec_sub, vec_zero,
)
from .liecore import (
    LieAlgebra, Representation, Subspace, _add_rows, _dense, _unit, coadjoint, contract,
    dense, graph_subspace, intersect, is_ideal, is_subalgebra, quotient,
    restrict_to_subalgebra, semidirect, sparse,
)


def o_product(rep: Representation, T):
    """The sparse rows P[i][j] = T(m_i) . m_j, the pre-Lie product of T."""
    _check_t_shape(rep, T)
    out = []
    for ti in T.sparse_cols():
        row = []
        for rows in rep.by_col:
            acc = {}
            _add_rows(acc, 1, ti, rows)
            row.append(tuple((k, v) for k, v in acc.items() if v))
        out.append(tuple(row))
    return tuple(out)


def o_form(acc, g, A, B, P_B, i, j):
    """acc += O(A, B)(m_i, m_j) = [A m_i, B m_j] - A([m_i, m_j]^B), for P_B the
    o_product of B.  O(T, T) is the O-identity of T; O(A, B) + O(B, A) is the
    mixed term of that of A + B."""
    a, bj = A.sparse_cols(), B.sparse_cols()[j]
    for k, v in a[i]:
        _add_rows(acc, v, bj, g.s[k])
    _add_rows(acc, -1, P_B[i][j], a)
    _add_rows(acc, 1, P_B[j][i], a)
    return acc


def _o_sides(rep: Representation, T):
    """((i, j), O(T, T)(m_i, m_j)) for every basis pair i < j, read lazily so a
    verdict can stop early."""
    g, p = rep.algebra, o_product(rep, T)
    m = rep.dim_m
    for i in range(m):
        for j in range(i + 1, m):
            yield (i, j), o_form({}, g, T, T, p, i, j)


def o_residual(rep: Representation, T):
    """Defect [Tm, Tn] - T(Tm.n - Tn.m) for every basis pair m < n."""
    d = rep.algebra.dim
    return {key: _dense(acc, d) for key, acc in _o_sides(rep, T)}


def is_o_operator(rep: Representation, T) -> bool:
    return not any(any(acc.values()) for _, acc in _o_sides(rep, T))


def _check_t_shape(rep, T):
    if T.shape() != (rep.algebra.dim, rep.dim_m):
        raise DimensionMismatch(
            f"operator must map the module to the algebra, got {T.shape()}")


@dataclass(frozen=True)
class OOperator:
    """A validated O-operator T : M -> g."""

    rep: Representation
    T: Matrix

    def __post_init__(self):
        if not is_o_operator(self.rep, self.T):
            raise NotOOperator(o_residual(self.rep, self.T))


def induced_tensor(rep: Representation, T):
    """The bracket tensor of M^T, [m_i, m_j]^T = P[i][j] - P[j][i] for P the
    o_product of T; not validated."""
    p, m = dense(o_product(rep, T), rep.dim_m), rep.dim_m
    return [[vec(vec_sub(p[i][j], p[j][i])) for j in range(m)] for i in range(m)]


def induced_lie(rep: Representation, T) -> LieAlgebra:
    """The Lie algebra M^T carried by the module of an O-operator."""
    OOperator(rep, T)
    return LieAlgebra(rep.dim_m, induced_tensor(rep, T))


def graph_check(rep: Representation, T) -> bool:
    """Whether Gr(T) = {(Tm, m)} is a subalgebra of the semi-direct product."""
    _check_t_shape(rep, T)
    s = semidirect(rep)
    return is_subalgebra(s, graph_subspace(T))[0]


def graph_oracle(rep: Representation, T) -> bool:
    """is_o_operator computed both directly and through the graph; must agree."""
    return oracle("o-operator graph characterization", is_o_operator(rep, T),
                  graph_check(rep, T), "direct={a} graph={b}")


def structure_report(rep: Representation, T) -> dict:
    """Kernel-is-ideal and image-is-subalgebra flags for a valid O-operator."""
    mt = induced_lie(rep, T)
    ker = Subspace(rep.dim_m, kernel(T))
    image = Subspace.span(rep.algebra.dim, [T.col(j) for j in range(rep.dim_m)])
    return {
        "kernel_is_ideal_in_MT": is_ideal(mt, ker)[0],
        "image_is_subalgebra": is_subalgebra(rep.algebra, image)[0],
    }


# ---------------------------------------------------------------------------
# bivectors, the Schouten bracket, classical r-matrices
# ---------------------------------------------------------------------------

class Bivector:
    """An element of wedge^2 g stored as its full antisymmetric matrix r^{ij}."""

    __slots__ = ("dim", "m")

    def __init__(self, dim, matrix):
        rows = tuple(tuple(q(x) for x in row) for row in matrix)
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise DimensionMismatch("bivector matrix shape mismatch")
        for i in range(dim):
            for j in range(i, dim):
                if rows[i][j] != -rows[j][i]:
                    raise DimensionMismatch(f"bivector not antisymmetric at ({i},{j})")
        self.dim = dim
        self.m = rows

    @staticmethod
    def from_pairs(dim, pairs):
        m = [[0] * dim for _ in range(dim)]
        for (i, j), v in dict(pairs).items():
            if not 0 <= i < j < dim:
                raise DimensionMismatch(f"bivector entries need i < j, got ({i},{j})")
            m[i][j] = q(v)
            m[j][i] = -q(v)
        return Bivector(dim, m)

    def pairs(self):
        return {(i, j): self.m[i][j]
                for i in range(self.dim) for j in range(i + 1, self.dim)
                if self.m[i][j]}

    def add(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch("bivector dimension mismatch")
        return Bivector(self.dim, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.m, other.m)])

    def scale(self, c):
        return Bivector(self.dim, [[q(c * a) for a in r] for r in self.m])

    def is_zero(self):
        return all(a == 0 for r in self.m for a in r)

    def __eq__(self, other):
        return isinstance(other, Bivector) and self.dim == other.dim and self.m == other.m

    def __repr__(self):
        return f"Bivector(dim={self.dim}, {self.pairs()})"


def r_sharp(r: Bivector) -> Matrix:
    """Matrix of a -> r(a, .) in the dual basis, i.e. the transpose of r^{ij}."""
    return Matrix(list(zip(*r.m))) if r.dim else Matrix([])


def bivector_from_sharp(M: Matrix) -> Bivector:
    """Recover the bivector whose sharp map is M; M must be antisymmetric."""
    if not M.is_antisymmetric():
        raise NotAntisymmetric("sharp matrix is not antisymmetric")
    return Bivector(M.rows, M.transpose().entries)


def schouten_self(g: LieAlgebra, r: Bivector) -> dict:
    """[r, r] in wedge^3 g as {increasing triple: coefficient}.

    [r, r]^{abc} = 2 (T^{abc} + T^{bca} + T^{cab}) with
    T^{xyz} = sum_{i,j} r^{xi} r^{yj} c_{ij}^z; only the nonzero structure
    constants and the nonzero entries of columns i and j of r are visited.
    """
    if r.dim != g.dim:
        raise DimensionMismatch("bivector lives on a different algebra")
    cols = [[(x, row[i]) for x, row in enumerate(r.m) if row[i]] for i in range(r.dim)]
    T = {}
    for i, si in enumerate(g.s):
        for j, sij in enumerate(si):
            if not (sij and cols[i] and cols[j]):
                continue
            for x, u in cols[i]:
                for y, v in cols[j]:
                    if x != y:
                        f = u * v
                        for z, c in sij:
                            if z != x and z != y:
                                T[(x, y, z)] = T.get((x, y, z), 0) + f * c
    out = {}
    for a, b, c in sorted({tuple(sorted(key)) for key in T}):
        coeff = q(2 * (T.get((a, b, c), 0) + T.get((b, c, a), 0) + T.get((c, a, b), 0)))
        if coeff:
            out[(a, b, c)] = coeff
    return out


def is_r_matrix(g: LieAlgebra, r: Bivector) -> bool:
    return not schouten_self(g, r)


def lemma_r_equiv(g: LieAlgebra, r: Bivector) -> bool:
    """CYBE via Schouten expansion vs r-sharp as a coadjoint O-operator."""
    return oracle("classical r-matrix characterization", is_r_matrix(g, r),
                  is_o_operator(coadjoint(g), r_sharp(r)),
                  "schouten={a} coadjoint={b} r={r!r}", r=r)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def gauge_transform(rep: Representation, T, B) -> Matrix:
    """T_B = T (id + B T)^{-1} for a T-admissible 1-cocycle B."""
    OOperator(rep, T)
    ok, defect = is_cocycle(rep, Cochain.from_linmap(B))
    if not ok:
        raise NotCocycle(defect)
    phi = Matrix.identity(rep.dim_m) + B * T
    try:
        phi_inv = invert(phi)
    except Singular as exc:
        raise NotAdmissible("id + B T is singular") from exc
    tb = T * phi_inv
    oracle("gauge transform", is_o_operator(rep, tb), True, "T_B failed the O-identity")
    oracle("gauge transform", column_space_equal(T, tb), True, "im(T_B) differs from im(T)")
    return tb


def gauge_iso_check(rep: Representation, T, B) -> bool:
    """phi = id + BT maps [.,.]^T onto [.,.]^{T_B}: phi [m, n]^T = [phi m, phi n]^{T_B}."""
    tb = gauge_transform(rep, T, B)
    m = rep.dim_m
    phi = Matrix.identity(m) + B * T
    ct, ctb = induced_tensor(rep, T), sparse(induced_tensor(rep, tb))
    return all(phi.apply(ct[i][j]) == contract(ctb, m, phi.col(i), phi.col(j))
               for i, j in combinations(range(m), 2))


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

@dataclass
class MRReduction:
    """Everything produced by a successful reduction."""

    h_algebra: LieAlgebra
    h_basis: list
    quotient: object
    module_basis: tuple      # basis of (E cap h)^0_N as ambient module vectors
    reduced_rep: Representation
    reduced_T: Matrix


def mr_reduce(rep: Representation, T, h: Subspace, E: Subspace, N: Subspace) -> MRReduction:
    """Reduce an O-operator to (E cap h)^0_N over h / (E cap h).

    Every hypothesis is checked, in order: h subalgebra, N an h-submodule,
    E cap h an ideal of h, and T((E cap h)^0_N) inside h.
    """
    g = rep.algebra
    OOperator(rep, T)
    try:
        h_alg, h_basis = restrict_to_subalgebra(g, h)
    except NotSubalgebra as exc:
        raise NotSubalgebra(exc.witness, which="h") from exc
    for y in h_basis:
        for nvec in N.basis:
            if not N.contains(rep.act(y, nvec)):
                raise NotStable((y, nvec))
    eh = intersect(E, h)
    hsub = Subspace(g.dim, h_basis)
    eh_in_h = Subspace(h_alg.dim, [hsub.coords(v) for v in eh.basis])
    try:
        qt = quotient(h_alg, eh_in_h)
    except NotIdeal as exc:
        raise QuotientError("E cap h is not an ideal of h") from exc
    # annihilator of E cap h inside N, in N coordinates
    if eh.dim() == 0 or N.dim() == 0:
        a_coords = [_unit(N.dim(), t) for t in range(N.dim())]
    else:
        sys_rows = []
        for x in eh.basis:
            cols = []
            for nb in N.basis:
                # x lies in h, and N was checked h-stable above
                coords = N.coords(rep.act(x, nb))
                oracle("mr reduction", coords is not None, True,
                       "E cap h does not preserve N at {w}", w=(x, nb))
                cols.append(coords)
            sys_rows.extend(Matrix.from_cols(cols).entries)
        a_coords = kernel(Matrix(sys_rows))
    module_basis = []
    for cvec in a_coords:
        v = vec_zero(rep.dim_m)
        for cf, nb in zip(cvec, N.basis):
            if cf:
                v = vec_add(v, vec_scale(cf, nb))
        module_basis.append(v)
    A = Subspace.span(rep.dim_m, module_basis)
    module_basis = list(A.rref_rows)
    for a in module_basis:
        if not hsub.contains(T.apply(a)):
            raise ImageEscapesH(a)
    # induced action of the quotient on A through lifts
    k = qt.algebra.dim
    mats = []
    for t in range(k):
        lift_h = qt.section.col(t)
        y = vec_zero(g.dim)
        for cf, hb in zip(lift_h, h_basis):
            if cf:
                y = vec_add(y, vec_scale(cf, hb))
        cols = []
        for a in module_basis:
            image = rep.act(y, a)
            # E cap h is an ideal of h, so h preserves its annihilator
            coords = A.coords(image)
            oracle("mr reduction", coords is not None, True,
                   "induced action does not preserve the annihilator at {w}", w=(y, a))
            cols.append(coords)
        mats.append(Matrix.from_cols(cols) if cols else Matrix([], cols=0))
    reduced_rep = Representation(qt.algebra, len(module_basis), mats)
    tbar_cols = []
    for a in module_basis:
        tbar_cols.append(qt.projection.apply(hsub.coords(T.apply(a))))
    reduced_T = Matrix.from_cols(tbar_cols) if tbar_cols else Matrix([()] * k, cols=0)
    OOperator(reduced_rep, reduced_T)
    # defining property of reducibility: Tbar(m) . n = T(m) . n on A, the
    # pre-Lie products of Tbar and of T, the first read through the basis of A
    p = o_product(rep, T)
    a_rows = tuple(tuple((k, v) for k, v in enumerate(a) if v) for a in module_basis)
    for i, row in enumerate(o_product(reduced_rep, reduced_T)):
        for j, pij in enumerate(row):
            lhs = {}
            _add_rows(lhs, 1, pij, a_rows)
            oracle("reduction action compatibility", _dense(lhs, rep.dim_m),
                   contract(p, rep.dim_m, module_basis[i], module_basis[j]),
                   "pair ({i},{j})", i=i, j=j)
    return MRReduction(h_alg, h_basis, qt, tuple(module_basis), reduced_rep, reduced_T)


# ---------------------------------------------------------------------------
# compatible pairs
# ---------------------------------------------------------------------------

def mixed_residual(rep: Representation, T1, T2):
    """O(T1, T2) + O(T2, T1) for every basis pair m < n: the mixed term of the
    O-identity of T1 + T2."""
    g, m = rep.algebra, rep.dim_m
    p1, p2 = o_product(rep, T1), o_product(rep, T2)
    return {(i, j): _dense(o_form(o_form({}, g, T1, T2, p2, i, j), g, T2, T1, p1, i, j), g.dim)
            for i in range(m) for j in range(i + 1, m)}


def compatibility_defect(rep: Representation, T1, T2):
    """The mixed residual of two O-operators, each validated first."""
    for T in (T1, T2):
        OOperator(rep, T)
    return mixed_residual(rep, T1, T2)


def compatibility_oracle(rep: Representation, T1, T2, defects) -> bool:
    """The mixed residual `defects` of two O-operators against T1 + T2 being one;
    by polarization the sum decides every mu T1 + lam T2."""
    direct = all(is_zero_vec(v) for v in defects.values())
    return oracle("compatibility", direct, is_o_operator(rep, T1 + T2), "identity={a} sum={b}")


def are_compatible(rep: Representation, T1, T2) -> bool:
    """Compatibility of two O-operators, validated first."""
    return compatibility_oracle(rep, T1, T2, compatibility_defect(rep, T1, T2))


def nijenhuis_from_pair(rep: Representation, T1, T2) -> Matrix:
    """N = T1 T2^{-1} for a compatible pair with T2 invertible."""
    if not are_compatible(rep, T1, T2):
        raise NotCompatible(compatibility_defect(rep, T1, T2))
    n = T1 * invert(T2)
    from .onstruct import is_nijenhuis
    ok, defect = is_nijenhuis(rep.algebra, n)
    oracle("nijenhuis from compatible pair", ok, True, "{defect}", defect=defect)
    return n


# ---------------------------------------------------------------------------
# pre-Lie products
# ---------------------------------------------------------------------------

class PreLieProduct:
    """A left pre-Lie product on a coordinate space, validated exactly; `s` is
    its sparse tensor and `t` the transpose rows, t[k][l] = s[l][k]."""

    __slots__ = ("dim", "p", "s", "t")

    def __init__(self, dim, tensor):
        p = tuple(tuple(tuple(q(x) for x in tensor[i][j]) for j in range(dim))
                  for i in range(dim))
        for i in range(dim):
            for j in range(dim):
                if len(p[i][j]) != dim:
                    raise DimensionMismatch("pre-Lie tensor is not dim^3")
        self.dim = dim
        self.p = p
        self.s = sparse(p)
        self.t = tuple(zip(*self.s))
        bad = pre_lie_defect_tensor(dim, self.s)
        if bad is not None:
            raise NotPreLie(bad)

    def prod_basis(self, i, j):
        return self.p[i][j]

    def add(self, other):
        return PreLieProduct(self.dim, [
            [vec_add(self.p[i][j], other.p[i][j]) for j in range(self.dim)]
            for i in range(self.dim)])


def associator_form(acc, a, at, b, i, j, k):
    """acc += A(a, b)(e_i, e_j, e_k) = (e_i e_j)e_k - e_i(e_j e_k) - (e_j e_i)e_k
    + e_j(e_i e_k), a the outer and b the inner sparse product, at the transpose
    rows of a.  A(p, p) is the pre-Lie identity; A(a, b) + A(b, a) its mixed term."""
    _add_rows(acc, 1, b[i][j], at[k])
    _add_rows(acc, -1, b[j][k], a[i])
    _add_rows(acc, -1, b[j][i], at[k])
    _add_rows(acc, 1, b[i][k], a[j])
    return acc


def _triples(dim):
    """(i, j, k) in the order of the full cube, i < j: A vanishes at i = j and
    is skew in (i, j), so the first violating triple of the cube has i < j."""
    return ((i, j, k) for i in range(dim) for j in range(i + 1, dim) for k in range(dim))


def pre_lie_defect_tensor(dim, p):
    """First basis triple violating the left pre-Lie identity, or None; p is sparse."""
    pt = tuple(zip(*p))
    return next((t for t in _triples(dim) if any(associator_form({}, p, pt, p, *t).values())),
                None)


def pre_lie_from_o(rep: Representation, T) -> PreLieProduct:
    """m box n = T(m) . n."""
    OOperator(rep, T)
    return PreLieProduct(rep.dim_m, dense(o_product(rep, T), rep.dim_m))


def pre_lie_compatible(p1: PreLieProduct, p2: PreLieProduct) -> bool:
    """The mixed identity A(p1, p2) + A(p2, p1) on all triples, cross-checked
    against the sum product being pre-Lie."""
    if p1.dim != p2.dim:
        raise DimensionMismatch("pre-Lie products on different spaces")
    d = p1.dim
    direct = not any(any(associator_form(associator_form({}, p1.s, p1.t, p2.s, *t),
                                         p2.s, p2.t, p1.s, *t).values())
                     for t in _triples(d))
    sum_tensor = [[vec_add(p1.p[i][j], p2.p[i][j]) for j in range(d)] for i in range(d)]
    return oracle("pre-Lie compatibility", direct,
                  pre_lie_defect_tensor(d, sparse(sum_tensor)) is None, "identity={a} sum={b}")
