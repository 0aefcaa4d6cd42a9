"""O-operators on Lie algebra modules and what can be built from them:
induced Lie structures, r-matrices via the Schouten bracket, gauge
transformations by 1-cocycles, Marsden-Ratiu style reduction, compatible
pairs, and the associated pre-Lie products.

The O-identity is coded once (`_o_sides`); `o_residual`, `is_o_operator` and
the validating `OOperator` all read it.  The Schouten square [r, r] is computed
from its coordinate formula over the nonzero structure constants, not through
the coadjoint module, so it stays an independent route to the r-matrix verdict.

Wherever an independent second route to the same verdict exists (graph
subalgebra, coadjoint O-operator, sum-of-operators), both are computed and
compared through `errors.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import Cochain, is_cocycle
from .errors import (
    DimensionMismatch, ImageEscapesH, NotAdmissible, NotAntisymmetric, NotCocycle,
    NotCompatible, NotIdeal, NotOOperator, NotPreLie, NotStable,
    NotSubalgebra, QuotientError, Singular, oracle,
)
from .exactla import (
    Matrix, column_space_equal, invert, is_zero_vec, kernel, q, vec_add,
    vec_scale, vec_sub, vec_zero,
)
from .liecore import (
    LieAlgebra, Representation, Subspace, _unit, coadjoint, contract,
    graph_subspace, intersect, is_ideal, is_subalgebra, quotient,
    restrict_to_subalgebra, semidirect, sparse,
)


def _o_sides(rep: Representation, T):
    """((i, j), [Tm_i, Tm_j], T(Tm_i . m_j - Tm_j . m_i)) for every basis pair i < j:
    the one coding of the O-identity, read lazily so a verdict can stop early."""
    _check_t_shape(rep, T)
    g = rep.algebra
    m = rep.dim_m
    cols = [T.col(i) for i in range(m)]
    units = [_unit(m, i) for i in range(m)]
    for i in range(m):
        ti = cols[i]
        for j in range(i + 1, m):
            tj = cols[j]
            inner = vec_sub(rep.act(ti, units[j]), rep.act(tj, units[i]))
            yield (i, j), g.bracket_vec(ti, tj), T.apply(inner)


def o_residual(rep: Representation, T):
    """Defect [Tm, Tn] - T(Tm.n - Tn.m) for every basis pair m < n."""
    return {key: vec_sub(lhs, rhs) for key, lhs, rhs in _o_sides(rep, T)}


def is_o_operator(rep: Representation, T) -> bool:
    return all(lhs == rhs for _, lhs, rhs in _o_sides(rep, T))


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


def ind_bracket_vec(rep: Representation, T: Matrix, m, n):
    """[m, n]^T = T(m) . n - T(n) . m on coordinate vectors."""
    return vec_sub(rep.act(T.apply(m), n), rep.act(T.apply(n), m))


def induced_lie(rep: Representation, T) -> LieAlgebra:
    """The Lie algebra M^T carried by the module of an O-operator."""
    OOperator(rep, T)
    m = rep.dim_m
    c = [[list(ind_bracket_vec(rep, T, _unit(m, i), _unit(m, j)))
          for j in range(m)] for i in range(m)]
    return LieAlgebra(m, c)


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
    """(id + BT) intertwines [.,.]^T with [.,.]^{T_B} on all basis pairs."""
    tb = gauge_transform(rep, T, B)
    phi = Matrix.identity(rep.dim_m) + B * T
    m = rep.dim_m
    for i in range(m):
        for j in range(i + 1, m):
            lhs = phi.apply(ind_bracket_vec(rep, T, _unit(m, i), _unit(m, j)))
            rhs = ind_bracket_vec(rep, tb, phi.col(i), phi.col(j))
            if lhs != rhs:
                return False
    return True


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
    # defining property of reducibility: Tbar(m) . n = T(m) . n on A
    na = len(module_basis)
    for i in range(na):
        for j in range(na):
            via_quot = reduced_rep.act(reduced_T.col(i), _unit(na, j))
            lhs = vec_zero(rep.dim_m)
            for cf, a in zip(via_quot, module_basis):
                if cf:
                    lhs = vec_add(lhs, vec_scale(cf, a))
            oracle("reduction action compatibility", lhs,
                   rep.act(T.apply(module_basis[i]), module_basis[j]), "pair ({i},{j})",
                   i=i, j=j)
    return MRReduction(h_alg, h_basis, qt, tuple(module_basis), reduced_rep, reduced_T)


# ---------------------------------------------------------------------------
# compatible pairs
# ---------------------------------------------------------------------------

def compatibility_defect(rep: Representation, T1, T2):
    """Residual of the mixed identity for every basis pair m < n."""
    for T in (T1, T2):
        OOperator(rep, T)
    g = rep.algebra
    m = rep.dim_m
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            ei, ej = _unit(m, i), _unit(m, j)
            t1i, t1j = T1.col(i), T1.col(j)
            t2i, t2j = T2.col(i), T2.col(j)
            lhs = vec_add(g.bracket_vec(t1i, t2j), g.bracket_vec(t2i, t1j))
            rhs = vec_add(
                T1.apply(vec_sub(rep.act(t2i, ej), rep.act(t2j, ei))),
                T2.apply(vec_sub(rep.act(t1i, ej), rep.act(t1j, ei))))
            out[(i, j)] = vec_sub(lhs, rhs)
    return out


def are_compatible(rep: Representation, T1, T2) -> bool:
    """Mixed-identity verdict against T1 + T2 being an O-operator.  T1 and T2 are
    O-operators, so by polarization the sum decides every mu T1 + lam T2."""
    defects = compatibility_defect(rep, T1, T2)
    direct = all(is_zero_vec(v) for v in defects.values())
    return oracle("compatibility", direct, is_o_operator(rep, T1 + T2), "identity={a} sum={b}")


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
    """A left pre-Lie product on a coordinate space, validated exactly."""

    __slots__ = ("dim", "p", "s")

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
        bad = pre_lie_defect_tensor(dim, self.s)
        if bad is not None:
            raise NotPreLie(bad)

    def prod_basis(self, i, j):
        return self.p[i][j]

    def prod_vec(self, x, y):
        return contract(self.s, self.dim, x, y)

    def add(self, other):
        return PreLieProduct(self.dim, [
            [vec_add(self.p[i][j], other.p[i][j]) for j in range(self.dim)]
            for i in range(self.dim)])


def pre_lie_defect_tensor(dim, p):
    """First basis triple violating the left pre-Lie identity, or None; p is sparse."""
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


def pre_lie_from_o(rep: Representation, T) -> PreLieProduct:
    """m box n = T(m) . n."""
    OOperator(rep, T)
    m = rep.dim_m
    tensor = [[list(rep.act(T.col(i), _unit(m, j))) for j in range(m)]
              for i in range(m)]
    return PreLieProduct(m, tensor)


def pre_lie_compatible(p1: PreLieProduct, p2: PreLieProduct) -> bool:
    """Mixed identity on all triples, cross-checked against the sum product."""
    if p1.dim != p2.dim:
        raise DimensionMismatch("pre-Lie products on different spaces")
    d = p1.dim
    direct = True
    for i in range(d):
        for j in range(d):
            for k in range(d):
                x, y, z = _unit(d, i), _unit(d, j), _unit(d, k)
                lhs = vec_add(
                    vec_sub(p2.prod_vec(p1.prod_vec(x, y), z),
                            p1.prod_vec(x, p2.prod_vec(y, z))),
                    vec_sub(p1.prod_vec(p2.prod_vec(x, y), z),
                            p2.prod_vec(x, p1.prod_vec(y, z))))
                rhs = vec_add(
                    vec_sub(p2.prod_vec(p1.prod_vec(y, x), z),
                            p1.prod_vec(y, p2.prod_vec(x, z))),
                    vec_sub(p1.prod_vec(p2.prod_vec(y, x), z),
                            p2.prod_vec(y, p1.prod_vec(x, z))))
                if lhs != rhs:
                    direct = False
                    break
            if not direct:
                break
        if not direct:
            break
    sum_tensor = [[vec_add(p1.p[i][j], p2.p[i][j]) for j in range(d)] for i in range(d)]
    return oracle("pre-Lie compatibility", direct,
                  pre_lie_defect_tensor(d, sparse(sum_tensor)) is None, "identity={a} sum={b}")
