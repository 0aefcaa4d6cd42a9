"""O-operators on Lie algebra modules and what can be built from them:
induced Lie structures, r-matrices via the Schouten bracket, gauge
transformations by 1-cocycles, Marsden-Ratiu style reduction, compatible
pairs, and the associated pre-Lie products.

The O-identity is coded once, as the form O(A, B)(m, n) = [Am, Bn] - A([m, n]^B)
of `o_form`, read from the sparse rows P[i][j] = T(m_i) . m_j of `o_product`:
O(T, T) is the O-identity, read on every pair by `o_residual` and up to the first
failing one by `o_defect` (behind `is_o_operator`, `graph_oracle` and `OOperator`),
and O(T1, T2) + O(T2, T1) the mixed term of compatible pairs; `OOperator` keeps
P, so what is built from a validated operator reads it again.
P is also the pre-Lie product of T, and P - P^t the bracket tensor of M^T
(`induced_tensor`), which every bracket fact about M^T compares.  A bivector is
its antisymmetric Matrix r, r[i, j] = r^{ij} (`bivector`), read only through
`schouten_self` or `r_sharp`, which refuse any other matrix.  The Schouten
square [r, r] is computed from its coordinate formula over the nonzero
structure constants, not through the coadjoint module, so it stays an
independent route to the r-matrix verdict.  The pre-Lie identity is the Jacobi
identity of the commutator algebra acting by left multiplication
(`_pre_lie_rows`).

Wherever an independent second route to the same verdict exists (graph
subalgebra, coadjoint O-operator, sum-of-operators), both are computed and
compared through `errors.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

from .cohomology import Cochain, is_cocycle
from .errors import (
    DimensionMismatch, ImageEscapesH, NotAdmissible, NotAntisymmetric, NotCocycle,
    NotCompatible, NotIdeal, NotOOperator, NotPreLie, NotStable,
    NotSubalgebra, QuotientError, Singular, oracle, theorem,
)
from .exactla import Matrix, column_space_equal, invert, is_zero_vec, kernel, q
from .liecore import (
    LieAlgebra, Representation, Subspace, _add_rows, _combine, _dense, _row,
    annihilator, block_rows, coadjoint, cyclic_form, intersect, is_ideal, is_subalgebra,
    mixed_form, morphism_defect, quotient, reached_triples, restrict_to_subalgebra,
    semidirect, sparse_cube, transport, zero_rows,
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


def o_residual(rep: Representation, T, p=None):
    """Defect [Tm, Tn] - T(Tm.n - Tn.m) for every basis pair m < n; p is the
    o_product of T, built here when not given."""
    g, p = rep.algebra, o_product(rep, T) if p is None else p
    return {(i, j): _dense(o_form({}, g, T, T, p, i, j), g.dim)
            for i, j in combinations(range(rep.dim_m), 2)}


def o_defect(rep: Representation, T, p=None):
    """The first basis pair (i, j), i < j, with O(T, T)(m_i, m_j) nonzero and
    that vector, or None for an O-operator; p as in `o_residual`."""
    g, p = rep.algebra, o_product(rep, T) if p is None else p
    for i, j in combinations(range(rep.dim_m), 2):
        acc = o_form({}, g, T, T, p, i, j)
        if any(acc.values()):
            return (i, j), _dense(acc, g.dim)
    return None


def is_o_operator(rep: Representation, T, p=None) -> bool:
    return o_defect(rep, T, p) is None


def _check_t_shape(rep, T):
    if T.shape() != (rep.algebra.dim, rep.dim_m):
        raise DimensionMismatch(
            f"operator must map the module to the algebra, got {T.shape()}")


@dataclass(frozen=True)
class OOperator:
    """A validated O-operator T : M -> g with its o_product p, from which the
    O-identity was checked."""

    rep: Representation
    T: Matrix
    p: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = o_product(self.rep, self.T)
        if not is_o_operator(self.rep, self.T, p):
            raise NotOOperator(o_residual(self.rep, self.T, p))
        object.__setattr__(self, "p", p)


def _bracket_rows(p):
    """The canonical rows of P[i][j] - P[j][i] for the rows P of a product."""
    return tuple(tuple(_combine(pij, -1, pji) for pij, pji in zip(pi, pj))
                 for pi, pj in zip(p, zip(*p)))


def induced_tensor(rep: Representation, T):
    """The canonical rows of the bracket tensor of M^T,
    [m_i, m_j]^T = P[i][j] - P[j][i] for P the o_product of T; not validated."""
    return _bracket_rows(o_product(rep, T))


def induced_lie(rep: Representation, T) -> LieAlgebra:
    """The Lie algebra M^T carried by the module of an O-operator."""
    return theorem("induced lie", LieAlgebra.from_rows, rep.dim_m,
                   _bracket_rows(OOperator(rep, T).p))


def graph_check(rep: Representation, T) -> bool:
    """Whether Gr(T) = {(Tm, m)} is a subalgebra of the semi-direct product: the
    bracket (x, n) of each two basis vectors (T m_b, m_b), (T m_c, m_c) of the
    graph lies in it exactly when x - Tn = 0.  The generators are sparse rows,
    bracketed through the rows of the semi-direct product."""
    _check_t_shape(rep, T)
    s, d, tcols = semidirect(rep).s, rep.algebra.dim, T.sparse_cols()
    gens = [tb + ((d + b, 1),) for b, tb in enumerate(tcols)]
    for b, c in combinations(range(rep.dim_m), 2):
        acc = {}
        for k, v in gens[b]:
            _add_rows(acc, v, gens[c], s[k])
        _add_rows(acc, -1, [(k - d, v) for k, v in acc.items() if k >= d], tcols)
        if any(v for k, v in acc.items() if k < d):
            return False
    return True


def graph_oracle(rep: Representation, T):
    """(is_o_operator, o_defect) of T, the direct verdict checked against the graph."""
    defect = o_defect(rep, T)
    return oracle("o-operator graph characterization", defect is None, graph_check(rep, T),
                  "direct={a} graph={b}"), defect


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

def bivector(dim, pairs) -> Matrix:
    """The antisymmetric Matrix r of the bivector with r^{ij} = r[i, j] = -r[j, i]
    for each ((i, j), r^{ij}) of `pairs`, i < j."""
    m = [[0] * dim for _ in range(dim)]
    for (i, j), v in dict(pairs).items():
        if not 0 <= i < j < dim:
            raise DimensionMismatch(f"bivector entries need i < j, got ({i},{j})")
        m[i][j], m[j][i] = v, -v
    return Matrix(m, cols=dim)


def _bivector_of(r: Matrix, dim) -> Matrix:
    """r, if it is the antisymmetric dim x dim matrix of a bivector or a 2-form."""
    if r.shape() != (dim, dim):
        raise DimensionMismatch(f"matrix has shape {r.shape()}, wanted {(dim, dim)}")
    if not r.is_antisymmetric():
        raise NotAntisymmetric("matrix is not antisymmetric")
    return r


def r_sharp(r: Matrix) -> Matrix:
    """a -> r(a, .) in the dual basis, the transpose of r, which must be square and
    antisymmetric; the transpose is its own inverse, so this also reads r from it."""
    return _bivector_of(r, r.rows).transpose()


def schouten_self(g: LieAlgebra, r: Matrix) -> dict:
    """[r, r] in wedge^3 g as {increasing triple: coefficient}.

    [r, r]^{abc} = 2 (T^{abc} + T^{bca} + T^{cab}) with
    T^{xyz} = sum_{i,j} r^{xi} r^{yj} c_{ij}^z; only the nonzero structure
    constants and the nonzero entries of columns i and j of r are visited.
    """
    cols = _bivector_of(r, g.dim).sparse_cols()
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


def is_r_matrix(g: LieAlgebra, r: Matrix, square=None) -> bool:
    """[r, r] = 0; square is schouten_self(g, r), computed here when not given."""
    return not (schouten_self(g, r) if square is None else square)


def r_matrix_defect(g: LieAlgebra, r: Matrix):
    """(CYBE verdict, sorted support of [r, r]) from one Schouten square, the
    verdict checked against r-sharp as a coadjoint O-operator."""
    square = schouten_self(g, r)
    verdict = oracle("classical r-matrix characterization", is_r_matrix(g, r, square),
                     is_o_operator(coadjoint(g), r_sharp(r)),
                     "schouten={a} coadjoint={b} r={r!r}", r=r)
    return verdict, sorted(square)


def lemma_r_equiv(g: LieAlgebra, r: Matrix) -> bool:
    """CYBE via Schouten expansion vs r-sharp as a coadjoint O-operator."""
    return r_matrix_defect(g, r)[0]


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def _gauge(rep: Representation, T, B):
    """(T_B, phi = id + B T, o_product of T, o_product of T_B) for a T-admissible
    1-cocycle B, with T_B checked to be an O-operator with the image of T."""
    p = OOperator(rep, T).p
    ok, defect = is_cocycle(rep, Cochain.from_linmap(B))
    if not ok:
        raise NotCocycle(defect)
    phi = Matrix.identity(rep.dim_m) + B * T
    try:
        phi_inv = invert(phi)
    except Singular as exc:
        raise NotAdmissible("id + B T is singular") from exc
    tb = T * phi_inv
    p_b = o_product(rep, tb)
    oracle("gauge transform", is_o_operator(rep, tb, p_b), True, "T_B failed the O-identity")
    oracle("gauge transform", column_space_equal(T, tb), True, "im(T_B) differs from im(T)")
    return tb, phi, p, p_b


def gauge_transform(rep: Representation, T, B) -> Matrix:
    """T_B = T (id + B T)^{-1} for a T-admissible 1-cocycle B."""
    return _gauge(rep, T, B)[0]


def gauge_iso_check(rep: Representation, T, B) -> bool:
    """phi = id + BT maps [.,.]^T onto [.,.]^{T_B}: phi [m, n]^T = [phi m, phi n]^{T_B}."""
    _, phi, p, p_b = _gauge(rep, T, B)
    ct = _bracket_rows(p)
    return morphism_defect(_bracket_rows(p_b), phi, phi, phi, lambda i, j: ct[i][j],
                           combinations(range(rep.dim_m), 2)) is None


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

@dataclass
class MRReduction:
    """Everything produced by a successful reduction."""

    h_algebra: LieAlgebra
    h_basis: list
    quotient: object
    module: Subspace         # (E cap h)^0_N in the ambient module
    reduced_rep: Representation
    reduced_T: Matrix


def mr_reduce(rep: Representation, T, h: Subspace, E: Subspace, N: Subspace) -> MRReduction:
    """Reduce an O-operator to (E cap h)^0_N over h / (E cap h).

    Every hypothesis is checked, in order: h subalgebra, N an h-submodule,
    E cap h an ideal of h, and T((E cap h)^0_N) inside h.
    """
    g = rep.algebra
    p = OOperator(rep, T).p
    try:
        h_alg, h_basis = restrict_to_subalgebra(g, h)
    except NotSubalgebra as exc:
        raise NotSubalgebra(exc.witness, which="h") from exc
    for y in h_basis:
        for nvec in N.basis:
            if not N.contains(rep.act(y, nvec)):
                raise NotStable((y, nvec))
    eh, in_h = intersect(E, h), h.pivot_rows()
    eh_in_h = Subspace(h_alg.dim, [in_h.apply(v) for v in eh.basis])
    try:
        qt = quotient(h_alg, eh_in_h)
    except NotIdeal as exc:
        raise QuotientError("E cap h is not an ideal of h") from exc
    A = intersect(annihilator(rep, eh), N)
    for a in A.basis:
        if not h.contains(T.apply(a)):
            raise ImageEscapesH(a)
    # induced action of the quotient on A through lifts, read in A's basis
    k, d = qt.algebra.dim, A.dim()
    iota, lift = A.matrix(), h.matrix() * qt.section
    rows = transport(rep.s, lift, iota, A.pivot_rows())
    # E cap h is an ideal of h, so h preserves its annihilator
    oracle("mr reduction", morphism_defect(rep.s, lift, iota, iota, lambda t, a: rows[t][a],
                                           product(range(k), range(d))),
           None, "induced action does not preserve the annihilator at {a}")
    # by the reduction theorem, A is a module of the quotient and T reduces to it
    reduced_rep = theorem("mr reduction", Representation.from_rows, qt.algebra, d, rows)
    reduced_T = qt.projection * in_h * T * iota
    reduced = theorem("mr reduction", OOperator, reduced_rep, reduced_T)
    # defining property of reducibility: Tbar(m) . n = T(m) . n on A, the
    # pre-Lie products of Tbar and of T, the inclusion of A a morphism of them
    oracle("reduction action compatibility",
           morphism_defect(p, iota, iota, iota, lambda i, j: reduced.p[i][j],
                           product(range(d), range(d))),
           None, "pair ({a[0]},{a[1]})")
    return MRReduction(h_alg, h_basis, qt, A, reduced_rep, reduced_T)


# ---------------------------------------------------------------------------
# compatible pairs
# ---------------------------------------------------------------------------

def mixed_residual(rep: Representation, T1, T2, p1, p2):
    """O(T1, T2) + O(T2, T1) for every basis pair m < n: the mixed term of the
    O-identity of T1 + T2, for p1 and p2 the o_products of T1 and T2."""
    g, m = rep.algebra, rep.dim_m
    return {(i, j): _dense(o_form(o_form({}, g, T1, T2, p2, i, j), g, T2, T1, p1, i, j), g.dim)
            for i in range(m) for j in range(i + 1, m)}


def compatibility_defect(rep: Representation, T1, T2):
    """The mixed residual of two O-operators, each validated first."""
    return mixed_residual(rep, T1, T2, OOperator(rep, T1).p, OOperator(rep, T2).p)


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
    defects = compatibility_defect(rep, T1, T2)
    if not compatibility_oracle(rep, T1, T2, defects):
        raise NotCompatible(defects)
    n = T1 * invert(T2)
    from .onstruct import is_nijenhuis
    ok, defect = is_nijenhuis(rep.algebra, n)
    oracle("nijenhuis from compatible pair", ok, True, "{defect}", defect=defect)
    return n


# ---------------------------------------------------------------------------
# pre-Lie products
# ---------------------------------------------------------------------------

class PreLieProduct:
    """A left pre-Lie product on a coordinate space, validated exactly and
    stored as the canonical sparse rows `s` of its tensor, s[i][j] = e_i e_j.
    The public constructor takes the dense tensor."""

    __slots__ = ("dim", "s")

    def __init__(self, dim, tensor):
        self._set(dim, sparse_cube(dim, tensor, "pre-Lie"))

    def _set(self, dim, s):
        self.dim = dim
        self.s = s
        bad = pre_lie_defect_tensor(dim, s)
        if bad is not None:
            raise NotPreLie(bad)

    @classmethod
    def from_rows(cls, dim, s):
        """The product with the canonical rows s, validated like any other."""
        p = cls.__new__(cls)
        p._set(dim, s)
        return p


def _pre_lie_rows(p):
    """The rows of the commutator algebra of a product p acting on a copy of the
    space by left multiplication: on (e_i, e_j, f_k) the Jacobiator is minus the
    associator (e_i e_j)e_k - e_i(e_j e_k) - (e_j e_i)e_k + e_j(e_i e_k)."""
    d = len(p)
    return block_rows(_bracket_rows(p), zero_rows(d, d), p, zero_rows(d, d))


def pre_lie_defect_tensor(dim, p):
    """First basis triple violating the left pre-Lie identity, or None; p is sparse.
    The reached triples (i, j, dim + k) of `_pre_lie_rows` are visited in the order
    of the cube i < j, k, so its first violating triple is returned; the
    commutator's own triples are skipped, since they may fail first."""
    rows = _pre_lie_rows(p)
    return next(((i, j, k - dim) for i, j, k in sorted(reached_triples(rows, rows))
                 if j < dim <= k and any(cyclic_form({}, rows, rows, i, j, k).values())), None)


def pre_lie_from_o(rep: Representation, T) -> PreLieProduct:
    """m box n = T(m) . n."""
    rows = tuple(tuple(_row(dict(pij)) for pij in pi) for pi in OOperator(rep, T).p)
    return theorem("pre-lie from o", PreLieProduct.from_rows, rep.dim_m, rows)


def pre_lie_compatible(p1: PreLieProduct, p2: PreLieProduct) -> bool:
    """The mixed pre-Lie identity, the mixed Jacobi term of the two `_pre_lie_rows`,
    on all triples, cross-checked against the sum product being pre-Lie."""
    if p1.dim != p2.dim:
        raise DimensionMismatch("pre-Lie products on different spaces")
    d, a, b = p1.dim, _pre_lie_rows(p1.s), _pre_lie_rows(p2.s)
    direct = not any(any(mixed_form(a, b, i, j, k).values())
                     for i, j, k in reached_triples(a, b) | reached_triples(b, a) if j < d <= k)
    sum_rows = tuple(tuple(_combine(x, 1, y) for x, y in zip(r1, r2))
                     for r1, r2 in zip(p1.s, p2.s))
    return oracle("pre-Lie compatibility", direct,
                  pre_lie_defect_tensor(d, sum_rows) is None, "identity={a} sum={b}")
