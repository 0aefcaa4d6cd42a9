"""O-operators on Lie algebra modules and what can be built from them:
induced Lie structures, r-matrices via the Schouten bracket, gauge
transformations by 1-cocycles, Marsden-Ratiu style reduction, compatible
pairs, and the associated pre-Lie products.

The O-identity is coded once, as the form O(A, B)(m, n) = [Am, Bn] - A([m, n]^B)
of `o_form`, read on the pair (m_i, m_j) from the two sparse entries P[i][j] and
P[j][i] of P[i][j] = T(m_i) . m_j, each built by `_o_entry`.  O(T, T) is the
O-identity, read on every pair by `o_residual` and up to the first failing one
by `o_defect` (behind `is_o_operator`, `graph_oracle` and `OOperator`); given no
table, they build the two entries of each pair they visit, so a rejection stops
after those of its failing pair.  O(T1, T2) + O(T2, T1) is the mixed term of
compatible pairs, which `compatibility` reads from the kept products of two
validated operators.  The whole table `o_product` is built only where P is kept
and read again: `OOperator` keeps it, so what is built from a validated
operator reads it again.
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

from itertools import combinations, product

from .cohomology import Cochain, is_cocycle
from .errors import (
    DimensionMismatch, ImageEscapesH, NotAdmissible, NotAntisymmetric, NotCocycle,
    NotIdeal, NotOOperator, NotPreLie, NotStable,
    NotSubalgebra, QuotientError, Singular, oracle, theorem,
)
from .exactla import Matrix, _add_rows, _combine, _dense, _row, invert, is_zero_vec, kernel, q
from .liecore import (
    LieAlgebra, Representation, Subspace, _first_outside, annihilator, block_rows, coadjoint,
    cyclic_sums, first_defect, intersect, is_ideal, is_subalgebra, morphism_defect, quotient,
    restrict_to_subalgebra, semidirect, sparse_cube, transport, zero_rows,
)


def _o_entry(ti, rows):
    """P[i][j] = T(m_i) . m_j as sparse pairs, for ti column i of T and rows the
    action on m_j, `rep.by_col[j]`."""
    return tuple((k, v) for k, v in _add_rows({}, 1, ti, rows).items() if v)


def o_product(rep: Representation, T):
    """The sparse rows P[i][j] = T(m_i) . m_j, the pre-Lie product of T."""
    _check_t_shape(rep, T)
    return tuple(tuple(_o_entry(ti, rows) for rows in rep.by_col) for ti in T.sparse_cols())


def o_form(acc, g, A, B, pij, pji, i, j):
    """acc += O(A, B)(m_i, m_j) = [A m_i, B m_j] - A([m_i, m_j]^B), for pij and
    pji the entries P_B[i][j] and P_B[j][i] of the o_product of B.  O(T, T) is
    the O-identity of T; O(A, B) + O(B, A) is the mixed term of that of A + B."""
    a, bj = A.sparse_cols(), B.sparse_cols()[j]
    for k, v in a[i]:
        _add_rows(acc, v, bj, g.s[k])
    _add_rows(acc, -1, pij, a)
    _add_rows(acc, 1, pji, a)
    return acc


def _o_identity(rep: Representation, T, p):
    """(i, j, O(T, T)(m_i, m_j)) for each basis pair i < j in turn, its two
    entries of P read from p when given, else built for the pair alone."""
    _check_t_shape(rep, T)
    g, tcols, by_col = rep.algebra, T.sparse_cols(), rep.by_col
    for i, j in combinations(range(rep.dim_m), 2):
        if p is None:
            pij, pji = _o_entry(tcols[i], by_col[j]), _o_entry(tcols[j], by_col[i])
        else:
            pij, pji = p[i][j], p[j][i]
        yield i, j, o_form({}, g, T, T, pij, pji, i, j)


def o_residual(rep: Representation, T, p=None):
    """Defect [Tm, Tn] - T(Tm.n - Tn.m) for every basis pair m < n; p is the
    o_product of T, read when given."""
    n = rep.algebra.dim
    return {(i, j): _dense(acc, n) for i, j, acc in _o_identity(rep, T, p)}


def o_defect(rep: Representation, T, p=None):
    """The first basis pair (i, j), i < j, with O(T, T)(m_i, m_j) nonzero and
    that vector, or None for an O-operator; p as in `o_residual`.  Without p a
    rejection builds only the entries of P up to its failing pair."""
    for i, j, acc in _o_identity(rep, T, p):
        if any(acc.values()):
            return (i, j), _dense(acc, rep.algebra.dim)
    return None


def is_o_operator(rep: Representation, T, p=None) -> bool:
    return o_defect(rep, T, p) is None


def _check_t_shape(rep, T):
    if T.shape() != (rep.algebra.dim, rep.dim_m):
        raise DimensionMismatch(
            f"operator must map the module to the algebra, got {T.shape()}")


class OOperator:
    """A validated O-operator T : M -> g with its o_product p, from which the
    O-identity was checked."""

    __slots__ = ("rep", "T", "p")

    def __init__(self, rep: Representation, T: Matrix):
        p = o_product(rep, T)
        if not is_o_operator(rep, T, p):
            raise NotOOperator(o_residual(rep, T, p))
        self.rep, self.T, self.p = rep, T, p


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
    image = Subspace.span(rep.algebra.dim, map(T.col, range(T.cols)))
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
    cols = [{} for _ in range(dim)]
    for (i, j), v in dict(pairs).items():
        if not 0 <= i < j < dim:
            raise DimensionMismatch(f"bivector entries need i < j, got ({i},{j})")
        cols[j][i], cols[i][j] = v, -v
    return Matrix._of(dim, dim, tuple(map(_row, cols)))


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

def gauge_transform(rep: Representation, T, B) -> Matrix:
    """T_B = T (id + B T)^{-1} for a T-admissible 1-cocycle B, checked to be an
    O-operator with the image of T, and phi = id + BT to map [.,.]^T onto
    [.,.]^{T_B}: phi [m, n]^T = [phi m, phi n]^{T_B}, read from the o_products
    of T and T_B."""
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
    im_tb, im_t = (Subspace.span(rep.algebra.dim, map(A.col, range(A.cols))) for A in (tb, T))
    oracle("gauge transform", im_tb == im_t, True, "im(T_B) differs from im(T)")
    ct = _bracket_rows(p)
    oracle("gauge transform", morphism_defect(_bracket_rows(p_b), phi, phi, phi,
                                              lambda i, j: ct[i][j],
                                              combinations(range(rep.dim_m), 2)),
           None, "id + B T is no morphism [.,.]^T -> [.,.]^{{T_B}} at pair ({a[0]},{a[1]})")
    return tb


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

class MRReduction:
    """Everything produced by a successful reduction: the quotient algebra, the
    module (E cap h)^0_N in the ambient module, and the reduced module and
    operator on it."""

    __slots__ = ("quotient", "module", "reduced_rep", "reduced_T")

    def __init__(self, quotient, module: Subspace, reduced_rep: Representation, reduced_T: Matrix):
        self.quotient, self.module = quotient, module
        self.reduced_rep, self.reduced_T = reduced_rep, reduced_T


def mr_reduce(rep: Representation, T, h: Subspace, E: Subspace, N: Subspace) -> MRReduction:
    """Reduce an O-operator to (E cap h)^0_N over h / (E cap h).

    Every hypothesis is checked, in order: N a subspace of the module, h and E
    subspaces of the algebra, h a subalgebra, N an h-submodule, E cap h an
    ideal of h, and T((E cap h)^0_N) inside h.
    """
    g = rep.algebra
    for name, W, space, n in (("N", N, "module", rep.dim_m), ("h", h, "algebra", g.dim),
                              ("E", E, "algebra", g.dim)):
        if W.ambient_dim != n:
            raise DimensionMismatch(f"{name} lies in Q^{W.ambient_dim}, not in the {space} Q^{n}")
    p = OOperator(rep, T).p
    try:
        h_alg = restrict_to_subalgebra(g, h)
    except NotSubalgebra as exc:
        raise NotSubalgebra(exc.witness, which="h") from exc
    witness = _first_outside(N, product(h.basis, N.basis), rep.act)
    if witness:
        raise NotStable(witness)
    eh, in_h = intersect(E, h), h.pivot_rows()
    eh_in_h = Subspace(h_alg.dim, [in_h.apply(v) for v in eh.basis])
    try:
        qt = quotient(h_alg, eh_in_h)
    except NotIdeal as exc:
        raise QuotientError("E cap h is not an ideal of h") from exc
    A = intersect(annihilator(rep, eh), N)
    escapes = (h.residual() * T * A.matrix()).sparse_cols()
    for a, col in zip(A.basis, escapes):
        if col:
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
    return MRReduction(qt, A, reduced_rep, reduced_T)


# ---------------------------------------------------------------------------
# compatible pairs
# ---------------------------------------------------------------------------

def mixed_residual(rep: Representation, T1, T2, p1, p2):
    """O(T1, T2) + O(T2, T1) for every basis pair m < n: the mixed term of the
    O-identity of T1 + T2, for p1 and p2 the o_products of T1 and T2."""
    g = rep.algebra
    return {(i, j): _dense(o_form(o_form({}, g, T1, T2, p2[i][j], p2[j][i], i, j),
                                  g, T2, T1, p1[i][j], p1[j][i], i, j), g.dim)
            for i, j in combinations(range(rep.dim_m), 2)}


def compatibility_oracle(rep: Representation, T1, T2, defects) -> bool:
    """The mixed residual `defects` of two O-operators against T1 + T2 being one;
    by polarization the sum decides every mu T1 + lam T2."""
    direct = all(is_zero_vec(v) for v in defects.values())
    return oracle("compatibility", direct, is_o_operator(rep, T1 + T2), "identity={a} sum={b}")


def compatibility(rep: Representation, T1, T2):
    """(compatibility verdict, mixed residual) of two O-operators, each validated
    first, the residual read from their kept o_products."""
    defects = mixed_residual(rep, T1, T2, OOperator(rep, T1).p, OOperator(rep, T2).p)
    return compatibility_oracle(rep, T1, T2, defects), defects


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
    The least failing (i, j, dim + k) of a glued pass over `_pre_lie_rows` is the
    first of the cube i < j, k; the commutator's own triples, which may fail, are skipped."""
    rows = _pre_lie_rows(p)
    bad = first_defect(cyclic_sums(rows, rows, dim), lambda t: t[1] < dim)
    return None if bad is None else (bad[0], bad[1], bad[2] - dim)


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
    direct = first_defect(cyclic_sums(b, a, d, cyclic_sums(a, b, d)), lambda t: t[1] < d) is None
    sum_rows = tuple(tuple(_combine(x, 1, y) for x, y in zip(r1, r2))
                     for r1, r2 in zip(p1.s, p2.s))
    return oracle("pre-Lie compatibility", direct,
                  pre_lie_defect_tensor(d, sum_rows) is None, "identity={a} sum={b}")
