"""Generalized complex structures on modules and on Lie algebras, complex
structures, and the real-form checks for holomorphic r-matrices and
holomorphic O-operators.

The two GCS checkers (block map on the semi-direct product vs the ten
component identities) are an oracle pair, compared through `errors.oracle`.
Both reject as early as the algebra allows: almost every tuple fails the
g x g block of J^2 = -id, N^2 + T sigma = -id, which reads neither S nor
the module action, so each route checks it first and stops at the first
nonzero residual.  For sweeps with (N, T) fixed, `gcs_direct_grid` and
`gcs_components_grid` run a route over every (sigma, S) of a product in one
call: what reads only (N, T) runs once, the g x g block once per sigma.
They share each identity's code with the single-tuple checks.

Integrable = Nijenhuis on g x M: given J J = -id, the direct route checks J
with `onstruct.is_nijenhuis` on the semi-direct product.  A complex structure
is a Nijenhuis operator I with I^2 = -id, and a complex structure (I, I_M) on a
module the Nijenhuis structure (I, -I_M) with I_M^2 = -id.  On a Lie algebra r
and sigma are antisymmetric matrices, both read through `ooper.r_sharp`.  A GCS
built from checked inputs is valid by a theorem (`errors.theorem`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import mul

from .errors import (
    DimensionMismatch, InvalidGCS, NotComplexPair, NotComplexStructure, oracle, theorem,
)
from .exactla import Matrix, invert, vec_add, vec_sub
from .liecore import (
    LieAlgebra, Representation, _unit, coadjoint, contract,
    direct_sum_map, semidirect,
)
from .onstruct import (
    is_nijenhuis, is_on_structure, is_pn_structure, nijenhuis_structure_defect,
)
from .ooper import OOperator, is_o_operator, r_sharp


def _rows(x, shape):
    """The rows of a block component, checked against its (rows, cols) shape.

    A tuple is the fast path: its rows are used as they are, tuples or not.
    """
    if type(x) is not tuple:
        if isinstance(x, Matrix):
            if x.shape() != shape:
                raise DimensionMismatch(f"component has shape {x.shape()}, wanted {shape}")
            return x.entries
        x = tuple(tuple(row) for row in x)
    nr, nc = shape
    if len(x) != nr:
        raise DimensionMismatch(f"component has {len(x)} rows, wanted shape {shape}")
    for row in x:
        if len(row) != nc:
            raise DimensionMismatch(f"component has a row of length {len(row)}, wanted shape {shape}")
    return x


def _units(n):
    return [_unit(n, u) for u in range(n)]


def _neg(rows):
    return tuple(tuple(-v for v in row) for row in rows)


def _mat_vec(rows, v):
    return tuple(sum(map(mul, row, v)) for row in rows)


def _j_square_gg(Nr, Tr, Gr, d):
    """J J = -id on the g x g block, which reads N, T and sigma only.

    Row i of J is N's row i then T's; J's first d columns, read row by row,
    are N's rows then sigma's.
    """
    left = Nr + Gr
    rng = range(len(left))
    for i in range(d):
        ji = (*Nr[i], *Tr[i])
        for j in range(d):
            s = 1 if i == j else 0
            for k in rng:
                a = ji[k]
                if a:
                    s += a * left[k][j]
            if s:
                return False
    return True


def _direct_tail(sd, Nr, Tr, Gr, Sr):
    """The rest of J J = -id, then integrability, once the g x g block holds."""
    d = len(Nr)
    J = [(*a, *b) for a, b in zip(Nr, Tr)] + [(*g, *s) for g, s in zip(Gr, _neg(Sr))]
    rng = range(len(J))
    for i, ji in enumerate(J):
        for j in range(d if i < d else 0, len(J)):
            s = 1 if i == j else 0
            for k in rng:
                a = ji[k]
                if a:
                    s += a * J[k][j]
            if s:
                return False
    return is_nijenhuis(sd, Matrix(J))[0]


def gcs_check_direct(rep: Representation, N, T, sigma, S) -> bool:
    """J = [[N, T], [sigma, -S]] is almost complex and integrable on g + M.

    The g x g block of J J, which does not read S, goes first; every check
    stops at the first nonzero residual.
    """
    d, m = rep.algebra.dim, rep.dim_m
    Nr, Tr = _rows(N, (d, d)), _rows(T, (d, m))
    Gr, Sr = _rows(sigma, (m, d)), _rows(S, (m, m))
    return _j_square_gg(Nr, Tr, Gr, d) and _direct_tail(semidirect(rep), Nr, Tr, Gr, Sr)


def gcs_direct_grid(rep: Representation, N, T, sigmas, Ss) -> list:
    """gcs_check_direct on each (sigma, S) of itertools.product(sigmas, Ss),
    in that order: what reads only (N, T) runs once, the g x g block once
    per sigma."""
    d, m = rep.algebra.dim, rep.dim_m
    Nr, Tr = _rows(N, (d, d)), _rows(T, (d, m))
    Gs = [_rows(g, (m, d)) for g in sigmas]
    Srs = [_rows(s, (m, m)) for s in Ss]
    sd = semidirect(rep)
    out = []
    for Gr in Gs:
        if _j_square_gg(Nr, Tr, Gr, d):
            out += [_direct_tail(sd, Nr, Tr, Gr, Sr) for Sr in Srs]
        else:
            out += [False] * len(Srs)
    return out


def _product_sum_is(A, B, C, D, cols, eye):
    """A B + C D = -eye id, row by row; stops at the first entry that differs."""
    rng_b, rng_d = range(len(B)), range(len(D))
    for i in range(len(A)):
        ai, ci = A[i], C[i]
        for j in range(cols):
            s = eye if i == j else 0
            for k in rng_b:
                a = ai[k]
                if a:
                    s += a * B[k][j]
            for k in rng_d:
                a = ci[k]
                if a:
                    s += a * D[k][j]
            if s:
                return False
    return True


def _noted(failed, num, report):
    """Notes identity num as failed; whether the check stops there."""
    if num not in failed:
        failed.append(num)
    return not report


def _s_blocks(Nr, negN, Tr, Gr, Sr, failed, report):
    """(52) T S - N T = 0, (55) S^2 + sigma T = -id and (54) S sigma - sigma N
    = 0, in that order: the identities of J J = -id that read S.  False when
    the check stops."""
    d, m = len(Nr), len(Sr)
    for num, blocks in ((52, (Tr, Sr, negN, Tr, m, 0)), (55, (Sr, Sr, Gr, Tr, m, 1)),
                        (54, (Sr, Gr, Gr, negN, d, 0))):
        if not _product_sum_is(*blocks) and _noted(failed, num, report):
            return False
    return True


def _t_context(rep, Nr, Tr):
    """What (56)-(61) read from (rep, N, T) alone, with (56)
    T([m,n]^T) = [Tm, Tn] decided per basis pair i < j of M, where
    [m_i, m_j]^T = T(m_i) . m_j - T(m_j) . m_i."""
    g = rep.algebra
    d, m = g.dim, rep.dim_m
    bracket = partial(contract, g.s, d)
    action = partial(contract, rep.s, m)
    # a block with no rows (d = 0) still has its empty columns
    tcols = list(zip(*Tr)) or [()] * m
    units_m = _units(m)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            mb = vec_sub(action(tcols[i], units_m[j]), action(tcols[j], units_m[i]))
            pairs.append((i, j, mb, _mat_vec(Tr, mb) == bracket(tcols[i], tcols[j])))
    return bracket, action, list(zip(*Nr)), tcols, _units(d), units_m, pairs


def _components_tail(ctx, Nr, Tr, Gr, Sr, failed, report):
    """(56)-(61), once (52)-(55) are decided; whether none failed."""
    bracket, action, ncols, tcols, units_d, units_m, pairs = ctx
    d, m = len(units_d), len(units_m)
    gcols = list(zip(*Gr)) or [()] * d
    scols = list(zip(*Sr))
    # (56) T([m,n]^T) = [Tm, Tn]; (57) S([m,n]^T) = Tm.Sn - Tn.Sm
    for i, j, mb, holds56 in pairs:
        if not holds56 and _noted(failed, 56, report):
            return False
        rhs = vec_sub(action(tcols[i], scols[j]), action(tcols[j], scols[i]))
        if _mat_vec(Sr, mb) != rhs and _noted(failed, 57, report):
            return False
    # (58), (59): one algebra and one module argument
    for a in range(d):
        nx, ex = ncols[a], units_d[a]
        for b in range(m):
            tm, em = tcols[b], units_m[b]
            inner = vec_sub(action(nx, em), action(ex, scols[b]))
            lhs58 = vec_sub(bracket(nx, tm), _mat_vec(Nr, bracket(ex, tm)))
            if lhs58 != _mat_vec(Tr, inner) and _noted(failed, 58, report):
                return False
            lhs59 = vec_sub(_mat_vec(Gr, bracket(tm, ex)), action(tm, gcols[a]))
            rhs59 = vec_sub(vec_add(action(ex, em), action(nx, scols[b])),
                            _mat_vec(Sr, inner))
            if lhs59 != rhs59 and _noted(failed, 59, report):
                return False
    # (60), (61): two algebra arguments
    for a in range(d):
        for b in range(a + 1, d):
            nx, ny = ncols[a], ncols[b]
            ex, ey = units_d[a], units_d[b]
            mixed = vec_add(bracket(nx, ey), bracket(ex, ny))
            sig_skew = vec_sub(action(ex, gcols[b]), action(ey, gcols[a]))
            lhs60 = vec_sub(vec_sub(bracket(nx, ny), bracket(ex, ey)), _mat_vec(Nr, mixed))
            if lhs60 != _mat_vec(Tr, sig_skew) and _noted(failed, 60, report):
                return False
            lhs61 = vec_sub(vec_sub(action(nx, gcols[b]), action(ny, gcols[a])),
                            _mat_vec(Gr, mixed))
            if (lhs61 != tuple(-x for x in _mat_vec(Sr, sig_skew))
                    and _noted(failed, 61, report)):
                return False
    return not failed


def gcs_check_components(rep: Representation, N, T, sigma, S, report=False):
    """The ten structure-component identities, numbered 52..61, checked in
    the order (53), (52), (55), (54), (56), ..., (61).

    Must give the same verdict as gcs_check_direct on every input.  With
    report=True every identity runs, and the result is (verdict, the failed
    identities in that order).
    """
    d, m = rep.algebra.dim, rep.dim_m
    Nr, Tr = _rows(N, (d, d)), _rows(T, (d, m))
    Gr, Sr = _rows(sigma, (m, d)), _rows(S, (m, m))
    failed = []
    # (53) N^2 + T sigma = -id: the g x g block, the cheapest rejector
    if not _product_sum_is(Nr, Nr, Tr, Gr, d, 1):
        if not report:
            return False
        failed.append(53)
    ok = (_s_blocks(Nr, _neg(Nr), Tr, Gr, Sr, failed, report)
          and _components_tail(_t_context(rep, Nr, Tr), Nr, Tr, Gr, Sr, failed, report))
    return (ok, failed) if report else ok


def gcs_components_grid(rep: Representation, N, T, sigmas, Ss) -> list:
    """gcs_check_components on each (sigma, S) of itertools.product(sigmas, Ss),
    in that order: what reads only (N, T), (56) among it, runs once, and
    (53) once per sigma."""
    d, m = rep.algebra.dim, rep.dim_m
    Nr, Tr = _rows(N, (d, d)), _rows(T, (d, m))
    Gs = [_rows(g, (m, d)) for g in sigmas]
    Srs = [_rows(s, (m, m)) for s in Ss]
    ctx = _t_context(rep, Nr, Tr)
    if not all(holds56 for *_, holds56 in ctx[-1]):
        return [False] * (len(Gs) * len(Srs))
    negN = _neg(Nr)
    out = []
    for Gr in Gs:
        if _product_sum_is(Nr, Nr, Tr, Gr, d, 1):
            out += [_s_blocks(Nr, negN, Tr, Gr, Sr, [], False)
                    and _components_tail(ctx, Nr, Tr, Gr, Sr, [], False) for Sr in Srs]
        else:
            out += [False] * len(Srs)
    return out


def gcs_oracle(rep: Representation, N, T, sigma, S) -> bool:
    """Both GCS checks; raises if they ever disagree."""
    return oracle("gcs characterization", gcs_check_direct(rep, N, T, sigma, S),
                  gcs_check_components(rep, N, T, sigma, S), "direct={a} components={b}")


@dataclass(frozen=True)
class GCSModule:
    """A validated generalized complex structure on a module."""

    rep: Representation
    N: Matrix
    T: Matrix
    sigma: Matrix
    S: Matrix

    def __post_init__(self):
        if not gcs_check_direct(self.rep, self.N, self.T, self.sigma, self.S):
            raise InvalidGCS("block map fails almost-complexity or integrability")


def opposite_gcs(j: GCSModule) -> GCSModule:
    """(N, -T, -sigma, S): flips the off-diagonal blocks."""
    return theorem("opposite gcs", GCSModule, j.rep, j.N, -j.T, -j.sigma, j.S)


def gcs_from_invertible_o(rep: Representation, T) -> GCSModule:
    """J = (0, T; -T^{-1}, 0) for an invertible O-operator."""
    OOperator(rep, T)
    tinv = invert(T)
    d, m = rep.algebra.dim, rep.dim_m
    return theorem("gcs from o", GCSModule, rep, Matrix.zeros(d), T, -tinv, Matrix.zeros(m))


def is_complex_structure(g: LieAlgebra, I) -> bool:
    """I^2 = -id and I is a Nijenhuis operator, which given I^2 = -id reads
    [Ix, Iy] - [x, y] - I([Ix, y] + [x, Iy]) = 0."""
    if I.shape() != (g.dim, g.dim):
        raise DimensionMismatch("complex structure must be an endomorphism")
    return _squares_to_minus_id(I, g.dim) and is_nijenhuis(g, I)[0]


def _squares_to_minus_id(I: Matrix, n) -> bool:
    """I^2 = -id_n; an I that is not n x n raises DimensionMismatch."""
    return ((I * I) + Matrix.identity(n)).is_zero()


def is_module_complex_pair(rep: Representation, I, IM) -> bool:
    """(I, I_M) is a complex structure on the module; oracle-checked against
    I + I_M on the semi-direct product.

    Given I_M^2 = -id, the module identity
    I(x).I_M(m) - x.m - I_M(I(x).m + x.I_M(m)) = 0 is the Nijenhuis-structure
    identity of the pair (I, -I_M).
    """
    direct = (is_complex_structure(rep.algebra, I) and _squares_to_minus_id(IM, rep.dim_m)
              and nijenhuis_structure_defect(rep, I, -IM) is None)
    return oracle("module complex pair", direct,
                  is_complex_structure(semidirect(rep), direct_sum_map(I, IM)),
                  "direct={a} semidirect={b}")


def gcs_from_complex(rep: Representation, I, IM) -> GCSModule:
    """J = (I, 0; 0, I_M), i.e. S = -I_M."""
    if not is_module_complex_pair(rep, I, IM):
        raise NotComplexPair("input pair is not a module complex structure")
    d, m = rep.algebra.dim, rep.dim_m
    return theorem("gcs from complex", GCSModule, rep, I, Matrix.zeros(d, m),
                   Matrix.zeros(m, d), -IM)


def _pairing(u, v, d):
    """<(x, a), (y, b)> = (a(y) + b(x)) / 2 on g + g*; doubled to stay integral."""
    return sum(u[d + i] * v[i] for i in range(d)) + sum(v[d + i] * u[i] for i in range(d))


def gcs_lie_check(g: LieAlgebra, N, r: Matrix, sigma2: Matrix) -> bool:
    """Generalized complex structure (N, r, sigma) on a Lie algebra; the sharp map
    of r and the flat map of sigma are both read through `r_sharp`.

    The verdict is delegated to the coadjoint-module block check; when it
    passes, pairing orthogonality is re-verified independently and must hold.
    """
    sharp, flat = r_sharp(r), r_sharp(sigma2)
    if sharp.shape() != (g.dim, g.dim) or flat.shape() != (g.dim, g.dim):
        raise DimensionMismatch("component dimensions do not match the algebra")
    co = coadjoint(g)
    verdict = gcs_check_direct(co, N, sharp, flat, N.transpose())
    if verdict:
        d = g.dim
        rows = [N.row(i) + sharp.row(i) for i in range(d)]
        rows += [flat.row(i) + tuple(-v for v in N.transpose().row(i)) for i in range(d)]
        J = Matrix(rows, cols=2 * d)
        orthogonal = all(_pairing(J.col(u), J.col(v), d)
                         == _pairing(_unit(2 * d, u), _unit(2 * d, v), d)
                         for u in range(2 * d) for v in range(u, 2 * d))
        oracle("gcs on lie algebra", orthogonal, True,
               "block form passed but breaks the pairing")
    return verdict


def is_holomorphic_o(rep: Representation, J, JM, TR, TI) -> bool:
    """(T_I, J, J_M) an ON-structure with T_R = T_I J_M."""
    if not is_module_complex_pair(rep, J, JM):
        raise NotComplexPair("the pair (J, J_M) is not a module complex structure")
    ok = is_on_structure(rep, TI, J, JM)[0] and TR == TI * JM
    if ok:
        oracle("holomorphic o-operator", TR, J * TI, "T_R != J T_I")
        oracle("holomorphic o-operator", is_o_operator(rep, TR), True,
               "T_R = J T_I fails the O-identity")
    return ok


def is_holomorphic_r(g: LieAlgebra, J, rr: Matrix, ri: Matrix) -> bool:
    """PN-structure route vs generalized-complex route; both must agree."""
    if not is_complex_structure(g, J):
        raise NotComplexStructure("J is not a complex structure")
    # the difference, unlike ==, refuses bivectors of two shapes
    sharp_identity = (r_sharp(rr) - r_sharp(ri) * J.transpose()).is_zero()
    via_pn = is_pn_structure(g, ri, J) and sharp_identity
    zero_sigma = Matrix.zeros(g.dim)
    via_gcs = gcs_lie_check(g, J, ri, zero_sigma) and sharp_identity
    return oracle("holomorphic r-matrix", via_pn, via_gcs, "pn={a} gcs={b}")
