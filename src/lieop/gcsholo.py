"""Generalized complex structures on modules and on Lie algebras, complex
structures, and the real-form checks for holomorphic r-matrices and
holomorphic O-operators.

The two GCS checkers (block map on the semi-direct product vs the ten
component identities) are an oracle pair, compared through `errors.oracle`,
and are written to short-circuit: the exhaustive agreement sweeps call them
tens of millions of times.

A complex structure is a Nijenhuis operator I with I^2 = -id, and a complex
structure (I, I_M) on a module is the Nijenhuis structure (I, -I_M) with
I_M^2 = -id; both are read from the Nijenhuis codings in `onstruct`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import (
    DimensionMismatch, InvalidGCS, NotAntisymmetric, NotComplexPair,
    NotComplexStructure, oracle,
)
from .exactla import Matrix, invert, vec_add, vec_sub
from .liecore import (
    LieAlgebra, Representation, _unit, coadjoint, contract,
    direct_sum_map, semidirect,
)
from .onstruct import (
    is_nijenhuis, is_on_structure, is_pn_structure, nijenhuis_structure_defect,
)
from .ooper import Bivector, OOperator, is_o_operator, r_sharp


def _rows(x, shape):
    """The rows of a block component, checked against its (rows, cols) shape."""
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


def gcs_check_direct(rep: Representation, N, T, sigma, S) -> bool:
    """J = [[N, T], [sigma, -S]] is almost complex and integrable on g + M;
    stops at the first nonzero residual."""
    sd = semidirect(rep)
    d, m, c, cs = rep.algebra.dim, rep.dim_m, sd.c, sd.s
    n = d + m
    Nr = _rows(N, (d, d))
    Tr = _rows(T, (d, m))
    Gr = _rows(sigma, (m, d))
    Sr = _rows(S, (m, m))
    J = [Nr[i] + Tr[i] for i in range(d)]
    J += [Gr[i] + tuple(-v for v in Sr[i]) for i in range(m)]
    rng_n = range(n)
    for i in rng_n:
        ji = J[i]
        for j in rng_n:
            s = 1 if i == j else 0
            for k in rng_n:
                a = ji[k]
                if a:
                    s += a * J[k][j]
            if s:
                return False
    # [Ju, Jv] - [u, v] = J([Ju, v] + [u, Jv]) on basis pairs u < v
    cols = list(zip(*J))
    units = [_unit(n, u) for u in rng_n]
    for u in rng_n:
        ju = cols[u]
        for v in range(u + 1, n):
            jv = cols[v]
            lhs = vec_sub(contract(cs, n, ju, jv), c[u][v])
            inner = vec_add(contract(cs, n, ju, units[v]), contract(cs, n, units[u], jv))
            if any(lhs[i] != sum(J[i][k] * inner[k] for k in rng_n) for i in rng_n):
                return False
    return True


def gcs_check_components(rep: Representation, N, T, sigma, S, report=False):
    """The ten structure-component identities, numbered 52..61.

    Must give the same verdict as gcs_check_direct on every input.
    """
    g = rep.algebra
    d, m, gc, gs, acts = g.dim, rep.dim_m, g.c, g.s, rep.s
    Nr = _rows(N, (d, d))
    Tr = _rows(T, (d, m))
    Gr = _rows(sigma, (m, d))
    Sr = _rows(S, (m, m))
    failed = []

    def done():
        return (not failed, failed) if report else not failed

    rng_d = range(d)
    rng_m = range(m)
    # (53) N^2 + T sigma = -id: cheapest rejector, row-major
    for i in rng_d:
        ni, ti = Nr[i], Tr[i]
        for j in rng_d:
            s = 1 if i == j else 0
            for k in rng_d:
                a = ni[k]
                if a:
                    s += a * Nr[k][j]
            for k in rng_m:
                a = ti[k]
                if a:
                    s += a * Gr[k][j]
            if s:
                failed.append(53)
                if not report:
                    return False
                break
        if failed:
            break
    # (52) N T = T S
    for i in rng_d:
        ni, ti = Nr[i], Tr[i]
        for j in rng_m:
            s = 0
            for k in rng_d:
                a = ni[k]
                if a:
                    s += a * Tr[k][j]
            for k in rng_m:
                a = ti[k]
                if a:
                    s -= a * Sr[k][j]
            if s:
                failed.append(52)
                if not report:
                    return False
                break
        if 52 in failed:
            break
    # (55) S^2 + sigma T = -id
    for i in rng_m:
        si, gi = Sr[i], Gr[i]
        for j in rng_m:
            s = 1 if i == j else 0
            for k in rng_m:
                a = si[k]
                if a:
                    s += a * Sr[k][j]
            for k in rng_d:
                a = gi[k]
                if a:
                    s += a * Tr[k][j]
            if s:
                failed.append(55)
                if not report:
                    return False
                break
        if 55 in failed:
            break
    # (54) S sigma = sigma N
    for i in rng_m:
        si, gi = Sr[i], Gr[i]
        for j in rng_d:
            s = 0
            for k in rng_m:
                a = si[k]
                if a:
                    s += a * Gr[k][j]
            for k in rng_d:
                a = gi[k]
                if a:
                    s -= a * Nr[k][j]
            if s:
                failed.append(54)
                if not report:
                    return False
                break
        if 54 in failed:
            break

    bracket = partial(contract, gs, d)
    action = partial(contract, acts, m)

    def mat_vec(rows, v):
        return tuple(sum(row[t] * v[t] for t in range(len(v))) for row in rows)

    ncols = list(zip(*Nr))
    # a block with no rows (d = 0 or m = 0) still has its empty columns
    tcols = list(zip(*Tr)) or [()] * m
    gcols = list(zip(*Gr)) or [()] * d
    scols = list(zip(*Sr))

    units_m = [_unit(m, b) for b in rng_m]
    units_d = [_unit(d, a) for a in rng_d]

    # (56) T([m,n]^T) = [Tm, Tn]; (57) S([m,n]^T) = Tm.Sn - Tn.Sm,
    # where [m_i, m_j]^T = T(m_i) . m_j - T(m_j) . m_i
    for i in range(m):
        for j in range(i + 1, m):
            mb = vec_sub(action(tcols[i], units_m[j]), action(tcols[j], units_m[i]))
            if mat_vec(Tr, mb) != bracket(tcols[i], tcols[j]):
                if 56 not in failed:
                    failed.append(56)
                if not report:
                    return False
            rhs = vec_sub(action(tcols[i], scols[j]), action(tcols[j], scols[i]))
            if mat_vec(Sr, mb) != rhs:
                if 57 not in failed:
                    failed.append(57)
                if not report:
                    return False
    # (58), (59): one algebra and one module argument
    for a in range(d):
        nx = ncols[a]
        ex = units_d[a]
        for b in range(m):
            tm = tcols[b]
            em = units_m[b]
            inner = vec_sub(action(nx, em), action(ex, scols[b]))
            lhs58 = vec_sub(bracket(nx, tm), mat_vec(Nr, bracket(ex, tm)))
            if lhs58 != mat_vec(Tr, inner):
                if 58 not in failed:
                    failed.append(58)
                if not report:
                    return False
            lhs59 = vec_sub(mat_vec(Gr, bracket(tm, ex)), action(tm, gcols[a]))
            rhs59 = vec_sub(vec_add(action(ex, em), action(nx, scols[b])),
                            mat_vec(Sr, inner))
            if lhs59 != rhs59:
                if 59 not in failed:
                    failed.append(59)
                if not report:
                    return False
    # (60), (61): two algebra arguments
    for a in range(d):
        for b in range(a + 1, d):
            nx, ny = ncols[a], ncols[b]
            ex, ey = units_d[a], units_d[b]
            mixed = vec_add(bracket(nx, ey), bracket(ex, ny))
            sig_skew = vec_sub(action(ex, gcols[b]), action(ey, gcols[a]))
            lhs60 = vec_sub(vec_sub(bracket(nx, ny), gc[a][b]), mat_vec(Nr, mixed))
            if lhs60 != mat_vec(Tr, sig_skew):
                if 60 not in failed:
                    failed.append(60)
                if not report:
                    return False
            lhs61 = vec_sub(vec_sub(action(nx, gcols[b]), action(ny, gcols[a])),
                            mat_vec(Gr, mixed))
            if lhs61 != tuple(-x for x in mat_vec(Sr, sig_skew)):
                if 61 not in failed:
                    failed.append(61)
                if not report:
                    return False
    return done()


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
    return GCSModule(j.rep, j.N, -j.T, -j.sigma, j.S)


def gcs_from_invertible_o(rep: Representation, T) -> GCSModule:
    """J = (0, T; -T^{-1}, 0) for an invertible O-operator."""
    OOperator(rep, T)
    tinv = invert(T)
    d, m = rep.algebra.dim, rep.dim_m
    return GCSModule(rep, Matrix.zeros(d), T, -tinv, Matrix.zeros(m))


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
    return GCSModule(rep, I, Matrix.zeros(d, m), Matrix.zeros(m, d), -IM)


def _pairing(u, v, d):
    """<(x, a), (y, b)> = (a(y) + b(x)) / 2 on g + g*; doubled to stay integral."""
    return sum(u[d + i] * v[i] for i in range(d)) + sum(v[d + i] * u[i] for i in range(d))


def gcs_lie_check(g: LieAlgebra, N, r: Bivector, sigma2) -> bool:
    """Generalized complex structure (N, r, sigma) on a Lie algebra.

    The verdict is delegated to the coadjoint-module block check; when it
    passes, pairing orthogonality is re-verified independently and must hold.
    """
    if isinstance(sigma2, Bivector):
        sig = Matrix(sigma2.m)
    else:
        sig = sigma2
        if not sig.is_antisymmetric():
            raise NotAntisymmetric("sigma must be an antisymmetric 2-form")
    if r.dim != g.dim or sig.shape() != (g.dim, g.dim):
        raise DimensionMismatch("component dimensions do not match the algebra")
    sharp = r_sharp(r)
    flat = sig.transpose()
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
        oracle("holomorphic o-operator", is_o_operator(rep, TR) and is_o_operator(rep, TI),
               True, "components fail the O-identity")
    return ok


def is_holomorphic_r(g: LieAlgebra, J, rr: Bivector, ri: Bivector) -> bool:
    """PN-structure route vs generalized-complex route; both must agree."""
    if not is_complex_structure(g, J):
        raise NotComplexStructure("J is not a complex structure")
    if rr.dim != g.dim or ri.dim != g.dim:
        raise DimensionMismatch("bivector dimensions do not match the algebra")
    sharp_identity = (r_sharp(rr) == r_sharp(ri) * J.transpose())
    via_pn = is_pn_structure(g, ri, J) and sharp_identity
    zero_sigma = Matrix.zeros(g.dim)
    via_gcs = gcs_lie_check(g, J, ri, zero_sigma) and sharp_identity
    return oracle("holomorphic r-matrix", via_pn, via_gcs, "pn={a} gcs={b}")
