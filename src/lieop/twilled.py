"""Twilled Lie algebras (complementary pairs of subalgebras), the twilled
algebra attached to an O-operator, and (strong) Maurer-Cartan solutions.

`join` is the one builder: it glues two mutually acting algebras into their
twilled algebra, and `twilled_from_o`, `swap` and `omega_structures` all go
through it.  `twilled_new` is the one splitter: it reads the blocks and the
two actions off an arbitrary algebra with a chosen pair of subalgebras.

Maurer-Cartan residuals are always computed twice: once from the explicit
bilinear formula, as its cocycle part and its quadratic part, and once through
the Chevalley-Eilenberg differential and the derived bracket.  `_mc_parts`
compares each part with its grid through `errors.oracle`.  The quadratic part
is the O-identity of Omega over the second action (b acting on a), so it is
`ooper.o_residual` there, and the strong MC search filters with
`ooper.is_o_operator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cohomology import Cochain, build_mu2, ce_differential, derived_bracket, one_cocycle_basis
from .errors import DimensionMismatch, NotOOperator, NotStrongMC, NotSubalgebra, oracle
from .exactla import Matrix, invert, is_zero_vec, vec_add, vec_scale, vec_sub
from .liecore import (
    LieAlgebra, Representation, Subspace, _unit, block_tensor,
    check_complementary,
)
from .onstruct import ONStructure
from .ooper import induced_lie, is_o_operator, o_residual


@dataclass
class TwilledLieAlgebra:
    """A Lie algebra with a chosen splitting into two subalgebras, in block
    coordinates (a first, b second), together with the two mutual actions."""

    total: LieAlgebra
    dim_a: int
    dim_b: int
    a_algebra: LieAlgebra
    b_algebra: LieAlgebra
    action1: Representation   # a acting on b
    action2: Representation   # b acting on a


def join(action1: Representation, action2: Representation) -> TwilledLieAlgebra:
    """The twilled algebra a + b of a acting on b (action1) and b acting on a
    (action2), with [x, u] = x .1 u - u .2 x.  The Jacobi check of the total is
    the matched-pair check; the parts are the inputs themselves."""
    a, b = action1.algebra, action2.algebra
    if action1.dim_m != b.dim or action2.dim_m != a.dim:
        raise DimensionMismatch("each algebra must act on the other")
    total = LieAlgebra(a.dim + b.dim, block_tensor(a.c, b.c, action1.t, action2.t))
    return TwilledLieAlgebra(total, a.dim, b.dim, a, b, action1, action2)


def twilled_new(total: LieAlgebra, a: Subspace, b: Subspace) -> TwilledLieAlgebra:
    """Split a Lie algebra along two complementary subalgebras, in the block
    basis of a followed by b."""
    check_complementary(total.dim, a, b)
    basis = list(a.rref_rows) + list(b.rref_rows)
    P = Matrix.from_cols(basis)
    Pinv = invert(P)
    d, da, db = total.dim, a.dim(), b.dim()
    c = [[None] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            c[i][j] = Pinv.apply(total.bracket_vec(basis[i], basis[j]))
    for i in range(da):
        for j in range(da):
            if any(x != 0 for x in c[i][j][da:]):
                raise NotSubalgebra(witness=(i, j), which="a")
    for i in range(db):
        for j in range(db):
            if any(x != 0 for x in c[da + i][da + j][:da]):
                raise NotSubalgebra(witness=(i, j), which="b")
    a_alg = LieAlgebra(da, [[c[i][j][:da] for j in range(da)]
                            for i in range(da)])
    b_alg = LieAlgebra(db, [[c[da + i][da + j][da:] for j in range(db)]
                            for i in range(db)])
    # [x, u] = x .1 u - u .2 x for x in a, u in b
    act1 = []
    for i in range(da):
        act1.append(Matrix.from_cols(
            [c[i][da + u][da:] for u in range(db)]) if db else Matrix([]))
    act2 = []
    for u in range(db):
        act2.append(Matrix.from_cols(
            [tuple(-x for x in c[i][da + u][:da]) for i in range(da)])
            if da else Matrix([]))
    return join(Representation(a_alg, db, act1), Representation(b_alg, da, act2))


def swap(tw: TwilledLieAlgebra) -> TwilledLieAlgebra:
    """The same twilled algebra with the two blocks exchanged."""
    return join(tw.action2, tw.action1)


def bar_action(rep: Representation, T) -> Representation:
    """m bar. x = [T(m), x] + T(x . m): the module Lie algebra M^T acting on g;
    `induced_lie` checks that T is an O-operator."""
    g = rep.algebra
    mt = induced_lie(rep, T)
    mats = []
    for j in range(rep.dim_m):
        tm = T.col(j)
        cols = []
        for i in range(g.dim):
            xv = _unit(g.dim, i)
            cols.append(vec_add(g.bracket_vec(tm, xv),
                                T.apply(rep.act(xv, _unit(rep.dim_m, j)))))
        mats.append(Matrix.from_cols(cols))
    return Representation(mt, g.dim, mats)


def twilled_from_o(rep: Representation, T) -> TwilledLieAlgebra:
    """The twilled algebra g joined with M^T along the bar action."""
    return join(rep, bar_action(rep, T))


def cocycle_residual(tw: TwilledLieAlgebra, omega) -> dict:
    """Defect of Omega([x,y]) = x .1 Omega(y) - y .1 Omega(x) per pair,
    oriented as the Chevalley-Eilenberg differential."""
    if omega.shape() != (tw.dim_b, tw.dim_a):
        raise DimensionMismatch(
            f"solution candidate must map a to b, got {omega.shape()}")
    out = {}
    da = tw.dim_a
    for i in range(da):
        for j in range(i + 1, da):
            acted = vec_sub(tw.action1.act(_unit(da, i), omega.col(j)),
                            tw.action1.act(_unit(da, j), omega.col(i)))
            out[(i, j)] = vec_sub(acted, omega.apply(tw.a_algebra.c[i][j]))
    return out


def _cohomology_grids(tw: TwilledLieAlgebra, omega: Matrix):
    """(d_CE Omega, [Omega, Omega]_{mu2}) as per-pair grids via cohomology."""
    oc = Cochain.from_linmap(omega)
    dce = ce_differential(tw.action1, oc)
    mu2 = build_mu2(tw.dim_a, tw.dim_b, tw.b_algebra, tw.action2)
    der = derived_bracket(mu2, oc, oc, tw.dim_a, tw.dim_b)
    da = tw.dim_a
    grid_d = {(i, j): dce.value((i, j))
              for i in range(da) for j in range(i + 1, da)}
    grid_q = {(i, j): der.value((i, j))
              for i in range(da) for j in range(i + 1, da)}
    return grid_d, grid_q


def _mc_parts(tw: TwilledLieAlgebra, omega):
    """(cocycle part, quadratic part) of the explicit residual per pair, each
    oracle-checked against its cohomology grid: d_CE Omega and
    [Omega, Omega]_{mu2} = 2 x quadratic part."""
    lin = cocycle_residual(tw, omega)
    quad = o_residual(tw.action2, omega)
    grid_d, grid_q = _cohomology_grids(tw, omega)
    for key in lin:
        oracle("strong mc cocycle residual", grid_d[key], lin[key], "pair {key}", key=key)
        oracle("strong mc quadratic residual", grid_q[key], vec_scale(2, quad[key]),
               "pair {key}", key=key)
    return lin, quad


def mc_check(tw: TwilledLieAlgebra, omega):
    """Maurer-Cartan verdict with per-pair defects: the explicit residual is
    the cocycle part plus the quadratic part of each pair."""
    lin, quad = _mc_parts(tw, omega)
    direct = {key: vec_add(lin[key], quad[key]) for key in lin}
    return all(is_zero_vec(v) for v in direct.values()), direct


def strong_mc_check(tw: TwilledLieAlgebra, omega):
    """Strong Maurer-Cartan verdict: cocycle and quadratic parts vanish
    separately."""
    lin, quad = _mc_parts(tw, omega)
    verdict = all(is_zero_vec(v) for v in lin.values()) and \
        all(is_zero_vec(v) for v in quad.values())
    defects = {k: (lin[k], quad[k]) for k in lin}
    return verdict, defects


def find_strong_mc(rep: Representation, T, coeffs=(-2, -1, 0, 1, 2), limit=None):
    """Strong Maurer-Cartan solutions on the twilled algebra of an O-operator,
    found by solving the linear cocycle equation and filtering the quadratic
    one over small integer combinations of the kernel basis."""
    tw = twilled_from_o(rep, T)
    basis = one_cocycle_basis(rep)
    found = []
    seen = set()
    for combo in product(coeffs, repeat=len(basis)):
        omega = Matrix.zeros(rep.dim_m, rep.algebra.dim)
        for cf, base in zip(combo, basis):
            if cf:
                omega = omega + base.scale(cf)
        if omega.entries in seen:
            continue
        seen.add(omega.entries)
        if is_o_operator(tw.action2, omega):
            oracle("strong mc search", strong_mc_check(tw, omega)[0], True,
                   "filtered candidate failed the full check")
            found.append(omega)
            if limit is not None and len(found) >= limit:
                break
    return found


@dataclass
class OmegaStructures:
    """The structures induced by a strong Maurer-Cartan solution."""

    twilled: TwilledLieAlgebra
    bar_rep: Representation
    g_omega: LieAlgebra
    action_omega: Representation
    big_bracket: LieAlgebra


def omega_structures(rep: Representation, T, omega) -> OmegaStructures:
    """The deformed algebra g^Omega, its module structure on M, and the big
    bracket on g + M induced by a strong Maurer-Cartan solution: Omega is an
    O-operator over the bar module, and its twilled algebra is M^T + g^Omega."""
    tw = twilled_from_o(rep, T)
    ok, defects = strong_mc_check(tw, omega)
    if not ok:
        raise NotStrongMC(defects)
    bar = tw.action2
    try:  # induced_lie checks Omega's O-identity over M^T, once
        swapped = twilled_from_o(bar, omega)
    except NotOOperator:  # against the theorem's True, so the oracle raises
        oracle("omega structures", False, True, "strong MC solution is not an O-operator over M^T")
    g_omega, action_omega = swapped.b_algebra, swapped.action2
    big = swap(swapped).total
    oracle("omega structures", strong_mc_check(swapped, T)[0], True,
           "T fails the strong MC equation on the swapped algebra")
    oracle("omega structures", is_o_operator(action_omega, T), True,
           "T fails the O-identity over the deformed action")
    return OmegaStructures(tw, bar, g_omega, action_omega, big)


def on_from_strong_mc(rep: Representation, T, omega) -> ONStructure:
    """(T, N = T Omega, S = Omega T) from a strong Maurer-Cartan solution."""
    tw = twilled_from_o(rep, T)
    ok, defects = strong_mc_check(tw, omega)
    if not ok:
        raise NotStrongMC(defects)
    return ONStructure(rep, T, T * omega, omega * T)


def strong_mc_from_on(rep: Representation, T, N, S) -> Matrix:
    """Omega = T^{-1} N = S T^{-1} for an ON-structure with invertible T."""
    ONStructure(rep, T, N, S)
    tinv = invert(T)
    omega = oracle("strong mc from on", tinv * N, S * tinv, "T^{{-1}} N != S T^{{-1}}")
    tw = twilled_from_o(rep, T)
    ok, defects = strong_mc_check(tw, omega)
    oracle("strong mc from on", ok, True,
           "induced solution failed the strong check: {defects}", defects=defects)
    return omega
