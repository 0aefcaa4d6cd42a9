"""Alternating cochains, the Chevalley-Eilenberg differential, and the graded
brackets (shuffle bracket on self-valued cochains, derived bracket) that drive
the Maurer-Cartan checks.

A degree-n cochain stores its value on each strictly increasing basis index
tuple as a canonical sparse row, in the format of `LieAlgebra.s`, and stores no
zero value; evaluation elsewhere is the alternating extension.  Every builder
here produces rows, and `Cochain.value` is the one dense read.  Evaluation on a
vector accumulates only the entries of the values its nonzero coordinates
reach.  The Chevalley-Eilenberg differential is coded once, as a walk from one
value to the terms of d that the nonzero action and bracket rows reach: its sum
over a cochain's values is `ce_differential`, its run on the unit cochains the
sparse matrix `differential`, whose degree-1 kernel is the 1-cocycles.  The
circle product, and with it the shuffle and derived brackets, pairs each
nonzero coordinate of a value of one operand with the values of the other that
take that coordinate as an argument, so its work follows the nonzeros too.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionMismatch, LieOpError, oracle
from .exactla import Matrix, _kernel_from_rref, rref_maps, vec
from .liecore import (
    LieAlgebra, Representation, _add_rows, _combine, _dense, _nonzero, _row, block_rows,
    zero_rows,
)


def _perm_sign(seq):
    inv = 0
    n = len(seq)
    for a in range(n):
        for b in range(a + 1, n):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


class Cochain:
    """Alternating multilinear map given by its values on strictly increasing
    index tuples; each nonzero value is stored as a canonical sparse row."""

    __slots__ = ("degree", "source_dim", "target_dim", "values")

    def __init__(self, degree, source_dim, target_dim, values=None):
        rows = {}
        for idx, v in (values or {}).items():
            idx = tuple(idx)
            if len(idx) != degree or any(not 0 <= i < source_dim for i in idx):
                raise DimensionMismatch(f"bad index tuple {idx} for degree {degree}")
            if tuple(sorted(idx)) != idx:
                raise DimensionMismatch(f"index tuple {idx} is not strictly increasing")
            v = vec(v)
            if len(v) != target_dim:
                raise DimensionMismatch("cochain value length mismatch")
            rows[idx] = _nonzero(v)
        self._set(degree, source_dim, target_dim, rows)

    def _set(self, degree, source_dim, target_dim, rows):
        self.degree, self.source_dim, self.target_dim = degree, source_dim, target_dim
        self.values = {idx: row for idx, row in rows.items() if row}

    @classmethod
    def from_rows(cls, degree, source_dim, target_dim, rows):
        """The cochain with the canonical rows `rows`; empty rows are dropped."""
        f = cls.__new__(cls)
        f._set(degree, source_dim, target_dim, rows)
        return f

    @staticmethod
    def from_linmap(M: Matrix):
        """A linear map as a degree-1 cochain."""
        return Cochain.from_rows(1, M.cols, M.rows,
                                 {(j,): col for j, col in enumerate(M.sparse_cols())})

    def value(self, idx):
        """The value on an increasing index tuple as a dense vector."""
        return _dense(dict(self.values.get(tuple(idx), ())), self.target_dim)

    def _with(self, rows):
        return Cochain.from_rows(self.degree, self.source_dim, self.target_dim, rows)

    def add(self, other):
        self._compat(other)
        a, b = self.values, other.values
        return self._with({k: _combine(a.get(k, ()), 1, b.get(k, ()))
                           for k in sorted(a.keys() | b.keys())})

    def scale(self, c):
        return self._with({k: _combine((), c, v) for k, v in self.values.items()})

    def sub(self, other):
        return self.add(other.scale(-1))

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other):
        return (isinstance(other, Cochain)
                and (self.degree, self.source_dim, self.target_dim)
                == (other.degree, other.source_dim, other.target_dim)
                and self.values == other.values)

    def _compat(self, other):
        if (self.degree, self.source_dim, self.target_dim) != \
                (other.degree, other.source_dim, other.target_dim):
            raise DimensionMismatch("cochain shape mismatch")

    def __repr__(self):
        return (f"Cochain(degree={self.degree}, source={self.source_dim}, "
                f"target={self.target_dim}, nonzero={len(self.values)})")


def _reach(rep: Representation):
    """k -> the (i, j, c), i < j, with c the e_k coordinate of [e_i, e_j]; b -> the
    a with e_a . f_b != 0; and the sparse columns of the identity of M."""
    g, m = rep.algebra, rep.dim_m
    brackets = [[] for _ in range(g.dim)]
    for i, j in combinations(range(g.dim), 2):
        for k, c in g.s[i][j]:
            brackets[k].append((i, j, c))
    return (brackets, [[a for a in range(g.dim) if rep.s[a][b]] for b in range(m)],
            tuple(((t, 1),) for t in range(m)))


def _walk(rep: Representation, reach, idx, support):
    """The terms (J, c, cols) of d f, c A f(e_idx) at the tuple J for A the map with
    sparse columns cols, that f's value at idx, nonzero only at `support`, reaches:
    x . f(idx) at J = idx + x for each x acting on `support`, and f([e_i, e_j], ..)
    at J = idx - k + i + j for each k in idx that is a coordinate of [e_i, e_j]."""
    brackets, acting, unit = reach
    for x in {a for b in support for a in acting[b]}.difference(idx):
        J = tuple(sorted(idx + (x,)))
        yield J, -1 if J.index(x) % 2 else 1, rep.s[x]
    for p, k in enumerate(idx):
        rest = idx[:p] + idx[p + 1:]
        for i, j, c in brackets[k]:
            if i not in rest and j not in rest:
                # (-1)^{a+b} for e_i, e_j at positions a, b of J; (-1)^p moves e_k first
                J = tuple(sorted(rest + (i, j)))
                yield J, -c if (J.index(i) + J.index(j) + p) % 2 else c, unit


def ce_differential(rep: Representation, f: Cochain) -> Cochain:
    """(d f)(x_1..x_{n+1}) = sum_i (-1)^{i+1} x_i . f(..x_i^..)
    + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..x_i^..x_j^..), walked from f's values."""
    g = rep.algebra
    if f.source_dim != g.dim or f.target_dim != rep.dim_m:
        raise DimensionMismatch("cochain does not match the representation")
    reach, acc = _reach(rep), {}
    for idx, v in f.values.items():
        for J, c, cols in _walk(rep, reach, idx, [b for b, _ in v]):
            _add_rows(acc.setdefault(J, {}), c, v, cols)
    return Cochain.from_rows(f.degree + 1, g.dim, rep.dim_m,
                             {J: _row(acc[J]) for J in sorted(acc)})


def is_cocycle(rep: Representation, f: Cochain):
    d = ce_differential(rep, f)
    return d.is_zero(), d


def differential(rep: Representation, n):
    """The sparse rows {(J, t): {column: value}} of d: C^n -> C^{n+1}, where
    column r C(dim, n) + u is f_r on the u-th increasing n-tuple: the walk runs
    once per n-tuple, on every coordinate of the value there."""
    reach, acc, m = _reach(rep), {}, rep.dim_m
    subsets = list(combinations(range(rep.algebra.dim), n))
    for u, idx in enumerate(subsets):
        for J, c, cols in _walk(rep, reach, idx, range(m)):
            for key, col in zip(range(u, m * len(subsets), len(subsets)), cols):
                for t, w in col:
                    row = acc.setdefault((J, t), {})
                    row[key] = row.get(key, 0) + c * w
    # an action term and a bracket term of one unit cochain can cancel
    for jt in [jt for jt, row in acc.items() if 0 in row.values()]:
        row = {key: x for key, x in acc.pop(jt).items() if x}
        if row:
            acc[jt] = row
    return acc


def one_cocycle_basis(rep: Representation):
    """Basis of the space of 1-cocycles g -> M, as matrices: the kernel of
    `differential(rep, 1)`, whose column r d + c is the entry (r, c)."""
    d, nvar = rep.algebra.dim, rep.dim_m * rep.algebra.dim
    red, pivots = rref_maps(list(differential(rep, 1).values()), nvar)
    return [Matrix([v[r:r + d] for r in range(0, nvar, d)])
            for v in _kernel_from_rref(red, pivots, nvar)]


def _self_valued(P: Cochain):
    if P.source_dim != P.target_dim:
        raise DimensionMismatch("shuffle bracket needs self-valued cochains")
    if P.degree < 1:
        raise DimensionMismatch("shuffle bracket operands live in degrees >= 1")


def circle_product(P: Cochain, Q: Cochain) -> Cochain:
    """P o Q over (q+1, p)-shuffles with the shuffle sign:
    (P o Q)(x_1..x_n) = sum sign(J, R) P(Q(x_J), x_R) over J + R = 1..n.

    Only nonzeros are visited: each nonzero coordinate k of a value Q(e_J)
    meets the values of P that take e_k as an argument, and pairs whose other
    arguments R avoid J land on the merged index J u R.
    """
    _self_valued(P)
    _self_valued(Q)
    if P.source_dim != Q.source_dim:
        raise DimensionMismatch("operands live on different spaces")
    d = P.source_dim
    n = P.degree + Q.degree - 1
    # k -> (rest, (-1)^position of k, the row of the value)
    by_arg = {}
    for idx, nz in P.values.items():
        for a, k in enumerate(idx):
            by_arg.setdefault(k, []).append((idx[:a] + idx[a + 1:], -1 if a % 2 else 1, nz))
    acc = {}
    for first, inner in Q.values.items():
        taken = set(first)
        for k, y in inner:
            for rest, sign, nz in by_arg.get(k, ()):
                if not taken.isdisjoint(rest):
                    continue
                merged = first + rest
                coeff = _perm_sign(merged) * sign * y
                out = acc.setdefault(tuple(sorted(merged)), {})
                for t, x in nz:
                    out[t] = out.get(t, 0) + coeff * x
    return Cochain.from_rows(n, d, d, {idx: _row(acc[idx]) for idx in sorted(acc)})


def nr_bracket(P: Cochain, Q: Cochain) -> Cochain:
    """{P, Q} = P o Q - (-1)^{pq} Q o P on self-valued cochains."""
    p, qdeg = P.degree - 1, Q.degree - 1
    pq = circle_product(P, Q)
    qp = circle_product(Q, P)
    return pq.sub(qp) if (p * qdeg) % 2 == 0 else pq.add(qp)


def bracket_cochain(s) -> Cochain:
    """A skew bracket, given by the sparse rows s[i][j] of [e_i, e_j], as a
    degree-2 self-valued cochain."""
    d = len(s)
    return Cochain.from_rows(2, d, d, {(i, j): s[i][j] for i in range(d) for j in range(i + 1, d)})


def lift_to_total(P: Cochain, dim_a, dim_b) -> Cochain:
    """Treat Hom(wedge^p a, b) as a self-valued cochain on a + b.

    The lift vanishes as soon as any argument lies in b, and its values sit in
    the b block.
    """
    if P.source_dim != dim_a or P.target_dim != dim_b:
        raise DimensionMismatch("cochain does not match the splitting")
    d = dim_a + dim_b
    return Cochain.from_rows(P.degree, d, d, {idx: tuple((dim_a + k, v) for k, v in row)
                                              for idx, row in P.values.items()})


def restrict_to_blocks(R: Cochain, dim_a, dim_b) -> Cochain:
    """Inverse of lift_to_total on derived brackets, whose values lie in b by a theorem."""
    out = {}
    for idx in sorted(R.values):
        if idx and idx[-1] >= dim_a:
            continue
        row = R.values[idx]
        oracle("derived bracket", row[0][0] >= dim_a, True, "{idx} escapes the b block", idx=idx)
        out[idx] = tuple((k - dim_a, v) for k, v in row)
    return Cochain.from_rows(R.degree, dim_a, dim_b, out)


def derived_bracket(mu2: Cochain, P: Cochain, Q: Cochain, dim_a, dim_b) -> Cochain:
    """[P, Q]_{mu2} = (-1)^{p-1} {{mu2, P}, Q}, restricted back to Hom(wedge a, b).

    mu2 is the multiplication cochain of the semi-direct product of b acting on
    a: mu2((x,u),(y,v)) = (u .2 y - v .2 x, [u, v]).
    """
    if mu2.source_dim != dim_a + dim_b or mu2.degree != 2:
        raise DimensionMismatch("mu2 must be a degree-2 self-valued cochain on a + b")
    for f in (P, Q):
        if any(max(idx, default=-1) >= dim_a for idx in f.values):
            raise LieOpError("malformed lift: operand does not vanish on b arguments")
    Ph = lift_to_total(P, dim_a, dim_b)
    Qh = lift_to_total(Q, dim_a, dim_b)
    inner = nr_bracket(nr_bracket(mu2, Ph), Qh)
    if (P.degree - 1) % 2 == 1:
        inner = inner.scale(-1)
    return restrict_to_blocks(inner, dim_a, dim_b)


def build_mu2(dim_a, dim_b, b_algebra: LieAlgebra, action2: Representation) -> Cochain:
    """Multiplication cochain of b acting on a: the block bracket on a + b with
    a abelian and acting trivially, read as a degree-2 cochain."""
    if b_algebra.dim != dim_b or action2.algebra.dim != dim_b:
        raise DimensionMismatch("mu2 pieces do not match the splitting")
    if action2.dim_m != dim_a:
        raise DimensionMismatch("action2 must act on the a block")
    return bracket_cochain(block_rows(zero_rows(dim_a, dim_a), b_algebra.s,
                                      zero_rows(dim_a, dim_b), action2.s))
