"""Alternating cochains, the Chevalley-Eilenberg differential, and the graded
brackets (shuffle bracket on self-valued cochains, derived bracket) that drive
the Maurer-Cartan checks.

A degree-n cochain stores its value on each strictly increasing basis index
tuple as a canonical sparse row, in the format of `LieAlgebra.s`, and stores no
zero value; evaluation elsewhere is the alternating extension.  Every builder
here produces rows, and `Cochain.value` is the one dense read.  Evaluation on a
vector accumulates only the entries of the values its nonzero coordinates
reach.  The Chevalley-Eilenberg differential and the 1-cocycle system read the
sparse rows of the bracket and the action, and the system is row-reduced as
sparse rows.  The circle product, and with it the shuffle and derived brackets,
pairs each nonzero coordinate of a value of one operand with the values of the
other that take that coordinate as an argument, so its work follows the
nonzeros rather than the index tuples of the output.
"""

from __future__ import annotations

from itertools import combinations

from .errors import DimensionMismatch, LieOpError, oracle
from .exactla import Matrix, _kernel_from_rref, rref_maps, vec
from .liecore import (
    LieAlgebra, Representation, _add_rows, _combine, _dense, _nonzero, _row, block_rows,
    transpose_rows, zero_rows,
)


def _perm_sign(seq):
    inv = 0
    n = len(seq)
    for a in range(n):
        for b in range(a + 1, n):
            if seq[a] > seq[b]:
                inv += 1
    return -1 if inv % 2 else 1


def _normalize(idxs):
    """(sign, sorted tuple) of an index tuple, or (0, None) on repeats."""
    if len(set(idxs)) != len(idxs):
        return 0, None
    order = tuple(sorted(idxs))
    return _perm_sign(idxs), order


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
        self.degree = degree
        self.source_dim = source_dim
        self.target_dim = target_dim
        self.values = {idx: row for idx, row in rows.items() if row}

    @classmethod
    def from_rows(cls, degree, source_dim, target_dim, rows):
        """The cochain with the canonical rows `rows`; empty rows are dropped."""
        f = cls.__new__(cls)
        f._set(degree, source_dim, target_dim, rows)
        return f

    @staticmethod
    def zero(degree, source_dim, target_dim):
        return Cochain(degree, source_dim, target_dim)

    @staticmethod
    def from_linmap(M: Matrix):
        """A linear map as a degree-1 cochain."""
        return Cochain.from_rows(1, M.cols, M.rows,
                                 {(j,): col for j, col in enumerate(M.sparse_cols())})

    def value(self, idx):
        """The value on an increasing index tuple as a dense vector."""
        return _dense(dict(self.values.get(tuple(idx), ())), self.target_dim)

    def add_first(self, acc, scale, pairs, rest):
        """acc += scale * (value on (x, e_{rest[0]}, ...)), for x given by its
        nonzero (k, x_k) pairs."""
        for k, xk in pairs:
            sign, order = _normalize((k,) + rest)  # order is None on repeats
            f = scale * sign * xk
            for i, a in self.values.get(order, ()):
                acc[i] = acc.get(i, 0) + f * a
        return acc

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


def ce_differential(rep: Representation, f: Cochain) -> Cochain:
    """(d f)(x_1..x_{n+1}) = sum_i (-1)^{i+1} x_i . f(..x_i^..)
    + sum_{i<j} (-1)^{i+j} f([x_i,x_j], ..x_i^..x_j^..)."""
    g = rep.algebra
    if f.source_dim != g.dim or f.target_dim != rep.dim_m:
        raise DimensionMismatch("cochain does not match the representation")
    n = f.degree
    out = {}
    if n + 1 > g.dim:
        return Cochain.zero(n + 1, g.dim, rep.dim_m)
    for idx in combinations(range(g.dim), n + 1):
        acc = {}
        for a in range(n + 1):
            _add_rows(acc, -1 if a % 2 else 1, f.values.get(idx[:a] + idx[a + 1:], ()),
                      rep.s[idx[a]])
        for a in range(n + 1):
            for b in range(a + 1, n + 1):
                br = g.s[idx[a]][idx[b]]
                if br:
                    rest = tuple(x for t, x in enumerate(idx) if t != a and t != b)
                    # (-1)^{i+j} for 1-based i, j: even a+b in 0-based positions
                    f.add_first(acc, -1 if (a + b) % 2 else 1, br, rest)
        out[idx] = _row(acc)
    return Cochain.from_rows(n + 1, g.dim, rep.dim_m, out)


def is_cocycle(rep: Representation, f: Cochain):
    d = ce_differential(rep, f)
    return d.is_zero(), d


def one_cocycle_basis(rep: Representation):
    """Basis of the space of 1-cocycles g -> M, as matrices."""
    g = rep.algebra
    d, m = g.dim, rep.dim_m
    nvar = m * d
    act_rows = [transpose_rows(sa, m) for sa in rep.s]  # act_rows[i][t]: row t of rho(e_i)
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            for t in range(m):
                row = {}
                for r, a in act_rows[i][t]:
                    row[r * d + j] = row.get(r * d + j, 0) + a
                for r, a in act_rows[j][t]:
                    row[r * d + i] = row.get(r * d + i, 0) - a
                for cidx, coeff in g.s[i][j]:
                    row[t * d + cidx] = row.get(t * d + cidx, 0) - coeff
                row = {k: x for k, x in row.items() if x}
                if row:
                    rows.append(row)
    # the RREF of a row space is unique, so zero rows change nothing
    red, pivots = rref_maps(rows, nvar)
    basis = _kernel_from_rref(red, pivots, nvar)
    return [Matrix([[v[r * d + c] for c in range(d)] for r in range(m)]) for v in basis]


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
