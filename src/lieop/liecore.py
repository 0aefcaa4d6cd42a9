"""Lie algebras, their modules, and the structural constructions on them.

Everything is finite dimensional over the exact rationals.  A Lie algebra is a
structure-constant tensor c[i][j] = coefficient vector of [e_i, e_j]; a module
is one action matrix per basis vector, also kept as the tensor
t[i][b] = e_i . f_b.  Each tensor is kept dense (`c`, `t`) and sparse (`s`,
the nonzero (k, value) pairs of each entry).  `contract` and the validators
read only the sparse form, so their work grows with the nonzero constants.  The
identities quadratic in a bracket read one cyclic form, `cyclic_form`:
C(a, b) sums a(e_u, b(e_v, e_w)) over the cyclic orders of a triple, C(s, s) is
the Jacobiator and C(a, b) + C(b, a) the mixed term of compatible brackets,
Nijenhuis towers and module deformations.  All validators run exactly on every
basis tuple, so an accepted object genuinely satisfies its axioms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DimensionMismatch, JacobiViolation, NotComplementary, NotIdeal,
    NotSubalgebra, RepViolation, SkewViolation, oracle,
)
from .exactla import (
    Matrix, is_zero_vec, kernel, q, rank, rref, solve_linear, vec, vec_add,
    vec_scale, vec_zero,
)


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def sparse(t):
    """s[a][b] = the nonzero (k, v) pairs of the vector t[a][b]."""
    return tuple(tuple(tuple((k, v) for k, v in enumerate(tab) if v) for tab in ta)
                 for ta in t)


def dense(s, n):
    """The tensor t of s = sparse(t), each entry a length-n vector."""
    return tuple(tuple(_dense(dict(sab), n) for sab in sa) for sa in s)


def _dense(acc, n):
    """The length-n vector of a {coordinate: value} accumulator, normalised."""
    out = [0] * n
    for k, v in acc.items():
        out[k] = q(v)
    return tuple(out)


def _add_rows(acc, scale, pairs, rows):
    """acc += scale * sum of v * rows[l] over the (l, v) in pairs; rows are sparse."""
    for l, v in pairs:
        f = scale * v
        for k, w in rows[l]:
            acc[k] = acc.get(k, 0) + f * w


def cyclic_form(acc, a, b, i, j, k):
    """acc += C(a, b)(e_i, e_j, e_k), the sum of a(e_u, b(e_v, e_w)) over the
    cyclic orders (u, v, w) of (i, j, k), for sparse tensors a and b.  C(s, s) is
    the Jacobiator of s; C(a, b) + C(b, a) is the mixed term of that of a + b."""
    for u, v, w in ((i, j, k), (j, k, i), (k, i, j)):
        _add_rows(acc, 1, b[v][w], a[u])
    return acc


def contract(s, n, x, y):
    """sum_{a,b} x_a y_b t[a][b] as a length-n vector, for s = sparse(t).

    This is the one bilinear kernel behind every bracket, action and product:
    t is a structure tensor c[a][b] = [e_a, e_b], an action tensor
    t[a][b] = e_a . f_b or a product tensor.  Only the nonzero entries of x, y
    and t are visited, and only the output coordinates they reach are
    normalised with q.
    """
    ys = [(b, yb) for b, yb in enumerate(y) if yb]
    acc = {}
    for a, xa in enumerate(x):
        if xa:
            _add_rows(acc, xa, ys, s[a])
    return _dense(acc, n)


def action_tensor(mats):
    """t[a][b] = e_a . f_b, the columns of one action matrix per basis vector."""
    return tuple(tuple(a.col(b) for b in range(a.cols)) for a in mats)


def block_tensor(ca, cb, t1, t2):
    """Bracket tensor on a + b (a first) with [x, u] = x .1 u - u .2 x.

    ca and cb are the structure tensors of a and b, t1[x][u] = x .1 u and
    t2[u][x] = u .2 x the action tensors of each on the other; the inverse of
    splitting a twilled algebra into its blocks.
    """
    da, db = len(ca), len(cb)
    n = da + db
    za, zb = vec_zero(da), vec_zero(db)
    c = [[None] * n for _ in range(n)]
    for i in range(da):
        for j in range(da):
            c[i][j] = tuple(ca[i][j]) + zb
        for u in range(db):
            v = tuple(-x for x in t2[u][i]) + t1[i][u]
            c[i][da + u] = v
            c[da + u][i] = tuple(-x for x in v)
    for u in range(db):
        for w in range(db):
            c[da + u][da + w] = za + cb[u][w]
    return c


class LieAlgebra:
    """A Lie algebra given by its structure constants, validated on construction."""

    __slots__ = ("dim", "c", "s", "_adjoint")

    def __init__(self, dim, bracket):
        self.dim = dim
        c = tuple(tuple(vec(bracket[i][j]) for j in range(dim)) for i in range(dim))
        for i in range(dim):
            for j in range(dim):
                if len(c[i][j]) != dim:
                    raise DimensionMismatch("bracket tensor is not dim^3")
        self.c = c
        self.s = sparse(c)
        self._adjoint = None
        self._validate()

    @staticmethod
    def from_brackets(dim, entries):
        """Build from sparse {(i, j): coefficient vector} with i < j.

        The j < i values are filled in by skew symmetry.
        """
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), v in entries.items():
            if not 0 <= i < j < dim:
                raise DimensionMismatch(f"bad bracket index pair ({i}, {j})")
            c[i][j] = list(v)
            c[j][i] = [-q(x) for x in v]
        return LieAlgebra(dim, c)

    def _validate(self):
        d, c, s = self.dim, self.c, self.s
        for i in range(d):
            for j in range(i, d):
                if s[i][j] != tuple((k, -v) for k, v in s[j][i]):
                    k = next(k for k in range(d) if c[i][j][k] != -c[j][i][k])
                    raise SkewViolation(i, j, k)
        for i in range(d):
            for j in range(i + 1, d):
                for k in range(j + 1, d):
                    if any(cyclic_form({}, s, s, i, j, k).values()):
                        raise JacobiViolation(i, j, k, self.jacobi_defect(i, j, k))

    def jacobi_defect(self, i, j, k):
        """[e_i,[e_j,e_k]] + [e_j,[e_k,e_i]] + [e_k,[e_i,e_j]], that is C(s, s)."""
        return _dense(cyclic_form({}, self.s, self.s, i, j, k), self.dim)

    def bracket_vec(self, x, y):
        """[x, y] for coordinate vectors x, y."""
        return contract(self.s, self.dim, x, y)

    def bracket_tensor_equal(self, other) -> bool:
        return self.dim == other.dim and self.c == other.c

    def is_abelian(self) -> bool:
        return all(is_zero_vec(self.c[i][j]) for i in range(self.dim) for j in range(self.dim))

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


class Representation:
    """A Lie algebra action on a module: one matrix per basis vector, and the
    same action as the tensor t[a][b] = e_a . f_b in the format of LieAlgebra.c,
    with its sparse form s and the same rows by module basis vector,
    by_col[b][a] = s[a][b]."""

    __slots__ = ("algebra", "dim_m", "action", "t", "s", "by_col", "_semidirect", "_dual")

    def __init__(self, algebra: LieAlgebra, dim_m, action):
        self.algebra = algebra
        self.dim_m = dim_m
        mats = tuple(a if isinstance(a, Matrix) else Matrix(a) for a in action)
        if len(mats) != algebra.dim:
            raise DimensionMismatch("one action matrix per algebra basis vector required")
        for a in mats:
            if a.shape() != (dim_m, dim_m):
                raise DimensionMismatch("action matrix shape mismatch")
        self.action = mats
        self.t = action_tensor(mats)
        self.s = sparse(self.t)
        self.by_col = tuple(tuple(sa[b] for sa in self.s) for b in range(dim_m))
        self._semidirect = None
        self._dual = None
        self._validate()

    def _validate(self):
        """[e_i, e_j] . f_b = e_i . (e_j . f_b) - e_j . (e_i . f_b), column by column."""
        g, s, m, by_col = self.algebra, self.s, self.dim_m, self.by_col
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                cols = [{} for _ in range(m)]
                for b, acc in enumerate(cols):
                    _add_rows(acc, 1, s[j][b], s[i])
                    _add_rows(acc, -1, s[i][b], s[j])
                    _add_rows(acc, -1, g.s[i][j], by_col[b])
                if any(any(acc.values()) for acc in cols):
                    raise RepViolation(i, j, Matrix.from_cols([_dense(acc, m) for acc in cols]))

    def rho(self, x) -> Matrix:
        """Matrix of the action of the algebra element with coordinates x."""
        out = Matrix.zeros(self.dim_m)
        for i, xi in enumerate(x):
            if xi:
                out = out + self.action[i].scale(xi)
        return out

    def act(self, x, m):
        """x • m for coordinate vectors."""
        return contract(self.s, self.dim_m, x, m)

    def act_basis(self, i, m):
        return self.action[i].apply(m)

    def __repr__(self):
        return f"Representation(dim_g={self.algebra.dim}, dim_m={self.dim_m})"


def adjoint(g: LieAlgebra) -> Representation:
    """The algebra acting on itself by ad_x = [x, -]."""
    if g._adjoint is None:
        mats = [Matrix.from_cols([g.c[i][j] for j in range(g.dim)]) if g.dim else Matrix([])
                for i in range(g.dim)]
        g._adjoint = Representation(g, g.dim, mats)
    return g._adjoint


def dual_rep(rep: Representation) -> Representation:
    """Dual module: <x • a, m> = -<a, x • m>, so matrices are -rho^T."""
    if rep._dual is None:
        rep._dual = Representation(
            rep.algebra, rep.dim_m, [(-a).transpose() for a in rep.action])
    return rep._dual


def coadjoint(g: LieAlgebra) -> Representation:
    return dual_rep(adjoint(g))


def trivial_rep(g: LieAlgebra, dim_m) -> Representation:
    return Representation(g, dim_m, [Matrix.zeros(dim_m) for _ in range(g.dim)])


def semidirect_tensor(c, t, m):
    """[(x,m),(y,n)] = (c(x,y), t(x,n) - t(y,m)) on g + M, with dim M = m."""
    d = len(c)
    return block_tensor(c, ((vec_zero(m),) * m,) * m, t, ((vec_zero(d),) * d,) * m)


def semidirect(rep: Representation) -> LieAlgebra:
    """Semi-direct product on g + M: [(x,m),(y,n)] = ([x,y], x•n - y•m)."""
    if rep._semidirect is None:
        rep._semidirect = LieAlgebra(rep.algebra.dim + rep.dim_m,
                                     semidirect_tensor(rep.algebra.c, rep.t, rep.dim_m))
    return rep._semidirect


class Subspace:
    """Subspace of a coordinate space, canonicalized by an RREF row basis."""

    __slots__ = ("ambient_dim", "basis", "rref_rows", "pivots")

    def __init__(self, ambient_dim, basis):
        self.ambient_dim = ambient_dim
        self.basis = tuple(vec(v) for v in basis)
        for v in self.basis:
            if len(v) != ambient_dim:
                raise DimensionMismatch("basis vector length mismatch")
        rows, pivots = rref(self.basis) if self.basis else ([], [])
        if len(rows) != len(self.basis):
            raise DimensionMismatch("subspace basis is linearly dependent")
        self.rref_rows = tuple(rows)
        self.pivots = tuple(pivots)

    @staticmethod
    def span(ambient_dim, vectors):
        """Span of arbitrary (possibly dependent) vectors."""
        rows, _ = rref([vec(v) for v in vectors]) if vectors else ([], [])
        return Subspace(ambient_dim, rows)

    @staticmethod
    def full(ambient_dim):
        return Subspace(ambient_dim, Matrix.identity(ambient_dim).entries)

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, [])

    def dim(self):
        return len(self.basis)

    def reduce(self, v):
        """Residual of v after eliminating pivot coordinates against the RREF basis."""
        v = list(v)
        for row, p in zip(self.rref_rows, self.pivots):
            f = v[p]
            if f:
                for k, r in enumerate(row):
                    if r:
                        v[k] -= f * r
        return tuple(q(x) for x in v)

    def contains(self, v) -> bool:
        return is_zero_vec(self.reduce(v))

    def coords(self, v):
        """Coordinates of v in the declared (not RREF) basis; None if outside."""
        if not self.basis:
            return () if is_zero_vec(v) else None
        A = Matrix.from_cols(list(self.basis))
        sol = solve_linear(A, v)
        return sol.particular if sol.consistent else None

    def matrix(self) -> Matrix:
        """Basis vectors as columns."""
        if not self.basis:
            return Matrix([()] * self.ambient_dim, cols=0)
        return Matrix.from_cols(list(self.basis))

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rref_rows == other.rref_rows)

    def __repr__(self):
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim()})"


def is_subalgebra(g: LieAlgebra, W: Subspace):
    """Whether [W, W] is contained in W; on failure also returns a witness pair."""
    if W.ambient_dim != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    for a in range(W.dim()):
        for b in range(a + 1, W.dim()):
            w1, w2 = W.basis[a], W.basis[b]
            if not W.contains(g.bracket_vec(w1, w2)):
                return False, (w1, w2)
    return True, None


def is_ideal(g: LieAlgebra, W: Subspace):
    """Whether [g, W] is contained in W."""
    if W.ambient_dim != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    for i in range(g.dim):
        ei = _unit(g.dim, i)
        for w in W.basis:
            if not W.contains(g.bracket_vec(ei, w)):
                return False, (ei, w)
    return True, None


def restrict_to_subalgebra(g: LieAlgebra, W: Subspace):
    """Lie algebra structure on a subalgebra in its RREF basis.

    Returns (algebra, basis_vectors); basis_vectors[i] is the ambient vector
    realizing the i-th basis element.
    """
    ok, witness = is_subalgebra(g, W)
    if not ok:
        raise NotSubalgebra(witness)
    basis = list(W.rref_rows)
    k = len(basis)
    sub = Subspace(g.dim, basis)
    c = [[[0] * k for _ in range(k)] for _ in range(k)]
    for a in range(k):
        for b in range(k):
            br = g.bracket_vec(basis[a], basis[b])
            coords = sub.coords(br)
            for t, v in enumerate(coords):
                c[a][b][t] = v
    return LieAlgebra(k, c), basis


@dataclass
class Quotient:
    """A quotient Lie algebra with its projection and a chosen linear section."""

    algebra: LieAlgebra
    projection: Matrix
    section: Matrix
    complement: tuple


def quotient(h: LieAlgebra, W: Subspace) -> Quotient:
    """Quotient of h by an ideal W, on the complement of W's pivot columns.

    The complement basis is deterministic: the standard basis vectors at the
    lowest indices not already pivotal for W.
    """
    ok, witness = is_ideal(h, W)
    if not ok:
        raise NotIdeal(witness)
    d = h.dim
    comp = tuple(i for i in range(d) if i not in W.pivots)
    k = len(comp)
    proj_rows = []
    for ci in comp:
        row = [0] * d
        # pi(x) reads the complement coordinates of x reduced modulo W
        for j in range(d):
            row[j] = W.reduce(_unit(d, j))[ci]
        proj_rows.append(row)
    projection = Matrix(proj_rows) if k else Matrix([], cols=d)
    section = Matrix.from_cols([_unit(d, ci) for ci in comp]) \
        if k else Matrix([()] * d, cols=0)
    c = [[[0] * k for _ in range(k)] for _ in range(k)]
    for a in range(k):
        for b in range(k):
            br = h.bracket_vec(section.col(a), section.col(b))
            pr = projection.apply(br)
            for t, v in enumerate(pr):
                c[a][b][t] = v
    alg = LieAlgebra(k, c)
    # W is an ideal, so the projection is a homomorphism
    for i in range(d):
        for j in range(i + 1, d):
            ei, ej = _unit(d, i), _unit(d, j)
            oracle("quotient", projection.apply(h.bracket_vec(ei, ej)),
                   alg.bracket_vec(projection.apply(ei), projection.apply(ej)),
                   "projection is not a homomorphism on pair ({i}, {j})", i=i, j=j)
    return Quotient(alg, projection, section, comp)


def annihilator(rep: Representation, X: Subspace) -> Subspace:
    """{n in M : x • n = 0 for all x in X}."""
    if X.ambient_dim != rep.algebra.dim:
        raise DimensionMismatch("annihilator expects a subspace of the algebra")
    if X.dim() == 0 or rep.dim_m == 0:
        return Subspace.full(rep.dim_m)
    stacked = rep.rho(X.basis[0])
    for x in X.basis[1:]:
        stacked = stacked.vstack(rep.rho(x))
    return Subspace(rep.dim_m, kernel(stacked))


def intersect(W1: Subspace, W2: Subspace) -> Subspace:
    """Exact intersection, computed from the kernel of [B1 | -B2]."""
    if W1.ambient_dim != W2.ambient_dim:
        raise DimensionMismatch("intersection of subspaces of different spaces")
    if W1.dim() == 0 or W2.dim() == 0:
        return Subspace.zero(W1.ambient_dim)
    A = W1.matrix().hstack((-W2.matrix()))
    vecs = []
    for kv in kernel(A):
        coeffs = kv[:W1.dim()]
        v = vec_zero(W1.ambient_dim)
        for cfc, bvec in zip(coeffs, W1.basis):
            if cfc:
                v = vec_add(v, vec_scale(cfc, bvec))
        vecs.append(v)
    return Subspace.span(W1.ambient_dim, vecs)


def graph_subspace(T: Matrix) -> Subspace:
    """Graph {(T m, m)} inside the (target + source)-dimensional space."""
    rows, cols = T.shape()
    return Subspace(rows + cols, [T.col(b) + _unit(cols, b) for b in range(cols)])


def direct_sum_map(A: Matrix, B: Matrix) -> Matrix:
    """Block diagonal map A (+) B."""
    n1, m1 = A.shape()
    n2, m2 = B.shape()
    rows = []
    for i in range(n1):
        rows.append(A.row(i) + vec_zero(m2))
    for i in range(n2):
        rows.append(vec_zero(m1) + B.row(i))
    return Matrix(rows, cols=m1 + m2)


def check_complementary(total_dim, A: Subspace, B: Subspace):
    if A.ambient_dim != total_dim or B.ambient_dim != total_dim:
        raise DimensionMismatch("subspace ambient mismatch")
    if A.dim() + B.dim() != total_dim:
        raise NotComplementary("dimensions do not add up to the total space")
    M = Matrix(list(A.basis) + list(B.basis))
    if rank(M) != total_dim:
        raise NotComplementary("subspaces are not independent")
