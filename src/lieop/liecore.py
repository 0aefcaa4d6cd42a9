"""Lie algebras, their modules, and the structural constructions on them.

Everything is finite dimensional over the exact rationals.  A Lie algebra is
stored only as the sparse rows s[i][j] of its structure constants, the
nonzero (k, value) pairs of [e_i, e_j]; a module only as the sparse rows
s[i][b] of its action, the pairs of e_i . f_b, and the same rows by module
basis vector, by_col[b][i] = s[i][b].  Rows are canonical: coordinates ascend,
values are normalised by q and zeros are dropped, so two tensors are equal
exactly when their rows are.  The dense views (`LieAlgebra.c`,
`Representation.t` and `Representation.action`) are computed from the rows on
each read, for serialisation and tests.  Every derived algebra and module is
built from rows: `block_rows` glues two algebras acting on each other (the
semi-direct product, the twilled algebra, the lifted deformation), `adjoint`
reuses the algebra's rows, `dual_rep` transposes them, and a subalgebra, a
quotient, a twilled splitting and a reduction read theirs through `transport`.
The identities quadratic in a bracket read one pass, `cyclic_sums`, that adds
each nonzero path of the cyclic form C(a, b) once into its triple: C(s, s) is
the Jacobiator (a module's is that of g + M, which `semidirect` builds on first
read), C(a, b) + C(b, a) the mixed term of compatible brackets, Nijenhuis towers
and module deformations, and `first_defect` the least failing triple.
Every map that preserves a bilinear map is checked by one morphism form,
`morphism_defect`.  Validators read rows only and walk the triples or pairs a
nonzero constant reaches, and an algebra glued from validated blocks (a
module's g + M, `twilled.join`) builds and walks only those that meet both.
Five carriers a theorem makes valid walk nothing (`_by_theorem`): `adjoint`,
`dual_rep`, `trivial_rep`, `twilled.twilled_new` and `twilled.swap`; a
subalgebra or quotient of checked inputs goes through `errors.theorem`.  A
`Subspace` stores one basis, its RREF rows.  Membership in it is read off one
map, `residual()`, which every closure check walks (`_first_outside`), and two
images are equal exactly when their RREF bases are.
"""

from __future__ import annotations

from itertools import combinations, product

from .errors import (
    DimensionMismatch, JacobiViolation, NotComplementary, NotIdeal,
    NotSubalgebra, RepViolation, Singular, SkewViolation, oracle, theorem,
)
from .exactla import (
    Matrix, _add_rows, _combine, _dense, _kernel_from_rref, _neg, _nonzero, _row, invert,
    _rref_sparse, kernel, rref, transpose_rows, vec,
)


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def _units(n):
    return [_unit(n, u) for u in range(n)]


def sparse(t):
    """s[a][b] = the nonzero (k, v) pairs of the vector t[a][b], canonical."""
    return tuple(tuple(_nonzero(tab) for tab in ta) for ta in t)


def sparse_cube(dim, t, what):
    """sparse(t) for a dim x dim x dim tensor t; any other shape is refused."""
    if len(t) != dim or any(len(ta) != dim or any(len(v) != dim for v in ta) for ta in t):
        raise DimensionMismatch(f"{what} tensor is not dim^3")
    return sparse(t)


def dense(s, n):
    """The tensor t of s = sparse(t), each entry a length-n vector."""
    return tuple(tuple(_dense(dict(sab), n) for sab in sa) for sa in s)


def morphism_defect(dst, A, B, C, src, pairs):
    """First (i, j, dst(Ae_i, Be_j) - C src(e_i, e_j)) that is nonzero over the
    basis pairs (i, j), or None.

    This is the one morphism form: C maps src onto dst along A and B.  dst is a
    sparse tensor, A, B and C are read through their sparse columns, and
    src(i, j) returns the (k, v) pairs of src(e_i, e_j), so a source computed
    per pair is only computed up to the first failing one.
    """
    a, b, c = A.sparse_cols(), B.sparse_cols(), C.sparse_cols()
    for i, j in pairs:
        acc = {}
        for k, v in a[i]:
            _add_rows(acc, v, b[j], dst[k])
        _add_rows(acc, -1, src(i, j), c)
        if any(acc.values()):
            return i, j, _dense(acc, C.rows)
    return None


def transport(s, A, B, P):
    """The canonical rows of P s(Ae_a, Be_c) over the columns a of A and c of B:
    the one change of basis, a bracket or an action s read on the vectors the
    columns of A and B give and each value read in the new basis by P, the map
    `morphism_defect` checks.  A, B and P are read through their sparse columns."""
    a, b, p = A.sparse_cols(), B.sparse_cols(), P.sparse_cols()
    out = []
    for col in a:
        row = []
        for bc in b:
            acc = {}
            for k, v in col:
                _add_rows(acc, v, bc, s[k])
            row.append(_row(_add_rows({}, 1, _row(acc), p)))
        out.append(tuple(row))
    return tuple(out)


def cyclic_sums(a, b, split=0, sums=None):
    """C(a, b) as {(i, j, k): {t: value}} on the triples i < j < k a term
    a(e_u, b(e_v, e_w)) reaches, summed over the cyclic orders (u, v, w); C(s, s)
    is the Jacobiator, and two passes into one `sums` give C(a, b) + C(b, a).
    Each nonzero path (v < w, (l, c) in b[v][w], u with a[u][l] nonzero) adds
    c a[u][l] to its sorted triple, negated when v < u < w as b must be skew, so
    every other triple vanishes.  split > 0 keeps only i < split <= k."""
    sums = {} if sums is None else sums
    reach = [[(u, au[l]) for u, au in enumerate(a) if au[l]] for l in range(len(a))]
    for v, bv in enumerate(b):
        for w in range(v + 1, len(b)):
            for l, c in bv[w]:
                for u, row in reach[l]:
                    if u == v or u == w:
                        continue
                    key, f = (((u, v, w), c) if u < v else ((v, u, w), -c) if u < w
                              else ((v, w, u), c))
                    if split and not key[0] < split <= key[2]:
                        continue
                    acc = sums.setdefault(key, {})
                    for t, x in row:
                        acc[t] = acc.get(t, 0) + f * x
    return sums


def first_defect(sums, keep=None):
    """The least triple of `cyclic_sums` whose sum is nonzero (among those keep
    accepts), or None: the first failure of a walk over the sorted triples."""
    return min(filter(keep, [t for t, acc in sums.items() if any(acc.values())]), default=None)


def contract(s, n, x, y):
    """sum_{a,b} x_a y_b t[a][b] as a length-n vector, for s = sparse(t).

    The bilinear kernel of `bracket_vec` and `act`, which evaluate a bracket
    or an action on coordinate vectors: t is a structure tensor
    c[a][b] = [e_a, e_b], an action tensor t[a][b] = e_a . f_b or a product
    tensor.  Only the nonzero entries of x, y and t are visited, and only the
    output coordinates they reach are normalised with q.
    """
    ys = [(b, yb) for b, yb in enumerate(y) if yb]
    acc = {}
    for a, xa in enumerate(x):
        if xa:
            _add_rows(acc, xa, ys, s[a])
    return _dense(acc, n)


def zero_rows(p, r):
    """The rows of the zero p x r tensor."""
    return (((),) * r,) * p


def block_rows(sa, sb, s1, s2):
    """The canonical rows of the bracket on a + b (a first) with
    [x, u] = x .1 u - u .2 x.

    sa and sb are the rows of the brackets of a and b, s1[x][u] = x .1 u and
    s2[u][x] = u .2 x the rows of the actions of each on the other; the inverse
    of splitting a twilled algebra into its blocks.  Rows of canonical inputs
    stay canonical: the a coordinates come before the shifted b ones.
    """
    da, db = len(sa), len(sb)

    def shift(row):
        return tuple((da + k, v) for k, v in row) if row else row

    top = tuple(sa[i] + tuple(_neg(s2[u][i]) + shift(s1[i][u]) for u in range(db))
                for i in range(da))
    return top + tuple(tuple(_neg(top[i][da + u]) for i in range(da)) + tuple(map(shift, sb[u]))
                       for u in range(db))


def action_matrices(s, m):
    """One m x m Matrix per basis vector, with sparse columns s[i]."""
    return tuple(Matrix._of(m, m, cols) for cols in s)


class LieAlgebra:
    """A Lie algebra given by its structure constants, validated on
    construction and stored as the canonical sparse rows `s`."""

    __slots__ = ("dim", "s", "_adjoint")

    def __init__(self, dim, bracket):
        self._set(dim, sparse_cube(dim, bracket, "bracket"))._validate()

    def _set(self, dim, s):
        self.dim = dim
        self.s = s
        self._adjoint = None
        return self

    @classmethod
    def from_rows(cls, dim, s):
        """The algebra with the canonical rows s, validated like any other."""
        return cls._walked(0, dim, s)

    @classmethod
    def _walked(cls, split, dim, s):
        g = cls.__new__(cls)._set(dim, s)
        g._validate(split)
        return g

    @classmethod
    def _by_theorem(cls, dim, s):
        """The algebra with the canonical rows s, Lie by a theorem; it walks nothing."""
        return cls.__new__(cls)._set(dim, s)

    @staticmethod
    def from_brackets(dim, entries):
        """Build from sparse {(i, j): coefficient vector} with i < j.

        The j < i values are filled in by skew symmetry.
        """
        s = [[()] * dim for _ in range(dim)]
        for (i, j), v in entries.items():
            if not 0 <= i < j < dim:
                raise DimensionMismatch(f"bad bracket index pair ({i}, {j})")
            if len(v) != dim:
                raise DimensionMismatch("bracket tensor is not dim^3")
            s[i][j] = _nonzero(v)
            s[j][i] = _neg(s[i][j])
        return LieAlgebra.from_rows(dim, tuple(map(tuple, s)))

    @property
    def c(self):
        """The dense structure tensor c[i][j] = [e_i, e_j], built on each read."""
        return dense(self.s, self.dim)

    def _validate(self, split=0):
        """Skew symmetry, then Jacobi on the reached triples, the least failing one
        with its sum.  split > 0 marks block_rows of two validated algebras."""
        d, s = self.dim, self.s
        for i in range(0 if split else d):
            for j in range(i, d):
                if s[i][j] != _neg(s[j][i]):
                    raise SkewViolation(i, j, _combine(s[i][j], 1, s[j][i])[0][0])
        sums = cyclic_sums(s, s, split)
        bad = first_defect(sums)
        if bad is not None:
            raise JacobiViolation(*bad, _dense(sums[bad], d))

    def bracket_vec(self, x, y):
        """[x, y] for coordinate vectors x, y."""
        return contract(self.s, self.dim, x, y)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim})"


class Representation:
    """A Lie algebra action on a module, stored as the canonical sparse rows
    s[a][b] of e_a . f_b (the format of LieAlgebra.s) and the same rows by
    module basis vector, by_col[b][a] = s[a][b].  The public constructor takes
    one action matrix per basis vector."""

    __slots__ = ("algebra", "dim_m", "s", "by_col", "_semidirect", "_dual", "_reach", "_gcs")

    def __init__(self, algebra: LieAlgebra, dim_m, action):
        mats = tuple(a if isinstance(a, Matrix) else Matrix(a) for a in action)
        if len(mats) != algebra.dim:
            raise DimensionMismatch("one action matrix per algebra basis vector required")
        for a in mats:
            if a.shape() != (dim_m, dim_m):
                raise DimensionMismatch("action matrix shape mismatch")
        self._set(algebra, dim_m, tuple(a.sparse_cols() for a in mats))._validate()

    def _set(self, algebra, dim_m, s):
        self.algebra = algebra
        self.dim_m = dim_m
        self.s = s
        self.by_col = tuple(tuple(sa[b] for sa in s) for b in range(dim_m))
        self._dual = self._semidirect = self._reach = None
        # the last (N, T, sigma) prefix of each GCS route, kept by gcsholo._prefix
        self._gcs = {}
        return self

    @classmethod
    def from_rows(cls, algebra: LieAlgebra, dim_m, s):
        """The module with the canonical action rows s, validated like any other."""
        rep = cls.__new__(cls)._set(algebra, dim_m, s)
        rep._validate()
        return rep

    @classmethod
    def _by_theorem(cls, algebra: LieAlgebra, dim_m, s):
        """The module with the canonical rows s by a theorem; it walks nothing."""
        return cls.__new__(cls)._set(algebra, dim_m, s)

    @property
    def t(self):
        """The dense action tensor t[a][b] = e_a . f_b, built on each read."""
        return dense(self.s, self.dim_m)

    @property
    def action(self):
        """One action matrix per basis vector, built on each read."""
        return action_matrices(self.s, self.dim_m)

    def _validate(self):
        """M is a module exactly when g + M is Lie; only a triple
        (e_i, e_j, f_b) can fail, reported on the pair (i, j) with the defect
        rho_i rho_j - rho_j rho_i - rho([e_i, e_j]), the Jacobiators by column b."""
        d, m, sd = self.algebra.dim, self.dim_m, semidirect(self).s
        sums = cyclic_sums(sd, sd, d)
        bad = first_defect(sums)
        if bad is not None:
            raise RepViolation(*bad[:2], Matrix.from_cols(
                [_dense(sums.get((*bad[:2], d + b), {}), d + m)[d:] for b in range(m)]))

    def rho(self, x) -> Matrix:
        """Matrix of the action of the algebra element with coordinates x:
        column b is the sum of x_i (e_i . f_b)."""
        xs = [(i, xi) for i, xi in enumerate(x) if xi]
        return Matrix._of(self.dim_m, self.dim_m,
                          tuple(_row(_add_rows({}, 1, xs, rows)) for rows in self.by_col))

    def act(self, x, m):
        """x • m for coordinate vectors."""
        return contract(self.s, self.dim_m, x, m)

    def __repr__(self):
        return f"Representation(dim_g={self.algebra.dim}, dim_m={self.dim_m})"


def adjoint(g: LieAlgebra) -> Representation:
    """ad_x = [x, -], the rows of g as they are: a module since g is Jacobi."""
    if g._adjoint is None:
        g._adjoint = Representation._by_theorem(g, g.dim, g.s)
    return g._adjoint


def dual_rep(rep: Representation) -> Representation:
    """Dual module: <x • a, m> = -<a, x • m>, so matrices are -rho^T."""
    if rep._dual is None:
        m = rep.dim_m
        rep._dual = Representation._by_theorem(
            rep.algebra, m, tuple(tuple(_neg(row) for row in transpose_rows(sa, m))
                                  for sa in rep.s))
    return rep._dual


def coadjoint(g: LieAlgebra) -> Representation:
    return dual_rep(adjoint(g))


def trivial_rep(g: LieAlgebra, dim_m) -> Representation:
    return Representation._by_theorem(g, dim_m, zero_rows(g.dim, dim_m))


def semidirect(rep: Representation) -> LieAlgebra:
    """Semi-direct product on g + M: [(x,m),(y,n)] = ([x,y], x•n - y•m), built
    on first read and kept by the module."""
    if rep._semidirect is None:
        g, m = rep.algebra, rep.dim_m
        rep._semidirect = LieAlgebra.__new__(LieAlgebra)._set(g.dim + m, block_rows(
            g.s, zero_rows(m, m), rep.s, zero_rows(m, g.dim)))
    return rep._semidirect


class Subspace:
    """Subspace of a coordinate space, stored as the RREF rows `basis` of the
    vectors it is given, row-reduced once, and their pivot columns `pivots`;
    `Subspace(n, vs)` refuses dependent vectors, `Subspace.span(n, vs)` not."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, basis):
        basis = tuple(basis)
        if len(self._span(ambient_dim, basis).basis) != len(basis):
            raise DimensionMismatch("subspace basis is linearly dependent")

    def _span(self, ambient_dim, vectors):
        vs = [vec(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vs):
            raise DimensionMismatch("basis vector length mismatch")
        rows, pivots = rref(vs) if vs else ([], [])
        self.ambient_dim, self.basis, self.pivots = ambient_dim, tuple(rows), tuple(pivots)
        return self

    @staticmethod
    def span(ambient_dim, vectors):
        """Span of arbitrary (possibly dependent) vectors."""
        return Subspace.__new__(Subspace)._span(ambient_dim, vectors)

    @staticmethod
    def full(ambient_dim):
        return Subspace(ambient_dim, _units(ambient_dim))

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, [])

    def dim(self):
        return len(self.basis)

    def pivot_rows(self) -> Matrix:
        """The map reading a vector of the subspace in the RREF basis: row t
        picks the t-th pivot coordinate."""
        return Matrix([_unit(self.ambient_dim, p) for p in self.pivots], cols=self.ambient_dim)

    def matrix(self) -> Matrix:
        """Basis vectors as columns."""
        if not self.basis:
            return Matrix([()] * self.ambient_dim, cols=0)
        return Matrix.from_cols(list(self.basis))

    def residual(self) -> Matrix:
        """I - matrix() pivot_rows(), the one membership map: it sends v to v
        minus its part in the subspace, so it is zero exactly there, and each
        nonzero row is a functional that vanishes on the subspace."""
        return Matrix.identity(self.ambient_dim) - self.matrix() * self.pivot_rows()

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f"Subspace(ambient={self.ambient_dim}, dim={self.dim()})"


def _first_outside(W: Subspace, pairs, f):
    """The first (x, y) of `pairs` with f(x, y) outside W, or None: the one
    closure walk, reading membership off one residual map of W."""
    r = W.residual()
    return next(((x, y) for x, y in pairs if any(r.apply(f(x, y)))), None)


def is_subalgebra(g: LieAlgebra, W: Subspace):
    """Whether [W, W] is contained in W; on failure also returns a witness pair."""
    if W.ambient_dim != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    witness = _first_outside(W, combinations(W.basis, 2), g.bracket_vec)
    return witness is None, witness


def is_ideal(g: LieAlgebra, W: Subspace):
    """Whether [g, W] is contained in W."""
    if W.ambient_dim != g.dim:
        raise DimensionMismatch("subspace ambient dimension mismatch")
    witness = _first_outside(W, product(_units(g.dim), W.basis), g.bracket_vec)
    return witness is None, witness


def restrict_to_subalgebra(g: LieAlgebra, W: Subspace):
    """Lie algebra structure on a subalgebra in its RREF basis: its i-th basis
    vector is W.basis[i]."""
    ok, witness = is_subalgebra(g, W)
    if not ok:
        raise NotSubalgebra(witness)
    inclusion = W.matrix()
    return theorem("subalgebra", LieAlgebra.from_rows, W.dim(),
                   transport(g.s, inclusion, inclusion, W.pivot_rows()))


class Quotient:
    """A quotient Lie algebra with its projection and a chosen linear section."""

    __slots__ = ("algebra", "projection", "section", "complement")

    def __init__(self, algebra: LieAlgebra, projection: Matrix, section: Matrix,
                 complement: tuple):
        self.algebra, self.projection = algebra, projection
        self.section, self.complement = section, complement


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
    # pi(x) reads the complement coordinates of x minus its part in W
    projection = Matrix([*map(W.residual().row, comp)], cols=d)
    section = Matrix([[int(i == ci) for ci in comp] for i in range(d)], cols=k)
    alg = theorem("quotient", LieAlgebra.from_rows, k,
                  transport(h.s, section, section, projection))
    # W is an ideal, so the projection is a homomorphism
    oracle("quotient", morphism_defect(alg.s, projection, projection, projection,
                                       lambda i, j: h.s[i][j], combinations(range(d), 2)),
           None, "projection is not a homomorphism on pair ({a[0]}, {a[1]})")
    return Quotient(alg, projection, section, comp)


def annihilator(rep: Representation, X: Subspace) -> Subspace:
    """{n in M : x • n = 0 for all x in X}: the kernel of the rho(x) of X stacked."""
    if X.ambient_dim != rep.algebra.dim:
        raise DimensionMismatch("annihilator expects a subspace of the algebra")
    if not X.basis:
        return Subspace.full(rep.dim_m)
    m = rep.dim_m
    stacked = [row for x in X.basis for row in rep.rho(x).sparse_rows()]
    return Subspace(m, _kernel_from_rref(*_rref_sparse(stacked), m))


def intersect(W1: Subspace, W2: Subspace) -> Subspace:
    """Exact intersection, computed from the kernel of [B1 | -B2]."""
    if W1.ambient_dim != W2.ambient_dim:
        raise DimensionMismatch("intersection of subspaces of different spaces")
    if W1.dim() == 0 or W2.dim() == 0:
        return Subspace.zero(W1.ambient_dim)
    B1 = W1.matrix()
    A = B1.hstack(-W2.matrix())
    return Subspace.span(W1.ambient_dim, [B1.apply(kv[:W1.dim()]) for kv in kernel(A)])


def direct_sum_map(A: Matrix, B: Matrix) -> Matrix:
    """Block diagonal map A (+) B."""
    n1, n2 = A.rows, B.rows
    return Matrix._of(n1 + n2, A.cols + B.cols, A.sparse_cols() + tuple(
        tuple((n1 + i, v) for i, v in col) for col in B.sparse_cols()))


def check_complementary(total_dim, A: Subspace, B: Subspace):
    """(P, P^-1) for P the block basis: A's basis, then B's, as columns."""
    if A.ambient_dim != total_dim or B.ambient_dim != total_dim:
        raise DimensionMismatch("subspace ambient mismatch")
    if A.dim() + B.dim() != total_dim:
        raise NotComplementary("dimensions do not add up to the total space")
    P = Matrix.from_cols(list(A.basis) + list(B.basis))
    try:
        return P, invert(P)
    except Singular:
        raise NotComplementary("subspaces are not independent") from None
