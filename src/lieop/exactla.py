"""Exact linear algebra over the rationals.

Scalars are Python ints or ``fractions.Fraction`` in lowest terms; the two mix
freely and integer values are kept as ints so the common all-integer paths stay
fast.  Everything is immutable after construction and all functions are pure.
Matrices are stored dense, but `Matrix.apply` and matrix products skip zeros:
they walk the nonzero `(index, value)` pairs of each column or row, built on
first use.  Row reduction keeps its rows as {column: value} maps and reaches
the rows to clear through a column index, so it touches only nonzeros; the
RREF is unique, so outputs are reproducible byte for byte.  Integer strings
parse straight through `int`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, Singular, WorkspaceError


def q(x):
    """Normalize a scalar: Fractions with denominator 1 become ints."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"not an exact scalar: {x!r}")


def parse_scalar(s):
    """Parse "p" or "p/q" (or an int) into an exact scalar; floats and bools are refused."""
    if type(s) is bool or isinstance(s, float):
        raise WorkspaceError(f"scalar {s!r} is not an integer or a \"p/q\" string")
    if isinstance(s, int):
        return s
    if type(s) is str and s.isascii() and (s[1:] if s[:1] == "-" else s).isdecimal():
        return int(s)
    try:
        return q(Fraction(str(s)))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar {s!r}") from None


def scalar_str(x) -> str:
    """Serialize a scalar as "p" or "p/q"."""
    return str(q(x))


def vec(values):
    return tuple(q(v) for v in values)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(q(c * a) for a in u)


def vec_zero(n):
    return (0,) * n


def is_zero_vec(u) -> bool:
    return all(a == 0 for a in u)


class Matrix:
    """Immutable dense matrix with exact rational entries (row-major)."""

    # _srows/_scols cache sparse_rows()/sparse_cols(), built on first use
    __slots__ = ("rows", "cols", "entries", "_srows", "_scols")

    def __init__(self, entries, cols=None):
        rows = tuple(tuple(q(x) for x in row) for row in entries)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (cols or 0)
        for row in rows:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")
        self.entries = rows
        self._srows = self._scols = None

    @staticmethod
    def zeros(rows, cols=None):
        cols = rows if cols is None else cols
        return Matrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n):
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols):
        if not cols:
            return Matrix([])
        if len(cols[0]) == 0:
            return Matrix([], cols=len(cols))
        return Matrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    @staticmethod
    def diag(values):
        n = len(values)
        return Matrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def shape(self):
        return (self.rows, self.cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]})"

    def __add__(self, other):
        self._same_shape(other)
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.entries])

    def scale(self, c):
        c = q(c)
        return Matrix([[c * a for a in r] for r in self.entries])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape()} * {other.shape()}")
            right = other.sparse_rows()
            out = []
            for row in self.entries:
                acc = [0] * other.cols
                for k, a in enumerate(row):
                    if a:
                        for j, b in right[k]:
                            acc[j] += a * b
                out.append(acc)
            return Matrix(out, cols=other.cols)
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def apply(self, v):
        """Matrix times column vector, returned as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"{self.shape()} applied to vector of length {len(v)}")
        out = [0] * self.rows
        scols = self.sparse_cols()
        for k, x in enumerate(v):
            if x:
                for i, a in scols[k]:
                    out[i] += a * x
        return tuple(out)

    def sparse_rows(self):
        """Per row, the tuple of its nonzero (column, value) pairs."""
        if self._srows is None:
            self._srows = _nonzeros(self.entries)
        return self._srows

    def sparse_cols(self):
        """Per column, the tuple of its nonzero (row, value) pairs."""
        if self._scols is None:
            self._scols = _nonzeros(self.col(j) for j in range(self.cols))
        return self._scols

    def transpose(self):
        if self.rows == 0:
            return Matrix([()] * self.cols, cols=0)
        if self.cols == 0:
            return Matrix([], cols=self.rows)
        return Matrix(list(zip(*self.entries)))

    def is_zero(self) -> bool:
        return all(a == 0 for r in self.entries for a in r)

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self.entries[i][j] == -self.entries[j][i]
                   for i in range(self.rows) for j in range(i, self.cols))

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix([r1 + r2 for r1, r2 in zip(self.entries, other.entries)])

    def vstack(self, other):
        if self.cols != other.cols:
            raise DimensionMismatch("vstack col mismatch")
        return Matrix(self.entries + other.entries)

    def _same_shape(self, other):
        if self.shape() != other.shape():
            raise DimensionMismatch(f"{self.shape()} vs {other.shape()}")


def _nonzeros(lines):
    return tuple(tuple((k, a) for k, a in enumerate(line) if a) for line in lines)


def rref(rows):
    """Reduced row echelon form of a list of row tuples; see `rref_maps`."""
    return rref_maps([{k: x for k, x in enumerate(row) if x != 0} for row in rows],
                     len(rows[0]) if rows else 0)


def rref_maps(rows, ncols):
    """Reduced row echelon form of rows given as {column: nonzero value} maps.

    Returns (rows, pivot_columns): dense tuples in pivot-column order,
    with zero rows dropped.  Beside the maps it keeps an index from each
    column to the rows that have it.  For each column in turn the pivot is
    the unpivoted row with the fewest nonzeros, the lowest row index on ties,
    and the column is cleared through the index from every other row, pivoted
    or not.  The RREF of a row space is unique, so the pivot choice never
    shows in the result.
    """
    m = [dict(row) for row in rows]
    at = [set() for _ in range(ncols)]  # column -> rows with a nonzero there
    for i, row in enumerate(m):
        for k in row:
            at[k].add(i)
    pivots, order, done = [], [], set()
    for c in range(ncols):
        live = [i for i in at[c] if i not in done]
        if not live:
            continue
        r = min(live, key=lambda i: (len(m[i]), i))
        row = m[r]
        p = row[c]
        if p != 1:
            for k, x in row.items():
                row[k] = q(Fraction(x) / p)
        for i in list(at[c]):
            if i == r:
                continue
            other = m[i]
            f = other[c]
            for k, b in row.items():
                x = q(other.get(k, 0) - f * b)
                if x:
                    other[k] = x
                    at[k].add(i)
                else:
                    del other[k]
                    at[k].discard(i)
        pivots.append(c)
        order.append(r)
        done.add(r)
        if len(done) == len(m):
            break
    out = []
    for r in order:
        dense = [0] * ncols
        for k, x in m[r].items():
            dense[k] = q(x)
        out.append(tuple(dense))
    return out, pivots


def _kernel_from_rref(red, pivots, n):
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = q(-red[r][f])
        basis.append(tuple(v))
    return basis


def kernel(A: Matrix):
    """Basis of {v : A v = 0}, deterministic, possibly empty."""
    red, pivots = rref(A.entries) if A.rows else ([], [])
    return _kernel_from_rref(red, pivots, A.cols)


def rank(A: Matrix) -> int:
    if A.rows == 0 or A.cols == 0:
        return 0
    return len(rref(A.entries)[0])


def invert(A: Matrix) -> Matrix:
    """Exact inverse; raises Singular when the kernel is nontrivial."""
    if A.rows != A.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = A.rows
    aug = [A.row(i) + tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise Singular("matrix has nontrivial kernel")
    return Matrix([row[n:] for row in red])


def column_space_equal(A: Matrix, B: Matrix) -> bool:
    """Whether two matrices (same row count) have the same column span."""
    ra = rank(A)
    rb = rank(B)
    if ra != rb:
        return False
    return rank(A.hstack(B)) == ra
