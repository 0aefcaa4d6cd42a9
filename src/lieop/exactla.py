"""Exact linear algebra over the rationals.

Scalars are Python ints or ``fractions.Fraction`` in lowest terms; the two mix
freely and integer values are kept as ints so the common all-integer paths stay
fast.  Everything is immutable after construction and all functions are pure.
A sparse row is canonical: its nonzero `(index, value)` pairs, indices
ascending, values normalised by `q`; two rows are equal exactly when the
vectors are.  A `Matrix` stores only its shape and its canonical sparse
columns, built in one pass over the input; every operation reads and writes
columns, so matrix equality is column equality.  Its dense rows (`entries`)
and its sparse rows are views, built on first read and kept.  Row reduction
keeps its rows as {column: value} maps and reaches the rows to clear through a
column index, so it touches only nonzeros; the RREF is unique, so outputs are
reproducible byte for byte.  Integer strings parse straight through `int`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, Singular, WorkspaceError


def q(x):
    """Normalize a scalar: Fractions with denominator 1 become ints; a bool is
    not a scalar."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int) and type(x) is not bool:
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


def _nonzero(v):
    """The canonical row of a vector: its nonzero (k, q(v_k)) pairs."""
    return tuple((k, q(x)) for k, x in enumerate(v) if x)


def _row(acc):
    """The canonical row of a {coordinate: value} accumulator."""
    return tuple((k, q(acc[k])) for k in sorted(acc) if acc[k])


def _neg(row):
    return tuple((k, -v) for k, v in row) if row else row


def _combine(a, f, b):
    """The canonical row of a + f b, for rows a and b."""
    acc = dict(a)
    for k, v in b:
        acc[k] = acc.get(k, 0) + f * v
    return _row(acc)


def _add_rows(acc, scale, pairs, rows):
    """acc += scale * sum of v * rows[l] over the (l, v) in pairs; rows are
    sparse.  An empty rows[l] is skipped and a unit scale is not multiplied
    in, so the work follows the nonzeros.  Returns acc."""
    unit = scale == 1
    for l, v in pairs:
        row = rows[l]
        if row:
            f = v if unit else scale * v
            for k, w in row:
                acc[k] = acc.get(k, 0) + f * w
    return acc


def _dense(acc, n):
    """The length-n vector of a {coordinate: value} accumulator, normalised."""
    out = [0] * n
    for k, v in acc.items():
        out[k] = q(v)
    return tuple(out)


def dense_rows(cols, n):
    """The dense rows of the n-row matrix with sparse columns `cols`."""
    out = [[0] * len(cols) for _ in range(n)]
    for j, col in enumerate(cols):
        for i, v in col:
            out[i][j] = v
    return tuple(map(tuple, out))


def transpose_rows(cols, n):
    """The sparse rows of the n-row matrix with sparse columns `cols`:
    out[t] holds the (r, v) with (t, v) in cols[r], r ascending."""
    out = [[] for _ in range(n)]
    for r, col in enumerate(cols):
        for t, v in col:
            out[t].append((r, v))
    return tuple(map(tuple, out))


class Matrix:
    """Immutable matrix with exact rational entries, stored as its canonical
    sparse columns: per column the nonzero (row, value) pairs, rows ascending.
    The dense rows `entries` and the sparse rows are views, built on first read.
    `cols` is the width of a matrix given no rows; given rows must have it."""

    __slots__ = ("rows", "cols", "_scols", "_entries", "_srows")

    def __init__(self, entries, cols=None):
        scols, i = None, -1
        for i, row in enumerate(entries):
            if scols is None:
                if cols is not None and len(row) != cols:
                    raise DimensionMismatch(f"row of length {len(row)}, wanted {cols} columns")
                scols = [[] for _ in row]
            elif len(row) != len(scols):
                raise DimensionMismatch("ragged rows")
            for j, x in enumerate(row):
                if type(x) is not int:
                    x = q(x)
                if x:
                    scols[j].append((i, x))
        if scols is None:
            scols = [()] * (cols or 0)
        self._set(i + 1, len(scols), tuple(map(tuple, scols)))

    def _set(self, rows, cols, scols):
        self.rows, self.cols, self._scols = rows, cols, scols
        self._entries = self._srows = None
        return self

    @staticmethod
    def _of(rows, cols, scols):
        """The rows x cols matrix with the canonical sparse columns scols."""
        return Matrix.__new__(Matrix)._set(rows, cols, scols)

    @staticmethod
    def zeros(rows, cols=None):
        cols = rows if cols is None else cols
        return Matrix._of(rows, cols, ((),) * cols)

    @staticmethod
    def identity(n):
        return Matrix._of(n, n, tuple(((i, 1),) for i in range(n)))

    @staticmethod
    def from_cols(cols):
        n = len(cols[0]) if cols else 0
        if any(len(c) != n for c in cols):
            raise DimensionMismatch("ragged columns")
        return Matrix._of(n, len(cols), tuple(map(_nonzero, cols)))

    @staticmethod
    def diag(values):
        return Matrix._of(len(values), len(values),
                          tuple(((i, x),) if x else () for i, x in enumerate(map(q, values))))

    def shape(self):
        return (self.rows, self.cols)

    @property
    def entries(self):
        """The dense rows, a view built on first read."""
        if self._entries is None:
            self._entries = dense_rows(self._scols, self.rows)
        return self._entries

    def __getitem__(self, ij):
        i, j = ij
        return self.col(j)[i]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return _dense(dict(self._scols[j]), self.rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.shape() == other.shape() \
            and self._scols == other._scols

    def __hash__(self):
        return hash((self.rows, self.cols, self._scols))

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]})"

    def __add__(self, other):
        self._same_shape(other)
        return self._like(map(_combine, self._scols, (1,) * self.cols, other._scols))

    def __sub__(self, other):
        self._same_shape(other)
        return self._like(map(_combine, self._scols, (-1,) * self.cols, other._scols))

    def __neg__(self):
        return self._like(map(_neg, self._scols))

    def scale(self, c):
        c = q(c)
        return self._like(tuple((i, q(c * a)) for i, a in col) if c else ()
                          for col in self._scols)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.shape()} * {other.shape()}")
            a = self._scols
            return Matrix._of(self.rows, other.cols,
                              tuple(_row(_add_rows({}, 1, col, a)) for col in other._scols))
        return self.scale(other)

    def __rmul__(self, c):
        return self.scale(c)

    def apply(self, v):
        """Matrix times column vector, returned as a tuple."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"{self.shape()} applied to vector of length {len(v)}")
        out = [0] * self.rows
        for col, x in zip(self._scols, v):
            if x:
                for i, a in col:
                    out[i] += a * x
        return tuple(out)

    def sparse_rows(self):
        """Per row, the tuple of its nonzero (column, value) pairs, a view
        built on first read."""
        if self._srows is None:
            self._srows = transpose_rows(self._scols, self.rows)
        return self._srows

    def sparse_cols(self):
        """Per column, the tuple of its nonzero (row, value) pairs: the stored form."""
        return self._scols

    def transpose(self):
        return Matrix._of(self.cols, self.rows, self.sparse_rows())

    def is_zero(self) -> bool:
        return not any(self._scols)

    def is_antisymmetric(self) -> bool:
        return self.rows == self.cols and self._scols == tuple(map(_neg, self.sparse_rows()))

    def hstack(self, other):
        if self.rows != other.rows:
            raise DimensionMismatch("hstack row mismatch")
        return Matrix._of(self.rows, self.cols + other.cols, self._scols + other._scols)

    def _like(self, scols):
        return Matrix._of(self.rows, self.cols, tuple(scols))

    def _same_shape(self, other):
        if self.shape() != other.shape():
            raise DimensionMismatch(f"{self.shape()} vs {other.shape()}")


def rref(rows):
    """Reduced row echelon form of a list of row tuples; see `rref_maps`."""
    return rref_maps([{k: x for k, x in enumerate(row) if x != 0} for row in rows],
                     len(rows[0]) if rows else 0)


def rref_maps(rows, ncols):
    """Reduced row echelon form of rows given as {column: nonzero value} maps
    or as their (column, value) pairs.

    Returns (rows, pivot_columns): dense tuples in pivot-column order,
    with zero rows dropped.  Beside the maps it keeps an index from each
    column to the rows that have it.  For each column in turn the pivot is
    the unpivoted row with the fewest nonzeros, the lowest row index on ties,
    and the column is cleared through the index from every other row, pivoted
    or not.  A pivot row is divided by its pivot without a Fraction when it
    can be: negated for -1, by integer division when the pivot divides every
    entry.  The RREF of a row space is unique, so the pivot choice never
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
        if p == -1:
            for k, x in row.items():
                row[k] = -x
        elif p != 1:
            exact = type(p) is int and all(type(x) is int and not x % p for x in row.values())
            for k, x in row.items():
                row[k] = x // p if exact else q(Fraction(x) / p)
        for i in list(at[c]):
            if i == r:
                continue
            other = m[i]
            f = other[c]
            for k, b in row.items():
                x = other.get(k, 0) - f * b
                if x:
                    other[k] = x if type(x) is int else q(x)
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
    free = sorted(set(range(n)).difference(pivots))
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
    return _kernel_from_rref(*rref_maps(A.sparse_rows(), A.cols), A.cols)


def invert(A: Matrix) -> Matrix:
    """Exact inverse; raises Singular when the kernel is nontrivial."""
    if A.rows != A.cols:
        raise DimensionMismatch("inverse of a non-square matrix")
    n = A.rows
    red, pivots = rref_maps([r + ((n + i, 1),) for i, r in enumerate(A.sparse_rows())], 2 * n)
    if pivots[:n] != list(range(n)):
        raise Singular("matrix has nontrivial kernel")
    return Matrix([row[n:] for row in red])
