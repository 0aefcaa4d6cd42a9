import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lieop.cohomology import differential
from lieop.errors import DimensionMismatch, Singular, WorkspaceError
from lieop.exactla import (
    Matrix, _add_rows, _dense, _nonzero, invert, kernel, parse_scalar, q, rref, rref_maps,
    scalar_str,
)
from lieop.liecore import Subspace, adjoint

from test_sparse_carriers import gl


scalars = st.integers(-6, 6) | st.fractions(
    min_value=-4, max_value=4, max_denominator=5)


def matrices(rows, cols):
    return st.lists(
        st.lists(scalars, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows).map(Matrix)


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        parse_scalar("1/0")


def test_scalar_normalization():
    assert q(Fraction(4, 2)) == 2 and isinstance(q(Fraction(4, 2)), int)
    assert q(Fraction(1, 2)) == Fraction(1, 2)
    assert parse_scalar("3/6") == Fraction(1, 2)
    assert parse_scalar("-7") == -7
    assert scalar_str(Fraction(-1, 3)) == "-1/3"
    assert scalar_str(Fraction(8, 4)) == "2"


def test_a_bool_is_not_a_scalar():
    """q refuses a bool after its int and Fraction fast paths, so a Matrix
    cannot keep True as an entry and write it as "True"."""
    for x in (True, False):
        with pytest.raises(TypeError, match="not an exact scalar"):
            q(x)
        with pytest.raises(TypeError, match="not an exact scalar"):
            Matrix([[x, 0]])
    assert q(1) == 1 and Matrix([[1, 0]]).entries == ((1, 0),)


def test_a_given_width_must_match_the_rows():
    """`cols` is the width of a matrix with no rows and must match given rows."""
    assert Matrix([], cols=3).shape() == (0, 3)
    assert Matrix([[1, 2]], cols=2).shape() == (1, 2)
    for rows in ([[1, 2]], [[1, 2, 3, 4]], [[]]):
        with pytest.raises(DimensionMismatch, match="wanted 3 columns"):
            Matrix(rows, cols=3)


def test_invert_examples():
    assert invert(Matrix.identity(3)) == Matrix.identity(3)
    A = Matrix([[1, 1], [0, 1]])
    Ainv = invert(A)
    assert Ainv == Matrix([[1, -1], [0, 1]])
    assert A * Ainv == Matrix.identity(2)
    with pytest.raises(Singular):
        invert(Matrix([[1, 2], [2, 4]]))


def test_kernel_examples():
    assert len(kernel(Matrix.zeros(2))) == 2
    assert kernel(Matrix.identity(2)) == []
    ker = kernel(Matrix([[1, 2], [2, 4]]))
    assert ker == [(-2, 1)]
    A = Matrix([[1, 2], [2, 4]])
    for v in ker:
        assert A.apply(v) == (0, 0)


def test_matrix_ops():
    A = Matrix([[1, 2], [3, 4]])
    B = Matrix([[0, 1], [1, 0]])
    assert A * B == Matrix([[2, 1], [4, 3]])
    assert A + B - B == A
    assert (-A).scale(-1) == A
    assert A.transpose().transpose() == A
    assert A.apply((1, 0)) == (1, 3)
    assert Matrix([[0, 1], [-1, 0]]).is_antisymmetric()
    assert not Matrix([[0, 1], [1, 0]]).is_antisymmetric()


def test_degenerate_shapes():
    E = Matrix([], cols=3)
    assert E.shape() == (0, 3)
    assert E.transpose().shape() == (3, 0)
    assert rref_maps(E.sparse_rows(), E.cols) == ([], [])
    assert len(kernel(E)) == 3


@settings(max_examples=60, deadline=None)
@given(matrices(3, 3))
def test_inverse_roundtrip(A):
    try:
        Ainv = invert(A)
    except Singular:
        assert len(kernel(A)) > 0
        return
    assert Ainv * A == Matrix.identity(3)
    assert A * Ainv == Matrix.identity(3)


@settings(max_examples=60, deadline=None)
@given(matrices(3, 4))
def test_rank_nullity(A):
    assert len(rref_maps(A.sparse_rows(), A.cols)[1]) + len(kernel(A)) == A.cols


@settings(max_examples=40, deadline=None)
@given(matrices(3, 2), matrices(2, 2))
def test_column_space_equality(A, P):
    """An invertible P keeps the column space: the RREF of the columns' span."""
    try:
        invert(P)
    except Singular:
        return
    assert Subspace.span(3, A.transpose().entries) == Subspace.span(3, (A * P).transpose().entries)


def reference_rref(rows):
    """Plain dense Gauss-Jordan: first nonzero pivot, lowest row first."""
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return [tuple(q(x) for x in row) for row in m[:r]], pivots


# zero-heavy exact scalars, so drawn matrices have zero rows and columns
sparse_scalars = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-3, 3),
                           st.fractions(-3, 3, max_denominator=4))


@st.composite
def sparse_rows(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return [tuple(draw(st.lists(sparse_scalars, min_size=cols, max_size=cols)))
            for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(sparse_rows())
@example(rows=[])                                        # 0 x n
@example(rows=[(0, Fraction(3, 2), 0, 3)])               # 1 x n
@example(rows=[(0, 0, 0), (0, 2, 0), (0, 0, 0)])         # zero rows and columns
@example(rows=[(-1, 2, Fraction(1, 2)), (1, 1, 0)])      # pivot -1: the row is negated
@example(rows=[(2, 4, -6), (1, 0, 1)])                   # pivot 2 divides every entry
@example(rows=[(2, 3, 0), (0, 1, 1)])                    # pivot 2 does not divide 3
@example(rows=[(-2, 4, Fraction(1, 3)), (0, -1, -1)])    # pivot -2 beside a Fraction
def test_rref_matches_dense_gauss_jordan(rows):
    got = rref(rows)
    want = reference_rref(rows)
    assert repr(got) == repr(want)  # same values and the same int/Fraction types


@settings(max_examples=100, deadline=None)
@given(sparse_rows(), st.data())
def test_apply_matches_dense_row_sums(rows, data):
    cols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    A = Matrix(rows, cols=cols)
    v = tuple(data.draw(st.lists(sparse_scalars, min_size=cols, max_size=cols)))
    got = A.apply(v)
    assert got == tuple(sum(a * b for a, b in zip(row, v)) for row in A.entries)
    assert len(got) == A.rows


def reference_product(A, B):
    """A B as a plain triple sum over every index, zeros included."""
    return Matrix([[sum(A[i, k] * B[k, j] for k in range(A.cols)) for j in range(B.cols)]
                   for i in range(A.rows)], cols=B.cols)


@st.composite
def sparse_matrix_pairs(draw):
    n, k, m = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))

    def block(rows, cols):
        return Matrix([draw(st.lists(sparse_scalars, min_size=cols, max_size=cols))
                       for _ in range(rows)], cols=cols)
    return block(n, k), block(k, m)


@settings(max_examples=200, deadline=None)
@given(sparse_matrix_pairs())
@example(pair=(Matrix.zeros(2, 0), Matrix.zeros(0, 3)))  # empty inner dimension
@example(pair=(Matrix.zeros(0, 2), Matrix.zeros(2, 3)))  # no rows on the left
@example(pair=(Matrix.zeros(2, 3), Matrix.zeros(3, 0)))  # no columns on the right
def test_product_matches_dense_triple_sum(pair):
    A, B = pair
    got, want = A * B, reference_product(A, B)
    assert got.shape() == want.shape() == (A.rows, B.cols)
    assert repr(got) == repr(want)  # same values and the same int/Fraction types


def _parsed_or_error(parse, s):
    try:
        x = parse(s)
    except Exception as exc:  # the exception class is compared
        return type(exc)
    return type(x), x


@settings(max_examples=200, deadline=None)
@given(st.integers().map(str) | st.from_regex(r"-?[0-9]{1,30}", fullmatch=True))
@example(s="+1")
@example(s=" 1")
@example(s="1_000")
@example(s="-0")
@example(s="007")
@example(s="٣")  # ARABIC-INDIC DIGIT THREE
@example(s="1.5")
@example(s="-")
@example(s="--1")
@example(s="")
@example(s="1e5")
@example(s="-2.5e-3")
def test_parse_scalar_matches_fraction_parsing(s):
    assert _parsed_or_error(parse_scalar, s) == \
        _parsed_or_error(lambda t: q(Fraction(t)), s)


def test_parse_scalar_refuses_exponents_past_the_int_digit_limit():
    """A numerator or denominator of more digits than `int` reads from a
    string is refused before it is expanded; at the limit it still parses."""
    limit = sys.get_int_max_str_digits()
    assert parse_scalar(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert parse_scalar(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    for s in (f"1e{limit}", f"1e-{limit}", "1e30000000", "-2.5E-30000000", f"1.5_0e{limit - 2}"):
        with pytest.raises(WorkspaceError, match="expands past"):
            parse_scalar(s)


# --- the sparse-column Matrix against the retired dense one ------------------

def _nonzeros(lines):
    return tuple(tuple((k, a) for k, a in enumerate(line) if a) for line in lines)


class DenseMatrix:
    """The retired dense Matrix, kept as a reference: row-major tuples of
    q-normalised entries, every operation a loop over every entry."""

    def __init__(self, entries, cols=None):
        rows = tuple(tuple(q(x) for x in row) for row in entries)
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else (cols or 0)
        for row in rows:
            if len(row) != self.cols:
                raise DimensionMismatch("ragged rows")
        self.entries = rows

    def shape(self):
        return (self.rows, self.cols)

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def sparse_rows(self):
        return _nonzeros(self.entries)

    def sparse_cols(self):
        return _nonzeros(self.col(j) for j in range(self.cols))

    def __eq__(self, other):
        return self.shape() == other.shape() and self.entries == other.entries

    def __repr__(self):
        return f"Matrix({[list(r) for r in self.entries]})"

    def __add__(self, other):
        return DenseMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)], cols=self.cols)

    def __sub__(self, other):
        return DenseMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.entries, other.entries)], cols=self.cols)

    def __neg__(self):
        return DenseMatrix([[-a for a in r] for r in self.entries], cols=self.cols)

    def scale(self, c):
        return DenseMatrix([[q(c) * a for a in r] for r in self.entries], cols=self.cols)

    def __mul__(self, other):
        right = other.sparse_rows()
        out = []
        for row in self.entries:
            acc = [0] * other.cols
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        acc[j] += a * b
            out.append(acc)
        return DenseMatrix(out, cols=other.cols)

    def apply(self, v):
        out = [0] * self.rows
        scols = self.sparse_cols()
        for k, x in enumerate(v):
            if x:
                for i, a in scols[k]:
                    out[i] += a * x
        return tuple(out)

    def transpose(self):
        return DenseMatrix([self.col(j) for j in range(self.cols)], cols=self.rows)

    def is_zero(self):
        return all(a == 0 for r in self.entries for a in r)

    def is_antisymmetric(self):
        return self.rows == self.cols and all(
            self.entries[i][j] == -self.entries[j][i]
            for i in range(self.rows) for j in range(i, self.cols))

    def hstack(self, other):
        return DenseMatrix([r1 + r2 for r1, r2 in zip(self.entries, other.entries)],
                           cols=self.cols + other.cols)


def _scalar(rng):
    """Zero-heavy exact scalars, ints and Fractions, some that cancel to ints."""
    return rng.choice((0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 2)))


def _pair(rng, rows, cols):
    """(Matrix, DenseMatrix) of one seeded rows x cols draw."""
    entries = [[_scalar(rng) for _ in range(cols)] for _ in range(rows)]
    return Matrix(entries, cols=cols), DenseMatrix(entries, cols=cols)


def _agree(got, want):
    """The same shape, the same values of the same types, and the same views."""
    assert got.shape() == want.shape()
    assert repr(got) == repr(want) and got.entries == want.entries
    assert got.sparse_rows() == want.sparse_rows() and got.sparse_cols() == want.sparse_cols()
    assert got.is_zero() == want.is_zero() and got.is_antisymmetric() == want.is_antisymmetric()
    assert got == Matrix(want.entries, cols=want.cols)
    assert hash(got) == hash(Matrix(want.entries, cols=want.cols))


def test_sparse_matrix_matches_the_dense_reference():
    """Seeded int and Fraction matrices of every shape up to 5 x 5, the 0 x n
    and n x 0 ones included: each operation, each view and equality agree."""
    rng = random.Random(28)
    shapes = set()
    for _ in range(400):
        n, m, k = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        shapes.add((n, m))
        (A, dA), (B, dB) = _pair(rng, n, m), _pair(rng, n, m)
        (C, dC), (H, dH) = _pair(rng, m, k), _pair(rng, n, k)
        c = _scalar(rng)
        v = tuple(_scalar(rng) for _ in range(m))
        cases = [(A, dA), (A + B, dA + dB), (A - B, dA - dB), (-A, -dA),
                 (A.scale(c), dA.scale(c)), (c * A, dA.scale(c)), (A * C, dA * dC),
                 (A.transpose(), dA.transpose()), (A.hstack(H), dA.hstack(dH))]
        if n == m:  # symmetric and antisymmetric parts
            cases += [(A + A.transpose(), dA + dA.transpose()),
                      (A - A.transpose(), dA - dA.transpose())]
        for got, want in cases:
            _agree(got, want)
        assert repr(A.apply(v)) == repr(dA.apply(v))
        assert (A == B) == (dA == dB) and (A == B) <= (hash(A) == hash(B))
        assert [A.col(j) for j in range(m)] == [dA.col(j) for j in range(m)]
        assert [A[i, j] for i in range(n) for j in range(m)] == [x for r in dA.entries for x in r]
    assert {(0, 3), (3, 0), (0, 0), (5, 5)} <= shapes
    assert Matrix.zeros(0, 3) != Matrix.zeros(0, 2) and Matrix.zeros(3, 0) != Matrix.zeros(2, 0)


def test_matrix_builders_match_the_dense_reference():
    rng = random.Random(29)
    for n in range(5):
        values = [_scalar(rng) for _ in range(n)]
        cols = [[_scalar(rng) for _ in range(3)] for _ in range(n)]
        _agree(Matrix.zeros(n, 3), DenseMatrix([[0] * 3] * n, cols=3))
        _agree(Matrix.zeros(3, n), DenseMatrix([[0] * n] * 3, cols=n))
        _agree(Matrix.identity(n), DenseMatrix([[int(i == j) for j in range(n)] for i in range(n)]))
        _agree(Matrix.diag(values),
               DenseMatrix([[values[i] if i == j else 0 for j in range(n)] for i in range(n)]))
        _agree(Matrix.from_cols(cols), DenseMatrix(list(zip(*cols)), cols=n) if n else
               DenseMatrix([]))
    with pytest.raises(DimensionMismatch):
        Matrix([(1, 2), (3,)])
    with pytest.raises(DimensionMismatch):
        Matrix.from_cols([(1, 2), (3,)])
    with pytest.raises(TypeError):
        Matrix([(0, 0.0)])


def _to_exact(x):
    return q(Fraction(int(x.p), int(x.q)))


def _sparse_rational(rng, rows, cols):
    """A seeded rows x cols matrix, about two thirds zeros, of small rationals."""
    return Matrix([[rng.choice((0, 0, 0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 4)))
                    for _ in range(cols)] for _ in range(rows)], cols=cols)


def test_row_reduction_matches_sympy():
    """rref_maps, kernel and invert against sympy over the rationals, on
    seeded sparse rational matrices up to 20 x 20."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(30)
    singular = 0
    for t in range(60):
        n, m = (rng.randint(1, 20), rng.randint(1, 20)) if t % 3 else (rng.randint(1, 12),) * 2
        A = _sparse_rational(rng, n, m)
        S = sympy.Matrix(A.rows, A.cols, [sympy.Rational(str(x)) for r in A.entries for x in r])
        red, pivots = S.rref()
        want = [tuple(_to_exact(x) for x in red.row(i)) for i in range(len(pivots))]
        got_red, got_pivots = rref_maps(A.sparse_rows(), A.cols)
        assert repr(got_red) == repr(want) and got_pivots == list(pivots)
        assert kernel(A) == [tuple(_to_exact(x) for x in v) for v in S.nullspace()]
        if n == m:
            if S.det() == 0:
                singular += 1
                with pytest.raises(Singular):
                    invert(A)
            else:
                inv = S.inv()
                assert repr(invert(A)) == repr(Matrix(
                    [[_to_exact(inv[i, j]) for j in range(n)] for i in range(n)]))
    assert 0 < singular < 20


def _unit_heavy_rows(rng, width):
    """Seeded sparse rows over columns 0..width-1, most of them unit rows.
    Unit rows of -1, 2 and 1/2 pin some columns, and some are repeated. A
    chain of two-entry rows starts at the first pinned column, so each peel
    leaves the next unit row. A row over two pinned columns empties out. A few
    random rows follow. Columns outside `live` stay zero."""
    live = rng.sample(range(width), rng.randint(2, width))
    k = rng.randint(2, 3)
    units, chain = live[:k], live[k:k + rng.randint(1, 4)]

    def pick():
        return rng.choice((-1, 2, Fraction(1, 2), 1, -3, Fraction(-2, 3)))

    rows = [{c: rng.choice((-1, 2, Fraction(1, 2)))} for c in units]
    rows += [{c: pick()} for c in rng.choices(units, k=rng.randint(1, 3))]
    rows += [{a: pick(), b: pick()} for a, b in zip(units[:1] + chain, chain)]
    rows.append({units[0]: pick(), units[1]: pick()})
    for _ in range(rng.randint(0, 3)):
        rows.append({c: pick() for c in rng.sample(live, rng.randint(2, min(4, len(live))))})
    rng.shuffle(rows)
    return rows, chain


def test_unit_row_heavy_reduction_matches_sympy():
    """rref_maps, kernel and invert against sympy on seeded matrices that are
    mostly unit rows: repeated ones, chains where one peel makes the next unit
    row, rows that peeling empties, zero columns, and ncols past the last
    used column."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(38)
    longest, wide, square = 0, 0, 0
    for _ in range(80):
        width = rng.randint(3, 10)
        ncols = width + rng.choice((0, 0, 1, 3))
        rows, chain = _unit_heavy_rows(rng, width)
        longest, wide = max(longest, len(chain)), wide + (ncols > width)
        dense = [[row.get(k, 0) for k in range(ncols)] for row in rows]
        A = Matrix(dense, cols=ncols)
        S = sympy.Matrix(A.rows, ncols, [sympy.Rational(str(x)) for r in dense for x in r])
        red, pivots = S.rref()
        want = [tuple(_to_exact(x) for x in red.row(i)) for i in range(len(pivots))]
        assert repr(rref_maps(rows, ncols)) == repr((want, list(pivots)))
        assert kernel(A) == [tuple(_to_exact(x) for x in v) for v in S.nullspace()]
        if A.rows == ncols:
            square += 1
            if S.det() == 0:
                with pytest.raises(Singular):
                    invert(A)
            else:
                inv = S.inv()
                assert repr(invert(A)) == repr(Matrix(
                    [[_to_exact(inv[i, j]) for j in range(ncols)] for i in range(ncols)]))
    assert longest >= 3 and wide >= 20 and square >= 3


def test_rref_maps_input_contract():
    """Maps and (column, value) pairs reduce alike, the caller's maps are left
    as they were (`differential` hands its own dicts in), and no rows reduce
    to ([], [])."""
    rng = random.Random(39)
    for _ in range(40):
        width = rng.randint(3, 8)
        rows, _ = _unit_heavy_rows(rng, width)
        before = [dict(row) for row in rows]
        pairs = [tuple(sorted(row.items())) for row in rows]
        assert rref_maps(rows, width) == rref_maps(pairs, width)
        assert rows == before and pairs == [tuple(sorted(row.items())) for row in before]
    d1 = differential(adjoint(gl(3)), 1)
    before = {key: dict(row) for key, row in d1.items()}
    assert len(rref_maps(list(d1.values()), 81)[1]) == 81 - 9
    assert d1 == before
    for n in (0, 1, 5):
        assert rref_maps([], n) == ([], [])


def reference_add_rows(acc, scale, pairs, rows, n):
    """acc + scale * sum of v * rows[l], as a dense length-n sum."""
    out = [acc.get(k, 0) for k in range(n)]
    for l, v in pairs:
        row = dict(rows[l])
        for k in range(n):
            out[k] += scale * v * row.get(k, 0)
    return tuple(map(q, out))


@st.composite
def add_rows_cases(draw):
    """(acc, scale, pairs, rows, n): rows are canonical sparse rows of length n,
    some of them empty, and pairs name rows by index."""
    n = draw(st.integers(1, 5))
    sparse = st.lists(st.just(0) | scalars, min_size=n, max_size=n).map(_nonzero)
    rows = draw(st.lists(st.just(()) | sparse, min_size=1, max_size=5))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), scalars), max_size=6))
    acc = {k: v for k, v in enumerate(draw(st.lists(scalars, min_size=n, max_size=n))) if v}
    return acc, draw(st.sampled_from((1, Fraction(1), -1, 0, Fraction(3, 2)))), pairs, rows, n


@settings(max_examples=300, deadline=None)
@given(add_rows_cases())
@example(case=({}, 1, [(0, 2), (1, 3)], [(), ((0, 1),)], 2))                 # an empty row
@example(case=({0: 1}, Fraction(1), [(0, Fraction(1, 4))], [((0, 4), (1, 2))], 2))  # unit Fraction
@example(case=({1: -1}, 0, [(0, 5)], [((1, 1),)], 2))                         # scale 0
def test_add_rows_matches_the_dense_sum(case):
    """The kernel skips empty rows and a unit scale; its sums are the dense ones."""
    acc, scale, pairs, rows, n = case
    want = reference_add_rows(acc, scale, pairs, rows, n)
    got = dict(acc)
    assert _add_rows(got, scale, pairs, rows) is got
    assert _dense(got, n) == want
