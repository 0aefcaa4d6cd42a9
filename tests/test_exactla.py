from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lieop.errors import Singular
from lieop.exactla import Matrix, invert, kernel, parse_scalar, q, rank, rref, scalar_str
from lieop.liecore import Subspace


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
    assert rank(E) == 0
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
    assert rank(A) + len(kernel(A)) == A.cols


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
def test_parse_scalar_matches_fraction_parsing(s):
    assert _parsed_or_error(parse_scalar, s) == \
        _parsed_or_error(lambda t: q(Fraction(t)), s)
