"""Sparse fraction-free linear algebra: kernel bases and row spans on
random small integer and rational matrices.  A kernel basis with one
vector per free column, 1 there and 0 at every other free column, is
the reduced-row-echelon kernel basis, so these properties pin it down."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from fockcrystal.linalg import RowSpan, kernel_basis

entries = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@st.composite
def matrices(draw):
    """A few random rows plus random combinations of them, shuffled, so
    that dependent rows and rank deficiency are common."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=4))
    combos = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=len(base), max_size=len(base)), max_size=3)
        if base
        else st.just([])
    )
    rows = base + [
        [sum(k * r[j] for k, r in zip(combo, base)) for j in range(ncols)]
        for combo in combos
    ]
    return draw(st.permutations(rows)), ncols


def rank(rows):
    """Rank by plain Fraction Gaussian elimination (test oracle)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][c] / mat[r][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def sparse(row):
    return dict(enumerate(row))  # zero entries included on purpose


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_kernel_basis_is_the_rref_kernel_basis(matrix):
    rows, ncols = matrix
    span = RowSpan(ncols)
    for r in rows:
        span.insert(sparse(r))
    assert span.dim == rank(rows)

    # free columns: those that do not raise the rank of the column prefix
    free = [
        c for c in range(ncols)
        if rank([r[: c + 1] for r in rows]) == rank([r[:c] for r in rows])
    ]
    basis = kernel_basis([sparse(r) for r in rows], ncols)
    assert len(basis) == ncols - span.dim == len(free)
    for own, vec in zip(free, basis):
        assert all(isinstance(x, Fraction) for x in vec.values())
        assert all(vec.get(c, 0) == (c == own) for c in free)
        for r in rows:
            assert sum(x * vec.get(j, 0) for j, x in enumerate(r)) == 0


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(entries, min_size=4, max_size=4))
def test_row_span_accepts_exactly_the_independent_rows(matrix, coeffs):
    rows, ncols = matrix
    span = RowSpan(ncols)
    for k, r in enumerate(rows):
        accepted = span.insert(sparse(r))
        assert accepted == (rank(rows[: k + 1]) > rank(rows[:k]))
        assert span.dim == rank(rows[: k + 1])
    combo = [sum(Fraction(a) * r[j] for a, r in zip(coeffs, rows)) for j in range(ncols)]
    assert not span.insert(sparse(combo))
    assert span.dim == rank(rows)


def test_kernel_basis_small_example():
    rows = [{0: 1, 1: 2, 2: 3}, {0: Fraction(1, 2), 1: 1, 2: Fraction(3, 2)}]
    assert kernel_basis(rows, 3) == [{1: 1, 0: -2}, {2: 1, 0: -3}]
    assert kernel_basis([], 2) == [{0: 1}, {1: 1}]
    assert kernel_basis([{1: 5}], 2) == [{0: 1}]
