"""Exact elimination: rank, kernel, solve, right inverse, incremental rank."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from pcplab.field import Field
from pcplab.linalg import IncrementalRank, Matrix, NoSolutionError

F3 = Field(3)
F5 = Field(5)


def _random_matrix(field, nrows, ncols, rng):
    return Matrix(field, [[rng.randrange(field.q) for _ in range(ncols)]
                          for _ in range(nrows)])


def _identity(field, n):
    return Matrix(field, [[int(i == j) for j in range(n)] for i in range(n)])


def test_identity_full_rank_empty_kernel():
    m = _identity(F5, 4)
    assert m.rank() == 4
    assert m.kernel_basis() == []


def test_frozen_kernel_of_row_1_1_over_f3():
    assert Matrix(F3, [[1, 1]]).kernel_basis() == [[1, 2]]


def test_evaluation_style_triangular_rows():
    # rows (1, v1, v2) for the three points (0,0), (1,0), (0,1)
    m = Matrix(F5, [[1, 0, 0], [1, 1, 0], [1, 0, 1]])
    assert m.rank() == 3


def test_rref_is_deterministic_and_reduced():
    # the fixed pivot rule reduces the rows to [[1, 2, 0], [0, 0, 1]] (pivot
    # columns 0 and 2), which fixes the kernel basis and the solver's choice
    m = Matrix(F5, [[2, 4, 1], [1, 2, 0]])
    assert m.rank() == 2
    assert m.kernel_basis() == m.kernel_basis() == [[1, 2, 0]]
    assert m.solve([1, 0]) == [0, 0, 1]
    assert m.solve([3, 4]) == m.solve([3, 4]) == [4, 0, 0]


@settings(max_examples=60)
@given(
    q=st.sampled_from([3, 5, 7]),
    nrows=st.integers(1, 5),
    ncols=st.integers(1, 5),
    seed=st.integers(0, 10 ** 6),
)
def test_rank_nullity_and_kernel_membership(q, nrows, ncols, seed):
    field = Field(q)
    m = _random_matrix(field, nrows, ncols, random.Random(seed))
    basis = m.kernel_basis()
    assert m.rank() + len(basis) == ncols
    for v in basis:
        assert m.mul_vec(v) == [0] * nrows
        lead = next(x for x in v if x)
        assert lead == 1  # canonical scaling


def test_solve_consistent_and_inconsistent():
    m = Matrix(F5, [[1, 2], [2, 4]])
    x = m.solve([3, 6])
    assert m.mul_vec(x) == [3, 1]
    with pytest.raises(NoSolutionError):
        m.solve([1, 3])


def test_solve_zeroes_free_variables():
    m = Matrix(F5, [[1, 1, 1]])
    assert m.solve([4]) == [4, 0, 0]


@settings(max_examples=60)
@given(
    q=st.sampled_from([3, 5, 7]),
    ncols=st.integers(1, 5),
    seed=st.integers(0, 10 ** 6),
)
def test_solve_when_rhs_in_column_span(q, ncols, seed):
    field = Field(q)
    rng = random.Random(seed)
    nrows = rng.randrange(1, 5)
    m = _random_matrix(field, nrows, ncols, rng)
    truth = [rng.randrange(q) for _ in range(ncols)]
    rhs = m.mul_vec(truth)
    x = m.solve(rhs)
    assert m.mul_vec(x) == rhs


def test_right_inverse_exact():
    rng = random.Random(7)
    for _ in range(20):
        nrows = rng.randrange(1, 4)
        ncols = nrows + rng.randrange(0, 3)
        m = _random_matrix(F5, nrows, ncols, rng)
        if m.rank() < nrows:
            continue
        r = m.right_inverse()
        assert m.mul(r) == _identity(F5, nrows)


def test_right_inverse_requires_full_row_rank():
    with pytest.raises(ValueError):
        Matrix(F5, [[1, 2], [2, 4]]).right_inverse()


def test_matrix_mul_and_shape_errors():
    a = Matrix(F5, [[1, 2], [3, 4]])
    b = Matrix(F5, [[0, 1], [1, 0]])
    assert a.mul(b).rows == [[2, 1], [4, 3]]
    with pytest.raises(ValueError):
        a.mul(Matrix(F5, [[1, 2, 3]]))
    with pytest.raises(ValueError):
        a.mul_vec([1, 2, 3])
    with pytest.raises(ValueError):
        Matrix(F5, [[1, 2], [1]])


def test_incremental_rank_matches_matrix_rank():
    rng = random.Random(3)
    for _ in range(30):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        rows = [[rng.randrange(5) for _ in range(ncols)] for _ in range(nrows)]
        inc = IncrementalRank(F5, ncols)
        increased = sum(inc.add(row) for row in rows)
        assert inc.rank == increased == Matrix(F5, rows).rank()


def test_incremental_rank_rejects_bad_width():
    inc = IncrementalRank(F5, 3)
    with pytest.raises(ValueError):
        inc.add([1, 2])
