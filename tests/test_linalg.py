"""Exact elimination: rank, kernel, solve, incremental rank."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from pcplab.field import Field
from pcplab.linalg import IncrementalRank, Matrix, NoSolutionError

F3 = Field(3)
F5 = Field(5)


def _random_matrix(field, nrows, ncols, rng):
    return Matrix(field, [[rng.randrange(field.q) for _ in range(ncols)]
                          for _ in range(nrows)])


def _apply(m, v):
    # A v, written out so the checks below do not lean on the solver
    return [sum(x * y for x, y in zip(row, v)) % m.field.q for row in m.rows]


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
        assert _apply(m, v) == [0] * nrows
        lead = next(x for x in v if x)
        assert lead == 1  # canonical scaling


def test_solve_consistent_and_inconsistent():
    m = Matrix(F5, [[1, 2], [2, 4]])
    x = m.solve([3, 6])
    assert _apply(m, x) == [3, 1]
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
    rhs = _apply(m, truth)
    x = m.solve(rhs)
    assert _apply(m, x) == rhs


def test_matrix_mul_and_shape_errors():
    a = Matrix(F5, [[1, 2], [3, 4]])
    assert a.solve([3, 2]) == [1, 1]
    with pytest.raises(ValueError):
        a.solve([1, 2, 3])
    with pytest.raises(ValueError):
        Matrix(F5, [[1, 2], [1]])


def _sparse(row, q):
    return {c: x % q for c, x in enumerate(row) if x % q}


def test_incremental_rank_matches_matrix_rank():
    rng = random.Random(3)
    for _ in range(30):
        nrows = rng.randrange(1, 7)
        ncols = rng.randrange(1, 7)
        rows = [[rng.randrange(5) for _ in range(ncols)] for _ in range(nrows)]
        inc = IncrementalRank(F5)
        increased = sum(inc.insert(_sparse(row, 5)) for row in rows)
        assert inc.rank == increased == Matrix(F5, rows).rank()


def test_reduce_leaves_no_pivot_column_and_keeps_the_rank():
    rng = random.Random(8)
    for _ in range(40):
        ncols = rng.randrange(1, 8)
        inc = IncrementalRank(F5)
        kept = [[rng.randrange(5) for _ in range(ncols)] for _ in range(rng.randrange(1, 6))]
        for row in kept:
            inc.insert(_sparse(row, 5))
        rank, pivots = inc.rank, dict(inc._pivots)
        row = [rng.randrange(5) for _ in range(ncols)]
        rem = inc.reduce(_sparse(row, 5))
        assert not set(rem) & set(inc._pivots)
        assert all(rem.values())
        assert inc.rank == rank and inc._pivots == pivots
        # empty exactly when the row adds nothing to the kept rows' span
        assert (not rem) == (Matrix(F5, kept + [row]).rank() == rank)
        # a kept row reduces to nothing
        assert inc.reduce(_sparse(rng.choice(kept), 5)) == {}


def test_insert_is_reduce_then_store():
    rng = random.Random(9)
    for _ in range(40):
        ncols = rng.randrange(1, 8)
        rows = [[rng.randrange(5) for _ in range(ncols)] for _ in range(rng.randrange(1, 6))]
        a, b = IncrementalRank(F5), IncrementalRank(F5)
        for row in rows[:-1]:
            a.insert(_sparse(row, 5))
            b.insert(_sparse(row, 5))
        rem = b.reduce(_sparse(rows[-1], 5))
        assert a.insert(_sparse(rows[-1], 5)) == bool(rem)
        if rem:
            lead = min(rem)
            s = F5.inv(rem[lead])
            b._pivots[lead] = {k: x * s % 5 for k, x in rem.items()}
        assert a._pivots == b._pivots


def test_rows_are_stored_reduced_and_compared_by_value():
    a = Matrix(F5, [[0, 2, 0, 7], [0, 0, 0, 0], [1, 0, 0, 3]])
    b = Matrix(F5, [[5, 2, 0, 2], [0, 10, 0, 0], [6, 0, 0, -2]])
    assert a == b and hash(a) == hash(b)
    assert a.rows == [[0, 2, 0, 2], [0, 0, 0, 0], [1, 0, 0, 3]]
    assert (a.nrows, a.ncols) == (3, 4)
    assert a != Matrix(F5, [[0, 2, 0, 7], [0, 0, 0, 1], [1, 0, 0, 3]])


# -- cross-check against an independent dense Gauss-Jordan -------------------
#
# The reference below is written out here and never calls pcplab.linalg: the
# leftmost-column, topmost-row pivot rule on dense lists, as in the acceptance
# gates' own ``_rref_mod``.

def _gauss_jordan(rows, q):
    rows = [[x % q for x in r] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _field(q):
    # Field takes odd primes only; the kernel reads nothing but q and inv, so
    # this stand-in runs it in characteristic 2 as well
    if q == 2:
        return SimpleNamespace(q=2, inv=lambda x: 1)
    return Field(q)


@st.composite
def _systems(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 257]))
    nrows = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 10))
    density = draw(st.floats(0.1, 1.0))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    rows = [[rng.randrange(1, q) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):   # a repeated (scaled) row
        i, j = rng.sample(range(nrows), 2)
        f = rng.randrange(1, q)
        rows[i] = [x * f % q for x in rows[j]]
    if draw(st.booleans()):                 # a zero row
        rows[rng.randrange(nrows)] = [0] * ncols
    if draw(st.booleans()):                 # rhs in the column span
        truth = [rng.randrange(q) for _ in range(ncols)]
        rhs = [sum(a * x for a, x in zip(row, truth)) % q for row in rows]
    else:                                   # arbitrary, often inconsistent
        rhs = [rng.randrange(q) for _ in range(nrows)]
    return q, rows, rhs


@settings(max_examples=300, deadline=None)
@given(_systems())
def test_kernel_matches_dense_gauss_jordan(system):
    q, rows, rhs = system
    ncols = len(rows[0])
    field = _field(q)
    m = Matrix(field, rows)
    red, pivots = _gauss_jordan(rows, q)

    assert m.rank() == len(pivots)
    inc = IncrementalRank(field)
    for row in rows:
        inc.insert(_sparse(row, q))
    assert inc.rank == len(pivots)

    kernel = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for i, c in enumerate(pivots):
            v[c] = -red[i][free] % q
        s = pow(next(x for x in v if x), q - 2, q)
        kernel.append([x * s % q for x in v])
    assert m.kernel_basis() == kernel

    aug, apiv = _gauss_jordan([row + [b] for row, b in zip(rows, rhs)], q)
    if ncols in apiv:
        with pytest.raises(NoSolutionError):
            m.solve(rhs)
    else:
        x = [0] * ncols
        for i, c in enumerate(apiv):
            x[c] = aug[i][ncols]
        assert m.solve(rhs) == x
