"""Exact sparse linear algebra over a prime field.

A matrix row is a dict {column: nonzero residue}, so a system costs memory
and time in its nonzeros, not its cells: a certificate system has a few
nonzeros per row across thousands of columns.  There is one elimination
kernel, ``IncrementalRank``.  It reduces each incoming row by the pivot rows
held so far (each normalised to a leading 1 at its least column) and keeps
the remainder as a new pivot row when it is nonzero.  Every vector
``linalg`` returns comes from the kernel's one back-substitution: given the
non-pivot coordinates of a vector, it sets each pivot coordinate so that its
pivot row vanishes on the vector.  ``Matrix.kernel_basis`` back-substitutes
once per free column and ``Matrix.solve`` once, on the system augmented by
its right-hand side.

The pivot rows span the row space, so a back-substituted vector is the one
vector of the kernel with the given free coordinates.  The pivot columns, the
canonical kernel basis (one vector per free column, first nonzero entry 1)
and the solution with every free variable zero therefore depend only on the
matrix, never on the order of elimination.  Everything is exact; no value is
approximated.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from .field import Field


class NoSolutionError(ValueError):
    """Raised by ``Matrix.solve`` when the system is inconsistent."""


class IncrementalRank:
    """Row space of a growing set of vectors, one insertion at a time.

    The elimination kernel of this module.  The extension-degree computation
    feeds monomial rows in degree order and stops as soon as the rank
    saturates; ``Matrix`` inserts its rows and then calls
    ``back_substitute``.  Insertion order never changes the rank or the
    vectors back-substitution returns.
    """

    __slots__ = ("field", "width", "_pivots")

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        # pivot column -> row with a 1 there and no column below it
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vector: Sequence[int]) -> bool:
        """Insert a dense vector; True if it increased the rank."""
        if len(vector) != self.width:
            raise ValueError("dimension mismatch")
        q = self.field.q
        return self.insert({c: x % q for c, x in enumerate(vector) if x % q})

    def insert(self, row: dict[int, int]) -> bool:
        """Insert a sparse row of nonzero residues, which it takes over.

        Pivot rows are subtracted in increasing pivot column; each one only
        adds columns above its own, so one pass leaves no pivot column.
        """
        q = self.field.q
        pivots = self._pivots
        todo = [c for c in row if c in pivots]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = row.get(c)
            if not f:  # cancelled, or queued twice
                continue
            for k, x in pivots[c].items():
                old = row.get(k)
                v = ((old or 0) - f * x) % q
                if v:
                    if old is None and k in pivots:
                        heappush(todo, k)
                    row[k] = v
                elif old is not None:
                    del row[k]
        if not row:
            return False
        lead = min(row)
        s = self.field.inv(row[lead])
        if s != 1:
            row = {k: x * s % q for k, x in row.items()}
        pivots[lead] = row
        return True

    def back_substitute(self, x: list[int]) -> list[int]:
        """Set x's pivot coordinates so that every pivot row vanishes on x.

        The non-pivot coordinates must already be set.  A pivot row has its
        leading 1 at its pivot column and nothing below it, so going from the
        last pivot column down, every coordinate a row reads is final.
        """
        q = self.field.q
        pivots = self._pivots
        for c in sorted(pivots, reverse=True):
            x[c] = -sum(a * x[k] for k, a in pivots[c].items() if k != c) % q
        return x


class Matrix:
    """A rows x cols matrix of canonical residues, stored as sparse rows."""

    __slots__ = ("field", "nrows", "ncols", "_rows")

    def __init__(self, field: Field, rows: Iterable[Sequence[int]]):
        q = field.q
        data = [list(row) for row in rows]
        width = len(data[0]) if data else 0
        if any(len(r) != width for r in data):
            raise ValueError("ragged rows")
        self._set(field, [{c: x % q for c, x in enumerate(r) if x % q} for r in data], width)

    @classmethod
    def from_sparse(cls, field: Field, rows: Iterable[dict[int, int]], ncols: int) -> "Matrix":
        """A matrix given as one {column: value} dict per row."""
        q = field.q
        data = [{c: x % q for c, x in row.items() if x % q} for row in rows]
        if any(not 0 <= c < ncols for row in data for c in row):
            raise ValueError("column index out of range")
        m = object.__new__(cls)
        m._set(field, data, ncols)
        return m

    def _set(self, field: Field, data: list[dict[int, int]], ncols: int) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", ncols)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> list[list[int]]:
        """The rows as dense lists."""
        out = []
        for row in self._rows:
            dense = [0] * self.ncols
            for c, x in row.items():
                dense[c] = x
            out.append(dense)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.ncols == self.ncols
            and other._rows == self._rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols,
                     tuple(tuple(sorted(r.items())) for r in self._rows)))

    def __repr__(self) -> str:
        return f"Matrix(F_{self.field.q}, {self.nrows}x{self.ncols})"

    # -- elimination --------------------------------------------------------

    def _eliminate(self, rhs: Sequence[int] = ()) -> IncrementalRank:
        """The kernel with every row inserted, row i extended by ``rhs[i]``
        in one column after the matrix's own when ``rhs`` is given."""
        q = self.field.q
        n = self.ncols
        inc = IncrementalRank(self.field, n + bool(rhs))
        for i, row in enumerate(self._rows):
            row = dict(row)
            if rhs and rhs[i] % q:
                row[n] = rhs[i] % q
            inc.insert(row)
        return inc

    def rank(self) -> int:
        return self._eliminate().rank

    def kernel_basis(self) -> list[list[int]]:
        """Basis of {v : A v = 0}, one vector per free column.

        Vectors are scaled so the first nonzero coordinate is 1, and ordered
        by free column index, which makes the basis canonical for a given
        matrix.
        """
        q = self.field.q
        inc = self._eliminate()
        basis = []
        for free in range(self.ncols):
            if free in inc._pivots:
                continue
            v = [0] * self.ncols
            v[free] = 1
            inc.back_substitute(v)
            lead = next(x for x in v if x)
            if lead != 1:
                s = self.field.inv(lead)
                v = [(x * s) % q for x in v]
            basis.append(v)
        return basis

    def solve(self, rhs: Sequence[int]) -> list[int]:
        """One solution of A x = rhs with free variables set to zero."""
        if len(rhs) != self.nrows:
            raise ValueError("dimension mismatch")
        n = self.ncols
        inc = self._eliminate(rhs)
        if n in inc._pivots:
            raise NoSolutionError("no solution: inconsistent system")
        x = [0] * n + [-1]
        return inc.back_substitute(x)[:n]
