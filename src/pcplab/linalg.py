"""Exact sparse linear algebra over a prime field.

A matrix row is a dict {column: nonzero residue}, so a system costs memory
and time in its nonzeros, not its cells: a row of the Buchberger–Möller
sweep in ``variety`` has a few nonzeros among one column per monomial met so
far.  There is one elimination kernel, ``IncrementalRank``.  It reduces each
incoming row by the pivot rows held so far (each normalised to a leading 1
at its least column) and keeps the remainder as a new pivot row when it is
nonzero; ``reduce`` alone returns the remainder without keeping it.  Every
vector ``linalg`` returns comes from the kernel's one back-substitution:
given the non-pivot coordinates of a vector, it sets each pivot coordinate
so that its pivot row vanishes on the vector.  ``Matrix.kernel_basis``
back-substitutes once per free column and ``Matrix.solve`` once, on the
system augmented by its right-hand side.

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

    The elimination kernel of this module.  ``Matrix`` inserts its rows and
    then calls ``back_substitute``; the Buchberger-Möller sweep of
    ``variety`` reduces each monomial's row and keeps it only when a point
    entry is left.  Insertion order never changes the rank or the vectors
    back-substitution returns.
    """

    __slots__ = ("field", "_pivots")

    def __init__(self, field: Field):
        self.field = field
        # pivot column -> row with a 1 there and no column below it
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, row: dict[int, int]) -> dict[int, int]:
        """Subtract pivot rows from a sparse row of nonzero residues, in place,
        until it has no pivot column, and return it.

        Pivot rows are subtracted in increasing pivot column; each one only
        adds columns above its own, so one pass leaves no pivot column.  The
        result is empty exactly when the row lies in the row space.
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
        return row

    def insert(self, row: dict[int, int]) -> bool:
        """Reduce a sparse row, which it takes over, and store the remainder
        as a pivot row when it is nonzero; True if the rank increased."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        s = self.field.inv(row[lead])
        if s != 1:
            q = self.field.q
            row = {k: x * s % q for k, x in row.items()}
        self._pivots[lead] = row
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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_rows",
                           [{c: x % q for c, x in enumerate(r) if x % q} for r in data])
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)

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
        inc = IncrementalRank(self.field)
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
