"""Exact dense linear algebra over a prime field.

Plain Gaussian elimination with a fixed pivot rule (leftmost nonzero column,
topmost unprocessed row), so ranks, kernel bases, right inverses, and solver
outputs are identical from run to run.  Sizes here are small — evaluation
matrices and certificate systems at desk scale — so we keep everything as
lists of ints and never approximate.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .field import Field


class NoSolutionError(ValueError):
    """Raised by ``Matrix.solve`` when the system is inconsistent."""


class Matrix:
    """A rows x cols matrix of canonical residues."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: Field, rows: Iterable[Sequence[int]]):
        q = field.q
        data = [[v % q for v in row] for row in rows]
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
        else:
            width = 0
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", data)
        object.__setattr__(self, "nrows", len(data))
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Matrix is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __repr__(self) -> str:
        return f"Matrix(F_{self.field.q}, {self.nrows}x{self.ncols})"

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        q = self.field.q
        out = []
        bt = list(zip(*other.rows)) if other.rows else []
        for row in self.rows:
            out.append([sum(x * y for x, y in zip(row, col)) % q for col in bt])
        return Matrix(self.field, out)

    def mul_vec(self, v: Sequence[int]) -> list[int]:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch")
        q = self.field.q
        return [sum(x * y for x, y in zip(row, v)) % q for row in self.rows]

    # -- elimination --------------------------------------------------------

    def _rref(self, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form in place; returns (rows, pivot columns)."""
        q = self.field.q
        inv = self.field.inv
        pivots: list[int] = []
        r = 0
        ncols = self.ncols if rows and len(rows[0]) == self.ncols else (len(rows[0]) if rows else 0)
        for c in range(ncols):
            pivot_row = None
            for i in range(r, len(rows)):
                if rows[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            scale = inv(rows[r][c])
            if scale != 1:
                rows[r] = [(x * scale) % q for x in rows[r]]
            prow = rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(x - f * p) % q for x, p in zip(rows[i], prow)]
            pivots.append(c)
            r += 1
            if r == len(rows):
                break
        return rows, pivots

    def rank(self) -> int:
        _, pivots = self._rref([row[:] for row in self.rows])
        return len(pivots)

    def kernel_basis(self) -> list[list[int]]:
        """Basis of {v : A v = 0}, one vector per free column.

        Vectors are scaled so the first nonzero coordinate is 1, and ordered
        by free column index; with the fixed pivot rule this makes the basis
        canonical for a given matrix.
        """
        q = self.field.q
        rows, pivots = self._rref([row[:] for row in self.rows])
        pivot_set = set(pivots)
        basis = []
        for free in range(self.ncols):
            if free in pivot_set:
                continue
            v = [0] * self.ncols
            v[free] = 1
            for r, c in enumerate(pivots):
                v[c] = (-rows[r][free]) % q
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
        q = self.field.q
        aug = [row[:] + [rhs[i] % q] for i, row in enumerate(self.rows)]
        aug, pivots = self._rref(aug)
        if self.ncols in pivots:
            raise NoSolutionError("no solution: inconsistent system")
        x = [0] * self.ncols
        for r, c in enumerate(pivots):
            x[c] = aug[r][self.ncols]
        return x

    def right_inverse(self) -> "Matrix":
        """R with A R = I; requires full row rank."""
        q = self.field.q
        n = self.nrows
        aug = [row[:] + [1 if j == i else 0 for j in range(n)] for i, row in enumerate(self.rows)]
        aug, pivots = self._rref(aug)
        pivots = [c for c in pivots if c < self.ncols]
        if len(pivots) != n:
            raise ValueError(
                f"right inverse requires full row rank ({n}), got rank {len(pivots)}"
            )
        cols = []
        for j in range(n):
            x = [0] * self.ncols
            for r, c in enumerate(pivots):
                x[c] = aug[r][self.ncols + j]
            cols.append(x)
        return Matrix(self.field, [list(col) for col in zip(*cols)])


class IncrementalRank:
    """Rank of a growing set of vectors, one insertion at a time.

    Used by the extension-degree computation, which feeds monomial rows in
    degree order and stops as soon as the rank saturates.  Maintains reduced
    pivot rows; insertion order never changes the final rank.
    """

    __slots__ = ("field", "width", "_pivot_rows", "_pivot_cols")

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self._pivot_rows: list[list[int]] = []
        self._pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def add(self, vector: Sequence[int]) -> bool:
        """Insert a vector; True if it increased the rank."""
        q = self.field.q
        v = [x % q for x in vector]
        if len(v) != self.width:
            raise ValueError("dimension mismatch")
        for row, c in zip(self._pivot_rows, self._pivot_cols):
            if v[c]:
                f = v[c]
                v = [(x - f * r) % q for x, r in zip(v, row)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is None:
            return False
        s = self.field.inv(v[lead])
        if s != 1:
            v = [(x * s) % q for x in v]
        self._pivot_rows.append(v)
        self._pivot_cols.append(lead)
        return True
