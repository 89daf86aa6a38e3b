"""Query interfaces for point tables and lines tables.

Verifiers only ever see oracles: a point oracle maps F_q^s -> F_q and a lines
oracle maps a pair (a, b) to the d+1 coefficients of the restriction along
the line a + t b.  Honest implementations are polynomial-backed and lazy —
materializing a lines table over F_q^{2s} is hopeless even at desk scale —
while small domains can be materialized into real tables for exhaustive work.
The backing is a ``FactoredPoly``: honest oracles answer factor by factor,
evaluating or restricting each factor and combining the results, so a
product such as the PCP's conflict polynomial or a sum such as a
zero-on-variety certificate is never multiplied out to be queried.

Three kinds of oracle sit behind one query interface: honest ones,
table-backed copies made by ``materialize``, and corruption wrappers, which
flip a keyed pseudorandom δ-fraction of entries by adding a nonzero offset, so
the corrupted set is exactly the disagreement set and is a pure function of
(key, input), independent of query order.

Every oracle counts its queries (one increment per query, lock-protected);
the verifiers' per-invocation totals are checked against these counters.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from dataclasses import dataclass
from typing import Sequence

from .field import Field
from .poly import FactoredPoly, MultiPoly, UniPoly


class OracleBudgetError(ValueError):
    """Domain too large for materialization; keep the oracle lazy."""


class _Counted:
    """Base class providing the thread-safe query counter."""

    def __init__(self):
        self._lock = threading.Lock()
        self._queries = 0

    @property
    def queries(self) -> int:
        return self._queries

    def _tick(self) -> None:
        with self._lock:
            self._queries += 1


class PointOracle(_Counted):
    """f: F_q^s -> F_q with query accounting."""

    def __init__(self, field: Field, s: int, degree: int):
        super().__init__()
        self.field = field
        self.s = s
        self.degree = degree

    def query(self, point: Sequence[int]) -> int:
        if len(point) != self.s:
            raise ValueError(f"point arity {len(point)} != {self.s}")
        self._tick()
        return self._answer(tuple(x % self.field.q for x in point))

    def _answer(self, point: tuple[int, ...]) -> int:
        raise NotImplementedError


class LinesOracle(_Counted):
    """(a, b) -> restriction coefficients, always degree+1 of them."""

    def __init__(self, field: Field, s: int, degree: int):
        super().__init__()
        self.field = field
        self.s = s
        self.degree = degree

    def query(self, a: Sequence[int], b: Sequence[int]) -> UniPoly:
        if len(a) != self.s or len(b) != self.s:
            raise ValueError(f"line arity ({len(a)},{len(b)}) != {self.s}")
        self._tick()
        q = self.field.q
        entry = self._answer(tuple(x % q for x in a), tuple(x % q for x in b))
        if len(entry.coeffs) != self.degree + 1:
            raise AssertionError("lines entry has wrong width")  # pragma: no cover
        return entry

    def _answer(self, a: tuple[int, ...], b: tuple[int, ...]) -> UniPoly:
        raise NotImplementedError


# -- honest (polynomial-backed) oracles --------------------------------------

class PolyPointOracle(PointOracle):
    def __init__(self, backing: FactoredPoly, degree: int):
        super().__init__(backing.field, backing.nvars, degree)
        self.backing = backing

    @property
    def poly(self) -> MultiPoly:
        """The expanded polynomial, multiplied out on each read."""
        return self.backing.expand()

    def _answer(self, point):
        return self.backing.eval(point)


class PolyLinesOracle(LinesOracle):
    def __init__(self, backing: FactoredPoly, degree: int):
        super().__init__(backing.field, backing.nvars, degree)
        self.backing = backing

    def _answer(self, a, b):
        return self.backing.restrict(a, b)


def honest_oracles(poly: MultiPoly | FactoredPoly, degree: int
                   ) -> tuple[PointOracle, LinesOracle]:
    """Lazy point + lines oracles for a polynomial of degree <= ``degree``.

    A ``FactoredPoly`` is answered factor by factor; a ``MultiPoly`` is its
    one-factor case.
    """
    backing = FactoredPoly.of(poly)
    if backing.degree() > degree:
        raise ValueError(f"polynomial degree {backing.degree()} exceeds declared bound {degree}")
    if backing.cap != degree:
        backing = backing.with_cap(degree)
    return PolyPointOracle(backing, degree), PolyLinesOracle(backing, degree)


# -- table-backed oracles ----------------------------------------------------

class TablePointOracle(PointOracle):
    def __init__(self, field: Field, s: int, degree: int, table: dict[tuple[int, ...], int]):
        super().__init__(field, s, degree)
        self.table = table

    def _answer(self, point):
        return self.table[point]


class TableLinesOracle(LinesOracle):
    def __init__(self, field: Field, s: int, degree: int,
                 table: dict[tuple[tuple[int, ...], tuple[int, ...]], UniPoly]):
        super().__init__(field, s, degree)
        self.table = table

    def _answer(self, a, b):
        return self.table[(a, b)]


def materialize(oracle: PointOracle | LinesOracle, budget: int = 10 ** 6):
    """Evaluate the oracle on its whole domain into a table-backed copy."""
    q = oracle.field.q
    s = oracle.s
    if isinstance(oracle, PointOracle):
        size = q ** s
        if size > budget:
            raise OracleBudgetError(
                f"point domain q^s = {size} exceeds budget {budget}; keep the oracle lazy"
            )
        table = {p: oracle._answer(p) for p in itertools.product(range(q), repeat=s)}
        return TablePointOracle(oracle.field, s, oracle.degree, table)
    size = q ** (2 * s)
    if size > budget:
        raise OracleBudgetError(
            f"lines domain q^2s = {size} exceeds budget {budget}; keep the oracle lazy"
        )
    table = {}
    for a in itertools.product(range(q), repeat=s):
        for b in itertools.product(range(q), repeat=s):
            table[(a, b)] = oracle._answer(a, b)
    return TableLinesOracle(oracle.field, s, oracle.degree, table)


# -- corruption --------------------------------------------------------------

@dataclass(frozen=True)
class CorruptionSpec:
    """Keyed δ-fraction corruption of whichever oracle ``corrupt`` is handed."""

    delta: float
    key: int

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")


def _digest(key: int, payload: tuple[int, ...], q: int) -> bytes:
    """Keyed hash of residues mod q, each packed little-endian in
    max(4, ceil(bits(q-1)/8)) bytes (so 4 bytes, uint32, for every q <= 2^32)."""
    width = max(4, ((q - 1).bit_length() + 7) // 8)
    h = hashlib.blake2b(digest_size=16, key=key.to_bytes(8, "little", signed=False))
    h.update(b"".join(x.to_bytes(width, "little") for x in payload))
    return h.digest()


def _hit(digest: bytes, delta: float) -> bool:
    u = int.from_bytes(digest[:8], "little") / 2 ** 64
    return u < delta


class CorruptPointOracle(PointOracle):
    """Adds a keyed nonzero offset on a Bernoulli(δ) subset of points."""

    def __init__(self, base: PointOracle, spec: CorruptionSpec):
        super().__init__(base.field, base.s, base.degree)
        self.base = base
        self.spec = spec

    def _answer(self, point):
        value = self.base._answer(point)
        d = _digest(self.spec.key, point, self.field.q)
        if _hit(d, self.spec.delta):
            offset = 1 + int.from_bytes(d[8:16], "little") % (self.field.q - 1)
            value = (value + offset) % self.field.q
        return value


class CorruptLinesOracle(LinesOracle):
    """Adds a keyed nonzero offset to one coefficient on a Bernoulli(δ) subset."""

    def __init__(self, base: LinesOracle, spec: CorruptionSpec):
        super().__init__(base.field, base.s, base.degree)
        self.base = base
        self.spec = spec

    def _answer(self, a, b):
        entry = self.base._answer(a, b)
        d = _digest(self.spec.key, a + b, self.field.q)
        if _hit(d, self.spec.delta):
            raw = int.from_bytes(d[8:16], "little")
            idx = raw % (self.degree + 1)
            offset = 1 + (raw >> 32) % (self.field.q - 1)
            coeffs = list(entry.coeffs)
            coeffs[idx] = (coeffs[idx] + offset) % self.field.q
            entry = UniPoly(self.field, coeffs)
        return entry


def corrupt(base: PointOracle | LinesOracle, spec: CorruptionSpec):
    """Lazy keyed corruption wrapper of the same oracle kind."""
    if isinstance(base, PointOracle):
        return CorruptPointOracle(base, spec)
    return CorruptLinesOracle(base, spec)

