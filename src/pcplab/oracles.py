"""Query interfaces for point tables and lines tables.

Verifiers only ever see oracles: a point oracle maps F_q^s -> F_q and a lines
oracle maps a pair (a, b) to its entry, the d+1 coefficients of the
restriction along the line a + t b as a tuple of residues in [0, q) (index =
power of t; ``poly.eval_entry`` reads it at t).  ``PointOracle`` and
``LinesOracle`` are the only two classes; each answers its queries through
the function it was built with, and three kinds of answer function sit
behind them:

- honest ones (``honest_oracles``) are the polynomial's own ``eval`` and
  ``restrict`` and stay lazy — materializing a lines table over F_q^{2s} is
  hopeless even at desk scale.  A ``FactoredPoly`` runs its factors'
  compiled functions and combines the values (a lines query in one
  Kronecker pass, a point query on the line just queried read off its
  entry), so a product such as the PCP's conflict polynomial or a sum such
  as a zero-on-variety certificate is never multiplied out to be queried;
- table lookups (``materialize``), for exhaustive work on small domains;
- keyed corruption (``corrupt``), which flips a keyed pseudorandom δ-fraction
  of entries by adding a nonzero offset, so the corrupted set is exactly the
  disagreement set and is a pure function of (key, input), independent of
  query order.

Every oracle counts its queries (one increment per query);
the verifiers' per-invocation totals are checked against these counters.
``query`` is the one place a queried point or line is reduced mod q:
verifiers hand over coordinates such as a + t·b unreduced, and every answer
function receives residues.
Building a table or a corruption calls the source's answer function
directly, so it counts no query.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .field import Field
from .poly import FactoredPoly, MultiPoly


class OracleBudgetError(ValueError):
    """Domain too large for materialization; keep the oracle lazy."""


class _Oracle:
    """Domain, degree tag, answer function and query counter."""

    def __init__(self, field: Field, s: int, degree: int, answer: Callable):
        self.field = field
        self.s = s
        self.degree = degree
        self.answer = answer
        self.queries = 0


class PointOracle(_Oracle):
    """f: F_q^s -> F_q with query accounting; ``answer(point)`` gets the
    point reduced mod q."""

    def query(self, point: Sequence[int]) -> int:
        if len(point) != self.s:
            raise ValueError(f"point arity {len(point)} != {self.s}")
        self.queries += 1
        q = self.field.q
        return self.answer(tuple([x % q for x in point]))


class LinesOracle(_Oracle):
    """(a, b) -> the restriction's entry, a tuple of exactly degree+1
    residues; ``answer(a, b)`` gets both reduced mod q."""

    def query(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        if len(a) != self.s or len(b) != self.s:
            raise ValueError(f"line arity ({len(a)},{len(b)}) != {self.s}")
        self.queries += 1
        q = self.field.q
        entry = self.answer(tuple([x % q for x in a]), tuple([x % q for x in b]))
        if len(entry) != self.degree + 1:
            raise AssertionError("lines entry has wrong width")  # pragma: no cover
        return entry


def honest_oracles(poly: MultiPoly | FactoredPoly, degree: int
                   ) -> tuple[PointOracle, LinesOracle]:
    """Lazy point + lines oracles for a polynomial of degree <= ``degree``,
    answered by its own ``eval`` and ``restrict``."""
    if poly.degree() > degree:
        raise ValueError(f"polynomial degree {poly.degree()} exceeds declared bound {degree}")
    if poly.cap != degree:
        poly = poly.with_cap(degree)
    return (PointOracle(poly.field, poly.nvars, degree, poly.eval),
            LinesOracle(poly.field, poly.nvars, degree, poly.restrict))


def materialize(oracle: PointOracle | LinesOracle, budget: int = 10 ** 6):
    """Evaluate the oracle on its whole domain into a table-backed copy."""
    q = oracle.field.q
    s = oracle.s
    answer = oracle.answer
    if isinstance(oracle, PointOracle):
        size = q ** s
        if size > budget:
            raise OracleBudgetError(
                f"point domain q^s = {size} exceeds budget {budget}; keep the oracle lazy"
            )
        table = {p: answer(p) for p in itertools.product(range(q), repeat=s)}
        return PointOracle(oracle.field, s, oracle.degree, table.__getitem__)
    size = q ** (2 * s)
    if size > budget:
        raise OracleBudgetError(
            f"lines domain q^2s = {size} exceeds budget {budget}; keep the oracle lazy"
        )
    points = list(itertools.product(range(q), repeat=s))
    entries = {(a, b): answer(a, b) for a in points for b in points}
    return LinesOracle(oracle.field, s, oracle.degree, lambda a, b: entries[(a, b)])


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


def corrupt(base: PointOracle | LinesOracle, spec: CorruptionSpec):
    """Lazy keyed corruption of the same oracle kind: a keyed nonzero offset
    added to the value on a Bernoulli(δ) subset of points, or to one
    coefficient of a new entry tuple on a Bernoulli(δ) subset of lines."""
    field = base.field
    q = field.q
    answer = base.answer
    if isinstance(base, PointOracle):
        def corrupted_point(point):
            value = answer(point)
            d = _digest(spec.key, point, q)
            if _hit(d, spec.delta):
                offset = 1 + int.from_bytes(d[8:16], "little") % (q - 1)
                value = (value + offset) % q
            return value

        return PointOracle(field, base.s, base.degree, corrupted_point)
    width = base.degree + 1

    def corrupted_line(a, b):
        entry = answer(a, b)
        d = _digest(spec.key, a + b, q)
        if _hit(d, spec.delta):
            raw = int.from_bytes(d[8:16], "little")
            idx = raw % width
            offset = 1 + (raw >> 32) % (q - 1)
            entry = entry[:idx] + ((entry[idx] + offset) % q,) + entry[idx + 1:]
        return entry

    return LinesOracle(field, base.s, base.degree, corrupted_line)
