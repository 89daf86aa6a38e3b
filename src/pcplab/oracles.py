"""Query interfaces for point tables and lines tables.

Verifiers only ever see oracles: a point oracle maps F_q^s -> F_q and a lines
oracle maps a pair (a, b) to its entry, the d+1 coefficients of the
restriction along the line a + t b as a tuple of residues in [0, q) (index =
power of t; the line test, ``codegen._line_test``, reads it at t).
``PointOracle`` and ``LinesOracle`` are the only two classes; each answers
its queries through the function it was built with, and four kinds of
answer function sit behind them:

- honest ones (``honest_oracles``) are the polynomial's own ``eval`` and
  ``restrict`` and stay lazy — materializing a lines table over F_q^{2s} is
  hopeless even at desk scale.  A ``FactoredPoly`` runs one compiled
  function over its factors (a lines query in one Kronecker pass, a point
  query on the line just queried read off its entry), so a product such as
  the PCP's conflict polynomial or a sum such as a zero-on-variety
  certificate is never multiplied out to be queried;
- table lookups (``materialize``), for exhaustive work on small domains;
- keyed corruption (``corrupt``), which flips a keyed pseudorandom δ-fraction
  of entries by adding a nonzero offset, so the corrupted set is exactly the
  disagreement set and is a pure function of (key, input mod q), independent
  of query order.  Each query makes one keyed hash of its residues, read as
  one integer: its low 64 bits against an integer threshold decide the hit
  (the same set as the float rule bits / 2^64 < δ, bit for bit, δ = 1
  included, where the top 1024 values stay unhit), and its high bits give
  the offset;
- constants (``zerotest.zero_certificate``): the all-zero certificate
  answers 0 and the all-zero entry with no polynomial behind it.

Every oracle counts its queries (one increment per query);
the verifiers' per-invocation totals are checked against these counters.
Verifiers may hand over coordinates such as a + t·b unreduced, or as lists,
and a lazy oracle hands its answer function the input as queried: an answer
function is exact on any integer coordinates and reduces mod q only where it
needs a canonical form.  A polynomial's compiled functions run over Z, so
``eval`` reduces only its value and ``restrict`` reduces each coordinate as it
packs the line; ``corrupt``'s answer functions reduce the input once, before
hashing it.  A table-backed oracle keeps its dict as ``table`` (a lazy one
has ``table = None``) and answers an input it holds as a key, a tuple of
residues, with one lookup.  Anything else (an unreduced or negative
coordinate, a list) is no key, since every key is made of residues, so the
table-backed oracle reduces it to form its key; no other ``query`` reduces.  A
table's entry widths are checked once, when ``materialize`` builds it; lazy
lines answers are checked on every query.
Building a table or a corruption calls the source's answer function
directly, so it counts no query.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

from .field import Field
from .poly import FactoredPoly, MultiPoly


class OracleBudgetError(ValueError):
    """Domain too large for materialization; keep the oracle lazy."""


class _Oracle:
    """Domain, degree tag, answer function, query counter, and the table a
    ``materialize``d oracle answers from (None for a lazy one)."""

    __slots__ = ("field", "s", "degree", "answer", "table", "queries")

    def __init__(self, field: Field, s: int, degree: int, answer: Callable):
        self.field = field
        self.s = s
        self.degree = degree
        self.answer = answer
        self.table: dict | None = None
        self.queries = 0


class PointOracle(_Oracle):
    """f: F_q^s -> F_q with query accounting.  A lazy oracle calls
    ``answer(point)`` on the point as queried.  A table-backed one answers a
    point held as a key of ``table`` from it directly and reduces any other
    point mod q to its key."""

    __slots__ = ()

    def query(self, point: Sequence[int]) -> int:
        if len(point) != self.s:
            raise ValueError(f"point arity {len(point)} != {self.s}")
        self.queries += 1
        table = self.table
        if table is not None:
            try:
                return table[point]
            except (KeyError, TypeError):   # not a key, or a list: reduce to one
                q = self.field.q
                point = tuple([x % q for x in point])
        return self.answer(point)


class LinesOracle(_Oracle):
    """(a, b) -> the restriction's entry, a tuple of exactly degree+1
    residues.  A lazy oracle calls ``answer(a, b)`` on the line as queried.
    A table-backed one answers a line held as a key of ``table`` from it
    directly (``materialize`` checked the width of every entry there) and
    reduces any other line mod q to its key.  Every entry not read from the
    table has its width checked."""

    __slots__ = ()

    def query(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        if len(a) != self.s or len(b) != self.s:
            raise ValueError(f"line arity ({len(a)},{len(b)}) != {self.s}")
        self.queries += 1
        table = self.table
        if table is not None:
            try:
                return table[a, b]
            except (KeyError, TypeError):   # not a key, or a list: reduce to one
                q = self.field.q
                a, b = tuple([x % q for x in a]), tuple([x % q for x in b])
        entry = self.answer(a, b)
        if len(entry) != self.degree + 1:
            raise AssertionError("lines entry has wrong width")
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
    """Evaluate the oracle on its whole domain into a table-backed copy of
    the same class, its dict kept as ``table`` (keys are residue tuples: a
    point, or a pair (a, b)).  Every lines entry's width is checked here,
    once."""
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
        out = PointOracle(oracle.field, s, oracle.degree, table.__getitem__)
        out.table = table
        return out
    size = q ** (2 * s)
    if size > budget:
        raise OracleBudgetError(
            f"lines domain q^2s = {size} exceeds budget {budget}; keep the oracle lazy"
        )
    points = list(itertools.product(range(q), repeat=s))
    entries = {(a, b): answer(a, b) for a in points for b in points}
    width = oracle.degree + 1
    if any(len(entry) != width for entry in entries.values()):
        raise AssertionError("lines entry has wrong width")
    out = LinesOracle(oracle.field, s, oracle.degree, lambda a, b: entries[(a, b)])
    out.table = entries
    return out


# -- corruption --------------------------------------------------------------

@dataclass(frozen=True)
class CorruptionSpec:
    """Keyed δ-fraction corruption of whichever oracle ``corrupt`` is handed."""

    delta: float
    key: int

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError("delta must be in [0, 1]")


def _threshold(delta: float) -> int:
    """The least integer T with T / 2**64 >= delta, so that for every x in
    [0, 2^64) the integer test x < T equals the float test x / 2**64 < delta.

    x / 2**64 is x rounded to a double (half to even), scaled exactly, so
    it reaches delta from the midpoint m between delta·2^64 and the double
    below it on: T is ceil(m), or one more when m is an integer that
    rounds down.  At delta = 1 that leaves the top 1024 values unhit, since
    the doubles near 2^64 are 2^11 apart."""
    n, d = delta.as_integer_ratio()
    pn, pd = math.nextafter(delta, 0.0).as_integer_ratio()
    t = -(-((n * pd + pn * d) << 63) // (d * pd))
    return t + (t / 2 ** 64 < delta)


_LOW = 2 ** 64 - 1


def corrupt(base: PointOracle | LinesOracle, spec: CorruptionSpec):
    """Lazy keyed corruption of the same oracle kind: a keyed nonzero offset
    added to the value on a Bernoulli(δ) subset of points, or to one
    coefficient of a new entry tuple on a Bernoulli(δ) subset of lines.  Each
    answer function reduces its input mod q once, so the hash (and the base
    oracle's answer function) sees residues and the corrupted set is the
    same for every form of a query.

    Each read hashes once: the residues, each little-endian in
    max(4, ceil(bits(q-1)/8)) bytes (so 4 bytes, uint32, for every
    q <= 2^32) and packed as one integer's bytes, go through a copy of the
    BLAKE2b state keyed once per call, and the 16-byte digest is read as
    one little-endian integer d.  The input is hit when d's low 64 bits are
    below ``_threshold(δ)``, which marks the same set as the float rule
    (low 64 bits) / 2^64 < δ, δ = 1 included; the offset, and for a line
    the index of its coefficient, come from d >> 64."""
    field = base.field
    q = field.q
    answer = base.answer
    width = max(4, ((q - 1).bit_length() + 7) // 8)
    keyed = hashlib.blake2b(digest_size=16, key=spec.key.to_bytes(8, "little", signed=False))
    threshold = _threshold(spec.delta)
    lshift = operator.lshift
    if isinstance(base, PointOracle):
        nbytes = width * base.s
        shifts = tuple(range(0, 8 * nbytes, 8 * width))

        def corrupted_point(point):
            point = tuple([x % q for x in point])
            value = answer(point)
            h = keyed.copy()
            h.update(sum(map(lshift, point, shifts)).to_bytes(nbytes, "little"))
            d = int.from_bytes(h.digest(), "little")
            if d & _LOW < threshold:
                value = (value + 1 + (d >> 64) % (q - 1)) % q
            return value

        return PointOracle(field, base.s, base.degree, corrupted_point)
    ncoeffs = base.degree + 1
    nbytes = 2 * width * base.s
    shifts = tuple(range(0, 8 * nbytes, 8 * width))

    def corrupted_line(a, b):
        a = tuple([x % q for x in a])
        b = tuple([y % q for y in b])
        entry = answer(a, b)
        h = keyed.copy()
        h.update(sum(map(lshift, a + b, shifts)).to_bytes(nbytes, "little"))
        d = int.from_bytes(h.digest(), "little")
        if d & _LOW < threshold:
            raw = d >> 64
            idx = raw % ncoeffs
            offset = 1 + (raw >> 32) % (q - 1)
            entry = entry[:idx] + ((entry[idx] + offset) % q,) + entry[idx + 1:]
        return entry

    return LinesOracle(field, base.s, base.degree, corrupted_line)
