"""Zero-on-variety proof system.

To certify that a degree-d polynomial P vanishes on a variety V, the prover
publishes the certificate polynomial M(x, y) = Σ h_g(x)·y_g (plus its lines
table).  M has degree <= d, vanishes on the y=0 slice, and turns back into P
under the substitution y = φ(x), so a verifier can check "P|_V = 0" with seven
queries: a low-degree test on M, a corrected read of M at (α, 0) which must be
zero, and a corrected read at (α, φ(α)) which must match f(α).

The verifier never short-circuits: all seven queries are issued regardless of
which check fails, keeping the query count constant per invocation.

``zero_certificate`` builds the all-zero M, answered without a polynomial.
It is the certificate a prover publishes for a claim that has none: it
passes the low-degree and at-zero checks, so the f[alpha] comparison carries
the rejection.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .ldt import ACCEPT, REJECT, ldt_check, local_correct, Verdict
from .oracles import honest_oracles, LinesOracle, PointOracle
from .poly import FactoredPoly, MultiPoly
from .variety import (
    NoCertificateError,
    Variety,
    certificate_factors,
    vanishes_on,
    vanishing_certificate,
)


@dataclass(frozen=True)
class ZeroProof:
    """Oracle pair for the certificate polynomial M over F_q^{m+k}."""

    point: PointOracle
    lines: LinesOracle


class ZeroRandomness(NamedTuple):
    """One verifier coin toss: a, b ∈ F_q^{m+k}, alpha ∈ F_q^m, t ∈ F_q^×."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    alpha: tuple[int, ...]
    t: int

    @classmethod
    def sample(cls, variety: Variety, rng) -> "ZeroRandomness":
        """Draw order is fixed (a, b, alpha, t); budget accounting relies on
        it.  One ``CountingRng.draw`` for every coordinate, sliced in that
        order, then one for t."""
        q = variety.field.q
        s = variety.m + variety.complexity
        coords = rng.draw(q, 2 * s + variety.m)
        return tuple.__new__(cls, (tuple(coords[:s]), tuple(coords[s:2 * s]),
                                   tuple(coords[2 * s:]), 1 + rng.draw(q - 1, 1)[0]))


def zero_prove(poly: MultiPoly | FactoredPoly, variety: Variety, degree: int) -> ZeroProof:
    """Honest proof that ``poly`` (degree <= ``degree``) vanishes on the variety.

    Checks vanishing on ``poly`` as given, hands it as given to
    ``vanishing_certificate`` (which multiplies a ``FactoredPoly`` out on
    its own packed monomials, so the claim is never built as a
    ``MultiPoly``), and exposes lazy honest oracles that answer M through
    its products, never multiplied out.  ``vanishing_certificate`` checks
    the identity Σ h_g·g = P, which is M(x, φ(x)) = P, term for term on
    packed monomials; M(x, 0) = 0 holds by construction.
    """
    if poly.nvars != variety.m:
        raise ValueError("polynomial/variety dimension mismatch")
    if poly.degree() > degree:
        raise ValueError(f"degree {poly.degree()} exceeds the declared bound {degree}")
    if not vanishes_on(poly, variety):
        raise NoCertificateError("no certificate: polynomial does not vanish on the variety")

    cofactors = vanishing_certificate(poly, variety)
    point, lines = honest_oracles(certificate_factors(cofactors, variety.gens, degree), degree)
    return ZeroProof(point, lines)


def zero_certificate(variety: Variety, degree: int) -> ZeroProof:
    """The all-zero M over F_q^{m+k} with its lines table, at degree tag
    ``degree``.  No polynomial stands behind it: the point oracle answers 0
    and the lines oracle the (degree+1)-tuple of zeros, and the oracle
    classes still check arity and width and count every query."""
    field, s = variety.field, variety.m + variety.complexity
    zeros = (0,) * (degree + 1)
    return ZeroProof(PointOracle(field, s, degree, lambda point: 0),
                     LinesOracle(field, s, degree, lambda a, b: zeros))


def zero_verify(variety: Variety, degree: int, f: PointOracle,
                proof: ZeroProof, r: ZeroRandomness) -> Verdict:
    """Seven-query check that the function behind ``f`` vanishes on the variety.

    1. low-degree test on (M, M') at (a, b, t)            — 2 queries
    2. corrected read of M at (alpha, 0), direction a      — 2 queries, must be 0
    3. corrected read of M at (alpha, φ(alpha)), dir. a    — 2 queries
    4. point read f[alpha]                                 — 1 query, must match 3
    """
    m = variety.m
    k = variety.complexity
    if len(r.alpha) != m or len(r.a) != m + k or len(r.b) != m + k:
        raise ValueError("randomness dimensions do not match the variety")
    if f.s != m:
        raise ValueError("f must be an oracle over the variety's ambient space")

    ldt_v = ldt_check(degree, proof.point, proof.lines, r.a, r.b, r.t)
    at_zero = local_correct(degree, proof.point, proof.lines,
                            r.alpha + (0,) * k, r.a, r.t)
    at_phi = local_correct(degree, proof.point, proof.lines,
                           r.alpha + variety.phi(r.alpha), r.a, r.t)
    f_value = f.query(r.alpha)

    ok = (
        ldt_v.accepted
        and at_zero.accepted and at_zero.value == 0
        and at_phi.accepted and at_phi.value == f_value
    )
    return ACCEPT if ok else REJECT


def randomness_space_size(variety: Variety) -> int:
    """Number of distinct ZeroRandomness tuples (exhaustive-mode size)."""
    q = variety.field.q
    s = variety.m + variety.complexity
    return q ** (2 * s) * q ** variety.m * (q - 1)


def enumerate_randomness(variety: Variety):
    """All ZeroRandomness tuples in lexicographic order."""
    q = variety.field.q
    m = variety.m
    s = m + variety.complexity
    for a in itertools.product(range(q), repeat=s):
        for b in itertools.product(range(q), repeat=s):
            for alpha in itertools.product(range(q), repeat=m):
                for t in range(1, q):
                    yield ZeroRandomness(a, b, alpha, t)
