"""Finite point sets in F_q^m and their vanishing-ideal structure.

A ``Variety`` is any nonempty finite set of points with a fixed (lexicographic)
enumeration order, together with the generating set of its vanishing ideal.
Everything is read off one set of monomials, the *standard monomials*: the
columns of the evaluation matrix E (rows = points, columns = monomials in
graded order) that are independent of the columns before them.  There are n of
them, one per point, and two complexity parameters follow:

* the extension degree, the top degree of a standard monomial: the least d
  such that every function on the points extends to a polynomial of degree
  <= d (E_d reaches full row rank); and
* the Gröbner complexity, the size of a minimal generating set 𝔊 of the
  vanishing ideal with the degree-respecting property deg(h_g·g) <= deg(P)
  for every ideal member P = Σ h_g·g.

One Buchberger–Möller sweep over the monomials in graded order finds both.
Each monomial either is standard or has one relation: the polynomial with a 1
at the monomial and 0 at every other non-standard monomial that vanishes on
the points.  A degree-i relation becomes a generator when it is independent of
the relations of lower degree and their single-variable multiples.  The
low-degree extension of a function is its one interpolant over the standard
monomials: the sweep's echelon of their rows reduces its value row to minus
its coefficients.  A product V1 × V2 (cubes H^m, powers of balls, the PCP's
V × V) runs no elimination at all: its generating set is the union of the
factors' (variable-shifted) sets, its standard monomials the pairwise
products of theirs, and it interpolates factor by factor.

Certificates Σ h_g·g = P come from multivariate division by the reduced
Gröbner basis under the sweep's graded order: each step cancels P's leading
term against the first basis element whose leading monomial divides it, so
every quotient term q·r has degree <= deg(P), and a term no leading monomial
divides is a nonzero remainder, so P is not in the ideal.  The basis is the
relations of the minimal non-standard monomials, each stored with a
degree-respecting combination of the generators, through which the
quotients become the cofactors h_g; for cubes, balls, powers and V × V the
basis is the generating set itself.  The division runs on packed monomials
(``poly._packing``, sized from everything it packs), so a divisibility test,
a quotient monomial and a product with a tail term are each one integer
operation.  A claim kept as a ``FactoredPoly`` is multiplied out straight
onto that packing, and the identity Σ h_g·g = P is re-checked, term for
term, by multiplying out the products h_g·g on packed keys too; neither P
nor the residual is ever unpacked into a ``MultiPoly``.  The certificate is
packaged as the structured polynomial M(x, y) = Σ h_g(x)·y_g used by the
zero-on-variety verifier, kept as its products h_g(x)·y_g
(``certificate_factors``; ``expand()`` multiplies it out).
"""

from __future__ import annotations

import math
import re
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Sequence

from .codegen import _compile_phi
from .field import Field
from .linalg import IncrementalRank
from .poly import FactoredPoly, MultiPoly, _multiply_packed, _packing, monomials_exact

# Σ c_g·g as the pairs (generator index, c_g), and a Gröbner basis element
# with that combination of the generators
Combination = tuple[tuple[int, MultiPoly], ...]
BasisElement = tuple[MultiPoly, Combination]


class SpecError(ValueError):
    """Malformed variety spec string (text grammar or point file)."""


class NoCertificateError(ValueError):
    """P admits no degree-respecting certificate over the given generators."""


def read_int_rows(path: str | Path) -> list[tuple[tuple[int, ...], str]]:
    """The rows of whitespace-separated integers in a text file, skipping
    blank lines and ``#`` comments, each with ``<path>:<line>: '<text>'``
    (1-based line number) to name it in an error.  A token that is not an
    integer is a ValueError naming its file and line."""
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        where = f"{path}:{number}: {text!r}"
        try:
            rows.append((tuple(int(x) for x in text.split()), where))
        except ValueError:
            raise ValueError(f"{where}: expected integers") from None
    return rows


class Variety:
    """Ordered point set in F_q^m with a generating set of its vanishing ideal.

    ``gens`` is the generating set in a fixed order, which defines the y_g
    coordinate layout of certificate polynomials, so it is never shuffled.
    ``grobner_basis`` is the reduced Gröbner basis that certificates divide
    by, each element with its combination of ``gens``.  ``standard`` holds
    the n standard monomials in graded order; the extension degree is the
    degree of the last.  All three, and the echelon that interpolates
    (``_echelon``), come from one run of ``grobner_generating_set``; a
    product variety takes them from its two ``_factors`` (``product``).
    """

    __slots__ = ("field", "m", "points", "gens", "grobner_basis", "standard",
                 "_echelon", "_factors", "_phi")

    def __init__(self, field: Field, points: Sequence[Sequence[int]]):
        self._set_points(field, points)
        self._factors = None
        self._phi = None
        self.gens, self.grobner_basis, self.standard, self._echelon = grobner_generating_set(self)

    def _set_points(self, field: Field, points: Sequence[Sequence[int]]) -> None:
        q = field.q
        pts = [tuple(x % q for x in p) for p in points]
        if not pts:
            raise ValueError("variety needs at least one point")
        m = len(pts[0])
        if m < 1 or any(len(p) != m for p in pts):
            raise ValueError("points must share a positive dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        self.field = field
        self.m = m
        self.points = tuple(sorted(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (f"Variety(F_{self.field.q}, m={self.m}, n={len(self.points)}, "
                f"d={self.extension_degree})")

    @property
    def extension_degree(self) -> int:
        return sum(self.standard[-1])

    @property
    def complexity(self) -> int:
        return len(self.gens)

    def phi(self, z: Sequence[int]) -> tuple[int, ...]:
        """Generator-evaluation embedding z ↦ (g(z) : g ∈ 𝔊), the residues
        in generator order.

        One function generated for the generators' supports
        (``codegen._compile_phi``) evaluates them all at z over Z and reduces
        each value once, so z may have any integer coordinates; a z of the
        wrong arity raises ValueError.  The function and the generators'
        coefficients are built on the first call and kept, so ``gens`` must
        not be reassigned after it."""
        phi = self._phi
        if phi is None:
            gens = self.gens
            fn, orders = _compile_phi(tuple(frozenset(g.terms) for g in gens),
                                      self.m, self.field.q)
            phi = self._phi = (fn, tuple(g.terms[e] for g, order in zip(gens, orders)
                                         for e in order))
        return phi[0](phi[1], z)

    def low_degree_extension(self, values: Sequence[int]) -> MultiPoly:
        """The canonical degree-<=d polynomial agreeing with ``values`` on V.

        ``values`` follows the point enumeration order.  The result is the one
        interpolant supported on the standard monomials: of all degree-<=d
        interpolants, the one with every coefficient off the standard
        monomials zero, its terms in the order of ``standard``.
        """
        if len(values) != len(self.points):
            raise ValueError(f"need {len(self.points)} values, got {len(values)}")
        terms = self._interpolate(values)
        return MultiPoly._trusted(self.field, self.m,
                                  {e: terms[e] for e in self.standard if e in terms},
                                  self.extension_degree)

    def _interpolate(self, values: Sequence[int]) -> dict[tuple[int, ...], int]:
        """{standard monomial: nonzero coefficient} of the interpolant."""
        q = self.field.q
        if self._factors:   # value i·n2 + j is at (p_i, r_j): over V2 per p_i, then V1 per t
            v1, v2 = self._factors
            n2 = len(v2.points)
            inner = [v2._interpolate(values[i:i + n2]) for i in range(0, len(values), n2)]
            return {s + t: c for t in v2.standard
                    for s, c in v1._interpolate([f.get(t, 0) for f in inner]).items()}
        rows, monos = self._echelon   # every point column is a pivot: -coefficients are left
        n = len(self.points)
        rest = rows.reduce({i: y % q for i, y in enumerate(values) if y % q})
        return {monos[c - n]: -x % q for c, x in rest.items()}


def vanishes_on(poly: MultiPoly | FactoredPoly, variety: Variety) -> bool:
    if poly.nvars != variety.m:
        raise ValueError("polynomial/variety dimension mismatch")
    return all(poly.eval(p) == 0 for p in variety.points)


def grobner_generating_set(variety: Variety) -> tuple[
        tuple[MultiPoly, ...], tuple[BasisElement, ...], tuple[tuple[int, ...], ...],
        tuple[IncrementalRank, list[tuple[int, ...]]]]:
    """Minimal-size generating set, reduced Gröbner basis, standard
    monomials and the standard monomials' echelon, from one Buchberger–Möller
    sweep over the monomials in graded order.

    Monomial u's row is its values at the n points (columns 0..n-1) and a 1
    in u's own column.  Reduced by the standard monomials' rows, it keeps a
    point entry (u is standard; the row is kept) or it is u's relation, the
    kernel vector of E that ``Matrix.kernel_basis`` gives u's column, scaled
    to a leading 1; a relation is never kept, or it would leak into later
    ones.  Degree i's relations become generators when they are independent
    of B_i = span(A_{i-1} ∪ {x_j·a : a ∈ A_{i-1}}), A_{i-1} being the
    relations of degree < i, held in one echelon across degrees.  The sweep
    stops one degree past the extension degree.

    Every row of that echelon carries, in tag columns above every monomial
    column, its combination Σ c_g·g of the generators, so a relation that is
    not a new generator reduces to its combination (negated) and no solve is
    needed.  The relations of the minimal non-standard monomials, those whose
    every divisor x_j^{-1}·u is standard, are the reduced Gröbner basis, each
    kept with its combination; all of them have degree <= d+1.  The echelon
    comes with ``monos``, whose j-th monomial has column n + j.
    """
    field = variety.field
    q = field.q
    m = variety.m
    points = variety.points
    n = len(points)
    zero = (0,) * m
    rows = IncrementalRank(field)        # the standard monomials' rows
    reachable = IncrementalRank(field)   # B_i: monomial columns < 0 <= tag columns
    keys: dict[tuple[int, ...], int] = {}
    tags: dict[tuple[int, tuple[int, ...]], int] = {}   # (generator, x^μ) -> column
    tagged: list[tuple[int, tuple[int, ...]]] = []      # column -> (generator, x^μ)

    def tag(t: tuple[int, tuple[int, ...]]) -> int:
        if t not in tags:
            tags[t] = len(tagged)
            tagged.append(t)
        return tags[t]

    def keyed(rel: dict[tuple[int, ...], int],
              combo: dict[tuple[int, tuple[int, ...]], int]) -> dict[int, int]:
        row = {keys.setdefault(e, -1 - len(keys)): x for e, x in rel.items()}
        row.update((tag(t), x) for t, x in combo.items())
        return row

    def times_x(j: int, e: tuple[int, ...]) -> tuple[int, ...]:
        return e[:j] + (e[j] + 1,) + e[j + 1:]

    monos: list[tuple[int, ...]] = []    # column n + j holds monos[j]
    standard: list[tuple[int, ...]] = []
    gens: list[MultiPoly] = []
    basis: list[BasisElement] = []
    degree = 0
    while True:
        full = len(standard) == n
        below = set(standard)            # the standard monomials of lower degree
        relations = []
        for u in monomials_exact(m, degree):
            row = {c: v for c, p in enumerate(points)
                   if (v := math.prod(pow(x, e, q) for x, e in zip(p, u)) % q)}
            row[n + len(monos)] = 1
            monos.append(u)
            rows.reduce(row)
            if min(row) < n:
                rows.insert(row)
                standard.append(u)
                continue
            s = field.inv(row[min(row)])
            rel = {monos[c - n]: x * s % q for c, x in sorted(row.items())}
            rest = reachable.reduce(keyed(rel, {}))
            if min(rest) < 0:            # independent of B_i: a new generator
                combo = {(len(gens), zero): 1}
                rest[tag((len(gens), zero))] = 1
                reachable.insert(rest)
                gens.append(MultiPoly(field, m, rel, degree))
            else:                        # rel is in B_i: its tags are -combination
                combo = {tagged[c]: -x % q for c, x in rest.items()}
            relations.append((rel, combo))
            # u is a minimal non-standard monomial: every u / x_j is standard
            if all(u[j] == 0 or u[:j] + (u[j] - 1,) + u[j + 1:] in below
                   for j in range(m)):
                basis.append((MultiPoly(field, m, rel, degree), _combination(field, m, combo)))
        if full:
            return tuple(gens), tuple(basis), tuple(standard), (rows, monos)
        for rel, combo in relations:
            for j in range(m):
                rest = reachable.reduce(keyed(
                    {times_x(j, e): x for e, x in rel.items()},
                    {(g, times_x(j, e)): x for (g, e), x in combo.items()}))
                if min(rest, default=0) < 0:   # else a syzygy, which B_i needs not
                    reachable.insert(rest)
        degree += 1


def _combination(field: Field, m: int, combo: dict[tuple[int, tuple[int, ...]], int]
                 ) -> Combination:
    """{(generator, x^μ): c} as the pairs (generator index, Σ c·x^μ)."""
    by_gen: dict[int, dict[tuple[int, ...], int]] = {}
    for (g, e), x in combo.items():
        by_gen.setdefault(g, {})[e] = x
    return tuple((g, MultiPoly(field, m, terms, max(sum(e) for e in terms)))
                 for g, terms in sorted(by_gen.items()))


def product(v1: Variety, v2: Variety) -> Variety:
    """V1 × V2 with the union generating set and the union Gröbner basis
    (second factor's variables and generator indices shifted).

    No elimination runs.  Under a graded order, Gröbner bases of I(V1) and
    I(V2) have their leading monomials in disjoint variables, so their union
    is a Gröbner basis of I(V1) + I(V2) = I(V1 × V2): the standard monomials
    of V1 × V2 are the products of the factors', and their top degrees add.
    The points are V1-major (p + r for p in V1, then r in V2; already sorted).
    """
    if v1.field != v2.field:
        raise ValueError("mixed fields")
    m = v1.m + v2.m
    variety = object.__new__(Variety)
    variety._set_points(v1.field, [p + r for p in v1.points for r in v2.points])
    variety._factors = (v1, v2)
    variety._phi = None
    variety.gens = tuple(
        [g.shift_vars(m, 0) for g in v1.gens] + [g.shift_vars(m, v1.m) for g in v2.gens]
    )
    variety.grobner_basis = tuple(
        (r.shift_vars(m, offset), tuple((first + g, c.shift_vars(m, offset)) for g, c in combo))
        for v, offset, first in ((v1, 0, 0), (v2, v1.m, len(v1.gens)))
        for r, combo in v.grobner_basis)
    variety.standard = tuple(sorted((s + t for s in v1.standard for t in v2.standard),
                                    key=_graded))
    return variety


# -- standard families -------------------------------------------------------

def cube_variety(field: Field, coords: Sequence[int], m: int) -> Variety:
    """H^m as an m-fold product of the one-dimensional variety H."""
    if not coords:
        raise SpecError("cube needs a nonempty coordinate set H")
    if m < 1:
        raise SpecError("cube needs m >= 1")
    return power_variety(Variety(field, [(h,) for h in coords]), m)


def ball1_variety(field: Field, n: int) -> Variety:
    """Boolean points of Hamming weight <= 1: the origin and the unit vectors."""
    if n < 1:
        raise SpecError("ball1 needs n >= 1")
    points = [(0,) * n]
    for i in range(n):
        e = [0] * n
        e[i] = 1
        points.append(tuple(e))
    return Variety(field, points)


def power_variety(inner: Variety, c: int) -> Variety:
    if c < 1:
        raise SpecError("power needs exponent >= 1")
    acc = inner
    for _ in range(c - 1):
        acc = product(acc, inner)
    return acc


_POW_RE = re.compile(r"^pow:\((?P<inner>.+)\)\^(?P<c>\d+)$")


def make_variety(field: Field, spec: str) -> Variety:
    """Build a variety from the CLI text grammar.

    Accepted forms: ``cube:H=<csv>;m=<int>``, ``ball1:n=<int>``,
    ``pow:(<spec>)^<c>``, ``points:<file>`` (one point per line,
    space-separated residues).
    """
    spec = spec.strip()
    if spec.startswith("cube:"):
        fields = dict(
            part.split("=", 1) for part in spec[len("cube:"):].split(";") if "=" in part
        )
        try:
            coords = [int(x) for x in fields["H"].split(",") if x != ""]
            m = int(fields["m"])
        except (KeyError, ValueError) as exc:
            raise SpecError(f"bad cube spec {spec!r}") from exc
        if len(set(x % field.q for x in coords)) != len(coords):
            raise SpecError("cube coordinate set has duplicates")
        return cube_variety(field, coords, m)
    if spec.startswith("ball1:"):
        match = re.fullmatch(r"ball1:n=(\d+)", spec)
        if not match:
            raise SpecError(f"bad ball1 spec {spec!r}")
        return ball1_variety(field, int(match.group(1)))
    match = _POW_RE.fullmatch(spec)
    if match:
        inner = make_variety(field, match.group("inner"))
        return power_variety(inner, int(match.group("c")))
    if spec.startswith("points:"):
        path = Path(spec[len("points:"):])
        if not path.exists():
            raise SpecError(f"point file not found: {path}")
        rows = read_int_rows(path)
        if not rows:
            raise SpecError(f"point file {path} is empty")
        m = len(rows[0][0])
        seen: dict[tuple[int, ...], str] = {}
        for point, where in rows:
            if len(point) != m:
                raise SpecError(f"{where}: {len(point)} coordinates, "
                                f"but the first point has {m}")
            residues = tuple(x % field.q for x in point)
            if residues in seen:
                raise SpecError(f"{where}: the same point mod {field.q} as {seen[residues]}")
            seen[residues] = where
        return Variety(field, [point for point, _ in rows])
    raise SpecError(f"unrecognized variety spec {spec!r}")


# -- certificates ------------------------------------------------------------

def vanishing_certificate(poly: MultiPoly | FactoredPoly, ideal: Variety | Sequence[MultiPoly]
                          ) -> tuple[MultiPoly, ...]:
    """Cofactors h_g, parallel to the generator order, with Σ h_g·g = P and
    deg(h_g·g) <= deg(P), by division.

    ``ideal`` is a variety, whose reduced Gröbner basis is divided by and
    whose generators get the cofactors, or a bare sequence of generators
    that already form a Gröbner basis under the graded order.  The leading
    term of what is left of P is cancelled against the first basis element,
    in stored order, whose leading monomial divides it; a term that none
    divides is a nonzero remainder, so this doubles as an ideal-membership
    test with the degree bound built in.

    Monomials are packed (``_packing``) with fields sized from the largest
    of deg P (for a ``FactoredPoly``, its degree bound), every basis
    element's degree and every combination term's degree, so no leading
    monomial overflows its fields even when it has higher degree than P.
    A ``FactoredPoly`` is multiplied out straight onto that packing, so it
    is never built as a ``MultiPoly``.  k is divisible by a leading monomial
    l when ((k | guard) - l) & guard == guard, the quotient monomial is
    k - l, and the heap pops ((top - deg k) << span) | k, smallest first:
    descending degree, then ascending exponent tuple, the graded order's
    leading term first.  The residual Σ h_g·g must equal P term for term.
    ``_multiply_packed`` multiplies it out from the division's own packed
    cofactor terms and the packed generators, on fields that hold both top
    and the residual's cap max(cap h_g + cap g), which can exceed top (a
    generator declared with a larger cap than its degree, or a combination
    that is not degree-respecting, whose products h_g·g cancel above
    deg P); P's and the cofactors' packed terms are repacked onto those
    fields only when they are wider.
    """
    field = poly.field
    m = poly.nvars
    if isinstance(ideal, Variety):
        gens, basis = ideal.gens, ideal.grobner_basis
    else:
        gens = tuple(ideal)
        one = MultiPoly.constant(field, m, 1)
        basis = tuple((g, ((gi, one),)) for gi, g in enumerate(gens) if not g.is_zero())
    for g in gens:
        if g.nvars != m or g.field != field:
            raise ValueError("generator ring mismatch")

    q = field.q
    top = max([poly.degree()] + [r.degree() for r, _ in basis]
              + [c.degree() for _, combo in basis for _, c in combo])
    pack, unpack, total, guard, span = _packing(m, top)
    if isinstance(poly, FactoredPoly):
        terms = poly._expand_packed(pack)
    else:
        terms = {pack(e): c for e, c in poly.terms.items()}
    if not terms:
        zero = MultiPoly.zero(field, m)
        return tuple(zero for _ in gens)

    cof_terms: list[dict[int, int]] = [{} for _ in gens]
    divisors = []
    for r, combo in basis:
        lead = max(r.terms, key=_graded)
        shift = sum(lead) << span
        # a tail term t is kept as ((deg lead - deg t) << span) + pack(t), so
        # that key(k) - pack(lead) + it is key(mu·t) for mu = k / lead
        tail = [(shift - (sum(e) << span) + pack(e), x) for e, x in r.terms.items() if e != lead]
        divisors.append((pack(lead), field.inv(r.terms[lead]), tail,
                         [(cof_terms[g], [(pack(e), x) for e, x in c.terms.items()])
                          for g, c in combo]))
    # key(k) = ((top - deg k) << span) | k pops in descending graded order
    low = (1 << span) - 1
    rest = {((top - total(k)) << span) | k: c for k, c in terms.items()}
    heap = list(rest)
    heapify(heap)
    while heap:
        key = heappop(heap)
        c = rest.pop(key, 0)
        if not c:  # cancelled, or queued twice
            continue
        k = key & low
        for lead, inv, tail, combo in divisors:
            if ((k | guard) - lead) & guard == guard:
                break
        else:
            raise NoCertificateError(
                "no certificate: polynomial is not in the ideal within its degree bound")
        f = c * inv % q
        base = key - lead
        for t, x in tail:
            child = base + t
            old = rest.get(child)
            v = ((old or 0) - f * x) % q
            if v:
                if old is None:
                    heappush(heap, child)
                rest[child] = v
            elif old is not None:
                del rest[child]
        mu = k - lead
        for h, c_terms in combo:
            for t, x in c_terms:
                e = mu + t
                h[e] = (h.get(e, 0) + f * x) % q
    # an accumulator term can cancel to 0; a cofactor keeps only the others
    lives = [[(t, x) for t, x in packed.items() if x] for packed in cof_terms]
    cofactors = tuple(MultiPoly._trusted(field, m, {unpack(t): x for t, x in live},
                                         max((total(t) for t, _ in live), default=0))
                      for live in lives)

    wide = max([top] + [h.cap + g.cap for h, g in zip(cofactors, gens)])
    if wide.bit_length() != top.bit_length():
        pack = _packing(m, wide)[0]
        terms = {pack(unpack(k)): c for k, c in terms.items()}
        lives = [[(pack(unpack(t)), x) for t, x in live] for live in lives]
    products = ((live, [(pack(e), c) for e, c in g.terms.items()]) for live, g in zip(lives, gens))
    if _multiply_packed(products, q) != terms:
        raise AssertionError("certificate residual check failed")
    return cofactors


def _graded(e: tuple[int, ...]) -> tuple[int, list[int]]:
    """The sweep's graded order as a sort key: the larger key leads."""
    return sum(e), [-x for x in e]


def certificate_factors(cofactors: Sequence[MultiPoly], gens: Sequence[MultiPoly],
                        cap: int) -> FactoredPoly:
    """M(x,y) = Σ h_g(x)·y_g in m+k variables, as the products h_g(x)·y_g.

    Zero cofactors contribute no product.  Every product carries exactly one
    y variable, so M(x, 0) = 0 structurally, and substituting y_g = g(x)
    recovers the certified polynomial.
    """
    if len(cofactors) != len(gens):
        raise ValueError("certificate/generator count mismatch")
    k = len(gens)
    if k == 0:
        raise ValueError("need at least one generator")
    field = gens[0].field
    m = gens[0].nvars
    nvars = m + k
    products = [
        (h.shift_vars(nvars, 0), MultiPoly.variable(field, nvars, m + gi))
        for gi, h in enumerate(cofactors) if not h.is_zero()
    ]
    return FactoredPoly(field, nvars, products, cap)

