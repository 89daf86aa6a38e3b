"""Finite point sets in F_q^m and their vanishing-ideal structure.

A ``Variety`` is any nonempty finite set of points with a fixed (lexicographic)
enumeration order, together with the generating set of its vanishing ideal.
Two complexity parameters drive everything downstream:

* the extension degree — the least d such that every function on the points
  extends to a polynomial of degree <= d (equivalently, the least d at which
  the evaluation matrix E_d reaches full row rank); and
* the Gröbner complexity — the size of a minimal generating set 𝔊 of the
  vanishing ideal with the degree-respecting property deg(h_g·g) <= deg(P)
  for every ideal member P = Σ h_g·g.

The generating set is built degree by degree: at degree i, take a kernel basis
A_i of E_i, span the "already reachable" part B_i (lower-degree kernel plus
its single-variable multiples), and keep just enough new kernel vectors to
close the gap.  The same pass finds the extension degree: it stops one degree
after E_{i-1} reaches full row rank.  A product V1 × V2 (cubes H^m, powers
such as the ball products ({0,1}^n_{<=1})^c, and the PCP's V × V) runs no
elimination at all: its generating set is the union of the factors'
(variable-shifted) sets and its extension degree the sum of theirs.

Certificates Σ h_g·g = P are extracted by one exact linear solve over the
cofactor coefficients: one row per monomial of degree <= deg(P), one column
per generator g and cofactor monomial, which holds g's |g.terms| coefficients
and nothing else.  The system is built as sparse rows and solved by the
sparse kernel of ``linalg``.  The certificate is packaged as the structured
polynomial M(x, y) = Σ h_g(x)·y_g used by the zero-on-variety verifier, kept
as its products h_g(x)·y_g (``certificate_factors``; ``expand()`` multiplies
it out).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .field import Field
from .linalg import IncrementalRank, Matrix, NoSolutionError
from .poly import FactoredPoly, MultiPoly, _powers, monomials_upto


class SpecError(ValueError):
    """Malformed variety spec string (text grammar or point file)."""


class NoCertificateError(ValueError):
    """P admits no degree-respecting certificate over the given generators."""


def _monomial_values(pows: list[list[int]], monos: Sequence[tuple[int, ...]],
                     q: int) -> list[int]:
    """Each monomial at one point, read off the point's table of powers."""
    out = []
    for exps in monos:
        v = 1
        for i, e in enumerate(exps):
            if e:
                v = v * pows[i][e] % q
        out.append(v)
    return out


class Variety:
    """Ordered point set in F_q^m with a generating set of its vanishing ideal.

    ``gens`` is the generating set in a fixed order, which defines the y_g
    coordinate layout of certificate polynomials, so it is never shuffled.
    ``extension_degree`` is the least d at which E_d has full row rank.  Both
    come from one run of ``grobner_generating_set``; a product variety takes
    them from its factors (``product``).
    """

    __slots__ = ("field", "m", "points", "gens", "extension_degree", "_index")

    def __init__(self, field: Field, points: Sequence[Sequence[int]]):
        self._set_points(field, points)
        self.gens, self.extension_degree = grobner_generating_set(self)

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
        self._index = {p: i for i, p in enumerate(self.points)}

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (f"Variety(F_{self.field.q}, m={self.m}, n={len(self.points)}, "
                f"d={self.extension_degree})")

    @property
    def complexity(self) -> int:
        return len(self.gens)

    def phi(self, z: Sequence[int]) -> tuple[int, ...]:
        """Generator-evaluation embedding z ↦ (g(z) : g ∈ 𝔊)."""
        return tuple(g.eval(z) for g in self.gens)

    def index_of(self, point: Sequence[int]) -> int:
        return self._index[tuple(x % self.field.q for x in point)]

    def evaluation_matrix(self, degree: int) -> Matrix:
        """E_degree: rows = points (enumeration order), columns = monomials."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        q = self.field.q
        monos = monomials_upto(self.m, degree)
        return Matrix(self.field, [_monomial_values(_powers(p, [degree] * self.m, q), monos, q)
                                   for p in self.points])

    def low_degree_extension(self, values: Sequence[int]) -> MultiPoly:
        """The canonical degree-<=d polynomial agreeing with ``values`` on V.

        ``values`` follows the point enumeration order.  The result is the
        interpolant with every free coefficient zero (E_d x = values solved by
        ``Matrix.solve``), so the choice among the many interpolating
        polynomials is deterministic.
        """
        if len(values) != len(self.points):
            raise ValueError(f"need {len(self.points)} values, got {len(values)}")
        coeffs = self.evaluation_matrix(self.extension_degree).solve(values)
        return MultiPoly.from_vector(self.field, self.m, self.extension_degree, coeffs)


def vanishes_on(poly: MultiPoly | FactoredPoly, variety: Variety) -> bool:
    if poly.nvars != variety.m:
        raise ValueError("polynomial/variety dimension mismatch")
    return all(poly.eval(p) == 0 for p in variety.points)


def grobner_generating_set(variety: Variety) -> tuple[tuple[MultiPoly, ...], int]:
    """Minimal-size generating set, built per degree from kernel bases, and
    the extension degree.

    Degree i contributes kernel vectors of E_i that are independent of
    B_i = span(A_{i-1} ∪ {x_j·a : a ∈ A_{i-1}}); the loop stops once E_{i-1}
    already had full row rank (one degree past the extension degree), so the
    extension degree is i - 1.
    """
    field = variety.field
    m = variety.m
    n = len(variety.points)
    gens: list[MultiPoly] = []

    prev_monos: list[tuple[int, ...]] = monomials_upto(m, 0)
    prev_kernel: list[list[int]] = variety.evaluation_matrix(0).kernel_basis()
    degree = 0
    while True:
        # rank of E_{i-1}; when it is already full the current degree is the
        # last one that can contribute generators.
        rank_below = len(prev_monos) - len(prev_kernel)
        degree += 1
        monos = monomials_upto(m, degree)
        index = {e: j for j, e in enumerate(monos)}
        kernel = variety.evaluation_matrix(degree).kernel_basis()

        reachable = IncrementalRank(field, len(monos))
        pad = len(monos) - len(prev_monos)
        for vec in prev_kernel:
            reachable.add(vec + [0] * pad)
            for var in range(m):
                shifted = [0] * len(monos)
                for j, c in enumerate(vec):
                    if c:
                        e = list(prev_monos[j])
                        e[var] += 1
                        shifted[index[tuple(e)]] = c
                reachable.add(shifted)

        for vec in kernel:
            if reachable.add(vec):
                gens.append(MultiPoly.from_vector(field, m, degree, vec))

        prev_monos, prev_kernel = monos, kernel
        if rank_below == n:
            return tuple(gens), degree - 1


def product(v1: Variety, v2: Variety) -> Variety:
    """V1 × V2 with the union generating set (second factor's variables shifted).

    No elimination runs, and the extension degree is the sum of the factors'.
    Under a graded order, Gröbner bases of I(V1) and I(V2) have their leading
    monomials in disjoint variables, so their union is a Gröbner basis of
    I(V1) + I(V2) = I(V1 × V2): the standard monomials of V1 × V2 are the
    products of the factors', and their top degrees add.
    """
    if v1.field != v2.field:
        raise ValueError("mixed fields")
    m = v1.m + v2.m
    variety = object.__new__(Variety)
    variety._set_points(v1.field, [p + r for p in v1.points for r in v2.points])
    variety.gens = tuple(
        [g.shift_vars(m, 0) for g in v1.gens] + [g.shift_vars(m, v1.m) for g in v2.gens]
    )
    variety.extension_degree = v1.extension_degree + v2.extension_degree
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
        points = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            points.append(tuple(int(x) for x in line.split()))
        if not points:
            raise SpecError(f"point file {path} is empty")
        return Variety(field, points)
    raise SpecError(f"unrecognized variety spec {spec!r}")


# -- certificates ------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """Cofactors h_g (parallel to the generator order) with Σ h_g·g = P."""

    cofactors: tuple[MultiPoly, ...]
    bound: int  # deg(h_g · g) <= bound = deg(P)


def vanishing_certificate(poly: MultiPoly, gens: Sequence[MultiPoly]) -> Certificate:
    """Solve for cofactors h_g with Σ h_g·g = P and deg(h_g·g) <= deg(P).

    One exact linear solve over all cofactor coefficients (free variables
    zeroed, so the output is canonical).  Raising on inconsistency makes this
    double as an ideal-membership test with the degree bound built in.
    """
    field = poly.field
    m = poly.nvars
    for g in gens:
        if g.nvars != m or g.field != field:
            raise ValueError("generator ring mismatch")
    bound = poly.degree()
    if poly.is_zero():
        zero = MultiPoly.zero(field, m)
        return Certificate(tuple(zero for _ in gens), 0)

    # one row per target monomial, one column per (generator, h-monomial):
    # column j holds generator g shifted by its monomial, |g.terms| nonzeros.
    # Monomials are keyed by their exponents read as digits in base bound+1;
    # no exponent of a product exceeds the bound, so key(mono·ge) is
    # key(mono) + key(ge).  The h-monomials are a prefix of the target
    # monomials (see ``monomials_upto``), so they share its keys.
    weights = [(bound + 1) ** i for i in range(m)]

    def key(e: tuple[int, ...]) -> int:
        return sum(x * w for x, w in zip(e, weights))

    target_monos = monomials_upto(m, bound)
    target_keys = [key(e) for e in target_monos]
    row_index = {k: i for i, k in enumerate(target_keys)}
    rows: list[dict[int, int]] = [{} for _ in target_monos]
    col_owner: list[tuple[int, tuple[int, ...]]] = []  # (generator index, h-monomial)
    for gi, g in enumerate(gens):
        gdeg = g.degree()
        if g.is_zero() or gdeg > bound:
            continue
        g_keyed = [(key(ge), gc) for ge, gc in g.terms.items()]
        for mono, mk in zip(monomials_upto(m, bound - gdeg), target_keys):
            j = len(col_owner)
            for gk, gc in g_keyed:
                rows[row_index[mk + gk]][j] = gc
            col_owner.append((gi, mono))
    if not col_owner:
        raise NoCertificateError("no certificate: no usable generators within the degree bound")

    system = Matrix.from_sparse(field, rows, len(col_owner))
    rhs = [poly.terms.get(e, 0) for e in target_monos]
    try:
        solution = system.solve(rhs)
    except NoSolutionError as exc:
        raise NoCertificateError(
            "no certificate: polynomial is not in the ideal within its degree bound"
        ) from exc

    cof_terms: list[dict[tuple[int, ...], int]] = [dict() for _ in gens]
    for value, (gi, mono) in zip(solution, col_owner):
        if value:
            cof_terms[gi][mono] = value
    cofactors = tuple(
        MultiPoly(field, m, terms, max((sum(e) for e in terms), default=0))
        for terms in cof_terms
    )

    check = MultiPoly.zero(field, m)
    for h, g in zip(cofactors, gens):
        check = check.add(h.mul(g))
    if check != poly:
        raise AssertionError("certificate residual check failed")  # pragma: no cover
    return Certificate(cofactors, bound)


def certificate_factors(cert: Certificate, gens: Sequence[MultiPoly],
                        cap: int | None = None) -> FactoredPoly:
    """M(x,y) = Σ h_g(x)·y_g in m+k variables, as the products h_g(x)·y_g.

    Zero cofactors contribute no product.  Every product carries exactly one
    y variable, so M(x, 0) = 0 structurally, and substituting y_g = g(x)
    recovers the certified polynomial.
    """
    if len(cert.cofactors) != len(gens):
        raise ValueError("certificate/generator count mismatch")
    k = len(gens)
    if k == 0:
        raise ValueError("need at least one generator")
    field = gens[0].field
    m = gens[0].nvars
    nvars = m + k
    products = [
        (h.shift_vars(nvars, 0), MultiPoly.variable(field, nvars, m + gi))
        for gi, h in enumerate(cert.cofactors) if not h.is_zero()
    ]
    return FactoredPoly(field, nvars, products, cert.bound if cap is None else cap)

