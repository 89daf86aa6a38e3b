"""Dense multivariate and univariate polynomials over a prime field.

``MultiPoly`` keeps a map from exponent vectors to nonzero residues plus a
declared degree cap.  It evaluates and restricts to lines by one nested-Horner
walk over the variables its terms use, built on first use: x_i^e's
coefficient is a polynomial in the later variables, and the walk multiplies
by x_i (a scalar for ``eval``, the linear polynomial a_i + b_i t for
``restrict``) once per step down in e.  ``FactoredPoly`` is a sum of products
of ``MultiPoly`` factors that evaluates and restricts factor by factor without
multiplying out; ``UniPoly`` is a fixed-length coefficient vector (index =
power of t, trailing zeros retained) as handed out by lines tables.

The canonical monomial order used for matrix columns, coefficient vectors and
text output is graded lexicographic: monomials grouped by total degree, and
within a degree block ordered by descending exponent tuple.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .field import Field


def monomials_exact(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree exactly ``degree``, desc-lex order."""
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors of total degree <= ``degree``, degree blocks ascending.

    Lower-degree blocks are a prefix of higher-degree enumerations, which is
    what lets evaluation matrices grow by appending columns.
    """
    out = []
    for k in range(degree + 1):
        out.extend(monomials_exact(nvars, k))
    return out


def _powers(point: Sequence[int], maxes: Sequence[int], q: int) -> list[list[int]]:
    """pows[i][e] = point_i^e mod q for e <= maxes[i]."""
    pows = []
    for x, mx in zip(point, maxes):
        lst = [1] * (mx + 1)
        x %= q
        cur = 1
        for e in range(1, mx + 1):
            cur = cur * x % q
            lst[e] = cur
        pows.append(lst)
    return pows


class DegreeCapError(ValueError):
    """A term exceeds the polynomial's declared degree cap."""


def _horner_layout(items: list[tuple[tuple[int, ...], int]], start: int):
    """Nested-Horner layout of a nonempty list of (exponents, coefficient).

    The layout is either an int, the constant, or ``(var, children)`` where
    ``children[e]`` is the layout of the coefficient of x_var^e (itself a
    polynomial in the later variables), or None when that coefficient is
    empty.  ``var`` is the first variable from ``start`` on that some term
    uses, so variables no term uses are never walked.
    """
    nvars = len(items[0][0])
    for var in range(start, nvars):
        if any(e[var] for e, _ in items):
            break
    else:
        return items[0][1]  # no variable left: a single constant term
    groups: dict[int, list] = {}
    for item in items:
        groups.setdefault(item[0][var], []).append(item)
    children = [None] * (max(groups) + 1)
    for e, group in groups.items():
        children[e] = _horner_layout(group, var + 1)
    return var, children


def _horner_eval(layout, point: Sequence[int], q: int) -> int:
    """The layout's polynomial at ``point``."""
    if type(layout) is int:
        return layout
    var, children = layout
    x = point[var] % q
    acc = 0
    for child in reversed(children):
        if child is None:
            acc = acc * x % q
        elif type(child) is int:
            acc = (acc * x + child) % q
        else:
            acc = (acc * x + _horner_eval(child, point, q)) % q
    return acc


def _horner_restrict(layout, a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    """Coefficients in t of the layout's polynomial composed with a + t b,
    up to its degree (no padding); entries may be unreduced."""
    if type(layout) is int:
        return [layout]
    var, children = layout
    ai = a[var] % q
    bi = b[var] % q
    top = children[-1]
    acc = [top] if type(top) is int else _horner_restrict(top, a, b, q)
    for child in children[-2::-1]:
        # acc <- acc * (ai + bi t) + child
        acc = [(ai * x + bi * y) % q for x, y in zip(acc + [0], [0] + acc)]
        if child is None:
            continue
        if type(child) is int:
            acc[0] += child
            continue
        sub = _horner_restrict(child, a, b, q)
        if len(sub) > len(acc):
            acc.extend([0] * (len(sub) - len(acc)))
        for j, c in enumerate(sub):
            acc[j] += c
    return acc


class MultiPoly:
    """Polynomial in F_q[x_1..x_m] with a declared degree cap."""

    __slots__ = ("field", "nvars", "cap", "terms", "_horner")

    def __init__(self, field: Field, nvars: int, terms: dict[tuple[int, ...], int], cap: int):
        q = field.q
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in terms.items():
            c %= q
            if not c:
                continue
            if len(exps) != nvars:
                raise ValueError(f"exponent vector {exps} has wrong arity (nvars={nvars})")
            if sum(exps) > cap:
                raise DegreeCapError(f"term {exps} exceeds degree cap {cap}")
            clean[tuple(exps)] = c
        self.field = field
        self.nvars = nvars
        self.cap = cap
        self.terms = clean
        self._horner = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int, cap: int = 0) -> "MultiPoly":
        return cls(field, nvars, {}, cap)

    @classmethod
    def constant(cls, field: Field, nvars: int, value: int, cap: int = 0) -> "MultiPoly":
        return cls(field, nvars, {(0,) * nvars: value}, cap)

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int, cap: int = 1) -> "MultiPoly":
        e = [0] * nvars
        e[index] = 1
        return cls(field, nvars, {tuple(e): 1}, cap)

    @classmethod
    def from_vector(cls, field: Field, nvars: int, degree: int, coeffs: Sequence[int]) -> "MultiPoly":
        """From coefficients in graded-lex order (``monomials_upto(nvars, degree)``)."""
        monos = monomials_upto(nvars, degree)
        if len(coeffs) != len(monos):
            raise ValueError(f"expected {len(monos)} coefficients, got {len(coeffs)}")
        return cls(field, nvars, dict(zip(monos, coeffs)), degree)

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        """Actual total degree (0 for the zero polynomial)."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def with_cap(self, cap: int) -> "MultiPoly":
        return MultiPoly(self.field, self.nvars, self.terms, cap)

    def shift_vars(self, nvars: int, offset: int) -> "MultiPoly":
        """Embed into a larger variable space, old x_i becoming x_{i+offset}."""
        if offset < 0 or offset + self.nvars > nvars:
            raise ValueError("shift out of range")
        pre = (0,) * offset
        post = (0,) * (nvars - offset - self.nvars)
        return MultiPoly(
            self.field, nvars, {pre + e + post: c for e, c in self.terms.items()}, self.cap
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"MultiPoly({self.text()!r}, nvars={self.nvars}, cap={self.cap})"

    # -- arithmetic ---------------------------------------------------------

    def _binop_check(self, other: "MultiPoly") -> None:
        if self.field != other.field or self.nvars != other.nvars:
            raise ValueError("mixed polynomial rings")

    def add(self, other: "MultiPoly") -> "MultiPoly":
        self._binop_check(other)
        q = self.field.q
        terms = dict(self.terms)
        for e, c in other.terms.items():
            v = (terms.get(e, 0) + c) % q
            if v:
                terms[e] = v
            else:
                terms.pop(e, None)
        return MultiPoly(self.field, self.nvars, terms, max(self.cap, other.cap))

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "MultiPoly":
        q = self.field.q
        c %= q
        return MultiPoly(self.field, self.nvars, {e: (v * c) % q for e, v in self.terms.items()}, self.cap)

    def add_constant(self, c: int) -> "MultiPoly":
        return self.add(MultiPoly.constant(self.field, self.nvars, c))

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        self._binop_check(other)
        q = self.field.q
        acc: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = acc.get(e, 0) + c1 * c2
                acc[e] = v
        cap = self.cap + other.cap
        return MultiPoly(self.field, self.nvars, {e: v % q for e, v in acc.items()}, cap)

    # -- evaluation and restriction ----------------------------------------

    def _layout(self):
        """The nested-Horner layout of the terms (see ``_horner_layout``)."""
        if self._horner is None:
            self._horner = _horner_layout(list(self.terms.items()), 0) if self.terms else 0
        return self._horner

    def eval(self, point: Sequence[int]) -> int:
        """P(point), by a Horner walk of the layout."""
        if len(point) != self.nvars:
            raise ValueError(f"point arity {len(point)} != {self.nvars}")
        return _horner_eval(self._layout(), point, self.field.q)

    def restrict(self, a: Sequence[int], b: Sequence[int]) -> "UniPoly":
        """Formal composition P(a + t b), expanded in t.

        Purely symbolic: a Horner walk of the layout multiplies by the linear
        polynomial a_i + b_i t at each step, so the result is exact in F_q[t]
        even when the cap is >= q.  Returns exactly cap+1 coefficients.
        """
        if len(a) != self.nvars or len(b) != self.nvars:
            raise ValueError("line arity mismatch")
        coeffs = _horner_restrict(self._layout(), a, b, self.field.q)
        return UniPoly(self.field, coeffs + [0] * (self.cap + 1 - len(coeffs)))

    # -- text form ----------------------------------------------------------

    def text(self) -> str:
        """Canonical form: graded-lex terms like ``3*x1^2 + x1*x2 + 4``."""
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            c = self.terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)


def _convolve(u: list[int], v: list[int], q: int) -> list[int]:
    """Coefficients of the product of two univariate coefficient lists."""
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                out[i + j] += x * y
    return [c % q for c in out]


class FactoredPoly:
    """Σ_i Π_j f_ij over F_q[x_1..x_m], kept as its ``MultiPoly`` factors.

    ``eval`` and ``restrict`` ask each factor for its own Horner walk and
    combine the results, so a product of a few small factors is never
    multiplied out.  Restriction along a line is a ring homomorphism
    F_q[x] -> F_q[t] (a formal composition, see ``MultiPoly.restrict``), so
    the combined restriction has exactly the coefficients of the expanded
    polynomial's, also when the cap is >= q.  ``cap`` is the declared degree
    bound, as for ``MultiPoly``.
    """

    __slots__ = ("field", "nvars", "cap", "products")

    def __init__(self, field: Field, nvars: int,
                 products: Iterable[Sequence[MultiPoly]], cap: int):
        self.field = field
        self.nvars = nvars
        self.cap = cap
        self.products = tuple(tuple(factors) for factors in products)
        for factors in self.products:
            if not factors:
                raise ValueError("empty product")
            for f in factors:
                if f.field != field or f.nvars != nvars:
                    raise ValueError("mixed polynomial rings")
        if self.degree() > cap:
            raise DegreeCapError(f"degree bound {self.degree()} exceeds cap {cap}")

    @classmethod
    def product(cls, factors: Sequence[MultiPoly]) -> "FactoredPoly":
        """Π factors, with the cap a multiplication would give it."""
        return cls(factors[0].field, factors[0].nvars, [factors], sum(f.cap for f in factors))

    def degree(self) -> int:
        """Degree bound: the largest sum of factor degrees over the products.

        Exact for a single product, since F_q[x] has no zero divisors.
        """
        return max((sum(f.degree() for f in factors) for factors in self.products), default=0)

    def with_cap(self, cap: int) -> "FactoredPoly":
        return FactoredPoly(self.field, self.nvars, self.products, cap)

    def expand(self) -> MultiPoly:
        """The multiplied-out polynomial, capped at ``cap``."""
        total = MultiPoly.zero(self.field, self.nvars, self.cap)
        for factors in self.products:
            total = total.add(functools.reduce(MultiPoly.mul, factors))
        return total.with_cap(self.cap)

    def eval(self, point: Sequence[int]) -> int:
        """Σ_i Π_j f_ij(point), each factor evaluated by its own Horner walk."""
        if len(point) != self.nvars:
            raise ValueError(f"point arity {len(point)} != {self.nvars}")
        q = self.field.q
        total = 0
        for factors in self.products:
            v = 1
            for f in factors:
                v = v * f.eval(point) % q
            total += v
        return total % q

    def restrict(self, a: Sequence[int], b: Sequence[int]) -> "UniPoly":
        """Σ_i Π_j f_ij(a + t b): each factor restricted by its own Horner
        walk, the restrictions multiplied and summed.  Returns exactly cap+1
        coefficients."""
        q = self.field.q
        acc = [0] * (self.cap + 1)
        for factors in self.products:
            coeffs = factors[0].restrict(a, b).coeffs
            for f in factors[1:]:
                coeffs = _convolve(coeffs, f.restrict(a, b).coeffs, q)
            # coefficients past the product's degree are exactly zero
            for j, c in enumerate(coeffs):
                if c:
                    acc[j] += c
        return UniPoly(self.field, acc)


class UniPoly:
    """Univariate polynomial as a fixed-length coefficient vector.

    ``coeffs[j]`` is the coefficient of t^j; the length is the declared
    bound + 1 and trailing zeros are kept, because lines-table entries have a
    fixed width regardless of the actual degree.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[int]):
        q = field.q
        self.field = field
        self.coeffs = [c % q for c in coeffs]

    def bound(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, t: int) -> int:
        q = self.field.q
        t %= q
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * t + c) % q
        return acc

    def at_zero(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, tuple(self.coeffs)))

    def __repr__(self) -> str:
        return f"UniPoly({self.coeffs})"


def random_poly(field: Field, nvars: int, degree: int, rng: random.Random) -> MultiPoly:
    """Coefficient-uniform polynomial of degree <= ``degree``."""
    terms = {e: field.sample(rng) for e in monomials_upto(nvars, degree)}
    return MultiPoly(field, nvars, terms, degree)


def distance(f, g, mode: str = "exact", samples: int | None = None,
             seed: int | None = None, max_points: int = 10 ** 6) -> Fraction:
    """Disagreement fraction Pr_x[f(x) != g(x)] between two point oracles.

    ``exact`` enumerates the whole domain (bounded by ``max_points``);
    ``sampled`` draws ``samples`` uniform points with the given seed.  Both
    return the observed fraction as an exact rational.
    """
    if f.s != g.s or f.field != g.field:
        raise ValueError("oracles live on different domains")
    q = f.field.q
    s = f.s
    if mode == "exact":
        total = q ** s
        if total > max_points:
            raise ValueError(
                f"exact distance over {total} points exceeds budget {max_points}; use sampled mode"
            )
        bad = 0
        for x in itertools.product(range(q), repeat=s):
            if f.query(x) != g.query(x):
                bad += 1
        return Fraction(bad, total)
    if mode == "sampled":
        if not samples or samples < 1:
            raise ValueError("sampled mode needs a positive sample count")
        rng = random.Random(seed)
        bad = 0
        for _ in range(samples):
            x = tuple(rng.randrange(q) for _ in range(s))
            if f.query(x) != g.query(x):
                bad += 1
        return Fraction(bad, samples)
    raise ValueError(f"unknown distance mode {mode!r}")
