"""Sparse multivariate polynomials over a prime field, and their lines entries.

``MultiPoly`` keeps a sparse map from exponent vectors to nonzero residues
plus a declared degree cap; ``FactoredPoly`` is a sum of products of
``MultiPoly`` factors.  Both share one ``eval`` and one ``restrict`` and
supply only their products (a ``MultiPoly`` is its own one-factor product),
which ``_compile_sum`` lays out as the function ``codegen`` generates per
shape, a coefficient tuple, a Kronecker digit width W and a memo list.
``eval`` runs the function over Z and reduces mod q once; ``restrict`` runs
it at x_i = a_i + b_i 2^W, whose base-2^W digits are the coefficients in t
of P(a + t b).  The layout decides what is reused between calls: a part is
memoized only when another part reads a variable that it does not and it has
more than ``codegen._MEMO_TERMS`` terms (a smaller part runs inline faster
than a memo lookup), and only a layout that memoizes a part keeps its last
line for one ``eval``.  A lines entry is a plain tuple of exactly cap+1
residues in [0, q), index = power of t.  Both methods are exact on any
integer coordinates (unreduced, negative or in a list), so an oracle hands
them a query as given.

Multiplying out runs on packed monomials (``_packing``): each exponent
vector is one integer with a guarded bit field per variable, so a monomial
product is one integer addition and a divisibility test one subtraction.
``_multiply_packed`` is the one multiplication routine: it multiplies
each product of already-packed factor terms in one pass and returns
{packed monomial: nonzero residue}.  ``FactoredPoly._expand_packed`` feeds
it its factors' terms packed on the caller's packing, so the certificate's
division takes a claim straight from its factors, and the certificate's
residual check feeds it the division's own packed cofactors.
``FactoredPoly.expand`` is ``_expand_packed`` at the cap plus one unpack,
and ``MultiPoly.mul`` is the expansion of a two-factor product.

``MultiPoly(...)`` validates its terms; the package's own results, whose
terms are right by construction, are built by ``MultiPoly._trusted``, which
checks nothing (see ``MultiPoly``).

The canonical monomial order used for matrix columns, the variety's standard
monomials and text output is graded lexicographic: monomials grouped by total
degree, and within a degree block ordered by descending exponent tuple.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterable, Sequence

from .codegen import _compile_factored, _line_codec, _line_reader
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

    Lower-degree blocks are a prefix of higher-degree enumerations, so a
    monomial's position never depends on the top degree.
    """
    out = []
    for k in range(degree + 1):
        out.extend(monomials_exact(nvars, k))
    return out


class DegreeCapError(ValueError):
    """A term exceeds the polynomial's declared degree cap."""


@functools.lru_cache(maxsize=256)
def _packing(nvars: int, degree: int):
    """(pack, unpack, total, guard, span) for exponent vectors in ``nvars``
    variables whose total degree is at most ``degree``.

    ``pack`` maps an exponent vector to one integer: each variable gets a
    field of w = degree.bit_length() + 1 bits, the first variable most
    significant, so integer order is lex order on exponent vectors.  An
    exponent fills at most the low w-1 bits of its field and the top bit,
    a guard bit (``guard`` has all of them), stays clear, so pack(e) +
    pack(f) = pack(e + f) with no carry between fields, and a packed k is
    divisible by a packed l exactly when ((k | guard) - l) & guard == guard:
    a field keeps its guard bit through the subtraction exactly when k_i >=
    l_i.  ``unpack`` reads whole fields back, ``total`` reads the total
    degree off a packed key with one multiply (k times a 1 in every field
    sums the fields into the top one, and no partial sum, at most the total
    degree, carries), and ``span`` = nvars·w is the number of bits a packed
    monomial occupies.
    """
    width = degree.bit_length() + 1
    mask = (1 << width) - 1
    shifts = range(width * (nvars - 1), -1, -width)
    ones = sum(1 << s for s in shifts)
    first = shifts[0]
    guard = ones << (width - 1)

    def pack(e: Sequence[int]) -> int:
        k = 0
        for x in e:
            k = k << width | x
        return k

    def unpack(k: int) -> tuple[int, ...]:
        return tuple([k >> s & mask for s in shifts])

    def total(k: int) -> int:
        return k * ones >> first & mask

    return pack, unpack, total, guard, width * nvars


def _multiply_packed(products: Iterable[Iterable[list]], q: int) -> dict[int, int]:
    """Σ of products as {packed monomial: nonzero residue}, each factor given
    as its list of (packed monomial, coefficient) pairs on one packing whose
    fields hold every exponent of every partial product.

    Each product is multiplied out in one pass over packed monomials (a
    monomial product is one integer addition), its running product reduced
    mod q after each factor; the products are summed on the packed keys, and
    the sums reduced, once.  This is the one multiplication routine.
    """
    total: dict[int, int] = {}
    for factors in products:
        acc = {0: 1}
        for terms in factors:
            out: dict[int, int] = {}
            for k1, c1 in acc.items():
                for k2, c2 in terms:
                    k = k1 + k2
                    out[k] = out.get(k, 0) + c1 * c2
            acc = {k: r for k, c in out.items() if (r := c % q)}
        for k, c in acc.items():
            total[k] = total.get(k, 0) + c
    return {k: r for k, c in total.items() if (r := c % q)}


def _compile_sum(field: Field, nvars: int, products) -> tuple:
    """(compiled function, coefficient tuple, digit width W, memo list) of
    Σ_i Π_j f_ij over the ``MultiPoly`` factors f_ij of ``products``.

    The function is ``_compile_factored``'s for the sum's shape: each
    factor's terms are split into its constant and its non-constant part,
    and equal non-constant parts (equal terms, not only equal supports) are
    one part.  W = bit_length(Σ_i Π_j Σ_{e in f_ij} c_e (2q-2)^|e|) over the
    stored residues c_e of each factor's terms, summed in one pass over the
    terms with a table of powers: with a_i, b_i in [0, q), each f_ij(a + t b)
    over Z has nonnegative coefficients, whose sum (its value at t = 1) is
    f_ij(a + b) <= Σ_e c_e (2q-2)^|e|.  Coefficient sums multiply under
    products and add under sums, so the coefficients of the sum of products
    sum to at most that bound, each is below 2^W, and packed at t = 2^W its
    base-2^W digits never carry; only that final integer is read, so
    intermediate values need no bound.  The width thus depends on the
    coefficient values, not only on the shape.  The memo list starts with
    ``None`` keys, which no coordinates match.
    """
    q = field.q
    zero = (0,) * nvars
    index: dict[frozenset, int] = {}
    parts: list[dict] = []
    shape = []
    consts = []
    bound = 0
    powers = [1]
    for factors in products:
        size = 1
        row = []
        for f in factors:
            while len(powers) <= f.degree():
                powers.append(powers[-1] * (2 * q - 2))
            sums = 0
            rest = {}
            for e, c in f.terms.items():
                d = sum(e)
                sums += c * powers[d]
                if d:
                    rest[e] = c
            size *= sums
            part = None
            if rest:
                part = index.setdefault(frozenset(rest.items()), len(parts))
                if part == len(parts):
                    parts.append(rest)
            has_const = zero in f.terms or not rest   # a zero factor: 0
            if has_const:
                consts.append(f.terms.get(zero, 0))
            row.append((part, has_const))
        bound += size
        shape.append(tuple(row))
    fn, orders, memos = _compile_factored(
        tuple(frozenset(p) for p in parts), tuple(shape), nvars)
    coeffs = [tuple(map(p.__getitem__, order)) for p, order in zip(parts, orders)]
    return fn, tuple(coeffs + consts), bound.bit_length(), [None, 0] * memos


class _SumOfProducts:
    """The one ``eval`` and ``restrict`` of ``MultiPoly`` and ``FactoredPoly``,
    each of which supplies only its ``products``.

    A polynomial whose layout memoizes a part keeps its last restricted
    line (the coordinates as queried, as tuples, with the entry) for one
    ``eval``, which answers a point on it by ``codegen._line_reader`` (t and
    the on-line test taken mod q) and evaluates any other point afresh.
    Only such a layout gains by it: there a fresh eval at plain coordinates
    misses the memo that the restriction filled with packed ones.
    """

    __slots__ = ("field", "nvars", "cap", "_compiled", "_codec", "_line")

    def _layout(self):
        """(function, coefficients, digit width W, memo list) of
        ``_compile_sum`` over ``products``, built on first use and kept."""
        if self._compiled is None:
            self._compiled = _compile_sum(self.field, self.nvars, self.products)
        return self._compiled

    def eval(self, point: Sequence[int]) -> int:
        """The value at ``point``: off the kept line, the compiled function
        over Z reduced mod q once."""
        if len(point) != self.nvars:
            raise ValueError(f"point arity {len(point)} != {self.nvars}")
        line = self._line
        if line is not None:
            self._line = None
            value = self._codec[2](line, point)
            if value is not None:
                return value
        fn, coeffs, _, memo = self._compiled or self._layout()
        return fn(coeffs, point, memo) % self.field.q

    def restrict(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        """The formal composition P(a + t b), expanded in t: the compiled
        function over Z at the packed point, its cap+1 digits read mod q, so
        the cap+1 residues are exact also when the cap is >= q.  The codec of
        the shape (q, W, cap+1, nvars) and, for a layout that memoizes, the
        reader are fetched on the first restriction and kept."""
        if len(a) != self.nvars or len(b) != self.nvars:
            raise ValueError("line arity mismatch")
        fn, coeffs, width, memo = self._compiled or self._layout()
        codec = self._codec
        if codec is None:
            q, ncoeffs = self.field.q, self.cap + 1
            codec = self._codec = (*_line_codec(q, width, ncoeffs, self.nvars),
                                   _line_reader(q, ncoeffs, self.nvars) if memo else None)
        pack, read, _ = codec
        entry = read(fn(coeffs, pack(a, b), memo))
        if memo:
            self._line = (tuple(a), tuple(b), entry)
        return entry


class MultiPoly(_SumOfProducts):
    """Polynomial in F_q[x_1..x_m] with a declared degree cap.

    ``MultiPoly(field, nvars, terms, cap)`` validates: it reduces every
    coefficient mod q, drops zeros, and rejects a term of the wrong arity
    (ValueError) or above the cap (``DegreeCapError``).  The package's own
    results (``FactoredPoly.expand``, ``shift_vars``, ``add``, ``sub``,
    ``scale``, ``with_cap`` and the certificate's cofactors) are built by
    ``_trusted``, which checks nothing: their terms are nonzero residues of
    the right arity within the cap by construction.

    It is laid out as its own one-factor product, so it shares its compiled
    function and digit width with ``FactoredPoly.product([p])``; its one
    part is never memoized, so it keeps no line.

    Nothing in pcplab mutates ``terms`` after construction: every operation
    returns a new polynomial.  So the degree and the compiled layout are
    computed once, on first use, and kept.
    """

    __slots__ = ("terms", "_degree")

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
        self._set(field, nvars, clean, cap)

    def _set(self, field: Field, nvars: int, terms: dict, cap: int) -> None:
        """Fill every slot, each cache empty."""
        self.field = field
        self.nvars = nvars
        self.cap = cap
        self.terms = terms
        self._degree = self._compiled = self._codec = self._line = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, nvars: int, terms: dict[tuple[int, ...], int],
                 cap: int) -> "MultiPoly":
        """A polynomial on ``terms`` as given, which must already be nonzero
        residues keyed by exponent tuples of arity ``nvars`` and total degree
        <= ``cap``; nothing is checked or copied.  For the package's own
        results only."""
        p = object.__new__(cls)
        p._set(field, nvars, terms, cap)
        return p

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

    # -- structure ----------------------------------------------------------

    def degree(self) -> int:
        """Actual total degree (0 for the zero polynomial), computed once."""
        if self._degree is None:
            self._degree = max((sum(e) for e in self.terms), default=0)
        return self._degree

    def is_zero(self) -> bool:
        return not self.terms

    def with_cap(self, cap: int) -> "MultiPoly":
        """The same terms under the cap ``cap``, which must be at least the
        degree (else ``DegreeCapError``)."""
        if cap < self.degree():
            exps = next(e for e in self.terms if sum(e) > cap)
            raise DegreeCapError(f"term {exps} exceeds degree cap {cap}")
        return MultiPoly._trusted(self.field, self.nvars, self.terms, cap)

    def shift_vars(self, nvars: int, offset: int) -> "MultiPoly":
        """Embed into a larger variable space, old x_i becoming x_{i+offset}."""
        if offset < 0 or offset + self.nvars > nvars:
            raise ValueError("shift out of range")
        pre = (0,) * offset
        post = (0,) * (nvars - offset - self.nvars)
        return MultiPoly._trusted(
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
        return MultiPoly._trusted(self.field, self.nvars, terms, max(self.cap, other.cap))

    def sub(self, other: "MultiPoly") -> "MultiPoly":
        return self.add(other.scale(-1))

    def scale(self, c: int) -> "MultiPoly":
        q = self.field.q
        c %= q
        terms = {e: v * c % q for e, v in self.terms.items()} if c else {}
        return MultiPoly._trusted(self.field, self.nvars, terms, self.cap)

    def add_constant(self, c: int) -> "MultiPoly":
        return self.add(MultiPoly.constant(self.field, self.nvars, c))

    def mul(self, other: "MultiPoly") -> "MultiPoly":
        """self·other with the cap self.cap + other.cap, multiplied out by
        ``FactoredPoly.expand``, the one multiplication routine."""
        return FactoredPoly.product([self, other]).expand()

    @property
    def products(self) -> tuple:
        """The polynomial as its own one-factor product."""
        return ((self,),)

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


class FactoredPoly(_SumOfProducts):
    """Σ_i Π_j f_ij over F_q[x_1..x_m], kept as its ``MultiPoly`` factors
    and never multiplied out to evaluate.  ``cap`` is the declared degree
    bound, as for ``MultiPoly``.

    Its layout runs each distinct non-constant part of the factors once, so
    factors that differ only in their constant term (χ̂, χ̂-1 and χ̂+1 of
    the validity claim, the four Δ-c of the conflict claim) share one Horner
    pass.  A certificate M(x, y) = Σ h_g(x)·y_g memoizes those of its
    cofactors h_g that are above the size bar (each skips the y that the
    y_g read), and then keeps its last line; its one-term y_g run inline.
    """

    __slots__ = ("products",)

    def __init__(self, field: Field, nvars: int,
                 products: Iterable[Sequence[MultiPoly]], cap: int):
        self.field = field
        self.nvars = nvars
        self.cap = cap
        self.products = tuple(tuple(factors) for factors in products)
        self._compiled = self._codec = self._line = None
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
        """The multiplied-out polynomial, capped at ``cap``: ``_expand_packed``
        at the cap, unpacked once."""
        pack, unpack, _, _, _ = _packing(self.nvars, self.cap)
        return MultiPoly._trusted(
            self.field, self.nvars,
            {unpack(k): c for k, c in self._expand_packed(pack).items()}, self.cap)

    def _expand_packed(self, pack) -> dict[int, int]:
        """The multiplied-out polynomial as {packed monomial: nonzero residue},
        on the packing ``pack`` of a ``_packing`` whose degree is at least
        ``degree()``, which bounds every exponent of every partial product:
        ``_multiply_packed`` over its factors' packed terms."""
        return _multiply_packed(
            (([(pack(e), c) for e, c in f.terms.items()] for f in factors)
             for factors in self.products), self.field.q)


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
