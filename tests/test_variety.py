"""Varieties: standard monomials, extension degree, generators, certificates."""

import functools
import heapq
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcplab import variety
from pcplab.field import Field
from pcplab.poly import FactoredPoly, MultiPoly, monomials_upto, random_poly
from pcplab.variety import (
    NoCertificateError,
    SpecError,
    Variety,
    ball1_variety,
    certificate_factors,
    cube_variety,
    make_variety,
    power_variety,
    product,
    vanishes_on,
    vanishing_certificate,
)

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)


def poly5(nvars, terms, cap):
    return MultiPoly(F5, nvars, terms, cap)


# The reference below works on dense lists and never calls pcplab.linalg: the
# leftmost-column, topmost-row pivot rule, as in the acceptance gates' own
# ``_rref_mod``.  Its pivot columns are the columns independent of the ones
# before them.  When E_d has full row rank, RREF([E_d | I]) = [U E_d | U], and
# the right inverse R puts row i of U at the i-th pivot column.

def _gauss_jordan(rows, q):
    rows = [[x % q for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], q - 2, q)
        rows[r] = [x * inv % q for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _evaluation_rows(points, monos, q):
    """The dense E: one row per point, one column per monomial."""
    return [[math.prod(x ** e for x, e in zip(p, mono)) % q for mono in monos]
            for p in points]


def _greedy_columns(v, degree):
    """The monomials of E_degree's columns independent of the columns before."""
    monos = monomials_upto(v.m, degree)
    pivots = _gauss_jordan(_evaluation_rows(v.points, monos, v.field.q), v.field.q)[1]
    return tuple(monos[c] for c in pivots)


# -- standard monomials and extension degree ---------------------------------

def test_ball1_standard_monomials_frozen():
    # enumeration order is the sorted point list: (0,0), (0,1), (1,0)
    v = ball1_variety(F5, 2)
    assert v.points == ((0, 0), (0, 1), (1, 0))
    assert v.standard == ((0, 0), (1, 0), (0, 1))


def test_vandermonde_standard_monomials():
    v = Variety(F5, [(0,), (1,), (2,)])
    assert v.standard == ((0,), (1,), (2,))
    assert _greedy_columns(v, 3) == v.standard


def test_extension_degree_frozen_values():
    assert Variety(F5, [(0,), (1,), (2,)]).extension_degree == 2
    assert ball1_variety(F5, 2).extension_degree == 1
    assert Variety(F5, [(3, 1)]).extension_degree == 0


def test_extension_degree_is_least_full_rank_degree():
    rng = random.Random(7)
    for _ in range(10):
        pts = rng.sample(list(itertools.product(range(5), repeat=2)), rng.randrange(1, 7))
        v = Variety(F5, pts)
        d = v.extension_degree
        assert len(_greedy_columns(v, d)) == len(pts)
        if d > 0:
            assert len(_greedy_columns(v, d - 1)) < len(pts)


@st.composite
def _point_sets(draw):
    q = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    space = list(itertools.product(range(q), repeat=m))
    points = rng.sample(space, draw(st.integers(1, min(len(space), 8))))
    return q, points, [rng.randrange(q) for _ in points]


@settings(max_examples=60, deadline=None)
@given(_point_sets())
def test_standard_monomials_are_the_greedy_independent_columns(case):
    # the greedy columns of E_{d+1} include none of degree d+1, so standard
    # has the n columns of full rank and d is the least full-rank degree
    q, points, _ = case
    v = Variety(Field(q), points)
    varieties = [v]
    if len(points) <= 4 and v.m <= 2:
        varieties.append(product(v, v))
    for w in varieties:
        assert len(w.standard) == len(w.points)
        assert _greedy_columns(w, w.extension_degree + 1) == w.standard


@pytest.mark.parametrize("q, spec", [
    (5, "pow:(ball1:n=2)^2"), (3, "pow:(ball1:n=2)^3"), (5, "pow:(cube:H=0,1,2;m=1)^2"),
])
def test_power_standard_monomials_are_the_greedy_columns(q, spec):
    v = make_variety(Field(q), spec)
    assert _greedy_columns(v, v.extension_degree) == v.standard


def test_variety_validation():
    with pytest.raises(ValueError):
        Variety(F5, [])
    with pytest.raises(ValueError):
        Variety(F5, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        Variety(F5, [(0, 1), (2,)])


def test_points_are_canonicalized_and_indexed():
    v = Variety(F5, [(6, -1), (0, 0)])
    assert v.points == ((0, 0), (1, 4))
    assert len(v) == 2
    # a product's points are V1-major: point i·n2 + j is (p_i, r_j)
    w = product(v, Variety(F5, [(2,), (0,)]))
    assert w.points == tuple(p + r for p in v.points for r in ((0,), (2,)))


# -- low-degree extension ----------------------------------------------------

def test_lde_identity_on_two_points():
    v = Variety(F5, [(0,), (1,)])
    p = v.low_degree_extension([0, 1])
    assert p == MultiPoly(F5, 1, {(1,): 1}, cap=1)


def test_lde_indicator_of_zero():
    v = Variety(F5, [(0,), (1,), (2,)])
    p = v.low_degree_extension([1, 0, 0])
    assert p.terms == {(2,): 3, (1,): 1, (0,): 1}
    assert p.text() == "3*x1^2 + x1 + 1"


def test_lde_zero_values_give_zero_poly():
    v = ball1_variety(F5, 3)
    assert v.low_degree_extension([0, 0, 0, 0]).is_zero()


def test_lde_every_function_on_a_three_point_set():
    v = Variety(F5, [(0, 0), (1, 1), (2, 3)])
    d = v.extension_degree
    for values in itertools.product(range(5), repeat=3):
        p = v.low_degree_extension(values)
        assert p.degree() <= d
        for pt, want in zip(v.points, values):
            assert p.eval(pt) == want


def test_lde_value_count_checked():
    v = Variety(F5, [(0,), (1,)])
    with pytest.raises(ValueError):
        v.low_degree_extension([1, 2, 3])


@st.composite
def _lde_cases(draw):
    """(q, factor point lists, power, values): one random point set, a
    product of two random sets, or a square or cube of one, with random
    integers, not all reduced mod q, as values on the product's points."""
    q = draw(st.sampled_from([3, 5, 7]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))

    def points(max_m, max_n):
        space = list(itertools.product(range(q), repeat=rng.randint(1, max_m)))
        return rng.sample(space, rng.randint(1, min(len(space), max_n)))

    kind = draw(st.sampled_from(["set", "product", "power"]))
    if kind == "set":
        factors, power = [points(3, 8)], 1
    elif kind == "product":
        factors, power = [points(2, 4), points(2, 4)], 1
    else:
        factors = [points(2, 3)]
        power = 2 if len(factors[0][0]) == 2 else rng.randint(2, 3)
    n = math.prod(len(f) for f in factors) * len(factors[0]) ** (power - 1)
    return q, factors, power, [rng.randrange(-q, 2 * q) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(_lde_cases())
def test_lde_matches_dense_right_inverse(case):
    # a swept variety reads its interpolant off the sweep's echelon, and a
    # product or power through its factors; each must equal the dense right
    # inverse over the sorted points, term for term and in the same order
    q, factors, power, values = case
    field = Field(q)
    if power == 1:
        v = functools.reduce(product, [Variety(field, pts) for pts in factors])
    else:
        v = power_variety(Variety(field, factors[0]), power)
    ordered = sorted(sum(ps, ()) for ps in itertools.product(*factors * power))
    assert v.points == tuple(ordered)     # the variety's enumeration order
    n = len(ordered)
    d = 0
    while True:                     # least d at which E_d has full row rank
        monos = monomials_upto(v.m, d)
        ncols = len(monos)
        rows = [[math.prod(x ** e for x, e in zip(p, mono)) % q for mono in monos]
                + [int(i == j) for j in range(n)] for i, p in enumerate(ordered)]
        red, pivots = _gauss_jordan(rows, q)
        if pivots[-1] < ncols:
            break
        d += 1
    assert v.extension_degree == d
    coeffs = [0] * ncols
    for i, c in enumerate(pivots):
        coeffs[c] = sum(u * y for u, y in zip(red[i][ncols:], values)) % q
    got = v.low_degree_extension(values)
    want = MultiPoly(field, v.m, dict(zip(monos, coeffs)), d)
    assert got == want and list(got.terms) == list(want.terms)
    assert got.cap == d


# -- generating sets ---------------------------------------------------------

def test_two_point_line_generator():
    v = Variety(F5, [(1,), (2,)])
    assert v.complexity == 1
    g = v.gens[0]
    assert g.text() == "3*x1^2 + x1 + 1"
    # scalar multiple of (x-1)(x-2)
    assert g == MultiPoly(F5, 1, {(2,): 1, (1,): 2, (0,): 2}, cap=2).scale(3)
    assert vanishes_on(g, v)


def test_ball1_generators_frozen():
    v = ball1_variety(F5, 2)
    assert v.complexity == 3
    assert [g.text() for g in v.gens] == ["4*x1^2 + x1", "x1*x2", "4*x2^2 + x2"]
    for g in v.gens:
        assert vanishes_on(g, v)


def test_cube_generators_frozen():
    v = cube_variety(F5, [0, 1], 2)
    assert v.extension_degree == 2
    assert [g.text() for g in v.gens] == ["4*x1^2 + x1", "4*x2^2 + x2"]


def test_full_line_generator_spans_field_equation():
    v = Variety(F5, [(i,) for i in range(5)])
    assert v.complexity == 1
    # x^5 - x generates; the stored generator is a scalar multiple of it
    target = MultiPoly(F5, 1, {(5,): 1, (1,): 4}, cap=5)
    cofactors = vanishing_certificate(target, v.gens)
    assert len([h for h in cofactors if not h.is_zero()]) == 1


def test_full_plane_generators():
    v = Variety(F3, list(itertools.product(range(3), repeat=2)))
    assert v.complexity == 2
    for i in range(2):
        e = [0, 0]
        e[i] = 3
        lo = [0, 0]
        lo[i] = 1
        target = MultiPoly(F3, 2, {tuple(e): 1, tuple(lo): 2}, cap=3)  # x_i^3 - x_i
        cofactors = vanishing_certificate(target, v.gens)
        recon = MultiPoly.zero(F3, 2)
        for h, g in zip(cofactors, v.gens):
            recon = recon.add(h.mul(g))
        assert recon == target


def test_three_point_line_single_generator():
    v = Variety(F5, [(0,), (1,), (2,)])
    assert v.complexity == 1
    assert v.gens[0].degree() == 3


def test_generator_count_invariant_under_point_order():
    pts = [(0, 1), (2, 2), (1, 4), (3, 0)]
    base = Variety(F5, pts).complexity
    for perm in itertools.permutations(pts):
        assert Variety(F5, list(perm)).complexity == base


def test_vanishes_on():
    v = ball1_variety(F5, 2)
    assert vanishes_on(poly5(2, {(2, 0): 1, (1, 0): 4}, 2), v)   # x1^2 - x1
    assert not vanishes_on(poly5(2, {(1, 0): 1, (0, 0): 1}, 1), v)
    with pytest.raises(ValueError):
        vanishes_on(poly5(3, {}, 0), v)


# -- certificates ------------------------------------------------------------

def test_certificate_constant_cofactor():
    v = ball1_variety(F5, 2)
    p = poly5(2, {(2, 0): 1, (1, 0): 4}, 2)  # x1^2 - x1 = 4 * gen0
    cofactors = vanishing_certificate(p, v.gens)
    assert len(cofactors) == 3
    assert cofactors[0].terms == {(0, 0): 4}
    assert cofactors[1].is_zero() and cofactors[2].is_zero()


def test_certificate_two_generator_fixture():
    # P = x2^3 against the pair {x1^2, x1*x2 - x2^2}; cofactors are x2 and
    # -(x1 + x2), and both products stay at the degree of P.
    g1 = poly5(2, {(2, 0): 1}, 2)
    g2 = poly5(2, {(1, 1): 1, (0, 2): 4}, 2)
    p = poly5(2, {(0, 3): 1}, 3)
    h1, h2 = vanishing_certificate(p, [g1, g2])
    assert h1.terms == {(0, 1): 1}
    assert h2.terms == {(1, 0): 4, (0, 1): 4}
    assert h1.mul(g1).degree() <= 3 and h2.mul(g2).degree() <= 3
    total = h1.mul(g1).add(h2.mul(g2))
    assert total == p.with_cap(total.cap)


def test_certificate_zero_polynomial():
    v = ball1_variety(F5, 2)
    cofactors = vanishing_certificate(MultiPoly.zero(F5, 2), v.gens)
    assert len(cofactors) == 3 and all(h.is_zero() for h in cofactors)


def test_certificate_rejects_non_members():
    v = ball1_variety(F5, 2)
    with pytest.raises(NoCertificateError):
        vanishing_certificate(poly5(2, {(1, 0): 1, (0, 0): 1}, 1), v.gens)
    with pytest.raises(NoCertificateError):
        # degree 1 < every generator degree: nothing usable
        vanishing_certificate(poly5(2, {(1, 0): 1}, 1), v.gens)


def test_certificate_is_membership_test():
    v = Variety(F5, [(1, 1), (2, 3)])
    nonmember = poly5(2, {(0, 0): 1}, 0)  # constants never vanish on V
    with pytest.raises(NoCertificateError):
        vanishing_certificate(nonmember, v.gens)
    member = v.low_degree_extension([0, 0])
    assert member.is_zero()  # sanity: the zero function's extension is zero


@pytest.mark.parametrize("spec", ["ball1:n=2", "cube:H=0,1;m=2", "points:line"])
def test_random_ideal_members_certify(spec, tmp_path):
    if spec == "points:line":
        f = tmp_path / "pts.txt"
        f.write_text("1\n3\n4\n")
        spec = f"points:{f}"
    v = make_variety(F5, spec)
    rng = random.Random(11)
    d = v.extension_degree
    for trial in range(100):
        target_degree = rng.randrange(d, d + 2)
        p = MultiPoly.zero(F5, v.m)
        for g in v.gens:
            h = random_poly(F5, v.m, max(target_degree - g.degree(), 0), rng)
            p = p.add(h.mul(g))
        if p.is_zero():
            continue
        cofactors = vanishing_certificate(p, v.gens)
        recon = MultiPoly.zero(F5, v.m)
        for h, g in zip(cofactors, v.gens):
            assert h.is_zero() or h.mul(g).degree() <= p.degree()
            recon = recon.add(h.mul(g))
        assert recon == p


def _value(p, point, q):
    # P at a point, term by term, with neither pcplab.linalg nor compiled code
    return sum(c * math.prod(x ** e for x, e in zip(point, exps))
               for exps, c in p.terms.items()) % q


def test_division_certifies_every_vanishing_polynomial():
    # random point sets (q <= 11, m <= 3, <= 12 points) and random members
    # P = Σ r_g·g of degree up to d+2: division by the variety's reduced
    # Gröbner basis returns degree-respecting cofactors, and it refuses a
    # perturbed P exactly when that fails to vanish at some point.  Some
    # sets' generators are not a Gröbner basis, so dividing by them alone
    # leaves a remainder, and the sample must contain such a set.
    rewritten = refused = 0
    for seed in range(200):
        rng = random.Random(seed)
        q = rng.choice([3, 5, 7, 11])
        m = rng.randint(1, 3)
        space = list(itertools.product(range(q), repeat=m))
        points = rng.sample(space, rng.randint(1, min(len(space), 12)))
        field = Field(q)
        v = Variety(field, points)
        bound = v.extension_degree + rng.randint(0, 2)
        p = MultiPoly.zero(field, m, cap=bound)
        for g in v.gens:
            if g.degree() <= bound:
                p = p.add(random_poly(field, m, bound - g.degree(), rng).mul(g))
        assert all(_value(p, x, q) == 0 for x in points)
        cofactors = vanishing_certificate(p, v)
        total = MultiPoly.zero(field, m)
        for h, g in zip(cofactors, v.gens):
            assert h.is_zero() or h.mul(g).degree() <= p.degree()
            total = total.add(h.mul(g))
        assert total == p
        try:
            vanishing_certificate(p, v.gens)
        except NoCertificateError:
            rewritten += 1

        perturbed = p.add(random_poly(field, m, rng.randint(0, bound), rng))
        if all(_value(perturbed, x, q) == 0 for x in points):
            vanishing_certificate(perturbed, v)
        else:
            refused += 1
            with pytest.raises(NoCertificateError):
                vanishing_certificate(perturbed, v)
    assert rewritten > 0 and refused > 0


# The reference below divides with plain tuples and dicts: the heap division
# popping (-degree, exponent tuple), so in descending graded order, with no
# packed monomials and no pcplab multiplication.

def _reference_division(poly, ideal):
    """The cofactors' term dicts, or None when some term is divisible by no
    leading monomial."""
    q = poly.field.q
    m = poly.nvars
    if isinstance(ideal, Variety):
        gens = ideal.gens
        basis = [(r.terms, [(gi, c.terms) for gi, c in combo])
                 for r, combo in ideal.grobner_basis]
    else:
        gens = list(ideal)
        basis = [(g.terms, [(gi, {(0,) * m: 1})]) for gi, g in enumerate(gens) if g.terms]
    cofactors = [{} for _ in gens]
    rest = dict(poly.terms)
    heap = [(-sum(e), e) for e in rest]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[1]
        c = rest.pop(e, 0)
        if not c:
            continue
        for r, combo in basis:
            lead = max(r, key=lambda u: (sum(u), [-x for x in u]))
            if all(a >= b for a, b in zip(e, lead)):
                break
        else:
            return None
        mu = tuple(a - b for a, b in zip(e, lead))
        f = c * pow(r[lead], q - 2, q) % q
        for t, x in r.items():
            if t == lead:
                continue
            k = tuple(a + b for a, b in zip(mu, t))
            old = rest.get(k)
            v = ((old or 0) - f * x) % q
            if v:
                if old is None:
                    heapq.heappush(heap, (-sum(k), k))
                rest[k] = v
            elif old is not None:
                del rest[k]
        for gi, terms in combo:
            for t, x in terms.items():
                k = tuple(a + b for a, b in zip(mu, t))
                cofactors[gi][k] = (cofactors[gi].get(k, 0) + f * x) % q
    return [{e: x for e, x in h.items() if x} for h in cofactors]


def _times(a, b, q):
    """The product of two term dicts, term by term."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % q
    return out


def _member(field, gens, degree, rng, lead_power=False):
    """Σ r_g·g over the generators of degree <= ``degree``, each r_g random of
    degree degree - deg g; with ``lead_power`` the first r_g gets x1^(its
    degree), so P has a pure power x1^degree."""
    m = gens[0].nvars
    total = {}
    for g in gens:
        room = degree - g.degree()
        if room < 0:
            continue
        r = dict(random_poly(field, m, room, rng).terms)
        if lead_power:
            r[(room,) + (0,) * (m - 1)] = 1
            lead_power = False
        for e, c in _times(r, g.terms, field.q).items():
            total[e] = (total.get(e, 0) + c) % field.q
    return MultiPoly(field, m, total, degree)


def _cofactor_terms(poly, ideal):
    try:
        return [h.terms for h in vanishing_certificate(poly, ideal)]
    except NoCertificateError:
        return None


def test_division_matches_the_reference_division():
    # (a) random point sets over F_3, F_5, F_7 in 1 to 3 variables: members,
    # perturbed members, and division by the bare generators (not always a
    # Gröbner basis, so both sides may find a remainder);
    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        q = rng.choice([3, 5, 7])
        m = rng.randint(1, 3)
        field = Field(q)
        space = list(itertools.product(range(q), repeat=m))
        v = Variety(field, rng.sample(space, rng.randint(1, min(len(space), 10))))
        p = _member(field, v.gens, v.extension_degree + rng.randint(0, 2), rng)
        perturbed = p.add(random_poly(field, m, rng.randint(0, p.cap), rng))
        for poly in (p, perturbed):
            for ideal in (v, v.gens):
                expected = _reference_division(poly, ideal)
                assert _cofactor_terms(poly, ideal) == expected
                outcomes.add(expected is None)
        # (b) bare generator lists whose leading degrees exceed deg P:
        # constants, linear P, and the low-degree generators with one above
        for low in (random_poly(field, m, rng.randint(0, 1), rng),
                    MultiPoly.constant(field, m, rng.randrange(1, q))):
            assert _cofactor_terms(low, v.gens) == _reference_division(low, v.gens)
        high = [g for g in v.gens if g.degree() > 1]
        if high and len(high) < len(v.gens):
            low_gens = [g for g in v.gens if g.degree() <= 1]
            mixed = low_gens + high
            p = _member(field, low_gens, 1, rng)
            assert _cofactor_terms(p, mixed) == _reference_division(p, mixed)
    assert outcomes == {False, True}


@pytest.mark.parametrize("degree", [3, 4, 7, 8])
@pytest.mark.parametrize("q, spec", [(7, "cube:H=0,1,2;m=1"), (5, "cube:H=0,1;m=2"),
                                     (3, "ball1:n=2"), (5, "pow:(ball1:n=2)^2")])
def test_division_matches_the_reference_across_field_widths(degree, q, spec):
    # (c) members with a pure power x1^degree: degrees 3 and 4, 7 and 8 sit
    # on either side of a packed field width (bit_length 2 -> 3, 3 -> 4)
    field = Field(q)
    v = make_variety(field, spec)
    rng = random.Random(degree * 31 + q)
    for _ in range(3):
        p = _member(field, v.gens, degree, rng, lead_power=True)
        assert p.degree() == degree
        for ideal in (v, v.gens):
            cofactors = _cofactor_terms(p, ideal)
            assert cofactors == _reference_division(p, ideal)
            assert cofactors is not None


def test_tampered_combination_fails_the_residual_check():
    # a combination with one coefficient doubled still divides, but its
    # cofactors no longer sum to P
    v = Variety(F5, [(0, 0), (0, 1), (1, 0)])
    r, combo = v.grobner_basis[0]
    (gi, c), *others = combo
    v.grobner_basis = ((r, ((gi, c.scale(2)), *others)),) + v.grobner_basis[1:]
    with pytest.raises(AssertionError, match="certificate residual check failed"):
        vanishing_certificate(r, v)


def _perturb_first_cofactor(monkeypatch):
    """Make the residual check see a wrong cofactor: double one coefficient
    of the first nonzero cofactor the division hands to the residual's
    multiplication (its packed terms, read by ``variety._multiply_packed``).
    Returns the list that the perturbed packed monomial is appended to."""
    multiply = variety._multiply_packed
    hit = []

    def perturbed(products, q):
        products = list(products)
        for i, (live, gen) in enumerate(products):
            if live and not hit:
                (k, c), *rest = live
                products[i] = ([(k, c * 2 % q)] + rest, gen)
                hit.append(k)
        return multiply(products, q)

    monkeypatch.setattr(variety, "_multiply_packed", perturbed)
    return hit


def _residual_cases():
    """{name: (P as MultiPoly, P as FactoredPoly, ideal, cofactors or None)}.

    ``square``: Σ r_g·g over the square {0,1}^2 over F_5.  ``cap``: (x2 + 2)·g
    by the bare generator g = x1^2 - x1 declared with cap 6, so the residual's
    cap 1 + 6 needs wider packed fields than P and g (4 bits, not 3).
    ``syzygy``: (x1 + 1)·g1 over the square, whose basis element g1 carries
    the combination (1 + x1^3·g2)·g1 - x1^3·g1·g2, true but not
    degree-respecting: each h_g·g has degree 8 > cap P = 3 and the two
    cancel, so the residual is multiplied out on 5-bit fields where the
    division packed 4.
    """
    rng = random.Random(7)
    v = make_variety(F5, "cube:H=0,1;m=2")
    rs = [random_poly(F5, 2, 1, rng) for _ in v.gens]
    square = FactoredPoly(F5, 2, list(zip(rs, v.gens)), 3)

    g = poly5(2, {(2, 0): 1, (1, 0): 4}, 6)
    h = poly5(2, {(0, 1): 1, (0, 0): 2}, 1)
    cap = FactoredPoly.product([h, g.with_cap(2)])

    tampered = make_variety(F5, "cube:H=0,1;m=2")
    g1, g2 = tampered.gens
    s = poly5(2, {(3, 0): 1}, 3)
    (r, _), rest = tampered.grobner_basis[0], tampered.grobner_basis[1:]
    tampered.grobner_basis = ((r, ((0, s.mul(g2).add_constant(1)), (1, s.mul(g1).scale(-1)))),
                              *rest)
    syzygy = FactoredPoly.product([poly5(2, {(1, 0): 1, (0, 0): 1}, 1), g1])
    return {"square": (square.expand(), square, v, None),
            "cap": (cap.expand(), cap, [g], (h,)),
            "syzygy": (syzygy.expand(), syzygy, tampered, None)}


@pytest.mark.parametrize("case", ["square", "cap", "syzygy"])
@pytest.mark.parametrize("form", ["MultiPoly", "FactoredPoly"])
def test_residual_check_is_exact_on_either_input(case, form):
    expanded, factored, ideal, cofactors = _residual_cases()[case]
    poly = expanded if form == "MultiPoly" else factored
    got = vanishing_certificate(poly, ideal)
    if cofactors is not None:
        assert got == cofactors
    gens = ideal.gens if isinstance(ideal, Variety) else ideal
    total = MultiPoly.zero(F5, expanded.nvars)
    for h, g in zip(got, gens):
        total = total.add(h.mul(g))
        assert case != "syzygy" or h.mul(g).degree() == 8
    assert total == expanded
    assert [h.text() for h in got] == [h.text() for h in vanishing_certificate(expanded, ideal)]


@pytest.mark.parametrize("case", ["square", "cap", "syzygy"])
@pytest.mark.parametrize("form", ["MultiPoly", "FactoredPoly"])
def test_perturbed_cofactor_fails_the_residual_check(case, form, monkeypatch):
    expanded, factored, ideal, _ = _residual_cases()[case]
    poly = expanded if form == "MultiPoly" else factored
    hit = _perturb_first_cofactor(monkeypatch)
    with pytest.raises(AssertionError, match="certificate residual check failed"):
        vanishing_certificate(poly, ideal)
    assert hit


def test_certificate_poly_structure():
    v = ball1_variety(F5, 2)
    p = poly5(2, {(1, 1): 1}, 2)  # x1*x2 == the middle generator
    cp = certificate_factors(vanishing_certificate(p, v.gens), v.gens, 2).expand()
    assert cp.nvars == 2 + 3
    assert cp.terms == {(0, 0, 0, 1, 0): 1}  # exactly y_2, the x1*x2 slot
    rng = random.Random(3)
    for _ in range(20):
        x = F5.sample_point(rng, 2)
        assert cp.eval(tuple(x) + (0, 0, 0)) == 0
        assert cp.eval(tuple(x) + v.phi(x)) == p.eval(x)


def test_certificate_poly_two_generator_fixture():
    g1 = poly5(2, {(2, 0): 1}, 2)
    g2 = poly5(2, {(1, 1): 1, (0, 2): 4}, 2)
    p = poly5(2, {(0, 3): 1}, 3)
    cofactors = vanishing_certificate(p, [g1, g2])
    cp = certificate_factors(cofactors, [g1, g2], 3).expand()
    assert cp.degree() <= 3
    for x in itertools.product(range(5), repeat=2):
        y = (g1.eval(x), g2.eval(x))
        assert cp.eval(x + y) == p.eval(x)
        assert cp.eval(x + (0, 0)) == 0


def test_certificate_poly_zero():
    v = ball1_variety(F5, 2)
    cofactors = vanishing_certificate(MultiPoly.zero(F5, 2), v.gens)
    assert certificate_factors(cofactors, v.gens, 0).expand().is_zero()


def test_certificate_poly_count_mismatch():
    v = ball1_variety(F5, 2)
    with pytest.raises(ValueError):
        certificate_factors((MultiPoly.zero(F5, 2),), v.gens, 0)


# -- generator-evaluation embedding ------------------------------------------

def test_phi_frozen_example():
    # the classic boolean-style generators, in this exact order
    v = ball1_variety(F5, 2)
    v.gens = (
        poly5(2, {(2, 0): 1, (1, 0): 4}, 2),  # x1^2 - x1
        poly5(2, {(0, 2): 1, (0, 1): 4}, 2),  # x2^2 - x2
        poly5(2, {(1, 1): 1}, 2),             # x1*x2
    )
    assert v.phi((2, 3)) == (2, 1, 1)


def test_phi_vanishes_on_variety_points():
    v = ball1_variety(F5, 2)
    for pt in v.points:
        assert v.phi(pt) == (0, 0, 0)
    assert v.phi((0, 0)) == (0, 0, 0)


@pytest.mark.parametrize("q", [5, 257])
@pytest.mark.parametrize("spec", ["cube:H=0,1;m=2", "ball1:n=3", "pow:(ball1:n=2)^2", "points"])
def test_generated_phi_is_the_generators_values(q, spec, tmp_path):
    # phi runs one function generated per variety; it must equal the
    # generators' own evals, on F_5^m at every point and on F_257^m at
    # every point of the plane and 2000 random points otherwise
    if spec == "points":           # generators with constant terms
        f = tmp_path / "pts.txt"
        f.write_text("1 2\n3 4\n2 2\n4 0\n")
        spec = f"points:{f}"
    v = make_variety(Field(q), spec)
    if spec.startswith("points:"):
        assert any((0,) * v.m in g.terms for g in v.gens)
    rng = random.Random(q)
    if q ** v.m <= 257 ** 2:
        zs = list(itertools.product(range(q), repeat=v.m))
    else:
        zs = [tuple(rng.randrange(q) for _ in range(v.m)) for _ in range(2000)]
    for z in zs:
        assert v.phi(z) == tuple(g.eval(z) for g in v.gens), z
    for z in zs[:200]:
        # exact on unreduced, negative and list coordinates
        shifts = [rng.randrange(-3, 4) * q for _ in z]
        assert v.phi([x + s for x, s in zip(z, shifts)]) == v.phi(z)
        assert v.phi(tuple(x - q for x in z)) == v.phi(z)
    for arity in (v.m - 1, v.m + 1):
        with pytest.raises(ValueError):
            v.phi((1,) * arity)


# -- products and families ---------------------------------------------------

def test_product_of_singletons():
    v = product(Variety(F5, [(1,)]), Variety(F5, [(2,)]))
    assert v.points == ((1, 2),)
    assert v.extension_degree == 0
    assert v.complexity == 2


def test_product_mixed_fields_rejected():
    with pytest.raises(ValueError):
        product(Variety(F5, [(1,)]), Variety(F7, [(2,)]))


def test_power_of_ball1():
    v = power_variety(ball1_variety(F5, 2), 2)
    assert len(v.points) == 9
    assert v.m == 4
    assert v.complexity == 6
    assert v.extension_degree == 2
    for g in v.gens:
        assert vanishes_on(g, v)


def test_product_members_certify_against_union_generators():
    v = cube_variety(F5, [0, 1], 2)
    rng = random.Random(23)
    for _ in range(30):
        p = MultiPoly.zero(F5, 2)
        for g in v.gens:
            p = p.add(random_poly(F5, 2, 1, rng).mul(g))
        if p.is_zero():
            continue
        cofactors = vanishing_certificate(p, v.gens)
        assert all(h.is_zero() or h.mul(g).degree() <= p.degree()
                   for h, g in zip(cofactors, v.gens))


def test_product_lde_degree_bound():
    v = power_variety(ball1_variety(F5, 2), 2)
    rng = random.Random(5)
    values = [rng.randrange(5) for _ in v.points]
    p = v.low_degree_extension(values)
    assert p.degree() <= v.extension_degree
    for pt, want in zip(v.points, values):
        assert p.eval(pt) == want


@st.composite
def _factor_point_sets(draw):
    q = draw(st.sampled_from([3, 5, 7]))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        space = list(itertools.product(range(q), repeat=draw(st.integers(1, 2))))
        factors.append(rng.sample(space, draw(st.integers(1, min(len(space), 6)))))
    return q, factors


@settings(max_examples=30, deadline=None)
@given(_factor_point_sets())
def test_product_degree_is_the_least_full_rank_degree(case):
    # the product runs no elimination: its standard monomials are the
    # pairwise products of the factors', checked here against E_d's greedy
    # columns under the dense reference
    q, factor_points = case
    field = Field(q)
    factors = [Variety(field, pts) for pts in factor_points]
    v = functools.reduce(product, factors)
    points = [sum(ps, ()) for ps in itertools.product(*factor_points)]
    assert v.points == tuple(sorted(points))

    # E_{d-1}'s columns are a prefix of E_d's, so the rank never drops with
    # d, and E_{d-1}'s greedy columns are E_d's of degree < d: one
    # elimination gives both ranks
    d = v.extension_degree
    greedy = _greedy_columns(v, d)
    assert greedy == v.standard
    assert len(v.standard) == len(points)
    assert d == 0 or sum(1 for e in greedy if sum(e) < d) < len(points)
    shifted, offset = [], 0
    for f in factors:
        shifted += [g.shift_vars(v.m, offset) for g in f.gens]
        offset += f.m
    assert v.gens == tuple(shifted)


# -- the degree-respecting property, exhaustively -----------------------------

def _assert_h_basis(v):
    # for every D <= d+2: the multiples x^u·g of degree <= D span the whole
    # degree-<=D part of I(V), whose dimension is #monomials(<=D) - rank E_D;
    # that is what lets every vanishing P get cofactors with deg(h_g·g) <= deg P
    q = v.field.q
    for bound in range(v.extension_degree + 3):
        monos = monomials_upto(v.m, bound)
        index = {e: j for j, e in enumerate(monos)}
        multiples = []
        for g in v.gens:
            for u in monomials_upto(v.m, bound - g.degree()) if g.degree() <= bound else ():
                row = [0] * len(monos)
                for e, c in g.terms.items():
                    row[index[tuple(a + b for a, b in zip(u, e))]] = c
                multiples.append(row)
        ideal_dim = len(monos) - len(_greedy_columns(v, bound))
        span_dim = len(_gauss_jordan(multiples, q)[1]) if multiples else 0
        assert span_dim == ideal_dim, (v, bound)


@pytest.mark.parametrize("q, spec", [
    (5, "ball1:n=3"), (5, "pow:(ball1:n=2)^2"), (5, "cube:H=0,1,2;m=2"),
    (3, "pow:(ball1:n=2)^3"), (3, "pow:(ball1:n=3)^2"),
])
def test_generators_span_every_degree_of_the_ideal(q, spec):
    _assert_h_basis(make_variety(Field(q), spec))


@pytest.mark.parametrize("seed", range(60))
def test_random_generators_span_every_degree_of_the_ideal(seed):
    rng = random.Random(seed)
    q = rng.choice([3, 5, 7])
    m = rng.randint(1, 3)
    space = list(itertools.product(range(q), repeat=m))
    _assert_h_basis(Variety(Field(q), rng.sample(space, rng.randint(1, min(len(space), 10)))))


# -- the text grammar --------------------------------------------------------

def test_make_variety_cube():
    v = make_variety(F5, "cube:H=0,1;m=2")
    assert len(v.points) == 4
    assert v.complexity == 2


def test_make_variety_ball1():
    v = make_variety(F5, "ball1:n=3")
    assert v.m == 3 and len(v.points) == 4


def test_make_variety_power():
    v = make_variety(F7, "pow:(ball1:n=2)^2")
    assert v.m == 4 and len(v.points) == 9


def test_make_variety_points_file(tmp_path):
    f = tmp_path / "v.txt"
    f.write_text("# comment line\n0 0\n1 2\n\n3 3\n")
    v = make_variety(F5, f"points:{f}")
    assert v.points == ((0, 0), (1, 2), (3, 3))


@pytest.mark.parametrize("bad", [
    "cube:H=0,5;m=1",        # 5 == 0 mod 5
    "cube:H=;m=2",
    "cube:m=2",
    "ball1:n=0",
    "ball1:n=x",
    "pow:(ball1:n=2)^0",
    "points:/nonexistent/file",
    "mystery:thing",
])
def test_make_variety_rejects_bad_specs(bad):
    with pytest.raises(SpecError):
        make_variety(F5, bad)


def test_make_variety_empty_points_file(tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("# nothing here\n")
    with pytest.raises(SpecError):
        make_variety(F5, f"points:{f}")
