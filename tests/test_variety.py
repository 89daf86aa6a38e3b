"""Varieties: standard monomials, extension degree, generators, certificates."""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pcplab.field import Field
from pcplab.poly import MultiPoly, monomials_upto, random_poly
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
    assert v.index_of((6, 9)) == 1
    assert len(v) == 2


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


@settings(max_examples=100, deadline=None)
@given(_point_sets())
def test_lde_matches_dense_right_inverse(case):
    q, points, values = case
    field = Field(q)
    v = Variety(field, points)
    ordered = sorted(points)        # the variety's enumeration order
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
