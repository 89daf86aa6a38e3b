"""MultiPoly/UniPoly arithmetic, line restriction, distance."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pcplab.field import Field
from pcplab.oracles import LinesOracle, honest_oracles
from pcplab.pcp import Graph, PcpInstance, pcp_prove, proper_3_coloring
from pcplab.poly import (
    DegreeCapError,
    FactoredPoly,
    MultiPoly,
    UniPoly,
    distance,
    monomials_exact,
    monomials_upto,
    random_poly,
)
from pcplab.variety import make_variety

F5 = Field(5)
F7 = Field(7)
F11 = Field(11)


def test_graded_lex_order():
    assert monomials_exact(2, 2) == [(2, 0), (1, 1), (0, 2)]
    upto = monomials_upto(2, 2)
    assert upto == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # degree blocks are a prefix of the next degree's list — the evaluation
    # matrices rely on this to grow incrementally
    assert monomials_upto(2, 1) == upto[:3]


def test_eval_frozen_examples():
    p = MultiPoly(F5, 2, {(1, 1): 1}, cap=2)
    assert p.eval((2, 3)) == 1
    assert MultiPoly.zero(F5, 3, cap=4).eval((1, 2, 3)) == 0
    # interpolant of the indicator of 0 on {0,1,2} subset of F_5
    ind = MultiPoly(F5, 1, {(2,): 3, (1,): 1, (0,): 1}, cap=2)
    assert ind.eval((0,)) == 1
    assert ind.eval((1,)) == 0
    assert ind.eval((2,)) == 0


def test_eval_dimension_mismatch():
    p = MultiPoly(F5, 2, {(1, 0): 1}, cap=1)
    with pytest.raises(ValueError):
        p.eval((1, 2, 3))


def test_constructor_rejects_over_cap_terms():
    with pytest.raises(DegreeCapError):
        MultiPoly(F5, 2, {(2, 1): 1}, cap=2)
    with pytest.raises(ValueError):
        MultiPoly(F5, 2, {(1,): 1}, cap=2)  # wrong arity


def test_zero_coefficients_dropped():
    p = MultiPoly(F5, 1, {(1,): 5, (0,): 3}, cap=1)
    assert p.terms == {(0,): 3}
    assert MultiPoly(F5, 1, {(1,): 10}, cap=1).is_zero()


def test_degree_and_cap_accounting():
    a = MultiPoly(F5, 2, {(1, 0): 1}, cap=3)
    b = MultiPoly(F5, 2, {(0, 1): 1}, cap=2)
    assert a.add(b).cap == 3
    assert a.mul(b).cap == 5
    assert a.mul(b).degree() == 2
    assert MultiPoly.zero(F5, 2).degree() == 0


def test_restrict_frozen_x1x2_diagonal():
    p = MultiPoly(F5, 2, {(1, 1): 1}, cap=2)
    assert p.restrict((0, 0), (1, 1)).coeffs == [0, 0, 1]


def test_restrict_frozen_square_line():
    p = MultiPoly(F5, 1, {(2,): 1}, cap=2)
    assert p.restrict((1,), (2,)).coeffs == [1, 4, 4]


def test_restrict_constant_line():
    rng = random.Random(0)
    p = random_poly(F5, 3, 2, rng)
    entry = p.restrict((1, 2, 3), (0, 0, 0))
    assert entry.coeffs == [p.eval((1, 2, 3)), 0, 0]


@settings(max_examples=40)
@given(
    q=st.sampled_from([5, 7]),
    m=st.integers(1, 3),
    d=st.integers(0, 3),
    seed=st.integers(0, 10 ** 6),
)
def test_restrict_agrees_with_eval_on_whole_line(q, m, d, seed):
    field = Field(q)
    rng = random.Random(seed)
    p = random_poly(field, m, d, rng)
    a = field.sample_point(rng, m)
    b = field.sample_point(rng, m)
    entry = p.restrict(a, b)
    assert len(entry.coeffs) == p.cap + 1
    for t in range(q):
        pt = tuple((ai + t * bi) % q for ai, bi in zip(a, b))
        assert entry.eval(t) == p.eval(pt)


def test_restrict_exact_above_field_size():
    # cap >= q: symbolic composition must stay exact where interpolation could not
    p = MultiPoly(F5, 1, {(6,): 2, (1,): 1}, cap=6)
    entry = p.restrict((1,), (3,))
    assert len(entry.coeffs) == 7
    for t in range(5):
        assert entry.eval(t) == p.eval(((1 + 3 * t) % 5,))


def test_restrict_degree_bounded_by_total_degree():
    rng = random.Random(4)
    p = random_poly(F7, 2, 3, rng).with_cap(5)
    entry = p.restrict((1, 2), (3, 4))
    assert all(c == 0 for c in entry.coeffs[p.degree() + 1:])


def _convolve_ref(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def _restrict_ref(terms, cap, a, b, q):
    """Σ c·Π (a_i + b_i t)^{e_i}, each power expanded by plain convolution."""
    acc = [0] * (cap + 1)
    for exps, c in terms.items():
        prod = [c]
        for ai, bi, e in zip(a, b, exps):
            for _ in range(e):
                prod = _convolve_ref(prod, [ai, bi])
        for j, v in enumerate(prod):
            acc[j] += v
    return [v % q for v in acc]


def _eval_ref(terms, x, q):
    total = 0
    for exps, c in terms.items():
        v = c
        for xi, e in zip(x, exps):
            v *= xi ** e
        total += v
    return total % q


@st.composite
def _sparse_polys(draw):
    """(q, nvars, terms, cap, a, b, x): at most 3 of up to 8 variables used."""
    q = draw(st.sampled_from([3, 5, 7, 257, 4294967311]))
    nvars = draw(st.integers(1, 8))
    used = draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=3, unique=True))
    terms = {}
    for exps, c in draw(st.lists(
            st.tuples(st.lists(st.integers(0, 5), min_size=len(used), max_size=len(used)),
                      st.integers(0, q - 1)), max_size=12)):
        full = [0] * nvars
        for i, e in zip(used, exps):
            full[i] = e
        terms[tuple(full)] = c
    degree = max((sum(e) for e in terms), default=0)
    cap = draw(st.integers(degree, degree + 3))
    point = st.lists(st.integers(-q, 2 * q), min_size=nvars, max_size=nvars)
    return q, nvars, terms, cap, draw(point), draw(point), draw(point)


@settings(max_examples=300, deadline=None)
@given(_sparse_polys())
@example((5, 3, {}, 4, [1, 2, 3], [4, 0, 1], [2, 2, 2]))                  # zero polynomial
@example((7, 1, {(5,): 1, (0,): 1}, 5, [3], [2], [4]))                    # x^5 + 1, cap < q
@example((3, 2, {(5, 0): 2, (0, 0): 1, (1, 2): 1}, 6, [1, 2], [2, 1], [2, 0]))  # cap >= q
@example((5, 8, {(0, 0, 3, 0, 0, 0, 2, 0): 4, (0, 0, 0, 0, 0, 0, 1, 0): 1}, 7,
          [1, 2, 3, 4, 0, 1, 2, 3], [4, 3, 2, 1, 0, 4, 3, 2], [0, 1, 2, 3, 4, 0, 1, 2]))
@example((257, 3, {e: 256 for e in monomials_exact(3, 2)}, 2,              # digit-width bound:
          [256, 256, 256], [256, 256, 256], [1, 2, 3]))                   # all entries q-1
def test_restrict_and_eval_match_reference_expansion(case):
    q, nvars, terms, cap, a, b, x = case
    p = MultiPoly(Field(q), nvars, terms, cap)
    assert p.restrict(a, b).coeffs == _restrict_ref(terms, cap, a, b, q)
    assert p.eval(x) == _eval_ref(terms, x, q)


@pytest.mark.parametrize("q, nvars, degree", [
    (3, 2, 12), (5, 3, 9), (257, 2, 12), (257, 4, 10), (65537, 3, 8),
    (4294967311, 2, 12), (2 ** 61 - 1, 2, 10),
])
def test_restrict_at_the_digit_width_bound(q, nvars, degree):
    # every coefficient and every line coordinate is q-1, so each Kronecker
    # digit reaches T(q-1)(2q-2)^D-scale values: a digit width without the
    # term count T (or any smaller bound) lets digits carry into each other
    terms = {e: q - 1 for e in monomials_upto(nvars, degree)}
    cap = degree + 2
    line = [q - 1] * nvars
    p = MultiPoly(Field(q), nvars, terms, cap)
    assert p.restrict(line, line).coeffs == _restrict_ref(terms, cap, line, line, q)


def test_restrict_every_factor_of_the_k3_q7_proof():
    # q=7, K3: the conflict cap 6d = 12 >= q, so restriction must stay formal
    field = F7
    variety = make_variety(field, "cube:H=0,1,2;m=1")
    graph = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    proof = pcp_prove(PcpInstance(variety, graph), proper_3_coloring(graph, field))
    rng = random.Random(7)
    checked = 0
    for lines in proof.oracles().values():
        if not isinstance(lines, LinesOracle):
            continue
        poly = lines.answer.__self__
        factored = isinstance(poly, FactoredPoly)
        expanded = poly.expand() if factored else poly
        factors = [f for fs in poly.products for f in fs] if factored else [poly]
        for _ in range(50):
            a = field.sample_point(rng, poly.nvars)
            b = field.sample_point(rng, poly.nvars)
            assert poly.restrict(a, b) == expanded.restrict(a, b)
            for f in factors:
                assert f.restrict(a, b).coeffs == _restrict_ref(f.terms, f.cap, a, b, 7)
                checked += 1
    assert checked == 50 * 15  # chi-hat; A's 3 factors; M_A's 2; B's 5; M_B's 2 + 2


def test_unipoly_shape_and_resize():
    u = UniPoly(F5, [1, 2, 0])
    assert u.bound() == 2
    assert u.at_zero() == 1
    # an entry's width follows the polynomial's cap, trailing zeros kept
    p = MultiPoly(F5, 1, {(1,): 2, (0,): 1}, cap=1)
    assert p.restrict((0,), (1,)).coeffs == [1, 2]
    assert p.with_cap(4).restrict((0,), (1,)).coeffs == [1, 2, 0, 0, 0]


def test_distance_exact_and_frozen_fraction():
    rng = random.Random(2)
    p = random_poly(F5, 2, 2, rng)
    f = honest_oracles(p, 2)[0]
    g = honest_oracles(p, 2)[0]
    assert distance(f, g) == 0
    bumped = dict(p.terms)
    bumped[(0, 0)] = (bumped.get((0, 0), 0) + 1) % 5
    h = honest_oracles(MultiPoly(F5, 2, bumped, cap=2), 2)[0]
    # constant shift differs everywhere
    assert distance(f, h) == 1


def test_distance_single_point_difference():
    table = {(i, j): 0 for i in range(5) for j in range(5)}
    from pcplab.oracles import PointOracle

    f = PointOracle(F5, 2, 2, table.__getitem__)
    table2 = dict(table)
    table2[(3, 4)] = 2
    g = PointOracle(F5, 2, 2, table2.__getitem__)
    assert distance(f, g) == Fraction(1, 25)


def test_distance_of_distinct_low_degree_polys_large():
    rng = random.Random(9)
    for _ in range(5):
        p = random_poly(F11, 2, 2, rng)
        r = random_poly(F11, 2, 2, rng)
        if p == r:
            continue
        fp = honest_oracles(p, 2)[0]
        fr = honest_oracles(r, 2)[0]
        assert distance(fp, fr) >= Fraction(9, 11)


def test_distance_sampled_mode():
    rng = random.Random(2)
    p = random_poly(F5, 2, 2, rng)
    r = random_poly(F5, 2, 2, rng)
    fp = honest_oracles(p, 2)[0]
    fr = honest_oracles(r, 2)[0]
    exact = distance(fp, fr)
    est = distance(fp, fr, mode="sampled", samples=4000, seed=1)
    assert abs(float(est) - float(exact)) < 0.05


def test_distance_budget_error():
    p = MultiPoly.zero(Field(257), 4, cap=1)
    f = honest_oracles(p, 1)[0]
    with pytest.raises(ValueError):
        distance(f, f, mode="exact")


def test_schwartz_zippel_zero_fraction():
    rng = random.Random(31)
    for _ in range(100):
        d = rng.randrange(0, 4)
        p = random_poly(F7, 2, d, rng)
        if p.is_zero():
            continue
        zeros = sum(1 for pt in itertools.product(range(7), repeat=2)
                    if p.eval(pt) == 0)
        assert Fraction(zeros, 49) <= Fraction(max(d, p.degree()), 7)


def test_random_poly_determinism_and_zero_rate():
    a = random_poly(F5, 2, 2, random.Random(42))
    b = random_poly(F5, 2, 2, random.Random(42))
    assert a == b
    # m=1, d=2: all three coefficients zero with probability 5^-3 = 0.008
    zero_hits = sum(random_poly(F5, 1, 2, random.Random(1000 + i)).is_zero()
                    for i in range(10 ** 4))
    assert 44 <= zero_hits <= 116, zero_hits  # 4 sigma around 80


def test_text_canonical_form():
    p = MultiPoly(F5, 2, {(2, 0): 3, (1, 1): 1, (0, 0): 4}, cap=2)
    assert p.text() == "3*x1^2 + x1*x2 + 4"
    assert MultiPoly.zero(F5, 2).text() == "0"


def test_vector_round_trip():
    p = MultiPoly(F5, 2, {(2, 0): 3, (0, 1): 2}, cap=2)
    vec = [p.terms.get(e, 0) for e in monomials_upto(2, 2)]
    assert vec == [0, 0, 2, 3, 0, 0]
    assert MultiPoly.from_vector(F5, 2, 2, vec) == p
    with pytest.raises(ValueError):
        MultiPoly.from_vector(F5, 2, 2, vec[:-1])


def test_shift_vars_embedding():
    p = MultiPoly(F5, 1, {(2,): 3}, cap=2)
    shifted = p.shift_vars(3, 1)
    assert shifted.nvars == 3
    assert shifted.terms == {(0, 2, 0): 3}
    assert shifted.eval((9, 2, 9)) == p.eval((2,))
