"""MultiPoly arithmetic, line restriction and its entries, distance."""

import cProfile
import itertools
import pstats
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from pcplab.codegen import _compile_horner, _horner, _line_codec, _line_reader, _line_test
from pcplab.field import Field
from pcplab.oracles import LinesOracle, PointOracle, honest_oracles
from pcplab.pcp import Graph, PcpInstance, fewest_conflicts_coloring, pcp_prove
from pcplab.poly import (
    DegreeCapError,
    FactoredPoly,
    MultiPoly,
    distance,
    monomials_exact,
    monomials_upto,
    random_poly,
)
from pcplab.variety import Variety, certificate_factors, make_variety, vanishing_certificate

F5 = Field(5)
F7 = Field(7)
F11 = Field(11)


def _at(entry, t, q):
    """A lines entry (the coefficients of t^0, t^1, ...) at t, mod q."""
    acc = 0
    for c in reversed(entry):
        acc = acc * t + c
    return acc % q


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
    assert p.restrict((0, 0), (1, 1)) == (0, 0, 1)


def test_restrict_frozen_square_line():
    p = MultiPoly(F5, 1, {(2,): 1}, cap=2)
    assert p.restrict((1,), (2,)) == (1, 4, 4)


def test_restrict_constant_line():
    rng = random.Random(0)
    p = random_poly(F5, 3, 2, rng)
    entry = p.restrict((1, 2, 3), (0, 0, 0))
    assert entry == (p.eval((1, 2, 3)), 0, 0)


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
    assert len(entry) == p.cap + 1
    for t in range(q):
        pt = tuple((ai + t * bi) % q for ai, bi in zip(a, b))
        assert _at(entry, t, q) == p.eval(pt)


def test_restrict_exact_above_field_size():
    # cap >= q: symbolic composition must stay exact where interpolation could not
    p = MultiPoly(F5, 1, {(6,): 2, (1,): 1}, cap=6)
    entry = p.restrict((1,), (3,))
    assert len(entry) == 7
    for t in range(5):
        assert _at(entry, t, 5) == p.eval(((1 + 3 * t) % 5,))


def test_restrict_degree_bounded_by_total_degree():
    rng = random.Random(4)
    p = random_poly(F7, 2, 3, rng).with_cap(5)
    entry = p.restrict((1, 2), (3, 4))
    assert all(c == 0 for c in entry[p.degree() + 1:])


def _convolve_ref(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] += x * y
    return out


def _add_ref(u, v):
    return [x + y for x, y in itertools.zip_longest(u, v, fillvalue=0)]


def _line_ref(terms, a, b):
    """Σ c·Π (a_i + b_i t)^{e_i} over Z, unreduced, as its coefficients of
    t^0, t^1, ...: each power expanded by plain convolution."""
    acc = [0]
    for exps, c in terms.items():
        prod = [c]
        for ai, bi, e in zip(a, b, exps):
            for _ in range(e):
                prod = _convolve_ref(prod, [ai, bi])
        acc = _add_ref(acc, prod)
    return acc


def _restrict_ref(terms, cap, a, b, q):
    """``_line_ref`` reduced mod q, as cap+1 residues."""
    acc = _line_ref(terms, a, b)
    return tuple(v % q for v in acc) + (0,) * (cap + 1 - len(acc))


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
    assert p.restrict(a, b) == _restrict_ref(terms, cap, a, b, q)
    assert p.eval(x) == _eval_ref(terms, x, q)


@pytest.mark.parametrize("q, nvars, degree", [
    (3, 2, 12), (5, 3, 9), (257, 2, 12), (257, 4, 10), (65537, 3, 8),
    (4294967311, 2, 12), (2 ** 61 - 1, 2, 10),
])
def test_restrict_at_the_digit_width_bound(q, nvars, degree):
    # every coefficient and every line coordinate is q-1, so the entry's
    # coefficients over Z sum to exactly the bound the digit width is taken
    # from, Σ_e c_e (2q-2)^|e|, and each Kronecker digit reaches
    # T(q-1)(2q-2)^D-scale values: a width without the term count T lets
    # digits carry into each other
    terms = {e: q - 1 for e in monomials_upto(nvars, degree)}
    cap = degree + 2
    line = [q - 1] * nvars
    p = MultiPoly(Field(q), nvars, terms, cap)
    assert p.restrict(line, line) == _restrict_ref(terms, cap, line, line, q)


def _sum_of_products_ref(products, a, b):
    """Σ_i Π_j f_ij(a + t b) over Z, unreduced, each factor a terms dict:
    ``_line_ref`` per factor, the products multiplied out by convolution."""
    total = [0]
    for factors in products:
        acc = [1]
        for terms in factors:
            acc = _convolve_ref(acc, _line_ref(terms, a, b))
        total = _add_ref(total, acc)
    return total


def _check_worst_case_line(poly):
    # at a = b = (q-1, ...) every factor over Z sums its coefficients to
    # exactly Σ_e c_e (2q-2)^|e|, so the entry's coefficients over Z sum to
    # exactly the bound the digit width is taken from: its largest case
    q = poly.field.q
    products = [[f.terms for f in factors] for factors in poly.products]
    bound = 0
    for factors in products:
        size = 1
        for terms in factors:
            size *= sum(c * (2 * q - 2) ** sum(e) for e, c in terms.items())
        bound += size
    line = [q - 1] * poly.nvars
    z = _sum_of_products_ref(products, line, line)
    assert sum(z) == bound
    assert poly._layout()[2] == bound.bit_length()
    want = tuple(c % q for c in z) + (0,) * (poly.cap + 1 - len(z))
    assert poly.restrict(line, line) == want


@pytest.mark.parametrize("q, m, degree, extra", [
    (3, 2, 4, 2), (5, 1, 6, 1), (257, 2, 3, 0), (65537, 2, 4, 1),
    (2 ** 61 - 1, 2, 3, 2), (2 ** 61 - 1, 3, 2, 0),
])
def test_certificate_restricts_at_the_digit_width_bound(q, m, degree, extra):
    # M(x, y) = Σ h_g(x)·y_g with every cofactor coefficient q-1, on two
    # generators; the cap is the certificate's degree plus ``extra``, so
    # (3, 2, 4, 2) and (5, 1, 6, 1) have cap >= q
    field = Field(q)
    full = {e: q - 1 for e in monomials_upto(m, degree)}
    cofactors = [MultiPoly(field, m, full, degree),
                 MultiPoly(field, m, {e: q - 1 for e in monomials_exact(m, degree)}, degree)]
    gens = [MultiPoly.variable(field, m, i % m) for i in range(2)]
    _check_worst_case_line(certificate_factors(cofactors, gens, degree + 1 + extra))


@st.composite
def _worst_sums_of_products(draw):
    """(q, nvars, products of terms dicts, extra cap) with coefficients q-1
    or drawn, up to 3 products of up to 3 factors in up to 3 variables."""
    q = draw(st.sampled_from([3, 5, 7, 257, 65537, 2 ** 31 - 1, 2 ** 61 - 1]))
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.one_of(st.just(q - 1), st.integers(0, q - 1))
    factor = st.dictionaries(exps, coeff, max_size=4)
    products = draw(st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1, max_size=3))
    return q, nvars, products, draw(st.integers(0, 3))


def _mixed(q, extra):
    """A fixed case: factors of degrees 0-4 with and without constants, a
    factor repeated, two factors sharing a part and a zero factor, every
    coefficient q-1, at cap 8 + ``extra``."""
    f, g, k = [(0, 0), (1, 0), (0, 2), (1, 1)], [(2, 2), (0, 1)], [(0, 0)]
    h = g + k                                           # g's part with a constant
    products = [[f, g], [h, h, k], [f, f, f], [g, []], [k]]
    return q, 2, [[{e: q - 1 for e in terms} for terms in fs] for fs in products], extra


@settings(max_examples=150, deadline=None)
@given(_worst_sums_of_products())
@example(_mixed(3, 0))                                  # cap 8 >= q
@example(_mixed(7, 3))                                  # cap 11 >= q
@example(_mixed(2 ** 61 - 1, 1))
@example((2 ** 61 - 1, 3, [[{(2, 2, 2): 2 ** 61 - 2, (1, 0, 0): 1}] * 3], 1))
def test_sums_of_products_restrict_at_the_digit_width_bound(case):
    q, nvars, products, extra = case
    field = Field(q)
    factors = [[MultiPoly(field, nvars, terms, 2 * nvars) for terms in fs] for fs in products]
    degree = max(sum(f.degree() for f in fs) for fs in factors)
    _check_worst_case_line(FactoredPoly(field, nvars, factors, degree + extra))


def _nesting(body):
    """The variables of ``_horner``'s statements, outermost first: a
    variable's Horner steps fold in polynomials in the variables nested
    inside it, so its last step comes after theirs."""
    last = {}
    for pos, line in enumerate(body):
        step = re.fullmatch(r"v\d+ (?:= v\d+\*x(\d+) \+ \w+|\*= x(\d+))", line)
        if step:
            last[int(step[1] or step[2])] = pos
    return sorted(last, key=last.get, reverse=True)


@pytest.mark.parametrize("tops, nesting", [
    ((1, 3, 2), (1, 2, 0)),      # by descending highest exponent
    ((2, 1, 2), (0, 2, 1)),      # a tie falls back to index order
    ((1, 1, 1), (0, 1, 2)),
])
def test_horner_nests_variables_by_descending_highest_exponent(tops, nesting):
    # over the full box of exponents up to ``tops``; the coefficient order
    # follows the nesting too (descending exponents, outermost first)
    support = frozenset(itertools.product(*[range(t + 1) for t in tops]))
    body, order, used = _horner(support, 3)
    assert _nesting(body) == list(nesting)
    assert order == sorted(support, key=lambda e: [e[i] for i in nesting], reverse=True)
    assert used == {0, 1, 2}


def test_eval_and_restrict_match_the_reference_under_every_variable_order():
    # a sparse support with highest exponents (1, 3, 2), its variables
    # permuted every way: the outermost variable is always the one of
    # exponent 3, and every form must match the term-by-term reference
    base = [(0, 3, 0), (1, 2, 1), (0, 1, 2), (1, 0, 0), (0, 0, 1), (0, 0, 0), (1, 1, 0)]
    rng = random.Random(312)
    for perm in itertools.permutations(range(3)):
        terms = {tuple(e[perm[i]] for i in range(3)): rng.randrange(1, 257) for e in base}
        p = MultiPoly(Field(257), 3, terms, 5)
        body, _, _ = _horner(frozenset(terms), 3)
        assert _nesting(body)[0] == perm.index(1), perm
        product = FactoredPoly.product([p, MultiPoly.variable(Field(257), 3, perm[0])])
        for _ in range(10):
            a, b, x = ([rng.randrange(-257, 514) for _ in range(3)] for _ in range(3))
            assert p.eval(x) == _eval_ref(terms, x, 257), perm
            assert p.restrict(a, b) == _restrict_ref(terms, 5, a, b, 257), perm
            assert product.eval(x) == _eval_ref(terms, x, 257) * x[perm[0]] % 257, perm
            want = _convolve_ref(list(_restrict_ref(terms, 5, a, b, 257)), [a[perm[0]], b[perm[0]]])
            assert product.restrict(a, b) == tuple(c % 257 for c in want), perm


def test_restrict_every_factor_of_the_k3_q7_proof():
    # q=7, K3: the conflict cap 6d = 12 >= q, so restriction must stay formal
    field = F7
    variety = make_variety(field, "cube:H=0,1,2;m=1")
    graph = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    proof = pcp_prove(PcpInstance(variety, graph), fewest_conflicts_coloring(graph, field))
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
                assert f.restrict(a, b) == _restrict_ref(f.terms, f.cap, a, b, 7)
                checked += 1
    assert checked == 50 * 15  # chi-hat; A's 3 factors; M_A's 2; B's 5; M_B's 2 + 2


@pytest.mark.parametrize("q", [7, 257])
def test_long_compiled_code_stays_exact(q):
    # a degree-300 univariate layout is 300 Horner steps (sparse, to keep the
    # reference expansion quick), a product of 260 factors multiplies 260
    # compiled values, and its kept line is read at 261 coefficients: none
    # may recurse or nest past the interpreter's limits
    field = Field(q)
    rng = random.Random(q)
    terms = {(e,): rng.randrange(1, q) for e in range(0, 301, 12)}
    p = MultiPoly(field, 1, terms, 300)
    a, b, x = [rng.randrange(q)], [rng.randrange(1, q)], [rng.randrange(q)]
    assert p.restrict(a, b) == _restrict_ref(terms, 300, a, b, q)
    assert p.eval(x) == _eval_ref(terms, x, q)

    offsets = [rng.randrange(q) for _ in range(260)]
    factors = [{(1,): 1, (0,): c} for c in offsets]
    product = FactoredPoly.product([MultiPoly(field, 1, f, 1) for f in factors])
    want = [1]
    for f in factors:
        want = _convolve_ref(want, _restrict_ref(f, 1, a, b, q))
    assert product.restrict(a, b) == tuple(c % q for c in want)
    value = 1
    for f in factors:
        value *= _eval_ref(f, x, q)
    assert product.eval(x) == value % q

    # its 260 factors share one part, which is not memoized, so it keeps no
    # line; a point on its line, read through the generated reader of 261
    # coefficients, is 260 Horner steps, one statement each
    t = rng.randrange(1, q)
    on = [a[0] + t * b[0]]
    entry = product.restrict(a, b)
    assert product._line is None and not product._layout()[3]
    value = 1
    for f in factors:
        value *= _eval_ref(f, on, q)
    assert _line_reader(q, 261, 1)((tuple(a), tuple(b), entry), on) == value % q
    assert product.eval(on) == value % q


def test_same_support_shares_one_compiled_function():
    terms = {(2, 1): 3, (0, 1): 1, (0, 0): 4}
    p = MultiPoly(F7, 2, terms, 3)
    r = MultiPoly(F7, 2, {e: c + 1 for e, c in terms.items()}, 3)
    # the same support inserted in reverse order
    s = MultiPoly(F7, 2, dict(reversed(list(terms.items()))), 3)
    for poly in (r, s):
        assert poly._layout()[0] is p._layout()[0]
    for poly in (p, r, s):
        for x in [(0, 0), (1, 2), (6, 5)]:
            assert poly.eval(x) == _eval_ref(poly.terms, x, 7)
        assert poly.restrict((1, 2), (3, 4)) == _restrict_ref(
            poly.terms, 3, (1, 2), (3, 4), 7)


_ONE_FACTOR = {   # name: (terms, cap) in 2 variables over F_7
    "full support": ({(2, 1): 3, (1, 1): 5, (0, 2): 1, (1, 0): 6, (0, 0): 2}, 3),
    "partial support": ({(3, 0): 1, (1, 0): 6}, 3),   # x1^3 - x1: its part reads x1 only
    "zero": ({}, 2),
    "constant": ({(0, 0): 4}, 2),
}


@pytest.mark.parametrize("name", sorted(_ONE_FACTOR))
def test_multipoly_is_the_one_factor_sum_of_products(name):
    # a MultiPoly compiles as the one-product, one-factor shape of the
    # sum-of-products function: it shares the function and the digit width
    # of its own one-factor FactoredPoly.  Its one part is never memoized,
    # not even x1^3 - x1, which reads x1 only, so it keeps no line.
    # Repeated points and alternating calls must still give the term-by-term
    # reference on every input form
    terms, cap = _ONE_FACTOR[name]
    p = MultiPoly(F7, 2, terms, cap)
    fn, _, width, memo = p._layout()
    factored = FactoredPoly.product([p])._layout()
    assert factored[0] is fn and factored[2] == width
    assert memo == []
    points = [(3, 4), (3, 4), [10, -3], (-4, 18), (3, 5), [3, 4]]
    lines = [((1, 2), (3, 4)), ((3, 1), (7, 2)), ([8, -5], (-4, 11)),
             ((1, 2), [3, 4]), ((3, 1), (-7, 9)), ((1, 9), (10, 4))]
    for x, (a, b) in zip(points, lines):
        assert p.eval(x) == _eval_ref(terms, x, 7), (name, x)
        assert p.restrict(a, b) == _restrict_ref(terms, cap, a, b, 7), (name, a, b)
        assert p._line is None
        assert p.eval(x) == _eval_ref(terms, x, 7), (name, x)


def test_zero_and_constant_polynomials():
    zero = MultiPoly.zero(F7, 2, cap=2)
    const = MultiPoly.constant(F7, 2, 3, cap=2)
    assert zero._layout()[0] is const._layout()[0]  # both a lone constant slot
    assert zero.eval((4, 5)) == 0 and const.eval((4, 5)) == 3
    assert zero.restrict((1, 2), (3, 4)) == (0, 0, 0)
    assert const.restrict((1, 2), (3, 4)) == (3, 0, 0)


def _line_forms(a, b, q):
    """The line (a, b) as tuples, as lists, shifted by multiples of q, and
    negative: every form must give the same entry."""
    return [(tuple(a), tuple(b)), (list(a), list(b)),
            ([x + 2 * q for x in a], [y + q for y in b]),
            (tuple(x - 3 * q for x in a), [y - q for y in b])]


_SHAPES = {   # name: (q, nvars, terms, cap)
    "cap 0": (5, 2, {(0, 0): 3}, 0),
    "cap = degree": (7, 3, {(2, 1, 0): 3, (0, 1, 1): 6, (0, 0, 1): 1, (0, 0, 0): 2}, 3),
    "cap >= q": (3, 2, {(3, 1): 2, (1, 0): 1, (0, 0): 1}, 5),
    "cap above degree": (257, 2, {(1, 1): 256, (0, 1): 1}, 4),
}


@pytest.mark.parametrize("name", sorted(_SHAPES))
def test_restrict_matches_the_reference_on_every_input_form(name):
    q, nvars, terms, cap = _SHAPES[name]
    p = MultiPoly(Field(q), nvars, terms, cap)
    rng = random.Random(name)
    for _ in range(20):
        a = [rng.randrange(q) for _ in range(nvars)]
        b = [rng.randrange(q) for _ in range(nvars)]
        want = _restrict_ref(terms, cap, a, b, q)
        for fa, fb in _line_forms(a, b, q):
            assert p.restrict(fa, fb) == want, (name, fa, fb)


def test_zero_and_constant_in_one_to_four_variables():
    # the zero polynomial has digit width 0 and a constant a nonzero one, at
    # the same q, cap and arity, and each arity 1-4 repeats the same q, width
    # and cap: a codec keyed without the width or the arity hands one of
    # them another's.  q = 13 is used by no other test, so these shapes are
    # built here first
    field = Field(13)
    for nvars in range(1, 5):
        for cap in (0, 2):
            for c in (0, 4):
                p = MultiPoly.constant(field, nvars, c, cap)
                a, b = list(range(1, nvars + 1)), [5] * nvars
                want = _restrict_ref(p.terms, cap, a, b, 13)
                assert want == (c,) + (0,) * cap
                for fa, fb in _line_forms(a, b, 13):
                    assert p.restrict(fa, fb) == want, (nvars, cap, c, fa, fb)


def test_read_masks_every_digit():
    # read takes the low ndigits digits of any integer, each masked (the top
    # one too) and reduced mod q; bits above the top digit are ignored
    pack, read = _line_codec(13, 4, 3, 2)
    assert read(2 | 14 << 4 | 5 << 8 | 0b1011 << 12 | 1 << 40) == (2, 1, 5)
    assert read(0) == (0, 0, 0)
    assert pack((1, -1), [27, 14]) == (1 + (1 << 4), 12 + (1 << 4))


def test_line_codec_is_shared_bounded_and_built_on_first_restrict():
    # two polynomials of one line shape (q, digit width, cap + 1, arity)
    # share one codec; a polynomial that is only evaluated fetches none, and
    # a layout that memoizes no part fetches no kept-line reader.  The width
    # follows the coefficients: 3·12^3 + 12 + 4 and 3·12^3 + 2·12 + 1 both
    # have 13 bits
    p = MultiPoly(F7, 2, {(2, 1): 3, (0, 1): 1, (0, 0): 4}, 4)
    r = MultiPoly(F7, 2, {(1, 2): 3, (1, 0): 2, (0, 0): 1}, 4)
    width = p._layout()[2]
    assert r._layout()[2] == width
    f = FactoredPoly.product([p, r])
    for poly in (p, r, f):
        poly.eval((1, 2))
        assert poly._codec is None
    for poly in (p, r, f):
        poly.restrict((1, 2), (3, 4))
    assert p._codec == r._codec == (*_line_codec(7, width, 5, 2), None)
    assert f._codec == (*_line_codec(7, f._layout()[2], 9, 2), None)
    assert _line_codec.cache_info().maxsize is not None


def test_generated_functions_profile_as_separate_entries():
    # pstats keys a function by (filename, line, name), and every generated
    # function is ``f`` at a fixed line of its source: the pack and the read
    # of two line shapes, two kept-line readers, two line tests and two
    # supports must compile under filenames of their own, or functions merge
    # into one entry that counts several calls
    codecs = [_line_codec(7, 5, 3, 2), _line_codec(11, 6, 4, 2)]
    horners = [_compile_horner(frozenset({(1, 0), (0, 1)}), 2)[0],
               _compile_horner(frozenset({(2, 0), (0, 0)}), 2)[0]]
    readers = [_line_reader(7, 3, 2), _line_reader(11, 3, 2)]
    tests = [(_line_test(q, 2, 2), PointOracle(Field(q), 2, 2, lambda x: 0),
              LinesOracle(Field(q), 2, 2, lambda a, b: (0, 0, 0))) for q in (7, 11)]

    def work():
        for pack, read in codecs:
            read(sum(pack((1, 2), (3, 4))))
        for f in horners:
            f((1, 1), (2, 3))
        for read in readers:
            read(((1, 2), (3, 4), (5, 6, 0)), (4, 6))
        for test, point, lines in tests:
            test(point, lines, (1, 2), (3, 4), 1)

    profile = cProfile.Profile()
    profile.runcall(work)
    generated = {key: stat for key, stat in pstats.Stats(profile).stats.items()
                 if key[0].startswith("<")}
    assert [name for _, _, name in generated] == ["f"] * 10
    assert all(stat[0] == 1 for stat in generated.values())


def _product_ref(factors, nvars, q):
    """Π of term dicts, term by term: exponent tuples added coordinate-wise,
    coefficients multiplied mod q."""
    acc = {(0,) * nvars: 1}
    for terms in factors:
        out = {}
        for e1, c1 in acc.items():
            for e2, c2 in terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = (out.get(e, 0) + c1 * c2) % q
        acc = out
    return {e: c for e, c in acc.items() if c}


@pytest.mark.parametrize("q, nvars, degree", [
    (5, 2, 0), (3, 1, 3), (5, 2, 4), (7, 2, 7), (3, 3, 8), (5, 1, 15), (7, 2, 16),
])
def test_expand_and_mul_match_a_term_by_term_product(q, nvars, degree):
    # products of degree exactly ``degree`` with a pure power x1^degree, at
    # and just past the powers of two where a packed field widens, plus a
    # zero factor and a constant factor
    field = Field(q)
    rng = random.Random(100 * q + degree)
    for _ in range(4):
        products = []
        for _ in range(rng.randint(1, 3)):
            cuts = sorted(rng.randint(0, degree) for _ in range(rng.randint(0, 2)))
            factors = []
            for lo, hi in zip([0] + cuts, cuts + [degree]):
                terms = dict(random_poly(field, nvars, hi - lo, rng).terms)
                terms[(hi - lo,) + (0,) * (nvars - 1)] = 1
                factors.append(MultiPoly(field, nvars, terms, hi - lo + rng.randint(0, 1)))
            products.append(factors)
        products.append([MultiPoly.zero(field, nvars, 1), products[0][0]])
        products.append([MultiPoly.constant(field, nvars, rng.randrange(1, q)), products[0][0]])
        reference = {}
        for factors in products:
            for e, c in _product_ref([f.terms for f in factors], nvars, q).items():
                reference[e] = (reference.get(e, 0) + c) % q
        cap = max(sum(f.cap for f in factors) for factors in products) + rng.randint(0, 2)
        expanded = FactoredPoly(field, nvars, products, cap).expand()
        assert expanded.terms == {e: c for e, c in reference.items() if c}
        assert expanded.cap == cap
        for factors in products:
            product = FactoredPoly.product(factors).expand()
            assert product.terms == _product_ref([f.terms for f in factors], nvars, q)
            assert product.cap == sum(f.cap for f in factors)
            if len(factors) == 2:
                a, b = factors
                assert a.mul(b) == product and a.mul(b).cap == a.cap + b.cap


def _validated(p):
    """p's terms, checked against the trusted constructor's contract (nonzero
    residues, the right arity, degree <= cap) and then rebuilt by the
    validating constructor on the same input."""
    for e, c in p.terms.items():
        assert 0 < c < p.field.q and len(e) == p.nvars and sum(e) <= p.cap, (e, c, p.cap)
    return MultiPoly(p.field, p.nvars, p.terms, p.cap).terms


@st.composite
def _trusted_cases(draw):
    """(q, nvars, terms of a, terms of b, cap slack, scalar, shift offset)."""
    q = draw(st.sampled_from([3, 5, 7]))
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    terms = st.dictionaries(exps, st.integers(-2 * q, 2 * q), max_size=6)
    return (q, nvars, draw(terms), draw(terms), draw(st.integers(0, 2)),
            draw(st.integers(-2 * q, 2 * q)), draw(st.integers(0, 2)))


@settings(max_examples=150, deadline=None)
@given(_trusted_cases())
@example((3, 2, {(1, 1): 1, (0, 0): 2}, {(1, 1): 2, (0, 0): 1}, 0, 3, 1))   # a + b = 0, scale by q
def test_trusted_results_equal_the_validating_constructor(case):
    # every result the package builds without validation: add, sub, scale,
    # with_cap, shift_vars, expand, mul and the cofactors of a division
    q, nvars, ta, tb, slack, c, offset = case
    field = Field(q)
    a = MultiPoly(field, nvars, ta, max((sum(e) for e in ta), default=0) + slack)
    b = MultiPoly(field, nvars, tb, max((sum(e) for e in tb), default=0))
    union = set(a.terms) | set(b.terms)
    cap = max(a.cap, b.cap)
    expected = {
        "add": MultiPoly(field, nvars, {e: a.terms.get(e, 0) + b.terms.get(e, 0)
                                        for e in union}, cap),
        "sub": MultiPoly(field, nvars, {e: a.terms.get(e, 0) - b.terms.get(e, 0)
                                        for e in union}, cap),
        "sub self": MultiPoly.zero(field, nvars, b.cap),
        "scale": MultiPoly(field, nvars, {e: x * c for e, x in a.terms.items()}, a.cap),
        "with_cap": MultiPoly(field, nvars, a.terms, a.degree() + slack),
        "shift_vars": MultiPoly(field, nvars + 2, {(0,) * offset + e + (0,) * (2 - offset): x
                                                   for e, x in a.terms.items()}, a.cap),
    }
    product = MultiPoly(field, nvars, _product_ref([a.terms, b.terms], nvars, q), a.cap + b.cap)
    got = {
        "add": a.add(b),
        "sub": a.sub(b),
        "sub self": b.sub(b),
        "scale": a.scale(c),
        "with_cap": a.with_cap(a.degree() + slack),
        "shift_vars": a.shift_vars(nvars + 2, offset),
        "mul": a.mul(b),
        "expand": FactoredPoly.product([a, b]).expand(),
        # a·b - b·a: every term cancels in the sum of the products
        "expand cancelled": FactoredPoly(field, nvars, [[a, b], [b.scale(-1), a]],
                                         a.cap + b.cap).expand(),
    }
    expected.update({"mul": product, "expand": product,
                     "expand cancelled": MultiPoly.zero(field, nvars, a.cap + b.cap)})
    # a single divisor is a Gröbner basis and a·b leaves no remainder, so
    # the one cofactor is a, capped at its degree
    (got["cofactor"],) = vanishing_certificate(got["mul"], [b])
    expected["cofactor"] = (MultiPoly(field, nvars, a.terms, a.degree()) if not b.is_zero()
                            else MultiPoly.zero(field, nvars))
    for name, p in got.items():
        assert p.terms == _validated(p), name
        assert (p, p.cap) == (expected[name], expected[name].cap), name
    if a.degree() > 0:
        with pytest.raises(DegreeCapError):
            a.with_cap(a.degree() - 1)


def test_cofactor_terms_cancelled_in_their_accumulator_are_dropped():
    # dividing this P by the variety's reduced Gröbner basis sums two
    # contributions to one cofactor term that cancel to 0; the cofactors keep
    # only nonzero residues, and each cap is its degree
    field = Field(3)
    v = Variety(field, [(1, 1), (0, 1), (2, 2), (0, 2)])
    p = MultiPoly(field, 2, {(1, 0): 1, (1, 2): 2}, 3)
    cofactors = vanishing_certificate(p, v)
    total = MultiPoly.zero(field, 2)
    for h, g in zip(cofactors, v.gens):
        assert h.terms == _validated(h)
        assert h.cap == h.degree()
        total = total.add(h.mul(g))
    assert total == p


def test_unipoly_shape_and_resize():
    # an entry's width follows the polynomial's cap, trailing zeros kept
    p = MultiPoly(F5, 1, {(1,): 2, (0,): 1}, cap=1)
    assert p.restrict((0,), (1,)) == (1, 2)
    assert p.with_cap(4).restrict((0,), (1,)) == (1, 2, 0, 0, 0)


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
    # a dense coefficient vector in graded order goes through the constructor,
    # which drops the zero coefficients and keeps the graded term order
    p = MultiPoly(F5, 2, {(2, 0): 3, (0, 1): 2}, cap=2)
    vec = [p.terms.get(e, 0) for e in monomials_upto(2, 2)]
    assert vec == [0, 0, 2, 3, 0, 0]
    back = MultiPoly(F5, 2, dict(zip(monomials_upto(2, 2), vec)), 2)
    assert back == p
    assert list(back.terms) == [(0, 1), (2, 0)]


def test_shift_vars_embedding():
    p = MultiPoly(F5, 1, {(2,): 3}, cap=2)
    shifted = p.shift_vars(3, 1)
    assert shifted.nvars == 3
    assert shifted.terms == {(0, 2, 0): 3}
    assert shifted.eval((9, 2, 9)) == p.eval((2,))


def test_both_classes_share_one_eval_and_restrict():
    for name in ("_layout", "eval", "restrict"):
        assert getattr(MultiPoly, name) is getattr(FactoredPoly, name), name
