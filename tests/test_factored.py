"""Factored honest oracles against independently expanded polynomials.

The PCP's conflict polynomial B, its validity polynomial A and the two
zero-test certificates M_A, M_B are answered factor by factor.  Here each is
rebuilt as one expanded ``MultiPoly`` by a different route (B as
Ê·((Δ²-1)(Δ²-4)), A as χ̂³-χ̂, M from the cofactor terms directly) and the
factored oracles must give the same values and the same lines entries,
width included.
"""

import functools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pcplab.field import Field
from pcplab.harness import PCP_ADVERSARIES
from pcplab.pcp import (
    Graph,
    PcpInstance,
    best_effort_coloring,
    claim_polynomials,
    pcp_prove,
    proper_3_coloring,
)
from pcplab.poly import FactoredPoly, MultiPoly, monomials_upto
from pcplab.variety import make_variety, vanishing_certificate

# (q, variety, graph): the benchmark's K4 instance, criterion 8's K3
# instance, and a field small enough that the conflict degree 6d >= q.
INSTANCES = {
    "k4-q257": (257, "cube:H=0,1;m=2", 4),
    "k3-q17": (17, "cube:H=0,1,2;m=1", 3),
    "k3-q7": (7, "cube:H=0,1,2;m=1", 3),
}


def _expanded_certificate(poly, variety, degree):
    cert = vanishing_certificate(poly, variety.gens)
    m, k = variety.m, variety.complexity
    terms = {}
    for gi, h in enumerate(cert.cofactors):
        y = tuple(1 if j == gi else 0 for j in range(k))
        for e, c in h.terms.items():
            terms[e + y] = c
    return MultiPoly(poly.field, m + k, terms, degree)


@functools.lru_cache(maxsize=None)
def case(name):
    """(factored conflict polynomial,
    [(label, point oracle, lines oracle, expanded reference, degree)])."""
    q, spec, n = INSTANCES[name]
    field = Field(q)
    variety = make_variety(field, spec)
    graph = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    inst = PcpInstance(variety, graph)
    colors = proper_3_coloring(graph, field)
    if colors is None:
        proof = PCP_ADVERSARIES["improper-pipeline"](inst, 0.0, random.Random(0))
    else:
        proof = pcp_prove(inst, colors)
    d = inst.d

    chi, _, factored_conflict = claim_polynomials(
        inst, colors or best_effort_coloring(graph, field))
    validity = chi.mul(chi).mul(chi).sub(chi)
    m2 = 2 * inst.m
    delta = chi.shift_vars(m2, 0).sub(chi.shift_vars(m2, inst.m))
    delta2 = delta.mul(delta)
    conflict = inst.edge_poly.mul(delta2.add_constant(-1)).mul(delta2.add_constant(-4))

    out = [
        ("chi", proof.color, proof.color_lines, chi, d),
        ("A", proof.validity, proof.validity_lines, validity, 3 * d),
        ("B", proof.conflict, proof.conflict_lines, conflict, 6 * d),
        ("M_A", proof.validity_cert.point, proof.validity_cert.lines,
         _expanded_certificate(validity, inst.variety, 3 * d), 3 * d),
    ]
    if colors is not None:
        out.append(("M_B", proof.conflict_cert.point, proof.conflict_cert.lines,
                     _expanded_certificate(conflict, inst.variety2, 6 * d), 6 * d))
    return factored_conflict, out


def test_cases_cover_the_factored_oracles():
    labels = {(name, label) for name in INSTANCES for label, *_ in case(name)[1]}
    assert {("k4-q257", "B"), ("k4-q257", "M_A"), ("k3-q17", "M_B"),
            ("k3-q7", "M_B")} <= labels
    q = INSTANCES["k3-q7"][0]
    conflict, oracles = case("k3-q7")
    label, *_, degree = oracles[2]
    assert label == "B" and degree >= q          # conflict cap 6d at or above q
    assert len(conflict.products) == 1
    assert len(conflict.products[0]) == 5        # Ê and the four offsets


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_factored_oracles_match_expanded(data):
    name = data.draw(st.sampled_from(sorted(INSTANCES)))
    q = INSTANCES[name][0]
    for label, point, lines, ref, degree in case(name)[1]:
        s = ref.nvars
        coords = st.lists(st.integers(0, q - 1), min_size=s, max_size=s).map(tuple)
        x, a, b = data.draw(coords), data.draw(coords), data.draw(coords)
        assert point.query(x) == ref.eval(x), (name, label, x)
        entry = lines.query(a, b)
        assert entry.coeffs == ref.with_cap(degree).restrict(a, b).coeffs, (name, label, a, b)


@st.composite
def _factored_polys(draw):
    """(q, nvars, products as lists of term dicts, cap slack, a, b, x)."""
    q = draw(st.sampled_from([3, 5, 7, 257, 4294967311]))
    nvars = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars).map(tuple)
    factor = st.dictionaries(exps, st.integers(0, q - 1), max_size=4)
    products = draw(st.lists(st.lists(factor, min_size=1, max_size=5), max_size=3))
    point = st.lists(st.integers(0, q - 1), min_size=nvars, max_size=nvars)
    return q, nvars, products, draw(st.integers(0, 8)), draw(point), draw(point), draw(point)


_FULL = {e: 256 for e in monomials_upto(2, 2)}


@settings(max_examples=200, deadline=None)
@given(_factored_polys())
@example((257, 2, [[_FULL] * 3, [_FULL] * 2], 0,     # one Kronecker pass at the
          [256, 256], [256, 256], [256, 256]))     # W_F bound: all entries q-1
@example((3, 1, [[{(3,): 2, (0,): 1}] * 2], 2, [2], [1], [2]))  # cap 8 >= q
def test_one_pass_matches_expanded(case):
    q, nvars, products, slack, a, b, x = case
    field = Field(q)
    factored_products = [
        [MultiPoly(field, nvars, terms, max((sum(e) for e in terms), default=0))
         for terms in factors]
        for factors in products]
    degree = max((sum(f.cap for f in fs) for fs in factored_products), default=0)
    p = FactoredPoly(field, nvars, factored_products, degree + slack)
    expanded = p.expand()
    assert p.eval(x) == expanded.eval(x)
    assert p.restrict(a, b).coeffs == expanded.restrict(a, b).coeffs


def test_factored_restrict_exact_when_cap_exceeds_q():
    # (x+1)^5 (x+2)^3 over F_5: degree 8 >= q, restriction must stay formal
    f5 = Field(5)
    x1 = MultiPoly(f5, 1, {(1,): 1, (0,): 1}, 1)
    x2 = MultiPoly(f5, 1, {(1,): 1, (0,): 2}, 1)
    factored = FactoredPoly.product([x1] * 5 + [x2] * 3)
    expanded = factored.expand()
    assert expanded.degree() == 8
    for a in range(5):
        for b in range(5):
            assert factored.restrict((a,), (b,)) == expanded.restrict((a,), (b,))
            assert factored.eval((a,)) == expanded.eval((a,))


def test_factored_sum_and_degree_bound():
    f7 = Field(7)
    x = MultiPoly.variable(f7, 2, 0)
    y = MultiPoly.variable(f7, 2, 1)
    p = FactoredPoly(f7, 2, [(x, y), (y, y, y)], 3)
    assert p.degree() == 3
    assert p.expand() == x.mul(y).add(y.mul(y).mul(y))
    assert p.restrict((1, 2), (3, 4)) == p.expand().restrict((1, 2), (3, 4))
    with pytest.raises(ValueError):
        FactoredPoly(f7, 2, [(x, y)], 1)
    with pytest.raises(ValueError):
        FactoredPoly(f7, 2, [(x, MultiPoly.variable(f7, 3, 0))], 2)
    zero = FactoredPoly(f7, 2, [], 2)
    assert zero.eval((3, 4)) == 0
    assert zero.restrict((1, 1), (2, 2)).coeffs == [0, 0, 0]
