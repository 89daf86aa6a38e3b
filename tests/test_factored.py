"""Factored honest oracles against independently expanded polynomials.

The PCP's conflict polynomial B, its validity polynomial A and the two
zero-test certificates M_A, M_B are answered by one fused function each.
Here each is rebuilt as one expanded ``MultiPoly`` by a different route (B
as Ê·((Δ²-1)(Δ²-4)), A as χ̂³-χ̂, M from the cofactor terms directly) and
the factored oracles must give the same values and the same lines entries,
width included.  A ``FactoredPoly`` whose layout memoizes a part reuses its
last restriction (that part's last value, the last line's entry for a point
on it); interleaved reads are checked against the expanded polynomial and
against the factors read one by one, and the part runs of one certificate
check are counted.
"""

import functools
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from pcplab.codegen import _MEMO_TERMS
from pcplab.field import Field
from pcplab.harness import PCP_ADVERSARIES
from pcplab.pcp import (
    Graph,
    PcpInstance,
    claim_polynomials,
    fewest_conflicts_coloring,
    pcp_prove,
)
from pcplab.poly import FactoredPoly, MultiPoly, monomials_upto
from pcplab.variety import make_variety, vanishing_certificate
from pcplab.zerotest import ZeroRandomness, zero_verify

# (q, variety, graph): the benchmark's K4 instance, criterion 8's K3
# instance, and a field small enough that the conflict degree 6d >= q.
INSTANCES = {
    "k4-q257": (257, "cube:H=0,1;m=2", 4),
    "k3-q17": (17, "cube:H=0,1,2;m=1", 3),
    "k3-q7": (7, "cube:H=0,1,2;m=1", 3),
}


def _expanded_certificate(poly, variety, degree):
    cofactors = vanishing_certificate(poly, variety.gens)
    m, k = variety.m, variety.complexity
    terms = {}
    for gi, h in enumerate(cofactors):
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
    colors = fewest_conflicts_coloring(graph, field)
    proof = PCP_ADVERSARIES["improper-pipeline"](
        pcp_prove(inst, colors), inst, 0.0, random.Random(0))
    d = inst.d

    chi, _, factored_conflict = claim_polynomials(inst, colors)
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
    if not graph.conflicts(colors, q):
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
        assert entry == ref.with_cap(degree).restrict(a, b), (name, label, a, b)


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
    assert p.restrict(a, b) == expanded.restrict(a, b)


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
    assert zero.restrict((1, 1), (2, 2)) == (0, 0, 0)


# -- reuse of the last restriction -------------------------------------------

@st.composite
def _reuse_sequences(draw):
    """(q, nvars, products of term dicts, cap slack, ops).

    Each factor uses a drawn subset of the variables (possibly none), so
    factors skip variables.  An op is ("line", a, b), ("eval", p) or
    ("again", p), a second read of the same point; lines are fresh, shifted
    from the last line in some coordinates only (so a factor's projection
    can repeat while the line changes), or have b = 0; points lie on the
    last line or anywhere.  Every coordinate may carry a multiple of q.
    """
    q = draw(st.sampled_from([3, 5, 7, 257, 4294967311]))
    nvars = draw(st.integers(1, 4))
    residue = st.integers(0, q - 1)

    def factor():
        used = draw(st.sets(st.integers(0, nvars - 1), max_size=nvars))
        exps = st.tuples(*(st.integers(0, 3) if i in used else st.just(0)
                           for i in range(nvars)))
        return draw(st.dictionaries(exps, residue, max_size=4))

    products = [[factor() for _ in range(draw(st.integers(1, 4)))]
                for _ in range(draw(st.integers(0, 3)))]
    vec = st.lists(residue, min_size=nvars, max_size=nvars)
    unreduce = st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars)
    ops = []
    a, b = draw(vec), draw(vec)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["line", "shift", "zero", "on", "off", "again"]))
        if kind in ("line", "shift", "zero"):
            if kind == "line":
                a, b = draw(vec), draw(vec)
            elif kind == "shift":
                moved = draw(st.sets(st.integers(0, nvars - 1)))
                a = [draw(residue) if i in moved else x for i, x in enumerate(a)]
                b = [draw(residue) if i in moved else y for i, y in enumerate(b)]
            else:
                a, b = draw(vec), [0] * nvars
            ka, kb = draw(unreduce), draw(unreduce)
            ops.append(("line", [x + k * q for x, k in zip(a, ka)],
                        [y + k * q for y, k in zip(b, kb)]))
        elif kind == "again" and ops and ops[-1][0] == "eval":
            ops.append(("again", ops[-1][1]))
        else:
            if kind == "on":
                t = draw(residue)
                p = [x + t * y for x, y in zip(a, b)]
            else:
                p = draw(vec)
            ops.append(("eval", [x + k * q for x, k in zip(p, draw(unreduce))]))
    return q, nvars, products, draw(st.integers(0, 8)), ops


@settings(max_examples=150, deadline=None)
@given(_reuse_sequences())
@example((7, 2, [[{(1, 1): 3, (0, 0): 1}, {(0, 2): 1}]], 0, [   # x1 x2 keyed on both
    ("line", [1, 2], [3, 4]), ("line", [1, 5], [3, 4]), ("eval", [4, 6])]))
@example((7, 2, [[{(1, 1): 3, (0, 0): 1}, {(2, 0): 1}]], 0, [
    ("line", [1, 2], [3, 4]), ("line", [5, 2], [3, 4]), ("eval", [6, 2])]))
@example((5, 2, [[{(1, 0): 1}, {(0, 1): 1}]], 0, [       # off the line, then
    ("line", [1, 1], [1, 0]), ("eval", [2, 3]),         # on it after it was
    ("line", [1, 1], [1, 0]), ("eval", [2, 1]), ("again", [2, 1])]))   # consumed
@example((3, 1, [[{(3,): 2, (0,): 1}] * 3], 2, [         # cap 11 >= q, b = 0,
    ("line", [4], [-3]), ("eval", [-2]), ("eval", [2]),  # unreduced inputs
    ("line", [2], [1]), ("eval", [8])]))
def test_reuse_matches_expanded(case):
    # restrict reuses a factor's last value when the packed coordinates it
    # reads repeat, and eval answers a point on the last line from its entry;
    # every answer of an interleaved sequence must equal the expanded
    # polynomial's
    q, nvars, products, slack, ops = case
    field = Field(q)
    factored_products = [
        [MultiPoly(field, nvars, terms, max((sum(e) for e in terms), default=0))
         for terms in factors]
        for factors in products]
    degree = max((sum(f.cap for f in fs) for fs in factored_products), default=0)
    p = FactoredPoly(field, nvars, factored_products, degree + slack)
    expanded = p.expand()
    for op in ops:
        if op[0] == "line":
            _, a, b = op
            assert p.restrict(a, b) == expanded.restrict(a, b), op
        else:
            assert p.eval(op[1]) == expanded.eval(op[1]), op


def _memo_products(field):
    """Three products in x, y over ``field``: one whose factors all read both
    variables, one that also has an x-only factor whose non-constant part
    has _MEMO_TERMS + 1 terms, so it is memoized, and one whose x-only part
    has _MEMO_TERMS terms, at the bar, so it runs inline."""
    def poly(terms):
        return MultiPoly(field, 2, terms, max(sum(e) for e in terms))

    full = [poly({(1, 1): 3, (1, 0): 1, (0, 1): 2}), poly({(2, 1): 1, (0, 0): 4})]
    x_only = poly({(i, 0): i % 6 + 1 for i in range(_MEMO_TERMS + 2)})
    at_bar = poly({(i, 0): i % 6 + 1 for i in range(_MEMO_TERMS + 1)})
    return {"full": FactoredPoly.product(full),
            "with-x-only": FactoredPoly.product(full[:1] + [x_only]),
            "with-x-only-at-bar": FactoredPoly.product(full[:1] + [at_bar])}


@pytest.mark.parametrize("name", ["full", "with-x-only", "with-x-only-at-bar"])
def test_memo_only_on_factors_that_skip_a_variable(name):
    # a factor that reads every variable keeps no memo and just runs, and
    # so does an x-only factor at the size bar; one above it keeps its last
    # run.  The same line
    # twice in a row, then two lines in turn that share their x-part (so the
    # x-only factor's key repeats) and two that do not: every entry equals
    # the expanded one
    field = Field(7)
    p = _memo_products(field)[name]
    expanded = p.expand()
    memo = p._layout()[3]      # two slots (coordinates, value) per memoized part
    assert len(memo) == (2 if name == "with-x-only" else 0)
    lines = [((1, 2), (3, 4))] * 2
    lines += [((1, 2), (3, 4)), ((1, 5), (3, 6))] * 2
    lines += [((1, 2), (3, 4)), ((6, 2), (0, 4))] * 2
    lines += [([8, -5], [10, 4]), ((1, 2), (3, 4))]
    for a, b in lines:
        assert p.restrict(a, b) == expanded.restrict(a, b), (name, a, b)


class _Runs(list):
    """A memo list that counts, per memoized part, the writes of its value
    slot: one per run of that part."""

    def __init__(self, memo):
        super().__init__(memo)
        self.runs = [0] * (len(memo) // 2)

    def __setitem__(self, i, value):
        if i % 2:
            self.runs[i // 2] += 1
        super().__setitem__(i, value)


def _count_runs(p, parts):
    """Count the part runs of ``p``'s fused function, which has ``parts``
    non-constant parts: each call (a restriction or a fresh point) runs
    every part that keeps no memo, and a memoized part runs when it writes
    its memo value slot.  Returns (a function giving the total so far, the
    counting memo, a one-item list counting the calls)."""
    fn, coeffs, width, memo = p._layout()
    memo = _Runs(memo)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    p._compiled = counted, coeffs, width, memo
    unmemoized = parts - len(memo.runs)

    def runs():
        return calls[0] * unmemoized + sum(memo.runs)
    return runs, memo, calls


def _line_ref(products, cap, a, b, q):
    """Σ_i Π_j f_ij(a + t b) mod q for products of term dicts, term by term:
    each (a_k + b_k t)^e is expanded by convolution mod q, with no packing."""
    def mul(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] = (out[i + j] + x * y) % q
        return out

    entry = [0] * (cap + 1)
    for factors in products:
        prod = [1]
        for terms in factors:
            f = [0]
            for exps, c in terms.items():
                term = [c % q]
                for ak, bk, e in zip(a, b, exps):
                    for _ in range(e):
                        term = mul(term, [ak % q, bk % q])
                f = [(x + y) % q for x, y in itertools.zip_longest(f, term, fillvalue=0)]
            prod = mul(prod, f)
        for j, c in enumerate(prod):
            entry[j] = (entry[j] + c) % q
    return tuple(entry)


def test_restrict_matches_the_line_reference_through_memo_and_kept_line():
    # lines in every input form, consecutive ones sharing their x-part so the
    # x-only factor's memo is hit, each followed by a point on the line that
    # is read off the kept entry: every entry equals the term-by-term
    # reference and every point the reference entry at its t
    field = Field(7)
    p = _memo_products(field)["with-x-only"]
    products = [[f.terms for f in fs] for fs in p.products]
    runs, _, _ = _count_runs(p, 2)
    lines = [((1, 2), (3, 4)), ([1, 5], [3, 6]), ([8, -5], [10, 4]),
             ((-13, 9), (-4, -1)), ((6, 2), (0, 4)), ([-1, 2], [7, 4])]
    expected_runs = [2, 1, 1, 1, 2, 1]
    for (a, b), spent in zip(lines, expected_runs):
        before = runs()
        entry = p.restrict(a, b)
        assert runs() - before == spent, (a, b)
        assert entry == _line_ref(products, p.cap, a, b, 7), (a, b)
        t = 3
        point = [x + t * y - 7 for x, y in zip(a, b)]
        before = runs()
        assert p.eval(point) == sum(c * t ** j for j, c in enumerate(entry)) % 7
        assert runs() == before, (a, b, point)


@pytest.mark.parametrize("on_old_line", [True, False])
def test_kept_line_is_the_line_as_queried(on_old_line):
    # restrict on lists, then the caller mutates them: the kept line is a
    # copy, so a point on the old line is read off its entry (no factor
    # runs) and a point on the mutated line, which was never restricted, is
    # evaluated afresh; both equal the expanded polynomial's value
    field = Field(7)
    p = _memo_products(field)["with-x-only"]
    expanded = p.expand()
    runs, _, _ = _count_runs(p, 2)
    a, b = [1, 2], [3, 4]
    p.restrict(a, b)
    old = [x + 3 * y for x, y in zip(a, b)]
    a[0], b[1] = 6, 5
    new = [x + 3 * y for x, y in zip(a, b)]      # (1, 3) mod 7: off the old line
    point = old if on_old_line else new
    before = runs()
    assert p.eval(point) == expanded.eval(point)
    assert runs() - before == (0 if on_old_line else 2)


def test_point_on_the_kept_line_in_any_integer_form():
    # the line and the point given unreduced, negative or as lists: a point
    # on the kept line is read off the entry, exactly, and runs no factor.
    # b = (7, 11) is (0, 4) mod 7, so t must come from the second coordinate;
    # b = (14, -7) is 0 mod 7, so the line is its base point.  A point off
    # the kept line (its first coordinate moved, which leaves each of these
    # lines) falls back to the fused function, which runs both parts: the
    # x-only part too, since its memo holds the packed x of the line
    field = Field(7)
    p = _memo_products(field)["with-x-only"]
    expanded = p.expand()
    runs, _, _ = _count_runs(p, 2)
    for a, b in (((1, 2), (3, 4)), ((1, 2), (0, 4)), ((5, 6), (0, 0)), ((-2, 9), (14, -7))):
        forms = ((a, b), ([x + 7 for x in a], [y + 7 for y in b]),
                 (tuple(x - 14 for x in a), tuple(y - 7 for y in b)))
        for la, lb in forms:
            for t in range(7):
                on = [x + t * y for x, y in zip(a, b)]
                for shift in ((0, 0), (7, -14), (-21, 7), (-7, -7)):
                    point = [x + k for x, k in zip(on, shift)]
                    entry = p.restrict(la, lb)
                    assert entry == expanded.restrict(a, b)
                    before = runs()
                    assert p.eval(point) == expanded.eval(point), (la, lb, point)
                    assert runs() == before, (la, lb, point)
                    off = (point[0] + 1 + shift[1], point[1])
                    p.restrict(la, lb)
                    before = runs()
                    assert p.eval(off) == expanded.eval(off), (la, lb, off)
                    assert runs() - before == 2, (la, lb, off)


def _proof(n):
    """(instance, proof) of the K_n proof over cube:H=0,1;m=2, q = 257, on
    the fewest-conflicts coloring: honest for K3 (the pcp-complete-k3
    benchmark), improper for K4 (pcp-sound-k4)."""
    field = Field(257)
    variety = make_variety(field, "cube:H=0,1;m=2")
    graph = Graph.from_edges(n, list(itertools.combinations(range(n), 2)))
    inst = PcpInstance(variety, graph)
    return inst, pcp_prove(inst, fewest_conflicts_coloring(graph, field))


@functools.lru_cache(maxsize=None)
def _shapes(n):
    """name -> polynomial behind each production shape of ``_proof(n)``
    (K4's conflict certificate is the all-zero one, which has none)."""
    inst, proof = _proof(n)
    oracles = {"chi": proof.color_lines, "A": proof.validity_lines,
               "B": proof.conflict_lines, "M_A": proof.validity_cert.lines,
               "M_B": proof.conflict_cert.lines}
    shapes = {name: oracle.answer.__self__ for name, oracle in oracles.items()
              if hasattr(oracle.answer, "__self__")}
    return {"generator": inst.variety.gens[0], **shapes}


def _parts(p):
    """The distinct non-constant parts of ``p``'s factors, as sets of
    (exponents, coefficient), in layout order (by first appearance)."""
    parts: dict = {}
    for factors in p.products:
        for f in factors:
            part = frozenset((e, c) for e, c in f.terms.items() if any(e))
            if part:
                parts.setdefault(part, len(parts))
    return list(parts)


# name: (parts, memoized parts).  A part is memoized only when another part
# of its layout reads a variable that it does not, and it has more than
# _MEMO_TERMS terms: the generator x1^2 - x1 reads x1 only but is alone; Ê
# and Δ of B both read every variable; each h_g(x) and y_g of a certificate
# skips a variable the other reads, but only M_B's cofactors (30 to 249
# terms) are above the bar, not M_A's (7 and 3) nor any one-term y_g
_K3_LAYOUTS = {"generator": (1, 0), "chi": (1, 0), "A": (1, 0), "B": (2, 0),
               "M_A": (4, 0), "M_B": (8, 4)}


@pytest.mark.parametrize("name", sorted(_K3_LAYOUTS))
def test_production_layouts_memoize_and_keep_lines_by_the_two_rules(name):
    # only a layout that memoizes a part keeps its last line, for one eval;
    # the point read off it equals the fresh evaluation that follows
    p = _shapes(3)[name]
    memo = p._layout()[3]
    assert (len(_parts(p)), len(memo) // 2) == _K3_LAYOUTS[name]
    keeps = name == "M_B"
    assert bool(memo) == keeps
    a = tuple(range(1, p.nvars + 1))
    b = tuple(range(2, 2 * p.nvars + 2, 2))
    entry = p.restrict(a, b)
    assert p._line == ((a, b, entry) if keeps else None)
    point = tuple(x + 5 * y for x, y in zip(a, b))
    value = p.eval(point)
    assert p._line is None
    assert value == p.eval(point) == sum(c * 5 ** j for j, c in enumerate(entry)) % 257


def test_certificate_reads_run_each_cofactor_twice():
    # zero_verify on M_B(x, y) = h_1(x) y_1 + ... + h_4(x) y_4 of the honest
    # K3 proof over V x V (m = 4, k = 4) makes three lines queries, each
    # followed by a point read on its line: (a, b) for the line test, then
    # (alpha, 0) + t a and (alpha, phi(alpha)) + t a for the corrected
    # reads.  The last two share their x-part alpha + t a_x, which is all
    # h_g reads, so each h_g (30 to 249 terms, so memoized) runs twice: on
    # a_x + t b_x and on alpha + t a_x.  Each y_g has one term, so it runs
    # inline on every call: three times.  The point reads run no part.
    # Read afresh, M would run its 8 parts for each of the 3 lines and 3
    # points: 48 runs instead of 4·2 + 4·3.
    inst, proof = _proof(3)
    cert = proof.conflict_cert
    poly = cert.lines.answer.__self__
    assert cert.point.answer.__self__ is poly
    v2 = inst.variety2
    k = v2.complexity
    assert (v2.m, k, len(poly.products)) == (4, 4, 4)

    # the cofactors h_g are memoized, in part order, and each runs exactly
    # when it writes its memo; the y_g run inline
    total, memo, calls = _count_runs(poly, 8)
    assert len(memo.runs) == 4
    point_runs = []
    answer = cert.point.answer

    def read(p):
        before = total()
        value = answer(p)
        point_runs.append(total() - before)
        return value

    cert.point.answer = read
    alpha = (3, 4, 5, 6)
    assert all(g.eval(alpha) for g in v2.gens)       # phi(alpha) has no zero
    r = ZeroRandomness(a=(1, 2, 3, 4, 5, 6, 7, 8), b=(9, 10, 11, 12, 1, 2, 3, 4),
                       alpha=alpha, t=2)
    assert zero_verify(v2, 6 * inst.d, proof.conflict, cert, r).accepted
    assert point_runs == [0, 0, 0]
    assert calls == [3]                              # the three restrictions
    assert memo.runs == [2] * 4                      # h_1 .. h_4
    assert total() == 4 * 2 + 4 * 3                  # and y_1 .. y_4 inline


def _memoized(p):
    """Indices of the memoized parts of ``p``'s layout: those whose
    ``_compile_horner`` function the fused function calls, as ``h<k>``."""
    namespace = p._layout()[0].__globals__
    return {k for k in range(len(_parts(p))) if f"h{k}" in namespace}


@pytest.mark.parametrize("n", [3, 4])
def test_no_production_layout_memoizes_a_part_at_or_below_the_bar(n):
    # on both benchmark instances a part is memoized exactly when another
    # part reads a variable that it does not and it has more than
    # _MEMO_TERMS terms; so no part of _MEMO_TERMS terms or fewer is
    for name, p in _shapes(n).items():
        parts = _parts(p)
        used = [{i for e, _ in part for i in range(p.nvars) if e[i]} for part in parts]
        memoized = _memoized(p)
        assert len(memoized) == len(p._layout()[3]) // 2, name
        for k, part in enumerate(parts):
            skips = used[k] != set().union(*used)
            assert (k in memoized) == (skips and len(part) > _MEMO_TERMS), (name, k)
    assert n == 4 or _memoized(_shapes(n)["M_B"])


# -- the fused function against a factor-by-factor reference -----------------

@st.composite
def _fused_cases(draw, wide=False):
    """(q, nvars, products of term dicts, cap slack, ops).

    Factors are drawn from a few non-constant parts, each over a drawn
    nonempty subset of the variables, of 1 to 4 terms.  With ``wide`` each
    part has _MEMO_TERMS + 1 to _MEMO_TERMS + 4 terms, the first is over a
    strict subset and the second over every variable, and the first product
    holds every part, so the first part keeps a memo.  A factor is a part
    alone, a part plus a nonzero constant (so factors that differ only in
    their constant share a part), a constant, or zero.  An op is ("line", a,
    b) or ("eval", p); a point lies on the last line or anywhere, and every
    coordinate comes as a residue, unreduced or negative, in a tuple or a
    list.
    """
    q = draw(st.sampled_from([3, 5, 7, 257, 4294967311]))
    nvars = draw(st.integers(1 + wide, 3))
    residue = st.integers(0, q - 1)
    nonzero = st.integers(1, q - 1)

    def part(k):
        if wide and k < 2:
            used = draw(st.sets(st.integers(0, nvars - 1), min_size=1, max_size=nvars - 1))
            used = used if k == 0 else set(range(nvars))
        else:
            used = draw(st.sets(st.integers(0, nvars - 1), min_size=1, max_size=nvars))
        if not wide:
            exps = st.tuples(*(st.integers(0, 3) if i in used else st.just(0)
                               for i in range(nvars))).filter(any)
            return draw(st.dictionaries(exps, nonzero, min_size=1, max_size=4))
        top = {1: 24, 2: 5, 3: 3}[len(used)]     # >= _MEMO_TERMS + 4 monomials
        exps = [e for e in itertools.product(*(range(top) if i in used else (0,)
                                               for i in range(nvars))) if any(e)]
        size = draw(st.integers(_MEMO_TERMS + 1, _MEMO_TERMS + 4))
        return dict(zip(draw(st.permutations(exps))[:size], draw(
            st.lists(nonzero, min_size=size, max_size=size))))

    parts = [part(k) for k in range(draw(st.integers(1 + wide, 3)))]

    def factor(terms=None):
        kinds = ["part", "part+const"] + ["const", "zero"] * (terms is None)
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return {}
        if kind == "const":
            return {(0,) * nvars: draw(nonzero)}
        terms = dict(draw(st.sampled_from(parts)) if terms is None else terms)
        if kind == "part+const":
            terms[(0,) * nvars] = draw(nonzero)
        return terms

    products = [[factor() for _ in range(draw(st.integers(1, 4)))]
                for _ in range(draw(st.integers(0, 3)))]
    if wide:
        products.insert(0, [factor(terms) for terms in parts])
    vec = st.lists(residue, min_size=nvars, max_size=nvars)

    def form(v):
        shifted = [x + k * q for x, k in zip(v, draw(st.lists(
            st.integers(-2, 2), min_size=nvars, max_size=nvars)))]
        return shifted if draw(st.booleans()) else tuple(shifted)

    ops = []
    a, b = draw(vec), draw(vec)
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["line", "on", "off"]))
        if kind == "line":
            a, b = draw(vec), draw(vec)
            ops.append(("line", form(a), form(b)))
        else:
            t = draw(residue)
            p = [x + t * y for x, y in zip(a, b)] if kind == "on" else draw(vec)
            ops.append(("eval", form(p)))
    return q, nvars, products, draw(st.integers(0, 4)), ops


def _convolve(u, v, q):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] = (out[i + j] + x * y) % q
    return out


@settings(max_examples=200, deadline=None)
@given(_fused_cases())
@example((3, 1, [[{(3,): 2, (0,): 1}, {(3,): 2}, {(3,): 2, (0,): 2}, {(0,): 2}]], 1,
          [("line", [4], (-3,)), ("eval", (-2,)), ("eval", [2])]))    # cap 10 >= q
@example((7, 2, [[{(1, 0): 3, (0, 0): 1}, {(0, 2): 1}], [{(1, 0): 3}, {}]], 0,
          [("line", (1, 2), (3, 4)), ("line", (1, 5), (3, 4)), ("eval", (4, 6))]))
def test_fused_matches_factor_by_factor(case):
    _check_fused(case)


@settings(max_examples=60, deadline=None)
@given(_fused_cases(wide=True))
def test_fused_matches_factor_by_factor_through_memos(case):
    # as above, with every part above the size bar, so that each part over
    # a strict subset of the variables is memoized and the layout keeps its
    # line
    _check_fused(case)


def _check_fused(case):
    # every restriction equals Σ_i Π_j of the factors' own restrictions,
    # convolved mod q, and every value Σ_i Π_j of their own values, through
    # the fused function's shared parts, memo and kept line
    q, nvars, products, slack, ops = case
    field = Field(q)
    factors = [[MultiPoly(field, nvars, terms, max((sum(e) for e in terms), default=0))
                for terms in fs] for fs in products]
    cap = max((sum(f.cap for f in fs) for fs in factors), default=0) + slack
    p = FactoredPoly(field, nvars, factors, cap)
    for op in ops:
        if op[0] == "line":
            _, a, b = op
            want = [0] * (cap + 1)
            for fs in factors:
                prod = [1]
                for f in fs:
                    prod = _convolve(prod, f.restrict(a, b), q)
                for j, c in enumerate(prod):
                    want[j] = (want[j] + c) % q
            assert p.restrict(a, b) == tuple(want), op
        else:
            want = 0
            for fs in factors:
                value = 1
                for f in fs:
                    value = value * f.eval(op[1]) % q
                want += value
            assert p.eval(op[1]) == want % q, op


def test_same_supports_share_one_fused_function():
    # two validity claims chi(chi-1)(chi+1) from different chi of one support
    # share one compiled function and differ only in their
    # coefficients; chi's non-constant part enters the coefficients once, so
    # it is run once for the three factors
    field = Field(257)
    rng = random.Random(5)

    def claim():
        chi = MultiPoly(field, 2, {e: rng.randrange(2, 256) for e in monomials_upto(2, 2)}, 2)
        return FactoredPoly.product([chi, chi.add_constant(-1), chi.add_constant(1)])

    p, r = claim(), claim()
    assert p._layout()[0] is r._layout()[0]
    assert p._layout()[1] != r._layout()[1]
    coeffs = p._layout()[1]                    # one part of 5 terms, 3 constants
    assert len(coeffs) == 1 + 3 and len(coeffs[0]) == 5
    for poly in (p, r):
        expanded = poly.expand()
        assert poly.restrict((1, 2), (3, 4)) == expanded.restrict((1, 2), (3, 4))
        assert poly.eval((5, 6)) == expanded.eval((5, 6))
