"""Point-vs-line consistency test and the two-query local corrector."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pcplab.codegen import _line_test
from pcplab.field import Field
from pcplab.ldt import ACCEPT, REJECT, Verdict, ldt_check, local_correct
from pcplab.oracles import (
    CorruptionSpec,
    LinesOracle,
    PointOracle,
    corrupt,
    honest_oracles,
    materialize,
)
from pcplab.poly import FactoredPoly, MultiPoly, distance, random_poly

F5 = Field(5)
F7 = Field(7)


def all_triples(q, s, skip_zero_t=True):
    for a in itertools.product(range(q), repeat=s):
        for b in itertools.product(range(q), repeat=s):
            for t in range(1 if skip_zero_t else 0, q):
                yield a, b, t


def test_honest_tables_always_accept():
    p = random_poly(F5, 2, 2, random.Random(0))
    f, lines = honest_oracles(p, 2)
    for a, b, t in all_triples(5, 2):
        assert ldt_check(2, f, lines, a, b, t)


def test_two_queries_per_invocation():
    p = random_poly(F5, 2, 2, random.Random(1))
    f, lines = honest_oracles(p, 2)
    ldt_check(2, f, lines, (0, 0), (1, 1), 1)
    assert (f.queries, lines.queries) == (1, 1)
    local_correct(2, f, lines, (0, 0), (1, 1), 1)
    assert (f.queries, lines.queries) == (2, 2)


def test_t_zero_rejected_b_zero_allowed():
    p = random_poly(F5, 2, 2, random.Random(2))
    f, lines = honest_oracles(p, 2)
    with pytest.raises(ValueError):
        ldt_check(2, f, lines, (0, 0), (1, 1), 0)
    with pytest.raises(ValueError):
        local_correct(2, f, lines, (0, 0), (1, 1), 5)  # 5 ≡ 0 mod 5
    assert ldt_check(2, f, lines, (3, 4), (0, 0), 2)


def test_degree_tag_mismatch():
    p = random_poly(F5, 2, 2, random.Random(3))
    f, lines = honest_oracles(p, 2)
    with pytest.raises(ValueError):
        ldt_check(3, f, lines, (0, 0), (1, 1), 1)
    with pytest.raises(ValueError):
        local_correct(1, f, lines, (0, 0), (1, 1), 1)


def test_lines_table_for_wrong_polynomial_is_caught():
    p = random_poly(F5, 2, 2, random.Random(4))
    r = random_poly(F5, 2, 2, random.Random(5))
    assert p != r
    f = honest_oracles(p, 2)[0]
    wrong_lines = honest_oracles(r, 2)[1]
    rejections = sum(
        not ldt_check(2, f, wrong_lines, a, b, t) for a, b, t in all_triples(5, 2)
    )
    assert rejections > 0


def point_table(f):
    """Every value of the point oracle ``f``, keyed by point."""
    return {x: f.answer(x) for x in itertools.product(range(f.field.q), repeat=f.s)}


def corrupt_table(f, count, key):
    """Table-backed copy of ``f`` with exactly ``count`` keyed points shifted."""
    table = point_table(f)
    q = f.field.q
    rng = random.Random(key)
    for x in rng.sample(sorted(table), count):
        table[x] = (table[x] + 1 + rng.randrange(q - 1)) % q
    return PointOracle(f.field, f.s, f.degree, table.__getitem__)


def test_one_corrupted_point_rejection_rate_exact():
    # corrupt f at exactly one point z; the test rejects iff a + t b = z
    # (the lines table stays honest).  For each z there are q^m choices of a
    # per (b, t) — i.e. q^m (q-1) q^m triples hit z — so the rate is exactly
    # q^m (q-1) q^m / (q^m q^m (q-1)) ... restricted to the z-hitting choices:
    # 1/q^m of all triples.
    p = random_poly(F7, 2, 2, random.Random(6))
    f, lines = honest_oracles(p, 2)
    bad = corrupt_table(f, 1, key=11)
    z = next(x for x in itertools.product(range(7), repeat=2)
             if bad.answer(x) != p.eval(x))
    total = 0
    rejected = 0
    hits = 0
    for a, b, t in all_triples(7, 2):
        total += 1
        pt = tuple((x + t * y) % 7 for x, y in zip(a, b))
        hits += pt == z
        rejected += not ldt_check(2, bad, lines, a, b, t)
    assert total == 7 ** 4 * 6 == 14406
    assert hits == 7 ** 2 * 6 == 294
    assert rejected == hits  # reject exactly on the z-hitting triples
    assert Fraction(rejected, total) == Fraction(1, 49)


def test_rejection_rate_tracks_distance_within_soundness_bound():
    # for a table-corrupted f at exact distance rho from P, the rejection
    # probability delta of the pair (corrupted f, honest lines) satisfies
    # delta <= 4 rho; check by full enumeration at two corruption levels
    p = random_poly(F7, 2, 2, random.Random(7))
    f, lines = honest_oracles(p, 2)
    for count in (5, 10):
        bad = corrupt_table(f, count, key=count)
        rho = distance(honest_oracles(p, 2)[0], bad)
        assert rho == Fraction(count, 49)
        rejected = sum(
            not ldt_check(2, bad, lines, a, b, t) for a, b, t in all_triples(7, 2)
        )
        delta = Fraction(rejected, 7 ** 4 * 6)
        assert delta <= 4 * rho


# -- local corrector ----------------------------------------------------------

def test_corrector_returns_value_at_base_point():
    p = random_poly(F5, 2, 2, random.Random(8))
    f, lines = honest_oracles(p, 2)
    for alpha in [(0, 0), (1, 3), (4, 4)]:
        for b in itertools.product(range(5), repeat=2):
            for t in range(1, 5):
                v = local_correct(2, f, lines, alpha, b, t)
                assert v.accepted and v.value == p.eval(alpha)


def test_corrector_heals_single_corrupted_point():
    # f is wrong exactly at alpha; every line through alpha with b != 0 reads
    # f at alpha + t b != alpha, so the honest entry still wins and the
    # corrected value is P(alpha).  The degenerate b = 0 line reads f at
    # alpha itself and must reject.
    p = random_poly(F5, 2, 2, random.Random(9))
    f, lines = honest_oracles(p, 2)
    table = point_table(f)
    alpha = (2, 3)
    table[alpha] = (p.eval(alpha) + 1) % 5
    bad = PointOracle(F5, 2, 2, table.__getitem__)
    for b in itertools.product(range(5), repeat=2):
        for t in range(1, 5):
            v = local_correct(2, bad, lines, alpha, b, t)
            if b == (0, 0):
                assert v is REJECT
            else:
                assert v.accepted and v.value == p.eval(alpha)


def test_corrector_silent_miscorrection_with_bad_lines():
    # if the lines table is itself consistent with the wrong polynomial the
    # corrector accepts and returns the wrong value — the failure mode the
    # soundness experiments monitor
    p = random_poly(F5, 2, 2, random.Random(10))
    r = p.add(MultiPoly.constant(F5, 2, 1))
    f_wrong, lines_wrong = honest_oracles(r, 2)
    alpha = (1, 1)
    v = local_correct(2, f_wrong, lines_wrong, alpha, (2, 3), 1)
    assert v.accepted
    assert v.value == r.eval(alpha) != p.eval(alpha)


def test_verdict_truthiness():
    # a Verdict is a 2-tuple, so its truth must come from accepted, not len
    assert not REJECT
    assert not Verdict(False, 3)
    assert REJECT.value is None
    assert Verdict(True, 3)
    assert Verdict(True) == (True, None)


def test_accepting_corrector_verdict_is_a_verdict():
    # local_correct builds its accepting verdict with tuple.__new__, skipping
    # the named tuple's constructor: the class and fields must not change
    p = random_poly(F5, 2, 2, random.Random(14))
    f, lines = honest_oracles(p, 2)
    v = local_correct(2, f, lines, (1, 3), (2, 4), 3)
    assert type(v) is Verdict
    assert v == Verdict(True, v.value) and v.value == p.eval((1, 3))
    assert v.accepted is True and v and v._fields == ("accepted", "value")


def test_ldt_check_returns_the_shared_frozen_verdicts():
    p = random_poly(F5, 2, 2, random.Random(13))
    f, lines = honest_oracles(p, 2)
    bad = corrupt(f, CorruptionSpec(delta=1.0, key=2))
    assert ldt_check(2, f, lines, (1, 2), (3, 4), 2) is ACCEPT
    assert ldt_check(2, bad, lines, (1, 2), (3, 4), 2) is REJECT
    assert ACCEPT.value is None
    # every call shares these objects, so none of them may change
    with pytest.raises(AttributeError):
        ACCEPT.accepted = False


def test_corrupted_lines_detected_at_some_triple():
    p = random_poly(F5, 2, 2, random.Random(12))
    f, lines = honest_oracles(p, 2)
    bad_lines = corrupt(honest_oracles(p, 2)[1], CorruptionSpec(delta=0.2, key=5))
    rejections = sum(
        not ldt_check(2, f, bad_lines, a, b, t) for a, b, t in all_triples(5, 2)
    )
    assert rejections > 0


# -- the generated line test --------------------------------------------------

def _horner(entry, t):
    """The entry (coefficients of t^0, t^1, ...) at t, over Z."""
    acc = 0
    for c in reversed(entry):
        acc = acc * t + c
    return acc


def _reference(degree, f, flines, a, b, t):
    """The line test written out: the entry if it matches f at a + t·b."""
    q = f.field.q
    if t % q == 0:
        raise ValueError("t must be a nonzero field element")
    if flines.degree != degree or f.degree != degree:
        raise ValueError("oracle degree tags disagree with the test degree")
    entry = flines.query(a, b)
    value = f.query(tuple((x + t * y) % q for x, y in zip(a, b)))
    return entry if _horner(entry, t) % q == value else None


def _pair(kind, field, nvars, degree, rng, a, b, t):
    """A (point, lines) oracle pair of the named kind, tagged ``degree``."""
    q = field.q
    if kind == "arbitrary":
        # a lines entry of full width with arbitrary coefficients, and a point
        # oracle that answers its value at t, or that value shifted, at the
        # reduced point a + t·b only
        entry = tuple(rng.randrange(q) for _ in range(degree + 1))
        value = (_horner(entry, t) + rng.randrange(2)) % q
        point = tuple((x + t * y) % q for x, y in zip(a, b))
        return (PointOracle(field, nvars, degree, {point: value}.__getitem__),
                LinesOracle(field, nvars, degree, lambda a, b: entry))
    low = min(degree, 2)
    p = random_poly(field, nvars, low, rng)
    if kind == "factored":   # answers the point read off the line it restricted
        p = FactoredPoly.product([random_poly(field, nvars, min(1, degree // 2), rng),
                                  random_poly(field, nvars, min(1, degree - degree // 2), rng)])
    f, lines = honest_oracles(p, degree)
    if kind == "table" and q ** (2 * nvars) <= 2500:   # reduces what is no key
        f, lines = materialize(f), materialize(lines)
    elif kind == "corrupt-point":
        f = corrupt(f, CorruptionSpec(delta=0.5, key=rng.randrange(2 ** 32)))
    elif kind == "corrupt-lines":
        lines = corrupt(lines, CorruptionSpec(delta=0.5, key=rng.randrange(2 ** 32)))
    elif kind == "mismatched":
        lines = honest_oracles(random_poly(field, nvars, low, rng), degree)[1]
    return f, lines


def _coords(draw, q, nvars):
    form = draw(st.sampled_from(["residues", "unreduced", "negative"]))
    lo, hi = {"residues": (0, q - 1), "unreduced": (0, 5 * q), "negative": (-5 * q, -1)}[form]
    xs = draw(st.lists(st.integers(lo, hi), min_size=nvars, max_size=nvars))
    return xs if draw(st.booleans()) else tuple(xs)


@settings(max_examples=300, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 17, 257]), nvars=st.integers(1, 4), data=st.data())
def test_line_test_matches_reference(q, nvars, data):
    # the generated test against the written-out one on honest (MultiPoly,
    # FactoredPoly and table-backed), corrupted, mismatched and
    # arbitrary-entry pairs, with coordinates and t in any integer form: the
    # same entry or None, one query per oracle per call, and ldt_check and
    # local_correct read off it
    field = Field(q)
    degree = data.draw(st.integers(0, q + 2) if q < 257 else st.sampled_from([0, 1, 2, 18, 258]))
    a = _coords(data.draw, q, nvars)
    b = _coords(data.draw, q, nvars)
    t = data.draw(st.one_of(st.integers(-5 * q, 5 * q), st.integers(-q ** 3 - 5, q ** 3 + 5)))
    kind = data.draw(st.sampled_from(
        ["honest", "factored", "table", "corrupt-point", "corrupt-lines", "mismatched",
         "arbitrary"]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    f, lines = _pair(kind, field, nvars, degree, rng, a, b, t)
    test = _line_test(q, nvars, degree)
    if t % q == 0:
        for call in (test, lambda *args: ldt_check(degree, *args),
                     lambda *args: local_correct(degree, *args)):
            with pytest.raises(ValueError, match="^t must be a nonzero field element$"):
                call(f, lines, a, b, t)
        assert (f.queries, lines.queries) == (0, 0)
        return
    want = _reference(degree, f, lines, a, b, t)
    assert want is not None or kind not in ("honest", "factored", "table")
    for call, expect in ((test, want),
                         (lambda *args: ldt_check(degree, *args),
                          REJECT if want is None else ACCEPT),
                         (lambda *args: local_correct(degree, *args),
                          REJECT if want is None else Verdict(True, want[0]))):
        before = (f.queries, lines.queries)
        assert call(f, lines, a, b, t) == expect
        assert (f.queries, lines.queries) == (before[0] + 1, before[1] + 1)
    # a tag that is not the test's, on either oracle, raises before a query
    before = (f.queries, lines.queries)
    for tags in ((degree + 1, degree), (degree, degree + 1)):
        f.degree, lines.degree = tags
        for call in (test, lambda *args: ldt_check(degree, *args),
                     lambda *args: local_correct(degree, *args)):
            with pytest.raises(ValueError,
                               match="^oracle degree tags disagree with the test degree$"):
                call(f, lines, a, b, t)
    f.degree = lines.degree = degree
    assert (f.queries, lines.queries) == before


@pytest.mark.parametrize("q", [3, 5, 257])
def test_line_test_reads_the_entry_at_any_t(q):
    # t >= q and t < 0 reduce mod q; the reference runs Horner over Z
    rng = random.Random(q)
    field = Field(q)
    for width in (1, 2, q + 2):
        entry = tuple(rng.randrange(q) for _ in range(width))
        lines = LinesOracle(field, 1, width - 1, lambda a, b: entry)
        for t in [*range(-2 * q, 3 * q, max(1, q // 7)), -1, q, q ** 3 + 2, -q ** 3 - 1]:
            if t % q == 0:
                continue
            value = _horner(entry, t) % q
            for shift, want in ((0, entry), (1, None)):
                f = PointOracle(field, 1, width - 1, lambda x: (value + shift) % q)
                assert _line_test(q, 1, width - 1)(f, lines, (2,), (1,), t) == want


def test_wrong_arity_raises_the_oracles_own_error():
    p = random_poly(F5, 2, 2, random.Random(14))
    f, lines = honest_oracles(p, 2)
    for a, b in (((0, 0, 0), (1, 1, 1)), ((0, 0), (1,)), ((0,), (1, 1))):
        for call in (ldt_check, local_correct):
            with pytest.raises(ValueError, match=r"^line arity"):
                call(2, f, lines, a, b, 1)
    assert (f.queries, lines.queries) == (0, 0)
    # lines of arity 3 beside a point oracle of arity 2: the lines query
    # counts, then the point oracle refuses the 3-coordinate point
    lines3 = honest_oracles(random_poly(F5, 3, 2, random.Random(15)), 2)[1]
    with pytest.raises(ValueError, match=r"^point arity 3 != 2$"):
        ldt_check(2, f, lines3, (0, 0, 0), (1, 1, 1), 1)
    assert (f.queries, lines3.queries) == (0, 1)
