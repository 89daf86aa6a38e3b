"""Point-vs-line consistency test and the two-query local corrector."""

import itertools
import random
from fractions import Fraction

import pytest

from pcplab.field import Field
from pcplab.ldt import ACCEPT, REJECT, Verdict, ldt_check, local_correct
from pcplab.oracles import (
    CorruptionSpec,
    PointOracle,
    corrupt,
    honest_oracles,
)
from pcplab.poly import MultiPoly, distance, random_poly

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
