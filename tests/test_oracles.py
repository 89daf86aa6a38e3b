"""Point/lines oracles: honesty, corruption wrappers, tables, counters."""

import hashlib
import itertools
import math
import random
import struct

import pytest

from pcplab.field import Field
from pcplab.oracles import (
    CorruptionSpec,
    LinesOracle,
    OracleBudgetError,
    PointOracle,
    _threshold,
    corrupt,
    honest_oracles,
    materialize,
)
from pcplab.poly import FactoredPoly, MultiPoly, random_poly

F3 = Field(3)
F5 = Field(5)


def _at(entry, t, q):
    """A lines entry (the coefficients of t^0, t^1, ...) at t, mod q."""
    acc = 0
    for c in reversed(entry):
        acc = acc * t + c
    return acc % q


def test_constant_oracle_pair():
    p = MultiPoly.constant(F5, 2, 4)
    f, lines = honest_oracles(p, 1)
    assert f.query((3, 3)) == 4
    assert lines.query((0, 0), (1, 1)) == (4, 0)


def test_lines_entry_frozen_square():
    p = MultiPoly(F5, 1, {(2,): 1}, cap=2)
    _, lines = honest_oracles(p, 2)
    assert lines.query((1,), (2,)) == (1, 4, 4)


def test_point_and_lines_agree_everywhere():
    rng = random.Random(13)
    p = random_poly(F5, 3, 2, rng)
    f, lines = honest_oracles(p, 2)
    for _ in range(1000):
        a = F5.sample_point(rng, 3)
        b = F5.sample_point(rng, 3)
        t = rng.randrange(5)
        entry = lines.query(a, b)
        pt = tuple((x + t * y) % 5 for x, y in zip(a, b))
        assert _at(entry, t, 5) == f.query(pt)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_every_lines_answer_is_a_tuple_of_residues(q):
    # every kind of lines answer: honest MultiPoly and FactoredPoly entries
    # (caps below and at or above q), materialized tables and corruptions
    field = Field(q)
    rng = random.Random(q)
    p = random_poly(field, 1, 2, rng)
    factored = FactoredPoly.product([random_poly(field, 1, 1, rng) for _ in range(q + 1)])
    sources = []
    for poly in (p, p.with_cap(q - 1), p.with_cap(q + 3), factored, factored.with_cap(2 * q)):
        lines = honest_oracles(poly, poly.cap)[1]
        table = materialize(lines)
        sources += [lines, table]
        sources += [corrupt(base, CorruptionSpec(delta=delta, key=q))
                    for base in (lines, table) for delta in (0.5, 1.0)]
    for lines in sources:
        for a, b in itertools.product(range(-q, 2 * q, 3), repeat=2):
            entry = lines.query((a,), (b,))
            assert type(entry) is tuple and len(entry) == lines.degree + 1
            assert all(type(c) is int and 0 <= c < q for c in entry)


def test_degree_bound_enforced():
    p = MultiPoly(F5, 1, {(2,): 1}, cap=2)
    with pytest.raises(ValueError):
        honest_oracles(p, 1)


def test_query_arity_checked():
    f, lines = honest_oracles(MultiPoly.zero(F5, 2, cap=1), 1)
    with pytest.raises(ValueError):
        f.query((1,))
    with pytest.raises(ValueError):
        lines.query((1, 2), (3,))


def test_query_counter_increments_once_per_query():
    f, lines = honest_oracles(MultiPoly.zero(F5, 2, cap=1), 1)
    assert f.queries == 0
    f.query((0, 0))
    f.query((1, 1))
    lines.query((0, 0), (1, 1))
    assert f.queries == 2
    assert lines.queries == 1


# -- corruption ---------------------------------------------------------------

def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec(delta=1.5, key=0)
    with pytest.raises(ValueError):
        CorruptionSpec(delta=-0.1, key=0)


def test_corrupt_dispatches_on_kind():
    f, lines = honest_oracles(MultiPoly.zero(F5, 2, cap=1), 1)
    spec = CorruptionSpec(delta=1.0, key=7)
    bad_f, bad_lines = corrupt(f, spec), corrupt(lines, spec)
    assert isinstance(bad_f, PointOracle) and isinstance(bad_lines, LinesOracle)
    assert bad_f.query((1, 2)) != 0
    entry = bad_lines.query((1, 2), (3, 4))
    assert len(entry) == 2 and entry != (0, 0)


def test_delta_zero_is_identity():
    p = random_poly(F5, 2, 2, random.Random(1))
    f, _ = honest_oracles(p, 2)
    g = corrupt(f, CorruptionSpec(delta=0.0, key=99))
    for x in itertools.product(range(5), repeat=2):
        assert g.query(x) == p.eval(x)


def test_delta_one_changes_every_point():
    p = random_poly(F5, 2, 2, random.Random(2))
    f, _ = honest_oracles(p, 2)
    g = corrupt(f, CorruptionSpec(delta=1.0, key=99))
    for x in itertools.product(range(5), repeat=2):
        assert g.query(x) != p.eval(x)  # offsets are never zero


def test_corrupt_lines_changes_one_coefficient():
    p = random_poly(F5, 2, 2, random.Random(3))
    _, lines = honest_oracles(p, 2)
    bad = corrupt(lines, CorruptionSpec(delta=1.0, key=4))
    for _ in range(50):
        rng = random.Random(_)
        a = F5.sample_point(rng, 2)
        b = F5.sample_point(rng, 2)
        honest = p.restrict(a, b)
        got = bad.query(a, b)
        diffs = sum(x != y for x, y in zip(honest, got))
        assert diffs == 1


def test_corruption_is_keyed_and_order_independent():
    p = random_poly(F5, 2, 2, random.Random(4))
    f, _ = honest_oracles(p, 2)
    spec = CorruptionSpec(delta=0.3, key=1234)
    g1 = corrupt(honest_oracles(p, 2)[0], spec)
    g2 = corrupt(honest_oracles(p, 2)[0], spec)
    pts = list(itertools.product(range(5), repeat=2))
    forward = {x: g1.query(x) for x in pts}
    for x in reversed(pts):
        assert g2.query(x) == forward[x]
    other = corrupt(honest_oracles(p, 2)[0], CorruptionSpec(delta=0.3, key=1235))
    assert any(other.query(x) != forward[x] for x in pts)


def test_corruption_fraction_concentrates():
    # delta = 0.05 over the 101^2 = 10201-point plane; exact enumeration of
    # the keyed hit set should land within 4 sigma of the mean 510
    field = Field(101)
    p = MultiPoly.zero(field, 2, cap=1)
    f, _ = honest_oracles(p, 1)
    g = corrupt(f, CorruptionSpec(delta=0.05, key=2024))
    hits = sum(g.query(x) != 0 for x in itertools.product(range(101), repeat=2))
    assert 422 <= hits <= 598, hits


# -- materialization ---------------------------------------------------------

def test_materialize_point_table_matches():
    p = random_poly(F5, 2, 2, random.Random(6))
    f, _ = honest_oracles(p, 2)
    table = materialize(f)
    assert isinstance(table, PointOracle) and f.queries == 0
    for x in itertools.product(range(5), repeat=2):
        assert table.query(x) == p.eval(x)
    with pytest.raises(KeyError):      # answers from its table, not from p
        table.answer((5, 0))


def test_materialize_lines_table_matches():
    p = random_poly(F3, 1, 1, random.Random(7))
    _, lines = honest_oracles(p, 1)
    table = materialize(lines)
    assert isinstance(table, LinesOracle) and lines.queries == 0
    for a in range(3):
        for b in range(3):
            assert table.query((a,), (b,)) == p.restrict((a,), (b,))
    assert table.queries == 9
    with pytest.raises(KeyError):
        table.answer((3,), (0,))


def _coordinates(q):
    """Residues, unreduced and negative coordinates for one variable."""
    return [0, 1, q - 1, q, q + 2, 3 * q - 1, -1, -q, -q - 2]


def test_table_answers_equal_lazy_answers_on_every_input_form():
    # a table answers a residue key by one lookup and anything else (an
    # unreduced or negative coordinate, a list) after reducing it; a lazy
    # oracle hands every form to its answer function as given, and each
    # answer function (a MultiPoly's, a FactoredPoly's, a corruption's) is
    # exact on it.  Every oracle gives the reduced tuple's answer and its
    # count rises by exactly one per query
    p = random_poly(F5, 2, 2, random.Random(9))
    f, lines = honest_oracles(p, 2)
    f_table, lines_table = materialize(f), materialize(lines)
    assert f.table is None and lines.table is None
    assert len(f_table.table) == 5 ** 2 and len(lines_table.table) == 5 ** 4
    rng = random.Random(12)
    x_only = MultiPoly(F5, 2, {(1, 0): 2, (0, 0): 1}, 1)
    factored = FactoredPoly(F5, 2, [(random_poly(F5, 2, 1, rng), x_only),
                                    (random_poly(F5, 2, 2, rng),)], 2)
    fp, fp_lines = honest_oracles(factored, 2)
    spec = CorruptionSpec(delta=0.5, key=77)
    g, g_lines = corrupt(f, spec), corrupt(lines, spec)
    g_table, g_lines_table = corrupt(f_table, spec), corrupt(lines_table, spec)
    expanded = factored.expand()
    coords = _coordinates(5)
    point_oracles = (f, f_table, fp, g, g_table)
    calls = 0
    for x in coords:
        for y in coords:
            key = (x % 5, y % 5)
            want = (p.eval(key), p.eval(key), expanded.eval(key),
                    g.answer(key), g.answer(key))
            for point in ((x, y), [x, y]):
                assert tuple(o.query(point) for o in point_oracles) == want
                calls += 1
                assert all(o.queries == calls for o in point_oracles)
    assert any(g.answer(x) != p.eval(x) for x in itertools.product(range(5), repeat=2))
    lines_oracles = (lines, lines_table, fp_lines, g_lines, g_lines_table)
    calls = 0
    for i in range(3):      # every coordinate form in a and in b
        for a in itertools.product(coords[i::3], repeat=2):
            for b in itertools.product(coords[(i + 1) % 3::3], repeat=2):
                ka, kb = tuple(x % 5 for x in a), tuple(y % 5 for y in b)
                want = (p.restrict(ka, kb), p.restrict(ka, kb),
                        expanded.restrict(ka, kb), g_lines.answer(ka, kb),
                        g_lines.answer(ka, kb))
                for line in ((a, b), (list(a), b), (a, list(b)), (list(a), list(b))):
                    assert tuple(o.query(*line) for o in lines_oracles) == want
                    calls += 1
                    assert all(o.queries == calls for o in lines_oracles)
    assert any(g_lines.answer(a, b) != p.restrict(a, b)
               for a in itertools.product(range(5), repeat=2) for b in ((1, 2), (0, 0)))


def test_table_hit_skips_the_answer_function():
    # a residue key never reaches the answer function; an unreduced input
    # reaches it reduced
    p = random_poly(F5, 1, 2, random.Random(10))
    f, lines = honest_oracles(p, 2)
    f_table, lines_table = materialize(f), materialize(lines)
    seen = []
    point_answer, lines_answer = f_table.answer, lines_table.answer
    f_table.answer = lambda x: seen.append(x) or point_answer(x)
    lines_table.answer = lambda a, b: seen.append((a, b)) or lines_answer(a, b)
    assert f_table.query((3,)) == p.eval((3,))
    assert lines_table.query((3,), (4,)) == p.restrict((3,), (4,))
    assert seen == []
    assert f_table.query((-2,)) == p.eval((3,))
    assert lines_table.query([8], (4,)) == p.restrict((3,), (4,))
    assert seen == [(3,), ((3,), (4,))]


def test_materialize_checks_every_entry_width_once():
    narrow = LinesOracle(F3, 1, 1, lambda a, b: (0,))
    with pytest.raises(AssertionError, match="lines entry has wrong width"):
        materialize(narrow)
    one_wide = LinesOracle(F3, 1, 1, lambda a, b: (0, 0, 0) if a == (2,) else (0, 0))
    with pytest.raises(AssertionError, match="lines entry has wrong width"):
        materialize(one_wide)
    with pytest.raises(AssertionError, match="lines entry has wrong width"):
        one_wide.query((2,), (0,))      # a lazy answer is checked per query


def test_table_backed_oracles_keep_the_class_query():
    # the table lookup lives in the class's own query, so whatever wraps
    # PointOracle.query or LinesOracle.query also sees table-backed queries
    p = random_poly(F5, 2, 2, random.Random(11))
    f, lines = honest_oracles(p, 2)
    for lazy, cls in ((f, PointOracle), (lines, LinesOracle)):
        table = materialize(lazy)
        assert type(table) is cls
        assert table.query.__func__ is cls.query   # slotted: nothing shadows it
    seen = []
    original = LinesOracle.query

    def wrapped(self, *args):
        seen.append(args)
        return original(self, *args)

    LinesOracle.query = wrapped
    try:
        materialize(lines).query((1, 2), (3, 4))
    finally:
        LinesOracle.query = original
    assert seen == [((1, 2), (3, 4))]


def test_materialize_budget_boundary():
    # 5^8 = 390625 fits the default budget; 257^4 = 4362470401 does not
    big = honest_oracles(MultiPoly.zero(F5, 8, cap=1), 1)[0]
    assert materialize(big).query((4,) * 8) == 0
    huge = honest_oracles(MultiPoly.zero(Field(257), 4, cap=1), 1)[0]
    with pytest.raises(OracleBudgetError):
        materialize(huge)
    _, huge_lines = honest_oracles(MultiPoly.zero(F5, 8, cap=1), 1)
    with pytest.raises(OracleBudgetError):
        materialize(huge_lines)  # lines domain squares the size


def test_corruption_digest_wide_field():
    # q > 2^32: coordinates no longer fit in uint32 and get wider cells
    field = Field(4294967311)
    f, lines = honest_oracles(MultiPoly.zero(field, 1, cap=1), 1)
    spec = CorruptionSpec(delta=0.5, key=77)
    point = corrupt(f, spec)
    assert point.query((2 ** 32 + 3,)) in range(field.q)
    assert len(corrupt(lines, spec).query((2 ** 32 + 3,), (field.q - 1,))) == 2


def _reference_corruption(key, q, delta):
    """The corrupted reads as first defined, kept here as the reference:
    the keyed BLAKE2b of the join of each residue's little-endian bytes, a
    hit when the digest's first 8 bytes over 2^64 fall below delta as a
    float, the offset (and a line's coefficient index) from bytes 8..16.
    Returns (point, line): functions of the base value or entry and the
    input as residues."""
    width = max(4, ((q - 1).bit_length() + 7) // 8)

    def digest(payload):
        h = hashlib.blake2b(digest_size=16, key=key.to_bytes(8, "little"))
        h.update(b"".join([x.to_bytes(width, "little") for x in payload]))
        return h.digest()

    def hit(d):
        return int.from_bytes(d[:8], "little") / 2 ** 64 < delta

    def point(value, x):
        d = digest(x)
        if hit(d):
            value = (value + 1 + int.from_bytes(d[8:16], "little") % (q - 1)) % q
        return value

    def line(entry, a, b):
        d = digest(a + b)
        if hit(d):
            raw = int.from_bytes(d[8:16], "little")
            idx = raw % len(entry)
            entry = entry[:idx] + ((entry[idx] + 1 + (raw >> 32) % (q - 1)) % q,) + entry[idx + 1:]
        return entry

    return point, line


_DELTAS = [0.0, 0.05, 0.5, 1.0]


@pytest.mark.parametrize("q", [3, 257, 4294967311])
@pytest.mark.parametrize("delta", _DELTAS + [math.nextafter(d, 0.0) for d in _DELTAS[1:]])
def test_corruption_equals_the_reference_read(q, delta):
    # every point value and lines entry of ``corrupt``, on inputs given as
    # residues, unreduced or in lists, equals the reference read of its
    # residues: the same corrupted set, offsets and coefficient indices
    field = Field(q)
    rng = random.Random(q)
    p = random_poly(field, 2, 2, rng)
    f, lines = honest_oracles(p, 2)
    key = 2024 + q
    spec = CorruptionSpec(delta=delta, key=key)
    g, g_lines = corrupt(f, spec), corrupt(lines, spec)
    ref_point, ref_line = _reference_corruption(key, q, delta)
    if q == 3:
        points = list(itertools.product(range(q), repeat=2))
    else:
        points = [field.sample_point(rng, 2) for _ in range(60)]
    hits = 0
    for x in points:
        want = ref_point(p.eval(x), x)
        hits += want != p.eval(x)
        for form in (x, [c + q for c in x], tuple(c - 2 * q for c in x)):
            assert g.query(form) == want, (x, form)
        for b in points[:20]:
            want = ref_line(p.restrict(x, b), x, b)
            hits += want != p.restrict(x, b)
            assert g_lines.query(x, b) == want, (x, b)
            assert g_lines.query([c - q for c in x], [c + 3 * q for c in b]) == want, (x, b)
    assert (hits > 0) == (delta > 0.01)


@pytest.mark.parametrize("delta", _DELTAS + [math.nextafter(d, 0.0) for d in _DELTAS[1:]]
                         + [2 ** -64, 3 * 2 ** -66, 5e-324, math.nextafter(0.5, 1.0)])
def test_threshold_is_the_float_rule(delta):
    # the integer test x < T marks exactly the x with x / 2**64 < delta: at
    # both ends of the hash range and on either side of T.  At delta = 1 the
    # float rule leaves the top 1024 values unhit
    t = _threshold(delta)
    assert 0 <= t <= 2 ** 64
    for x in {0, t - 1, t, t + 1, 2 ** 64 - 1}:
        if 0 <= x < 2 ** 64:
            assert (x < t) == (x / 2 ** 64 < delta), (delta, x, t)
    if delta == 1.0:
        assert t == 2 ** 64 - 1024


def test_corrupted_set_is_exact_at_the_threshold():
    # a key whose digest of the point (1, 2) has low 64 bits x < 2^53, so
    # that x / 2**64 is exact: at delta = x / 2**64 the threshold is x itself
    # and the point is not hit (x / 2**64 < delta fails), at the next double
    # up it is
    f, _ = honest_oracles(MultiPoly.zero(Field(257), 2, cap=1), 1)
    for key in itertools.count():
        digest = hashlib.blake2b(struct.pack("<2I", 1, 2), digest_size=16,
                                 key=key.to_bytes(8, "little")).digest()
        x = int.from_bytes(digest[:8], "little")
        if x < 2 ** 53:
            break
    delta = x / 2 ** 64
    assert _threshold(delta) == x
    assert corrupt(f, CorruptionSpec(delta=delta, key=key)).query((1, 2)) == 0
    assert corrupt(f, CorruptionSpec(delta=math.nextafter(delta, 1.0), key=key)).query((1, 2)) != 0


def test_corruption_commutes_with_materialization():
    # corrupting the table of an oracle or tabulating its corruption gives
    # the same answers everywhere, and neither queries the honest source
    spec = CorruptionSpec(delta=0.4, key=31)
    p = random_poly(F5, 2, 2, random.Random(8))
    f, lines = honest_oracles(p, 2)
    for one, other in ((corrupt(materialize(f), spec), materialize(corrupt(f, spec))),
                       (corrupt(materialize(lines), spec), materialize(corrupt(lines, spec)))):
        hits = 0
        for x in itertools.product(range(5), repeat=2):
            if isinstance(one, PointOracle):
                assert one.query(x) == other.query(x)
                hits += one.query(x) != p.eval(x)
            else:
                for b in itertools.product(range(5), repeat=2):
                    assert one.query(x, b) == other.query(x, b)
                    hits += one.query(x, b) != p.restrict(x, b)
        assert hits > 0
    assert f.queries == 0 and lines.queries == 0
