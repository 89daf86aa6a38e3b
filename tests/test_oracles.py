"""Point/lines oracles: honesty, corruption wrappers, tables, counters."""

import hashlib
import itertools
import random
import struct

import pytest

from pcplab.field import Field
from pcplab.oracles import (
    CorruptionSpec,
    LinesOracle,
    OracleBudgetError,
    PointOracle,
    corrupt,
    honest_oracles,
    materialize,
)
from pcplab.poly import MultiPoly, random_poly

F3 = Field(3)
F5 = Field(5)


def test_constant_oracle_pair():
    p = MultiPoly.constant(F5, 2, 4)
    f, lines = honest_oracles(p, 1)
    assert f.query((3, 3)) == 4
    assert lines.query((0, 0), (1, 1)).coeffs == [4, 0]


def test_lines_entry_frozen_square():
    p = MultiPoly(F5, 1, {(2,): 1}, cap=2)
    _, lines = honest_oracles(p, 2)
    assert lines.query((1,), (2,)).coeffs == [1, 4, 4]


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
        assert entry.eval(t) == f.query(pt)


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
    assert len(entry.coeffs) == 2 and entry.coeffs != [0, 0]


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
        diffs = sum(x != y for x, y in zip(honest.coeffs, got.coeffs))
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
    assert len(corrupt(lines, spec).query((2 ** 32 + 3,), (field.q - 1,)).coeffs) == 2


def test_corruption_digest_bytes_unchanged_up_to_2_32():
    from pcplab.oracles import _digest

    for q, payload in ((5, (0, 4, 3)), (257, (256, 1)), (4294967291, (4294967290, 7))):
        packed = struct.pack(f"<{len(payload)}I", *payload)
        want = hashlib.blake2b(packed, digest_size=16, key=(99).to_bytes(8, "little")).digest()
        assert _digest(99, payload, q) == want


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
