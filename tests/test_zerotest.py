"""Zero-on-variety proofs: prover structure, seven-query verifier, soundness."""

import itertools
import random

import pytest

from pcplab.field import Field
from pcplab.harness import CountingRng
from pcplab.ldt import ACCEPT, REJECT
from pcplab.oracles import honest_oracles
from pcplab.poly import MultiPoly, random_poly
from pcplab.variety import (
    NoCertificateError,
    Variety,
    ball1_variety,
)
from pcplab.zerotest import (
    ZeroProof,
    ZeroRandomness,
    enumerate_randomness,
    randomness_space_size,
    zero_certificate,
    zero_prove,
    zero_verify,
)

F5 = Field(5)


def line_variety():
    return Variety(F5, [(1,), (2,)])


def every_point(oracle):
    return itertools.product(range(oracle.field.q), repeat=oracle.s)


def test_zero_polynomial_proof_accepts_everywhere():
    v = line_variety()
    p = MultiPoly.zero(F5, 1, cap=2)
    proof = zero_prove(p, v, 2)
    assert all(proof.point.query(x) == 0 for x in every_point(proof.point))
    f = honest_oracles(p, 2)[0]
    for r in enumerate_randomness(v):
        assert zero_verify(v, 2, f, proof, r) is ACCEPT


def test_certificate_poly_is_y_slot_for_generator():
    v = ball1_variety(F5, 2)
    p = MultiPoly(F5, 2, {(1, 1): 1}, cap=2)  # equals the x1*x2 generator
    proof = zero_prove(p, v, 2)
    # M is the single y variable matching that generator: variable 4 of 5
    assert proof.point.s == 5
    assert all(proof.point.query(x) == x[3] for x in every_point(proof.point))
    # substitution identity M(x, phi(x)) = P
    rng = random.Random(0)
    for _ in range(25):
        x = F5.sample_point(rng, 2)
        assert proof.point.query(tuple(x) + v.phi(x)) == p.eval(x)


def test_cubic_on_three_point_line():
    v = Variety(F5, [(0,), (1,), (2,)])
    # P = x(x-1)(x-2) = x^3 + 2x^2 + 2x vanishes on V
    p = MultiPoly(F5, 1, {(3,): 1, (2,): 2, (1,): 2}, cap=3)
    proof = zero_prove(p, v, 3)
    # single generator of degree 3, so the cofactor is the constant linking
    # P to the stored (rescaled) generator
    gen = v.gens[0]
    assert proof.point.s == 2
    c = proof.point.query((0, 1))
    # pure y term: M(x, y) = c*y
    assert all(proof.point.query((x, y)) == c * y % 5 for x, y in every_point(proof.point))
    assert gen.scale(c) == p


def test_exhaustive_completeness_frozen_count():
    v = line_variety()
    rng = random.Random(1)
    accepted = 0
    total = 0
    # random degree-2 member of the ideal: h * g for the single generator
    h = MultiPoly.constant(F5, 1, 1 + rng.randrange(4))
    p = h.mul(v.gens[0])
    proof = zero_prove(p, v, 2)
    f = honest_oracles(p, 2)[0]
    for r in enumerate_randomness(v):
        total += 1
        accepted += bool(zero_verify(v, 2, f, proof, r))
    assert total == randomness_space_size(v) == 12500
    assert accepted == 12500


def test_seven_queries_never_short_circuits():
    v = line_variety()
    p = MultiPoly.zero(F5, 1, cap=2)
    proof = zero_prove(p, v, 2)
    # adversarial f that never matches: every check past the LDT fails, yet
    # the query count stays the same
    f_bad = honest_oracles(MultiPoly.constant(F5, 1, 3, cap=2), 2)[0]
    r = next(enumerate_randomness(v))
    assert zero_verify(v, 2, f_bad, proof, r) is REJECT
    assert f_bad.queries == 1
    assert proof.point.queries == 3   # one per ldt/correct step
    assert proof.lines.queries == 3


def test_all_zero_certificate_adversary_exact_rate():
    # claim P |_V = 0 for P = (x-1)(x-2)x... no: use P that does NOT vanish,
    # with the all-zero M.  The t-position test passes trivially (0 = 0), the
    # y=0 read passes, so rejection happens exactly when P(alpha) != 0.
    v = line_variety()
    p = MultiPoly(F5, 1, {(2,): 1, (1,): 2, (0,): 2}, cap=2)  # (x-1)(x-2)
    zero_m = MultiPoly.zero(F5, 2, cap=2)  # M lives over (x, y_g): m + k = 2 vars
    proof = ZeroProof(*honest_oracles(zero_m, 2))
    f = honest_oracles(p, 2)[0]
    rejected = sum(
        not zero_verify(v, 2, f, proof, r) for r in enumerate_randomness(v)
    )
    # P(alpha) != 0 for alpha outside {1, 2}: 3 of 5 alphas, each hit by
    # 5^2 * 5^2 * 4 = 2500 tuples
    assert rejected == 7500


def test_zero_certificate_answers_zeros_and_counts_every_query():
    # no polynomial stands behind the all-zero certificate: the point oracle
    # answers 0 and the lines oracle degree+1 zeros, over F_q^{m+k}, and the
    # oracle classes still count each query and check each arity
    v = ball1_variety(F5, 2)
    s = v.m + v.complexity
    for degree in (0, 2, 7):
        proof = zero_certificate(v, degree)
        assert proof.point.s == proof.lines.s == s
        assert proof.point.degree == proof.lines.degree == degree
        for x in ((0,) * s, tuple(range(s)), [-9, 13, 4, 5, 6]):
            assert proof.point.query(x) == 0
            assert proof.lines.query(x, list(reversed(x))) == (0,) * (degree + 1)
        assert proof.point.queries == proof.lines.queries == 3
        with pytest.raises(ValueError):
            proof.point.query((0,) * (s - 1))
        with pytest.raises(ValueError):
            proof.lines.query((0,) * s, (0,) * (s + 1))
        assert proof.point.queries == proof.lines.queries == 3
    f = honest_oracles(MultiPoly.constant(F5, 2, 1, cap=2), 2)[0]
    proof = zero_certificate(v, 2)
    assert zero_verify(v, 2, f, proof, next(enumerate_randomness(v))) is REJECT
    assert (proof.point.queries, proof.lines.queries) == (3, 3)


def test_non_vanishing_polynomial_has_no_proof():
    v = line_variety()
    p = MultiPoly(F5, 1, {(1,): 1}, cap=1)  # x does not vanish at 1, 2
    with pytest.raises(NoCertificateError) as err:
        zero_prove(p, v, 2)
    assert "vanish" in str(err.value)


def test_prove_validates_inputs():
    v = line_variety()
    with pytest.raises(ValueError):
        zero_prove(MultiPoly.zero(F5, 2, cap=1), v, 1)  # wrong arity
    cubic = MultiPoly(F5, 1, {(3,): 1, (2,): 2, (1,): 2}, cap=3)
    with pytest.raises(ValueError):
        zero_prove(cubic, v, 2)  # declared bound below actual degree


def test_verify_validates_randomness_dimensions():
    v = line_variety()
    p = MultiPoly.zero(F5, 1, cap=2)
    proof = zero_prove(p, v, 2)
    f = honest_oracles(p, 2)[0]
    bad = ZeroRandomness(a=(0,), b=(0, 0), alpha=(0,), t=1)
    with pytest.raises(ValueError):
        zero_verify(v, 2, f, proof, bad)
    wrong_f = honest_oracles(MultiPoly.zero(F5, 3, cap=2), 2)[0]
    ok = next(enumerate_randomness(v))
    with pytest.raises(ValueError):
        zero_verify(v, 2, wrong_f, proof, ok)


def test_randomness_sampling_matches_space():
    v = ball1_variety(F5, 2)
    rng = CountingRng(9)
    seen = set()
    for _ in range(200):
        r = ZeroRandomness.sample(v, rng)
        assert len(r.a) == len(r.b) == 5  # 2 + 3
        assert len(r.alpha) == 2
        assert 1 <= r.t <= 4
        seen.add(r)
    assert len(seen) > 150  # no obvious collapse
    assert randomness_space_size(v) == 5 ** 10 * 5 ** 2 * 4


def test_sampled_verification_of_product_variety_member():
    from pcplab.variety import cube_variety

    v = cube_variety(F5, [0, 1], 2)
    rng = CountingRng(4)
    p = MultiPoly.zero(F5, 2)
    for g in v.gens:
        p = p.add(random_poly(F5, 2, 1, rng._rng).mul(g))
    d = p.degree()
    proof = zero_prove(p, v, d)
    f = honest_oracles(p, d)[0]
    for _ in range(300):
        r = ZeroRandomness.sample(v, rng)
        assert zero_verify(v, d, f, proof, r)
