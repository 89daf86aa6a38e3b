"""Field construction, primality, inversion and sampling."""

import random
import time

import pytest
from hypothesis import given, strategies as st

from pcplab.field import Field

PRIMES = [3, 5, 7, 11, 13, 101]


def test_frozen_arithmetic_f5():
    f = Field(5)
    assert [f.inv(x) for x in range(1, 5)] == [1, 3, 2, 4]
    assert f.inv(-3) == f.inv(2) == 3     # any representative, canonical result


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 6, 9, 15, 21, -5])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        Field(bad)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Field(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        Field(7).inv(14)


@given(
    q=st.sampled_from(PRIMES),
    x=st.integers(-50, 50),
    y=st.integers(-50, 50),
)
def test_field_axioms(q, x, y):
    # callers reduce mod q inline; the field supplies the multiplicative inverse
    f = Field(q)
    if x % q:
        assert 0 < f.inv(x) < q
        assert x * f.inv(x) % q == 1
        assert f.inv(f.inv(x)) == x % q
    if x % q and y % q:
        assert f.inv(x * y) == f.inv(x) * f.inv(y) % q


def test_immutability():
    f = Field(5)
    with pytest.raises(AttributeError):
        f.q = 7


def test_sampling_uniform():
    f = Field(5)
    rng = random.Random(12345)
    draws = [f.sample(rng) for _ in range(5000)]
    counts = [draws.count(v) for v in range(5)]
    # each residue expects 1000; a ~5 sigma window keeps this deterministic-seed safe
    assert all(850 <= c <= 1150 for c in counts), counts
    pt = f.sample_point(rng, 3)
    assert len(pt) == 3 and all(0 <= x < 5 for x in pt)


def test_large_prime_modulus_is_fast():
    # 2^61 - 1 is prime; trial division would run for minutes
    start = time.perf_counter()
    assert Field(2 ** 61 - 1).q == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("composite", [
    2 ** 61 + 1,
    3825123056546413051,              # strong pseudoprime to bases 2..23
    318665857834031151167461,         # strong pseudoprime to bases 2..37
])
def test_rejects_strong_pseudoprimes(composite):
    with pytest.raises(ValueError, match="prime"):
        Field(composite)


def test_rejects_moduli_beyond_exact_primality():
    with pytest.raises(ValueError, match="too large"):
        Field(3317044064679887385961981)
    with pytest.raises(ValueError, match="too large"):
        Field(2 ** 127 - 1)
