"""Field construction, canonical residues, and the arithmetic axioms."""

import random
import time

import pytest
from hypothesis import given, strategies as st

from pcplab.field import Field, FieldElement

PRIMES = [3, 5, 7, 11, 13, 101]


def test_frozen_arithmetic_f5():
    f = Field(5)
    assert f.add(2, 3) == 0
    assert f.inv(2) == 3
    assert f.pow(3, 4) == 1


@pytest.mark.parametrize("bad", [0, 1, 2, 4, 6, 9, 15, 21, -5])
def test_rejects_non_odd_primes(bad):
    with pytest.raises(ValueError):
        Field(bad)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        Field(7).inv(0)
    with pytest.raises(ZeroDivisionError):
        Field(7).div(3, 0)


def test_reduce_canonical_range():
    f = Field(7)
    assert f.reduce(-1) == 6
    assert f.reduce(7) == 0
    assert f.reduce(15) == 1


@given(
    q=st.sampled_from(PRIMES),
    x=st.integers(-50, 50),
    y=st.integers(-50, 50),
    z=st.integers(-50, 50),
)
def test_field_axioms(q, x, y, z):
    f = Field(q)
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.add(x, f.neg(x)) == 0
    if x % q:
        assert f.mul(x, f.inv(x)) == 1
    assert f.pow(x, q) == f.reduce(x)  # Fermat


def test_negative_exponent_uses_inverse():
    f = Field(11)
    assert f.pow(3, -1) == f.inv(3)
    assert f.pow(3, -2) == f.mul(f.inv(3), f.inv(3))
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)


def test_element_wrapper_ops():
    f = Field(5)
    a = f.element(3)
    b = f.element(4)
    assert (a + b).value == 2
    assert (a - b).value == 4
    assert (a * b).value == 2
    assert (a / b).value == (3 * f.inv(4)) % 5
    assert (2 + a).value == 0        # __radd__
    assert (1 - a).value == 3        # __rsub__
    assert (-a).value == 2
    assert (a ** 3).value == f.pow(3, 3)
    assert int(b) == 4
    assert bool(f.element(0)) is False and bool(a) is True


def test_element_equality_and_hash():
    f = Field(5)
    assert f.element(3) == f.element(8)
    assert f.element(3) == 3
    assert f.element(3) != Field(7).element(3)
    assert len({f.element(1), f.element(6), f.element(2)}) == 2


def test_elements_enumeration():
    assert list(Field(5).elements()) == [0, 1, 2, 3, 4]


def test_immutability():
    f = Field(5)
    with pytest.raises(AttributeError):
        f.q = 7
    e = f.element(2)
    with pytest.raises(AttributeError):
        e.value = 3


def test_sampling_uniform_and_nonzero():
    f = Field(5)
    rng = random.Random(12345)
    draws = [f.sample(rng) for _ in range(5000)]
    counts = [draws.count(v) for v in range(5)]
    # each residue expects 1000; a ~5 sigma window keeps this deterministic-seed safe
    assert all(850 <= c <= 1150 for c in counts), counts
    nz = [f.sample(rng, nonzero=True) for _ in range(500)]
    assert 0 not in nz
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
