"""Prime-field arithmetic.

Everything downstream works over a fixed odd prime field F_q.  Elements are
canonical residues in [0, q), stored as plain ints, and callers reduce mod q
inline.  ``Field`` carries the modulus, decides its primality exactly, and
provides the two operations that need more than ``%``: inversion and uniform
sampling of residues and points.
"""

from __future__ import annotations

import random


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# every n below the bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, 2015).  The first 12 alone are fooled by
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError where it is not exact."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"modulus {n} is too large: primality is decided exactly "
                         f"only below {MR_EXACT_BELOW}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Arithmetic context for F_q, q an odd prime >= 3.

    All methods take and return canonical residues (ints in [0, q)).
    Instances are immutable and hashable; two fields are equal iff their
    moduli are.
    """

    __slots__ = ("q",)

    def __init__(self, q: int):
        if not isinstance(q, int) or not _is_prime(q):
            raise ValueError(f"modulus must be prime, got {q!r}")
        if q % 2 == 0 or q < 3:
            raise ValueError(f"modulus must be an odd prime >= 3, got {q}")
        object.__setattr__(self, "q", q)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Field is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("Field", self.q))

    def __repr__(self) -> str:
        return f"Field({self.q})"

    # -- arithmetic and sampling ------------------------------------------

    def inv(self, x: int) -> int:
        x %= self.q
        if x == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.q}")
        # Fermat: x^(q-2) is the inverse in a prime field.
        return pow(x, self.q - 2, self.q)

    def sample(self, rng: random.Random) -> int:
        """Uniform residue from the given generator."""
        return rng.randrange(self.q)

    def sample_point(self, rng: random.Random, s: int) -> tuple[int, ...]:
        q, randrange = self.q, rng.randrange
        return tuple([randrange(q) for _ in range(s)])

