"""Exact arithmetic in a prime field F_p and the seeded randomness source.

Field elements are canonical Python ints in [0, p).  The field object
carries the modulus, checks primality on construction, and exposes the
vectorized kernel for p (see :mod:`trimmeq.modarith`) that the batched
linear algebra and blackbox evaluation paths run on.
"""

from __future__ import annotations

import random

import numpy as np

from . import modarith
from .errors import CharacteristicTooSmall, DivisionByZero, ModulusMismatch, NotPrime

#: Default modulus: the Mersenne prime 2^61 - 1.  Large enough that the
#: characteristic bound p > (w^2 d)^5 and the |S| >= n^5 sampling-set
#: requirement hold for every desk-scale instance.
DEFAULT_PRIME = (1 << 61) - 1

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed base set."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """The prime field F_p.  Elements are ints reduced into [0, p)."""

    __slots__ = ("p", "kernel")

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_probable_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.kernel = modarith.get_kernel(p)

    def __repr__(self):
        return f"Fp({self.p})"

    def __eq__(self, other):
        return isinstance(other, Fp) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def check_same(self, other: "Fp"):
        if self.p != other.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")

    def check_char_bound(self, w: int, d: int):
        """The working assumption p > (w^2 d)^5, checked at instance load."""
        bound = (w * w * d) ** 5
        if self.p <= bound:
            raise CharacteristicTooSmall(f"modulus {self.p} too small: need > (w^2 d)^5 = {bound}")

    # -- scalar arithmetic (canonical residues in, canonical out) --------
    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise DivisionByZero("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def is_square(self, a: int) -> bool:
        a %= self.p
        return a == 0 or pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt(self, a: int):
        """A square root of a, or None for quadratic non-residues.

        Tonelli-Shanks; p must be odd.  Deterministic: the non-residue
        used for the odd part is the smallest one.
        """
        p = self.p
        a %= p
        if a == 0:
            return 0
        if p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            return pow(a, (p + 1) // 4, p)
        # full Tonelli-Shanks
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        c = pow(z, q, p)
        x = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            i, e = 0, t
            while e != 1:
                e = e * e % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            x = x * b % p
            c = b * b % p
            t = t * c % p
            m = i
        return x


class Rng:
    """Seeded randomness source threaded through every randomized routine.

    A single Python ``random.Random`` stream drives everything; bulk numpy
    draws are seeded from that stream so the whole run is reproducible
    from one integer seed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._py = random.Random(seed)

    def child(self) -> "Rng":
        return Rng(self._py.getrandbits(63))

    def randrange(self, n: int) -> int:
        return self._py.randrange(n)

    def scalar(self, field: Fp) -> int:
        return self._py.randrange(field.p)

    def nonzero_scalar(self, field: Fp) -> int:
        return 1 + self._py.randrange(field.p - 1)

    def vector(self, field: Fp, n: int) -> list[int]:
        r = self._py.randrange
        p = field.p
        return [r(p) for _ in range(n)]

    def matrix(self, field: Fp, r: int, c: int) -> list[list[int]]:
        return [self.vector(field, c) for _ in range(r)]

    def array(self, field: Fp, shape) -> np.ndarray:
        """Bulk uniform residues in the dtype of the field's kernel."""
        return field.kernel.uniform(self._py, shape)
