"""Field arithmetic, square roots, and the seeded sampler."""

import numpy as np
import pytest

from trimmeq.errors import DivisionByZero, NotPrime
from trimmeq.field import DEFAULT_PRIME, Fp, Rng, is_probable_prime


def test_default_prime_is_61_bit_prime():
    assert DEFAULT_PRIME.bit_length() == 61
    assert is_probable_prime(DEFAULT_PRIME)


def test_bad_modulus_rejected():
    with pytest.raises(NotPrime):
        Fp(2 ** 61 - 2)


def test_char_bound_check():
    Fp().check_char_bound(3, 3)
    with pytest.raises(NotPrime):
        Fp(101).check_char_bound(2, 3)


def test_scalar_arith_mod_7():
    f = Fp(7)
    assert f.add(3, 4) == 0
    assert f.div(1, 1) == 1
    assert f.sub(2, 5) == 4
    with pytest.raises(DivisionByZero):
        f.div(1, 0)


def _egcd(a, b):
    if a == 0:
        return b, 0, 1
    g, x, y = _egcd(b % a, a)
    return g, y - (b // a) * x, x


def test_inverse_against_extended_gcd():
    f = Fp()
    rng = Rng(11)
    for _ in range(100):
        a = rng.nonzero_scalar(f)
        g, x, _ = _egcd(a, f.p)
        assert g == 1
        assert f.inv(a) == x % f.p
        assert f.mul(a, f.inv(a)) == 1


def test_field_axioms_random_triples():
    f = Fp()
    rng = Rng(5)
    for _ in range(1000):
        a, b, c = rng.scalar(f), rng.scalar(f), rng.scalar(f)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))


def test_sqrt_mod_7():
    f = Fp(7)
    assert f.sqrt(2) in (3, 4)
    assert f.sqrt(0) == 0
    assert f.sqrt(6) is None  # squares mod 7 are {0, 1, 2, 4}


def test_sqrt_random_roundtrip():
    f = Fp()
    rng = Rng(3)
    for _ in range(50):
        a = rng.scalar(f)
        sq = f.mul(a, a)
        r = f.sqrt(sq)
        assert r is not None and f.mul(r, r) == sq


def test_sqrt_tonelli_1_mod_4():
    f = Fp(13)  # 13 % 4 == 1 exercises the full Tonelli-Shanks loop
    squares = {f.mul(a, a) for a in range(13)}
    for a in range(13):
        r = f.sqrt(a)
        if a in squares:
            assert r is not None and f.mul(r, r) == a
        else:
            assert r is None


def test_sample_uniform_determinism_and_count():
    f = Fp()
    assert Rng(9).vector(f, 10) == Rng(9).vector(f, 10)
    assert Rng(9).vector(f, 0) == []


def test_sample_uniform_chi_square():
    """10^4 draws into 16 buckets: chi-square within 3 sigma of its mean."""
    f = Fp()
    draws = Rng(77).vector(f, 10_000)
    buckets = [0] * 16
    for x in draws:
        buckets[x * 16 // f.p] += 1
    exp = 10_000 / 16
    chi2 = sum((b - exp) ** 2 / exp for b in buckets)
    mean, sigma = 15, (2 * 15) ** 0.5
    assert chi2 < mean + 3 * sigma


def test_rng_array_matches_modulus_range():
    f = Fp()
    arr = Rng(4).array(f, (1000,))
    assert int(arr.min()) >= 0 and int(arr.max()) < f.p


@pytest.mark.parametrize("p", [7, 10007, 1000003, (1 << 61) - 1, (1 << 89) - 1])
def test_every_prime_has_a_kernel_and_canonical_arrays(p):
    f = Fp(p)
    assert f.kernel is not None and f.kernel.p == p
    arr = Rng(4).array(f, (40, 3))
    assert arr.shape == (40, 3) and arr.dtype == f.kernel.dtype
    vals = [int(x) for x in arr.ravel()]
    assert all(0 <= x < p for x in vals)
    assert len(set(vals)) > 3
    assert np.array_equal(Rng(4).array(f, (40, 3)), arr)
