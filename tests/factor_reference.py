"""Square-and-multiply Cantor-Zassenhaus over F_p: the reference that
:func:`trimmeq.poly.factor_univariate` is tested against.

Every power is taken by repeated squaring on schoolbook products and
divisions of coefficient lists (low to high), so the intermediate
polynomials, the draws from the ``Rng`` and the factor order must agree
exactly with the Frobenius-matrix factoring.
"""

from trimmeq.field import Fp, Rng
from trimmeq.poly import uni_deg, uni_deriv, uni_divmod, uni_gcd, uni_monic, uni_sub, uni_trim


def uni_mul(field: Fp, a, b):
    if not a or not b:
        return []
    p = field.p
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return uni_trim(out)


def uni_pow_mod(field: Fp, base, e: int, mod):
    """base^e mod the polynomial ``mod`` (square-and-multiply)."""
    if uni_deg(mod) < 1:
        return []
    result = [1]
    _, base = uni_divmod(field, base, mod)
    while e:
        if e & 1:
            _, result = uni_divmod(field, uni_mul(field, result, base), mod)
        e >>= 1
        if e:
            _, base = uni_divmod(field, uni_mul(field, base, base), mod)
    return result


def _distinct_degree_split(field: Fp, f):
    """[(product of irreducible factors of degree k, k)] for square-free f."""
    out = []
    k = 1
    x_poly = [0, 1]
    h = x_poly
    f = uni_monic(field, f)
    while uni_deg(f) >= 2 * k:
        h = uni_pow_mod(field, h, field.p, f)
        g = uni_gcd(field, uni_sub(field, h, x_poly), f)
        if uni_deg(g) > 0:
            out.append((g, k))
            f, _ = uni_divmod(field, f, g)
            _, h = uni_divmod(field, h, f) if uni_deg(f) > 0 else (None, h)
        k += 1
    if uni_deg(f) > 0:
        out.append((f, uni_deg(f)))
    return out


def _equal_degree_split(field: Fp, f, k: int, rng: Rng):
    """Cantor-Zassenhaus split of f into its degree-k irreducible factors."""
    n = uni_deg(f)
    if n == k:
        return [f]
    while True:
        r = [rng.scalar(field) for _ in range(n)] + [1]
        r = uni_trim(r)
        g = uni_gcd(field, r, f)
        if 0 < uni_deg(g) < n:
            break
        h = uni_pow_mod(field, r, (field.p ** k - 1) // 2, f)
        g = uni_gcd(field, uni_sub(field, h, [1]), f)
        if 0 < uni_deg(g) < n:
            break
    rest, _ = uni_divmod(field, f, g)
    return _equal_degree_split(field, g, k, rng) + _equal_degree_split(field, rest, k, rng)


def factor_univariate(field: Fp, q: list[int], rng: Rng):
    """Irreducible factorization over F_p: [(monic factor, multiplicity)]."""
    q_in = uni_monic(field, q)
    q = list(q_in)
    factors: dict[tuple, int] = {}
    while uni_deg(q) > 0:
        d = uni_deriv(field, q)
        if d:
            sf, _ = uni_divmod(field, q, uni_gcd(field, q, d))
        else:
            sf = q
        for part, k in _distinct_degree_split(field, sf):
            for irr in _equal_degree_split(field, part, k, rng):
                irr_t = tuple(uni_monic(field, irr))
                mult = 0
                while True:
                    cand, rem = uni_divmod(field, q, list(irr_t))
                    if rem:
                        break
                    q = cand
                    mult += 1
                if mult:
                    factors[irr_t] = factors.get(irr_t, 0) + mult
    back = [1]
    for f, m in factors.items():
        for _ in range(m):
            back = uni_mul(field, back, list(f))
    assert back == q_in, "factorization does not re-multiply to the input"
    return [(list(f), m) for f, m in factors.items()]
