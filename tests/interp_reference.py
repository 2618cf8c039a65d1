"""Interpolation without a matrix inverse: the references that
:func:`trimmeq.linalg.vandermonde`'s inverse is tested against.

``newton_interp`` runs divided differences on Python ints; ``deriv_weights``
builds the Lagrange numerators of the nodes 0..d and reads their
t-coefficients.  Both are exact, so the coefficients and weights must agree
with the inverse Vandermonde matrix exactly.
"""

from trimmeq.field import Fp
from trimmeq.poly import uni_mul


def newton_interp(p: int, xs: list[int], ys: list[int]) -> list[int]:
    """Divided-difference interpolation through (xs[i], ys[i]) with
    distinct xs: len(xs) coefficients, low-to-high, untrimmed."""
    n = len(xs)
    coef = [y % p for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    # expand the Newton form: poly <- poly * (t - x_i) + coef[i]
    poly = [0] * n
    for i in range(n - 1, -1, -1):
        shifted = [0] + poly[:-1]
        poly = [(s - xs[i] * q) % p for s, q in zip(shifted, poly)]
        poly[0] = (poly[0] + coef[i]) % p
    return poly


def deriv_weights(field: Fp, d: int) -> list[int]:
    """Weights l_j with sum_j l_j q(j) = q'(0) for every deg <= d poly q."""
    p = field.p
    nodes = list(range(d + 1))
    lam = []
    for j in nodes:
        num = [1]
        for t in nodes:
            if t != j:
                num = uni_mul(field, num, [-t % p, 1])
        den = 1
        for t in nodes:
            if t != j:
                den = den * (j - t) % p
        c1 = num[1] if len(num) > 1 else 0
        lam.append(c1 * pow(den, p - 2, p) % p)
    return lam
