"""Polynomial machinery over F_p.

Univariate polynomials are plain coefficient lists (low-to-high degree,
no trailing zeros, zero polynomial = []).  Sparse multivariate polynomials
map exponent tuples to nonzero coefficients.  Blackboxes wrap an exact
evaluation rule -- explicit polynomial, linear composition f(A.x), trace
of a matrix product (defined in :mod:`trimmeq.trimm`), partial
substitution, the determinant of a linear matrix, or the w-th root of a
blackbox that is a w-th power.  A blackbox defines one method, batched
evaluation (``eval_many``; an explicit polynomial's through an exponent
table), and gets exact gradients from it.  Gradients and determinant
roots turn values on a line into coefficients through one route, the
inverse of ``linalg.vandermonde``.  Only the verification lane --
explicit polynomials, compositions and the trace product -- also writes
out a scalar ``eval`` on Python ints, so a check of a solve's witness does
not run on the kernels that produced it.  The symbolic
determinant and w-th root of explicit polynomials are not on the solve
path, which reads determinant roots only through evaluations.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ArityMismatch,
    NotAPerfectPower,
    ShapeMismatch,
    SizeBound,
)
from .field import Fp, Rng
from .linalg import Mat, exact_product, nullspace_rows, vandermonde, vandermonde_inverse
from .report import add_pit_trials

# ---------------------------------------------------------------------------
# univariate polynomials: list of coefficients, low to high
# ---------------------------------------------------------------------------

def uni_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def uni_deg(c: list[int]) -> int:
    return len(c) - 1


def uni_sub(field: Fp, a, b):
    p = field.p
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return uni_trim(out)


def uni_mul(field: Fp, a, b):
    """a * b as one Kronecker-packed Python-int product."""
    if not a or not b:
        return []
    p = field.p
    B = _slot_bytes(p, min(len(a), len(b)))
    packed = _pack([int(x) % p for x in a], B) * _pack([int(x) % p for x in b], B)
    return uni_trim(_unpack(packed, p, B, len(a) + len(b) - 1))


def uni_deriv(field: Fp, a):
    p = field.p
    return uni_trim([i * a[i] % p for i in range(1, len(a))])


def uni_monic(field: Fp, a):
    if not a:
        return []
    inv = field.inv(a[-1])
    return [x * inv % field.p for x in a]


def uni_divmod(field: Fp, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    p = field.p
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv = field.inv(b[-1])
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return uni_trim(q), uni_trim(a[: len(b) - 1])


def uni_gcd(field: Fp, a, b):
    a, b = list(a), list(b)
    while b:
        _, r = uni_divmod(field, a, b)
        a, b = b, r
    return uni_monic(field, a)


def squarefree_test(field: Fp, q: list[int]) -> bool:
    """True iff gcd(q, q') is constant."""
    if not q:
        raise ZeroDivisionError("square-free test of the zero polynomial")
    d = uni_deriv(field, q)
    if not d:
        return len(q) == 1
    return uni_deg(uni_gcd(field, q, d)) == 0


# Kronecker substitution: a polynomial with coefficients in [0, p) is one
# Python int holding coefficient i in the i-th slot of B bytes, so that one
# big-int product multiplies two polynomials.  A slot fits a sum of up to
# `terms` products of residues without carrying into the next one.

def _slot_bytes(p: int, terms: int) -> int:
    return (2 * p.bit_length() + terms.bit_length() + 7) // 8


def _pack(c: list[int], B: int) -> int:
    return int.from_bytes(b"".join(x.to_bytes(B, "little") for x in c), "little")


def _unpack(v: int, p: int, B: int, m: int) -> list[int]:
    """The m slots of v, reduced mod p."""
    buf = v.to_bytes(B * m, "little")
    return [int.from_bytes(buf[i : i + B], "little") % p for i in range(0, B * m, B)]


class _Modulus:
    """Arithmetic modulo a fixed monic f of degree n >= 1 on packed products:
    the coefficient h_i of x^(n+i) in a product is folded back by adding
    h_i * (packed x^(n+i) mod f) to the packed low part."""

    def __init__(self, field: Fp, f: list[int]):
        p, n = field.p, uni_deg(f)
        self.field, self.f, self.n = field, f, n
        self.B = _slot_bytes(p, 2 * n)  # < n products in a slot, plus < n folds
        folds, r = [], [-c % p for c in f[:n]]  # x^n mod f
        for _ in range(n - 1):
            folds.append(_pack(r, self.B))
            top, r = r[-1], [0] + r[:-1]  # x * r, its x^n term still to fold
            r = [(c - top * fc) % p for c, fc in zip(r, f)]
        self.folds = folds

    def reduce(self, a: list[int]) -> list[int]:
        return uni_divmod(self.field, a, self.f)[1]

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        """a * b mod f for a, b reduced mod f."""
        if not a or not b:
            return []
        p, B, n = self.field.p, self.B, self.n
        m = len(a) + len(b) - 1
        packed = _pack(a, B) * _pack(b, B)
        if m > n:
            buf = packed.to_bytes(B * m, "little")
            packed = int.from_bytes(buf[: B * n], "little")
            for i, fold in zip(range(B * n, B * m, B), self.folds):
                h = int.from_bytes(buf[i : i + B], "little") % p
                if h:
                    packed += h * fold
            m = n
        return uni_trim(_unpack(packed, p, B, m))

    def pow(self, a: list[int], e: int) -> list[int]:
        """a^e mod f for a reduced mod f and e >= 1: left to right over
        windows of up to four bits that end in a one, from a table of
        a, a^3, ..., a^15."""
        sq = self.mul(a, a)
        odd = [a]
        for _ in range(7):
            odd.append(self.mul(odd[-1], sq))
        bits = bin(e)[2:]
        result, i = None, 0  # the first window starts at the leading one, so sets result
        while i < len(bits):
            if bits[i] == "0":
                result = self.mul(result, result)
                i += 1
                continue
            j = min(i + 4, len(bits))
            while bits[j - 1] == "0":
                j -= 1
            w = odd[int(bits[i:j], 2) >> 1]
            if result is None:
                result = w
            else:
                for _ in range(j - i):
                    result = self.mul(result, result)
                result = self.mul(result, w)
            i = j
        return result


class _Frobenius:
    """h -> h^p mod F for h of degree < deg F.  Coefficients are fixed by
    the p-th power, so h(x)^p = h(x^p) = sum_i h_i x^(ip): the product of h
    with the Frobenius matrix Q, whose row i is x^(ip) mod F, kept packed."""

    def __init__(self, field: Fp, F: list[int]):
        ring = _Modulus(field, F)
        xp = ring.pow(ring.reduce([0, 1]), field.p)
        rows = [[1]]
        for _ in range(ring.n - 1):
            rows.append(ring.mul(rows[-1], xp))
        self.p, self.n = field.p, ring.n
        self.B = _slot_bytes(field.p, ring.n)
        self.Q = [_pack(r, self.B) for r in rows]

    def __call__(self, h: list[int]) -> list[int]:
        acc = 0
        for c, row in zip(h, self.Q):
            if c:
                acc += c * row
        return uni_trim(_unpack(acc, self.p, self.B, self.n))


def _distinct_degree_split(field: Fp, f, frob: _Frobenius):
    """[(product of irreducible factors of degree k, k)] for square-free f,
    with frob the Frobenius map modulo f or a multiple of it."""
    out = []
    k = 1
    x_poly = [0, 1]
    h = x_poly
    f = uni_monic(field, f)
    while uni_deg(f) >= 2 * k:
        _, h = uni_divmod(field, frob(h), f)  # h^p mod f
        g = uni_gcd(field, uni_sub(field, h, x_poly), f)
        if uni_deg(g) > 0:
            out.append((g, k))
            f, _ = uni_divmod(field, f, g)
            _, h = uni_divmod(field, h, f) if uni_deg(f) > 0 else (None, h)
        k += 1
    if uni_deg(f) > 0:
        out.append((f, uni_deg(f)))
    return out


def _equal_degree_split(field: Fp, f, k: int, rng: Rng, frob: _Frobenius):
    """Cantor-Zassenhaus split of f into its degree-k irreducible factors.
    r^((p^k - 1)/2) is b * b^p * ... * b^(p^(k-1)) with b = r^((p-1)/2):
    one power mod f, then k - 1 Frobenius steps."""
    n = uni_deg(f)
    if n == k:
        return [f]
    ring = _Modulus(field, f)
    while True:
        r = [rng.scalar(field) for _ in range(n)] + [1]
        r = uni_trim(r)
        g = uni_gcd(field, r, f)
        if 0 < uni_deg(g) < n:
            break
        h = b = ring.pow(ring.reduce(r), (field.p - 1) // 2)
        for _ in range(k - 1):
            b = ring.reduce(frob(b))
            h = ring.mul(h, b)
        g = uni_gcd(field, uni_sub(field, h, [1]), f)
        if 0 < uni_deg(g) < n:
            break
    rest, _ = uni_divmod(field, f, g)
    return (_equal_degree_split(field, g, k, rng, frob)
            + _equal_degree_split(field, rest, k, rng, frob))


def factor_univariate(field: Fp, q: list[int], rng: Rng):
    """Irreducible factorization over F_p: [(monic factor, multiplicity)].

    Square-free part via gcd with the derivative, then distinct-degree and
    Cantor-Zassenhaus equal-degree splitting.  p is odd and larger than any
    degree handled here, so no inseparability cases arise.  Every p-th power
    is one product with the Frobenius matrix of the square-free part (row i
    is x^(ip) mod it, after von zur Gathen & Shoup), and every other product
    is one Kronecker-packed Python-int multiply, reduced by folding the high
    coefficients back through packed x^(n+i) mod the modulus.  The
    intermediate polynomials, and so the draws from ``rng``, are those of
    plain square-and-multiply.  The output is asserted to re-multiply to the
    (monic) input on every run.
    """
    q_in = uni_monic(field, q)
    q = list(q_in)
    factors: dict[tuple, int] = {}
    while uni_deg(q) > 0:
        d = uni_deriv(field, q)
        if d:
            sf, _ = uni_divmod(field, q, uni_gcd(field, q, d))
        else:
            sf = q
        frob = _Frobenius(field, sf)
        for part, k in _distinct_degree_split(field, sf, frob):
            for irr in _equal_degree_split(field, part, k, rng, frob):
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


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------

class MPoly:
    """Sparse multivariate polynomial: exponent tuple -> nonzero coefficient."""

    __slots__ = ("field", "n", "terms")

    def __init__(self, field: Fp, n: int, terms: dict | None = None):
        self.field = field
        self.n = n
        self.terms = {} if terms is None else terms

    @staticmethod
    def zero(field: Fp, n: int) -> "MPoly":
        return MPoly(field, n)

    @staticmethod
    def constant(field: Fp, n: int, c: int) -> "MPoly":
        c %= field.p
        return MPoly(field, n, {(0,) * n: c} if c else {})

    @staticmethod
    def var(field: Fp, n: int, i: int) -> "MPoly":
        e = [0] * n
        e[i] = 1
        return MPoly(field, n, {tuple(e): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def copy(self) -> "MPoly":
        return MPoly(self.field, self.n, dict(self.terms))

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):  # pragma: no cover
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"MPoly({self.n} vars, {len(self.terms)} terms)"

    def add_term(self, exp: tuple, c: int):
        c = (self.terms.get(exp, 0) + c) % self.field.p
        if c:
            self.terms[exp] = c
        else:
            self.terms.pop(exp, None)

    def __add__(self, other: "MPoly") -> "MPoly":
        out = self.copy()
        for e, c in other.terms.items():
            out.add_term(e, c)
        return out

    def __sub__(self, other: "MPoly") -> "MPoly":
        out = self.copy()
        for e, c in other.terms.items():
            out.add_term(e, -c)
        return out

    def scale(self, c: int) -> "MPoly":
        p = self.field.p
        c %= p
        if c == 0:
            return MPoly.zero(self.field, self.n)
        return MPoly(self.field, self.n, {e: x * c % p for e, x in self.terms.items()})

    def __mul__(self, other: "MPoly") -> "MPoly":
        p = self.field.p
        out = MPoly.zero(self.field, self.n)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out.add_term(e, c1 * c2)
        return out

    def deriv(self, i: int) -> "MPoly":
        p = self.field.p
        out = MPoly.zero(self.field, self.n)
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out.add_term(tuple(e2), c * e[i] % p)
        return out

    def eval(self, point: list[int]) -> int:
        p = self.field.p
        acc = 0
        for e, c in self.terms.items():
            t = c
            for i, ei in enumerate(e):
                if ei:
                    t = t * pow(point[i], ei, p) % p
            acc = (acc + t) % p
        return acc

    def compose_linear(self, A: Mat) -> "MPoly":
        """Explicit substitution x -> A.x (for oracle tests; exponential in degree)."""
        subs = [MPoly(self.field, self.n,
                      {tuple(1 if k == j else 0 for k in range(self.n)): c
                       for j, c in enumerate(row) if c})
                for row in A.rows.tolist()]
        out = MPoly.zero(self.field, self.n)
        for e, c in self.terms.items():
            t = MPoly.constant(self.field, self.n, c)
            for i, ei in enumerate(e):
                for _ in range(ei):
                    t = t * subs[i]
            out = out + t
        return out

    def leading_grlex(self):
        """(exponent, coeff) of the graded-lex greatest monomial."""
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def normalized_grlex(self) -> "MPoly":
        """Scale so the graded-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        _, c = self.leading_grlex()
        return self.scale(self.field.inv(c))

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1


def mp_div_exact(num: MPoly, den: MPoly) -> MPoly:
    """Exact division num/den (raises if not exact); grlex elimination."""
    field = num.field
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    e_d, c_d = den.leading_grlex()
    inv = field.inv(c_d)
    q = MPoly.zero(field, num.n)
    r = num.copy()
    while not r.is_zero():
        e_n, c_n = r.leading_grlex()
        e_q = tuple(a - b for a, b in zip(e_n, e_d))
        if any(x < 0 for x in e_q):
            raise ArithmeticError("inexact polynomial division")
        c_q = c_n * inv % field.p
        q.add_term(e_q, c_q)
        t = MPoly(field, num.n, {e_q: c_q})
        r = r - t * den
    return q


# ---------------------------------------------------------------------------
# linear matrices (matrices of linear forms)
# ---------------------------------------------------------------------------

class LinMat:
    """r x c matrix of homogeneous linear forms in n variables: ``coeffs`` is
    one (r, c, n) residue array, coeffs[i, j] the coefficients of entry (i, j)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Fp, nrows: int, ncols: int, n: int, coeffs=None):
        self.field = field
        self.coeffs = (field.kernel.zeros((nrows, ncols, n)) if coeffs is None else
                       np.asarray(coeffs, dtype=field.kernel.dtype).reshape(nrows, ncols, n))

    @property
    def nrows(self) -> int:
        return self.coeffs.shape[0]

    @property
    def ncols(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n(self) -> int:
        return self.coeffs.shape[2]

    @staticmethod
    def symbolic(field: Fp, w: int) -> "LinMat":
        """w x w matrix whose (i, j) entry is the variable w*i + j."""
        return LinMat(field, w, w, w * w, np.eye(w * w, dtype=field.kernel.dtype))

    def eval(self, point: list[int]) -> Mat:
        """The matrix at one point, from an exact Python-int product."""
        kern = self.field.kernel
        vals = exact_product(self.field, self.coeffs.reshape(-1, self.n), kern.asarray(point))
        return Mat(self.field, vals.reshape(self.nrows, self.ncols))

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """(B, nrows, ncols) residues at the B rows of pts, from one product."""
        C = self.coeffs.reshape(self.nrows * self.ncols, self.n)
        return self.field.kernel.gemm(pts, C.T).reshape(len(pts), self.nrows, self.ncols)

    def transpose(self) -> "LinMat":
        return LinMat(self.field, self.ncols, self.nrows, self.n,
                      self.coeffs.transpose(1, 0, 2).copy())

    def left_mul(self, M: Mat) -> "LinMat":
        """Numeric M times this linear matrix."""
        prod = self.field.kernel.gemm(M.rows, self.coeffs.reshape(self.nrows, -1))
        return LinMat(self.field, M.nrows, self.ncols, self.n, prod)

    def right_mul(self, M: Mat) -> "LinMat":
        """This linear matrix times numeric M."""
        r, c, n = self.coeffs.shape
        prod = self.field.kernel.gemm(self.coeffs.transpose(0, 2, 1).reshape(r * n, c), M.rows)
        return LinMat(self.field, r, M.ncols, n, prod.reshape(r, n, -1).transpose(0, 2, 1))

    def scale(self, c: int) -> "LinMat":
        prod = self.field.kernel.mul(self.coeffs, int(c) % self.field.p)
        return LinMat(self.field, self.nrows, self.ncols, self.n, prod)

    def restrict(self, variables: list[int]) -> "LinMat":
        """The same forms read on the listed variables only, renumbered
        0.. in list order."""
        return LinMat(self.field, self.nrows, self.ncols, len(variables),
                      self.coeffs[:, :, variables])

    def block(self, r0: int, c0: int, h: int, w: int) -> "LinMat":
        """The h x w sub-matrix with top-left entry (r0, c0)."""
        return LinMat(self.field, h, w, self.n, self.coeffs[r0 : r0 + h, c0 : c0 + w].copy())

    def identity_kron(self, w: int) -> "LinMat":
        """I_w (x) self: w copies of this matrix down the block diagonal."""
        r, c, n = self.coeffs.shape
        out = self.field.kernel.zeros((w, r, w, c, n))
        for a in range(w):
            out[a, :, a] = self.coeffs
        return LinMat(self.field, w * r, w * c, n, out)

    def coefficient_matrix(self) -> Mat:
        """(nrows*ncols) x n matrix of the entry coefficient vectors, row-major."""
        return Mat(self.field, self.coeffs.reshape(-1, self.n).copy())

    def entry_poly(self, i: int, j: int) -> MPoly:
        out = MPoly.zero(self.field, self.n)
        for t, c in enumerate(self.coeffs[i, j].tolist()):
            if c:
                e = [0] * self.n
                e[t] = 1
                out.add_term(tuple(e), c)
        return out

    def __eq__(self, other):
        return isinstance(other, LinMat) and np.array_equal(self.coeffs, other.coeffs)


def det_linear_matrix(Y: LinMat, size_bound: int = 9) -> MPoly:
    """Explicit determinant of a square linear matrix as a sparse polynomial.

    Fraction-free Bareiss elimination over the polynomial ring with column
    pivoting on nonzero entries; each division is exact by construction.
    """
    m = Y.nrows
    if m != Y.ncols:
        raise ShapeMismatch("determinant of a non-square linear matrix")
    if m > size_bound:
        raise SizeBound(f"symbolic determinant limited to {size_bound}x{size_bound}")
    field = Y.field
    A = [[Y.entry_poly(i, j) for j in range(m)] for i in range(m)]
    sign = 1
    prev = MPoly.constant(field, Y.n, 1)
    for k in range(m - 1):
        pr = next((i for i in range(k, m) if not A[i][k].is_zero()), None)
        if pr is None:
            return MPoly.zero(field, Y.n)
        if pr != k:
            A[k], A[pr] = A[pr], A[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                num = A[k][k] * A[i][j] - A[i][k] * A[k][j]
                A[i][j] = mp_div_exact(num, prev)
            A[i][k] = MPoly.zero(field, Y.n)
        prev = A[k][k]
    det = A[m - 1][m - 1]
    return det.scale(sign % field.p)


def wth_root(P: MPoly, w: int, trials: int = 20, rng: Rng | None = None) -> MPoly:
    """The degree-deg(P)/w polynomial g with P = c * g^w, grlex-normalized.

    g's coefficients satisfy the linear identities g * dP/dx_i = w * dg/dx_i * P
    (the gcd structure of a perfect power, solved as one nullspace problem).
    The result is verified by randomized identity testing before returning.
    """
    field = P.field
    if P.is_zero():
        raise NotAPerfectPower("zero polynomial")
    D = P.degree()
    if w <= 0 or D % w:
        raise NotAPerfectPower(f"degree {D} not a multiple of {w}")
    if w == 1:
        return P.normalized_grlex()
    rng = rng or Rng(0x5EED)
    d = D // w
    varset = sorted({i for e in P.terms for i, ei in enumerate(e) if ei})
    # candidate monomials for g
    if P.is_homogeneous():
        cands = _monomials(P.n, varset, d, homogeneous=True)
    else:
        cands = _monomials(P.n, varset, d, homogeneous=False)
    idx = {e: t for t, e in enumerate(cands)}
    rows: dict[tuple, dict[int, int]] = {}
    p = field.p
    for i in varset:
        Pi = P.deriv(i)
        for t, e in enumerate(cands):
            # + g_e * x^e * P_i
            for e2, c2 in Pi.terms.items():
                out = tuple(a + b for a, b in zip(e, e2))
                row = rows.setdefault((i,) + out, {})
                row[t] = (row.get(t, 0) + c2) % p
            # - w * e_i * x^(e - u_i) * P
            if e[i]:
                elow = list(e)
                elow[i] -= 1
                for e2, c2 in P.terms.items():
                    out = tuple(a + b for a, b in zip(elow, e2))
                    row = rows.setdefault((i,) + out, {})
                    row[t] = (row.get(t, 0) - w * e[i] * c2) % p
    dense = []
    for row in rows.values():
        r = [0] * len(cands)
        for t, c in row.items():
            r[t] = c
        if any(r):
            dense.append(r)
    basis = nullspace_rows(field, field.kernel.asarray(dense)).tolist() if dense else []
    for vec in basis:
        g = MPoly(field, P.n, {cands[t]: c for t, c in enumerate(vec) if c})
        if g.is_zero():
            continue
        g = g.normalized_grlex()
        if matches_power(P.eval, g, w, trials, rng):
            return g
    raise NotAPerfectPower("no verified w-th root")


def _monomials(n: int, varset: list[int], d: int, homogeneous: bool):
    """Exponent tuples over varset with total degree == d (or <= d)."""
    out = []

    def rec(pos: int, remaining: int, acc: list[int]):
        if pos == len(varset):
            if remaining == 0 or not homogeneous:
                e = [0] * n
                for v, a in zip(varset, acc):
                    e[v] = a
                out.append(tuple(e))
            return
        lo_range = remaining + 1
        for a in range(lo_range):
            rec(pos + 1, remaining - a, acc + [a])

    rec(0, d, [])
    if homogeneous:
        out = [e for e in out if sum(e) == d]
    return out


def matches_power(evaluate, g: MPoly, w: int, trials: int, rng: Rng) -> bool:
    """Whether evaluate(a) == c * g(a)^w for one constant c at random points.

    c is fitted at the first point where g does not vanish.  Success needs
    ``trials`` such points, all agreeing, within 4 * trials draws; a point
    where g vanishes and ``evaluate`` does not is a definite failure.
    """
    field = g.field
    c = None
    checked = 0
    for _ in range(trials * 4):
        a = rng.vector(field, g.n)
        gv = pow(g.eval(a), w, field.p)
        pv = evaluate(a)
        if gv == 0:
            if pv != 0:
                return False
            continue
        if c is None:
            c = field.div(pv, gv)
        elif pv != field.mul(c, gv):
            return False
        checked += 1
        if checked == trials:
            return True
    return False


# ---------------------------------------------------------------------------
# blackboxes
# ---------------------------------------------------------------------------

class Blackbox:
    """Evaluation-oracle view of a polynomial: n variables, degree bound.

    A subclass defines ``eval_many``, the values at the rows of a (B, n)
    residue array; ``eval`` reads one point as a batch of one."""

    def __init__(self, field: Fp, n: int, degree: int):
        self.field = field
        self.n = n
        self.degree = degree

    def eval_many(self, pts: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def eval(self, point: list[int]) -> int:
        self._check_arity(point)
        p = self.field.p
        return int(self.eval_many(self.field.kernel.asarray([[x % p for x in point]]))[0])

    def _check_arity(self, point):
        if len(point) != self.n:
            raise ArityMismatch(f"expected {self.n} coordinates, got {len(point)}")

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        """(B, n) matrix of gradients.  On the line a + t e_i the values at
        t = 0..d determine q(t) = f(a + t e_i), and df/dx_i(a) = q'(0) is its
        t-coefficient: row 1 of the inverse Vandermonde matrix times them.
        A constant is read as a degree-1 polynomial, so that row 1 exists."""
        field = self.field
        d = max(self.degree, 1)
        B = len(pts)
        k = field.kernel
        lam = vandermonde_inverse(field, d)[1:2].T
        big = np.repeat(pts, d + 1, axis=0)  # B*(d+1) base copies per variable
        ts = np.tile(k.asarray(range(d + 1)), B)
        out = k.zeros((B, self.n))
        for i in range(self.n):
            work = big.copy()
            work[:, i] = k.add(work[:, i], ts)
            vals = self.eval_many(work).reshape(B, d + 1)
            out[:, i] = k.gemm(vals, lam)[:, 0]
        return out


# Cells (table rows times points) of one pass of ``ExplicitBlackbox.gradient_many``;
# a larger batch is read in chunks of points.
_GRADIENT_CELLS = 1 << 20


def _exponent_steps(exps: np.ndarray) -> list:
    """For each variable x_i and each j from 1 to its highest exponent in the
    rows of exps, the rows whose exponent of x_i is at least j: (i, rows),
    with a plain slice when that is every row, so that a step reads the
    table whole, without a fancy-index copy."""
    top = exps.max(axis=0, initial=0).tolist()
    has = [(i, exps[:, i] >= j) for i in range(exps.shape[1]) for j in range(1, top[i] + 1)]
    return [(i, slice(None) if m.all() else np.flatnonzero(m)) for i, m in has]


def _apply_steps(k, V: np.ndarray, steps: list, pts: np.ndarray) -> np.ndarray:
    """V[rows] times x_i at every point, in place, for each step (i, rows)."""
    for i, rows in steps:
        V[rows] = k.mul(V[rows], pts[:, i])
    return V


class ExplicitBlackbox(Blackbox):
    """Blackbox view of an explicit sparse polynomial.  ``eval`` stays on
    Python ints (the lane of verification); ``eval_many`` multiplies the
    coefficients, repeated per point, by x_i once per exponent step (i, j) on
    the terms with exponent of x_i at least j, then sums them by halves.
    ``gradient_many`` reads every partial in the same pass: its table holds
    the distinct monomials of all the partials, whose values at the points
    come from one run of exponent steps, and the partials are one GEMM of
    those values by the (monomials, n) matrix of their coefficients, on
    chunks of at most ``_GRADIENT_CELLS`` table cells."""

    def __init__(self, poly: MPoly):
        super().__init__(poly.field, poly.n, poly.degree())
        self.poly = poly
        self._table = None
        self._grad_table = None

    def eval(self, point):
        self._check_arity(point)
        return self.poly.eval(point)

    def eval_many(self, pts):
        k = self.field.kernel
        if self._table is None:
            exps = np.array(list(self.poly.terms), dtype=np.int64).reshape(-1, self.n)
            self._table = k.asarray(list(self.poly.terms.values())), _exponent_steps(exps)
        coeffs, steps = self._table
        V = _apply_steps(k, np.repeat(coeffs[:, None], len(pts), axis=1), steps, pts)  # V[t, b]
        while len(V) > 1:
            h = (len(V) + 1) // 2
            V[: len(V) - h] = k.add(V[: len(V) - h], V[h:])
            V = V[:h]
        return V[0] if len(V) else k.zeros(len(pts))

    def gradient_many(self, pts):
        k = self.field.kernel
        if self._grad_table is None:
            p = self.field.p
            coeffs: dict[tuple, dict[int, int]] = {}  # monomial of a partial -> {i: coefficient}
            for e, c in self.poly.terms.items():
                for i, ei in enumerate(e):
                    if ei:
                        coeffs.setdefault(e[:i] + (ei - 1,) + e[i + 1 :], {})[i] = c * ei % p
            C = k.zeros((len(coeffs), self.n))
            for m, row in enumerate(coeffs.values()):
                for i, c in row.items():
                    C[m, i] = c
            exps = np.array(list(coeffs), dtype=np.int64).reshape(-1, self.n)
            self._grad_table = C, _exponent_steps(exps)
        C, steps = self._grad_table
        chunk = max(1, _GRADIENT_CELLS // max(len(C), 1))
        out = []
        for b0 in range(0, max(len(pts), 1), chunk):  # no points is one empty chunk
            P = pts[b0 : b0 + chunk]
            V = _apply_steps(k, np.ones((len(C), len(P)), dtype=k.dtype), steps, P)  # V[m, b]
            out.append(k.gemm(V.T, C))
        return np.concatenate(out)


class ComposedBlackbox(Blackbox):
    """f(A.x) for an inner blackbox f and a square matrix A."""

    def __init__(self, base: Blackbox, A: Mat):
        if A.nrows != base.n or A.ncols != base.n:
            raise ShapeMismatch("composition matrix must be n x n")
        if isinstance(base, ComposedBlackbox):
            A = base.A * A
            base = base.base
        super().__init__(base.field, base.n, base.degree)
        self.base = base
        self.A = A

    def eval(self, point):
        self._check_arity(point)
        return self.base.eval(self.A.matvec(point))

    def eval_many(self, pts):
        transformed = self.field.kernel.matmul(pts, self.A.rows.T)
        return self.base.eval_many(transformed)

    def gradient_many(self, pts):
        k = self.field.kernel
        transformed = k.matmul(pts, self.A.rows.T)
        inner = self.base.gradient_many(transformed)
        return k.matmul(inner, self.A.rows)


class RestrictionBlackbox(Blackbox):
    """A blackbox with some coordinates frozen to constants.

    free_vars lists the surviving base coordinates in the order they are
    exposed; everything else is pinned to ``template``.
    """

    def __init__(self, base: Blackbox, template: list[int], free_vars: list[int]):
        super().__init__(base.field, len(free_vars), base.degree)
        self.base = base
        self.template = [x % base.field.p for x in template]
        self.free_vars = list(free_vars)

    def eval_many(self, pts):
        B = len(pts)
        full = np.tile(self.field.kernel.asarray(self.template), (B, 1))
        for c, v in enumerate(self.free_vars):
            full[:, v] = pts[:, c]
        return self.base.eval_many(full)


class DetBlackbox(Blackbox):
    """det(X(x)) for a square linear matrix X, read as one stack of
    determinants of X at the points."""

    def __init__(self, X: LinMat):
        if X.nrows != X.ncols:
            raise ShapeMismatch("determinant of a non-square linear matrix")
        super().__init__(X.field, X.n, X.nrows)
        self.X = X

    def eval_many(self, pts):
        return self.field.kernel.det_many(self.X.eval_many(pts))


class RootBlackbox(Blackbox):
    """g(x) / g(b) for a blackbox P = alpha * g^w, g homogeneous of degree
    e = deg P / w, read at a base point b with P(b) != 0.

    On the line a + t b, P(a + t b) / P(b) = u(t)^w with u(t) = g(a + t b) / g(b)
    monic of degree e, so g(a) / g(b) = u(0).  A batch of points reads P at
    t = 0..D (D = deg P) on every line in one ``eval_many``, interpolates the
    lines in one product with the inverse Vandermonde matrix, and takes the
    monic w-th roots together: the reversed line U(s) = 1 + U_1 s + ... has the
    power-series root r = U^(1/w), r_0 = 1 and n r_n = sum_k ((1 + 1/w) k - n)
    U_k r_(n-k) (J. C. P. Miller's recurrence), and u(0) = r_e.  Reading a
    point checks nothing; ``is_power_on`` checks whole lines.
    """

    def __init__(self, P: Blackbox, w: int, b):
        field = P.field
        super().__init__(field, P.n, P.degree // w)
        kern, p, D, e = field.kernel, field.p, P.degree, self.degree
        self.P, self.w = P, w
        b = kern.asarray(b)
        self._scale = field.inv(int(P.eval_many(b[None])[0]))  # the t^D coefficient of every line
        self._offsets = kern.mul(kern.asarray(range(D + 1))[:, None], b)  # t b, t = 0..D
        V = vandermonde(field, range(D + 1))
        self._interp = vandermonde_inverse(field, D).T  # line values -> coefficients, low to high
        self._nodes = V.rows[:, : e + 1].T  # coefficients of degree <= e -> values at t = 0..D
        self._miller = [[((w + 1) * k - n * w) * field.inv(n * w) % p for k in range(1, n + 1)]
                        for n in range(1, e + 1)]

    def _roots(self, pts):
        """(r_0..r_e, values of P / P(b) at t = 0..D) for the lines through pts."""
        kern, D = self.field.kernel, self.P.degree
        lines = kern.add(pts[:, None, :], self._offsets).reshape(-1, self.n)
        vals = kern.mul(self.P.eval_many(lines).reshape(len(pts), D + 1), self._scale)
        U = kern.gemm(vals, self._interp)
        r = [kern.asarray([1] * len(pts))]
        for n, weights in enumerate(self._miller, 1):
            acc = kern.zeros(len(pts))
            for k, c in enumerate(weights, 1):
                acc = kern.add(acc, kern.mul(kern.mul(U[:, D - k], r[n - k]), c))
            r.append(acc)
        return r, vals

    def eval_many(self, pts):
        return self._roots(pts)[0][-1]

    def is_power_on(self, pts) -> bool:
        """Whether P / P(b) is the w-th power of the monic root on every line
        a + t b, a a row of pts: u(t)^w against the line at t = 0..D."""
        kern = self.field.kernel
        r, vals = self._roots(pts)
        u = kern.gemm(np.stack(r[::-1], axis=1), self._nodes)
        power = u
        for _ in range(self.w - 1):
            power = kern.mul(power, u)
        return bool(np.array_equal(power, vals))


# ---------------------------------------------------------------------------
# blackbox operations
# ---------------------------------------------------------------------------

def pit_equal(f: Blackbox, g: Blackbox, trials: int, rng: Rng) -> bool:
    """Randomized identity test at ``trials`` independent points.  False is
    definitive; True holds with failure probability <= (degree / p)^trials
    (Schwartz-Zippel).  The trials count toward the active RunReport."""
    if f.n != g.n:
        raise ArityMismatch("blackboxes of different arity")
    add_pit_trials(trials)
    pts = Rng(rng.randrange(1 << 62)).array(f.field, (trials, f.n))
    return bool(np.array_equal(f.eval_many(pts), g.eval_many(pts)))

