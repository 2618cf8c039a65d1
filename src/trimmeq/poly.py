"""Polynomial machinery over F_p.

Univariate polynomials are plain coefficient lists (low-to-high degree,
no trailing zeros, zero polynomial = []).  Sparse multivariate polynomials
map exponent tuples to nonzero coefficients.  Blackboxes wrap an exact
evaluation rule -- explicit polynomial, linear composition f(A.x), trace
of a matrix product (defined in :mod:`trimmeq.trimm`), or a partial
substitution -- and expose batched evaluation plus exact gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ArityMismatch,
    DuplicateNode,
    NotAPerfectPower,
    ShapeMismatch,
    SizeBound,
)
from .field import Fp, Rng
from .linalg import Mat, exact_product, newton_interp, nullspace_rows
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
    if not a or not b:
        return []
    p = field.p
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return uni_trim(out)


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


def interpolate_univariate(field: Fp, points: list[tuple[int, int]]) -> list[int]:
    """The unique polynomial of degree < len(points) through the samples."""
    p = field.p
    xs = [t % p for t, _ in points]
    if len(set(xs)) != len(xs):
        raise DuplicateNode("repeated interpolation abscissae")
    return uni_trim(newton_interp(p, xs, [v for _, v in points]))


def squarefree_test(field: Fp, q: list[int]) -> bool:
    """True iff gcd(q, q') is constant."""
    if not q:
        raise ZeroDivisionError("square-free test of the zero polynomial")
    d = uni_deriv(field, q)
    if not d:
        return len(q) == 1
    return uni_deg(uni_gcd(field, q, d)) == 0


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
    """Irreducible factorization over F_p: [(monic factor, multiplicity)].

    Square-free part via gcd with the derivative, then distinct-degree and
    Cantor-Zassenhaus equal-degree splitting.  p is odd and larger than any
    degree handled here, so no inseparability cases arise.  The output is
    asserted to re-multiply to the (monic) input on every run.
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
    """Evaluation-oracle view of a polynomial: n variables, degree bound."""

    def __init__(self, field: Fp, n: int, degree: int):
        self.field = field
        self.n = n
        self.degree = degree

    def eval(self, point: list[int]) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return self.field.kernel.asarray([self.eval(row) for row in pts.tolist()])

    def _check_arity(self, point):
        if len(point) != self.n:
            raise ArityMismatch(f"expected {self.n} coordinates, got {len(point)}")

    def gradient_many(self, pts: np.ndarray) -> np.ndarray:
        """(B, n) matrix of gradients, via batched line interpolation."""
        field = self.field
        d = self.degree
        B = len(pts)
        lam = _deriv_weights(field, d)
        big = np.repeat(pts, d + 1, axis=0)  # B*(d+1) base copies per variable
        k = field.kernel
        out = k.zeros((B, self.n))
        for i in range(self.n):
            work = big.copy()
            ts = np.tile(k.asarray(range(d + 1)), B)
            work[:, i] = k.add(work[:, i], ts)
            vals = self.eval_many(work).reshape(B, d + 1)
            out[:, i] = k.gemm(vals, k.asarray(lam)[:, None])[:, 0]
        return out


def _deriv_weights(field: Fp, d: int) -> list[int]:
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


class ExplicitBlackbox(Blackbox):
    """Blackbox view of an explicit sparse polynomial."""

    def __init__(self, poly: MPoly):
        super().__init__(poly.field, poly.n, poly.degree())
        self.poly = poly
        self._partials: list[MPoly] | None = None

    def eval(self, point):
        self._check_arity(point)
        return self.poly.eval(point)

    def eval_many(self, pts):
        k = self.field.kernel
        B = len(pts)
        acc = k.zeros(B)
        for e, c in self.poly.terms.items():
            t = np.full(B, c % self.field.p, dtype=k.dtype)
            for i, ei in enumerate(e):
                for _ in range(ei):
                    t = k.mul(t, pts[:, i])
            acc = k.add(acc, t)
        return acc

    def _grads(self):
        if self._partials is None:
            self._partials = [self.poly.deriv(i) for i in range(self.n)]
        return self._partials

    def gradient_many(self, pts):
        out = self.field.kernel.zeros((len(pts), self.n))
        for i, g in enumerate(self._grads()):
            out[:, i] = ExplicitBlackbox(g).eval_many(pts)
        return out


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

    def eval(self, point):
        self._check_arity(point)
        full = list(self.template)
        for v, x in zip(self.free_vars, point):
            full[v] = x % self.field.p
        return self.base.eval(full)

    def eval_many(self, pts):
        B = len(pts)
        full = np.tile(self.field.kernel.asarray(self.template), (B, 1))
        for c, v in enumerate(self.free_vars):
            full[:, v] = pts[:, c]
        return self.base.eval_many(full)


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

