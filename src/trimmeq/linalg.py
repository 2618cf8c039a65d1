"""Dense exact linear algebra over F_p.

A :class:`Mat` holds one 2-D array of canonical residues in the dtype of the
field's vectorized kernel (:mod:`trimmeq.modarith`), which has a lane for
every prime.  Entrywise arithmetic runs on the kernel's ``add``/``sub``/
``mul``; rank, determinant, kernel basis and RREF run on its elimination,
where first-nonzero pivoting suffices, since exact arithmetic needs no
numerical pivot strategy.  ``Mat.__mul__`` and ``Mat.matvec`` are the
products of the scalar evaluation lane: exact Python-int products
(``exact_product``) that never reach the kernel's GEMM, so a GEMM bug cannot
vouch for its own output.  Span membership and span equality are rank
comparisons, and ``poly_at_matrix`` runs Horner's rule through the GEMM.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ShapeMismatch, Singular
from .field import Fp, Rng

Vec = list  # vectors of the scalar lane (points, matvec, solve) are lists of ints


# ---------------------------------------------------------------------------
# kernel front ends (2-D residue arrays in and out)
# ---------------------------------------------------------------------------

def nullspace_rows(field: Fp, rows: np.ndarray) -> np.ndarray:
    """Kernel basis of the row system ``rows . x = 0``, one vector per row."""
    return field.kernel.nullspace(rows)


def rank_rows(field: Fp, rows: np.ndarray) -> int:
    return field.kernel.rank(rows)


def rref_rows(field: Fp, rows: np.ndarray):
    """Reduced row echelon form; returns (rref array, pivot cols)."""
    return field.kernel.rref(rows)


def exact_product(field: Fp, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B mod p over Python ints (numpy ``object`` arrays): the scalar
    lane's product, independent of the kernel's GEMM."""
    return A.astype(object) @ B.astype(object) % field.p


# ---------------------------------------------------------------------------
# the matrix type
# ---------------------------------------------------------------------------

class Mat:
    """Dense matrix over F_p: ``rows`` is one 2-D array of canonical
    residues in the dtype of the field's kernel."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Fp, rows):
        self.field = field
        self.rows = np.asarray(rows, dtype=field.kernel.dtype)
        if self.rows.ndim != 2:
            raise ShapeMismatch("a matrix needs a 2-D array of rows")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_rows(field: Fp, rows) -> "Mat":
        """Integer entries, reduced mod p; any other entry raises InputError."""
        p = field.p
        rows = [list(r) for r in rows]
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                   for r in rows for x in r):
            raise InputError("matrix entries must be integers")
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged matrix rows")
        return Mat(field, [[int(x) % p for x in r] for r in rows])

    @staticmethod
    def zeros(field: Fp, r: int, c: int) -> "Mat":
        return Mat(field, field.kernel.zeros((r, c)))

    @staticmethod
    def identity(field: Fp, n: int) -> "Mat":
        return Mat(field, np.eye(n, dtype=field.kernel.dtype))

    @staticmethod
    def random(field: Fp, r: int, c: int, rng: Rng) -> "Mat":
        return Mat(field, field.kernel.asarray(rng.matrix(field, r, c)).reshape(r, c))

    # -- basics -----------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.rows.shape[0]

    @property
    def ncols(self) -> int:
        return self.rows.shape[1]

    def copy(self) -> "Mat":
        return Mat(self.field, self.rows.copy())

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and np.array_equal(self.rows, other.rows)
        )

    def __hash__(self):  # pragma: no cover
        return hash((self.field, tuple(map(tuple, self.rows.tolist()))))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} mod {self.field.p})"

    # -- arithmetic ---------------------------------------------------------
    def _same_shape(self, other: "Mat"):
        self.field.check_same(other.field)
        if self.rows.shape != other.rows.shape:
            raise ShapeMismatch(f"{self.nrows}x{self.ncols} vs {other.nrows}x{other.ncols}")

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.field, self.field.kernel.add(self.rows, other.rows))

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.field, self.field.kernel.sub(self.rows, other.rows))

    def __neg__(self) -> "Mat":
        return Mat(self.field, self.field.kernel.neg(self.rows))

    def scale(self, c: int) -> "Mat":
        return Mat(self.field, self.field.kernel.mul(self.rows, int(c) % self.field.p))

    def __mul__(self, other: "Mat") -> "Mat":
        self.field.check_same(other.field)
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.ncols} cols vs {other.nrows} rows")
        return Mat(self.field, exact_product(self.field, self.rows, other.rows))

    def matvec(self, v: Vec) -> Vec:
        if self.ncols != len(v):
            raise ShapeMismatch(f"{self.ncols} cols vs vector of {len(v)}")
        return exact_product(self.field, self.rows, self.field.kernel.asarray(v)).tolist()

    def transpose(self) -> "Mat":
        return Mat(self.field, self.rows.T.copy())

    def trace(self) -> int:
        if self.nrows != self.ncols:
            raise ShapeMismatch("trace of non-square matrix")
        return sum(self.rows.diagonal().tolist()) % self.field.p

    def is_zero(self) -> bool:
        return not self.rows.any()

    def flatten(self) -> np.ndarray:
        return self.rows.reshape(-1).copy()

    # -- elimination-backed operations -------------------------------------
    def rank(self) -> int:
        return rank_rows(self.field, self.rows)

    def nullspace(self) -> np.ndarray:
        return nullspace_rows(self.field, self.rows)

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise ShapeMismatch("det of non-square matrix")
        return self.field.kernel.det(self.rows)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.det() != 0

    def inverse(self) -> "Mat":
        n = self.nrows
        if n != self.ncols:
            raise ShapeMismatch("inverse of non-square matrix")
        aug = np.concatenate([self.rows, Mat.identity(self.field, n).rows], axis=1)
        R, piv = rref_rows(self.field, aug)
        if piv != list(range(n)):
            raise Singular("matrix is singular")
        return Mat(self.field, R[:, n:])

    def solve(self, b: Vec) -> Vec | None:
        """A particular solution of self.x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ShapeMismatch(f"{self.nrows} equations vs right-hand side of {len(b)}")
        k, n = self.field.kernel, self.ncols
        aug = np.concatenate([self.rows, k.asarray(b).reshape(-1, 1)], axis=1)
        R, piv = rref_rows(self.field, aug)
        if n in piv:
            return None
        x = k.zeros(n)
        x[piv] = R[: len(piv), n]
        return x.tolist()

    def charpoly(self) -> list[int]:
        """Monic characteristic polynomial det(tI - M), coeffs low-to-high.

        Evaluation at n+1 points (one stack of determinants) followed by
        interpolation; needs p > n, which the modulus policy guarantees.
        """
        n = self.nrows
        if n != self.ncols:
            raise ShapeMismatch("charpoly of non-square matrix")
        k = self.field.kernel
        ts = np.arange(n + 1)
        stack = k.sub(ts[:, None, None] * np.eye(n, dtype=np.int64), self.rows)
        return newton_interp(self.field.p, ts.tolist(), k.det_many(stack).tolist())

    # -- block structure ----------------------------------------------------
    def block(self, r0: int, c0: int, h: int, w: int) -> "Mat":
        return Mat(self.field, self.rows[r0 : r0 + h, c0 : c0 + w].copy())

    def set_block(self, r0: int, c0: int, B: "Mat"):
        h, w = B.rows.shape
        if r0 + h > self.nrows or c0 + w > self.ncols:
            raise ShapeMismatch(f"{h}x{w} block at ({r0}, {c0}) past the edge of {self!r}")
        self.rows[r0 : r0 + h, c0 : c0 + w] = B.rows


def newton_interp(p: int, xs: list[int], ys: list[int]) -> list[int]:
    """Divided-difference interpolation through (xs[i], ys[i]) with
    distinct xs: len(xs) coefficients, low-to-high, untrimmed."""
    n = len(xs)
    coef = [y % p for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(xs[i] - xs[i - j], -1, p) % p
    # expand Newton form
    poly = [0] * n
    for i in range(n - 1, -1, -1):
        # poly <- poly * (t - x_i) + coef[i]
        shifted = [0] + poly[:-1]
        poly = [(s - xs[i] * q) % p for s, q in zip(shifted, poly)]
        poly[0] = (poly[0] + coef[i]) % p
    return poly


# ---------------------------------------------------------------------------
# free-standing operations
# ---------------------------------------------------------------------------

def random_invertible(field: Fp, n: int, rng: Rng) -> Mat:
    """Uniform-ish invertible matrix; retries until nonsingular."""
    while True:
        M = Mat.random(field, n, n, rng)
        if M.det() != 0:
            return M


def kron(A: Mat, B: Mat) -> Mat:
    A.field.check_same(B.field)
    (ra, ca), (rb, cb) = A.rows.shape, B.rows.shape
    prods = A.field.kernel.mul(A.rows[:, None, :, None], B.rows[None, :, None, :])
    return Mat(A.field, prods.reshape(ra * rb, ca * cb))


def sylvester_rows(field: Fp, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The matrices A (x) I - I (x) B^T of X -> A X - X B on the row-major
    entries of square X, for a stack of (A, B) pairs: (..., s^2, s^2)."""
    s = A.shape[-1]
    I = np.eye(s, dtype=np.int64)
    left = A[..., :, None, :, None] * I[:, None, :]  # [a, c, b, d] = A[a, b] I[c, d]
    right = I[:, None, :, None] * np.swapaxes(B, -1, -2)[..., None, :, None, :]  # I[a, b] B[d, c]
    return field.kernel.sub(left, right).reshape(A.shape[:-2] + (s * s, s * s))


def assemble_block_diagonal(blocks: list[Mat]) -> Mat:
    field = blocks[0].field
    n = sum(b.nrows for b in blocks)
    out = Mat.zeros(field, n, n)
    at = 0
    for b in blocks:
        if b.nrows != b.ncols:
            raise ShapeMismatch("block-diagonal assembly needs square blocks")
        out.set_block(at, at, b)
        at += b.nrows
    return out


def poly_at_matrix(coeffs: list[int], M: Mat) -> Mat:
    """Evaluate a univariate polynomial (coeffs low-to-high) at a matrix by
    Horner's rule, one GEMM per coefficient."""
    k = M.field.kernel
    acc = k.zeros(M.rows.shape)
    diag = np.arange(M.nrows)
    for c in reversed(coeffs):
        acc = k.gemm(acc, M.rows)
        acc[diag, diag] = k.add(acc[diag, diag], c % M.field.p)
    return Mat(M.field, acc)


def in_span(field: Fp, basis: np.ndarray, v: np.ndarray) -> bool:
    """Exact membership of v in the span of the rows of basis: adding v keeps the rank."""
    return rank_rows(field, np.vstack([basis, v])) == rank_rows(field, basis)


def same_span(field: Fp, basis_a: np.ndarray, basis_b: np.ndarray) -> bool:
    """Equal-length spanning sets of one span: rank(A) == rank(A u B) == rank(B),
    tested in that order, so that a union that grows stops after two ranks."""
    if len(basis_a) != len(basis_b):
        return False
    r = rank_rows(field, basis_a)
    return r == rank_rows(field, np.concatenate([basis_a, basis_b])) == rank_rows(field, basis_b)
