"""Dense exact linear algebra over F_p.

Matrices are lists of rows of canonical ints wrapped in :class:`Mat`.
Elimination-heavy routines (rank, determinant, kernel basis, RREF) run on
the field's vectorized kernel (:mod:`trimmeq.modarith`), which has a lane
for every prime; first-nonzero pivoting suffices, since exact arithmetic
needs no numerical pivot strategy.  Span membership and span equality are
rank comparisons, and ``poly_at_matrix`` runs Horner's rule through the
kernel's GEMM.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ShapeMismatch, Singular
from .field import Fp, Rng

Vec = list  # vectors over F_p are plain lists of ints


# ---------------------------------------------------------------------------
# kernel front ends (accept list-rows or ndarray, return Python lists)
# ---------------------------------------------------------------------------

def _as_residues(field: Fp, rows) -> np.ndarray:
    return rows if isinstance(rows, np.ndarray) else field.kernel.asarray(rows)


def nullspace_rows(field: Fp, rows) -> list[list[int]]:
    """Kernel basis of the row system ``rows . x = 0``."""
    if isinstance(rows, np.ndarray):
        m, n = rows.shape
    else:
        m = len(rows)
        n = len(rows[0]) if m else 0
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    return [[int(x) for x in v] for v in field.kernel.nullspace(_as_residues(field, rows))]


def rank_rows(field: Fp, rows) -> int:
    if isinstance(rows, np.ndarray):
        if rows.size == 0:
            return 0
    elif not rows:
        return 0
    return field.kernel.rank(_as_residues(field, rows))


def rref_rows(field: Fp, rows):
    """Reduced row echelon form; returns (rref rows as lists, pivot cols)."""
    if len(rows) == 0:
        return [], []
    R, piv = field.kernel.rref(_as_residues(field, rows))
    return [[int(x) for x in r] for r in R], piv


# ---------------------------------------------------------------------------
# the matrix type
# ---------------------------------------------------------------------------

class Mat:
    """Dense matrix over F_p (row-major list of lists of canonical ints)."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Fp, rows: list[list[int]]):
        self.field = field
        self.rows = rows

    # -- constructors -----------------------------------------------------
    @staticmethod
    def from_rows(field: Fp, rows) -> "Mat":
        """Integer entries, reduced mod p; any other entry raises InputError."""
        p = field.p
        rows = [list(r) for r in rows]
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                   for r in rows for x in r):
            raise InputError("matrix entries must be integers")
        rows = [[int(x) % p for x in r] for r in rows]
        if any(len(r) != len(rows[0]) for r in rows):
            raise ShapeMismatch("ragged matrix rows")
        return Mat(field, rows)

    @staticmethod
    def zeros(field: Fp, r: int, c: int) -> "Mat":
        return Mat(field, [[0] * c for _ in range(r)])

    @staticmethod
    def identity(field: Fp, n: int) -> "Mat":
        return Mat(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def random(field: Fp, r: int, c: int, rng: Rng) -> "Mat":
        return Mat(field, rng.matrix(field, r, c))

    # -- basics -----------------------------------------------------------
    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def copy(self) -> "Mat":
        return Mat(self.field, [list(r) for r in self.rows])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):  # pragma: no cover
        return hash((self.field, tuple(map(tuple, self.rows))))

    def __repr__(self):
        return f"Mat({self.nrows}x{self.ncols} mod {self.field.p})"

    def to_numpy(self) -> np.ndarray:
        return self.field.kernel.asarray(self.rows)

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        self.field.check_same(other.field)
        p = self.field.p
        return Mat(
            self.field,
            [[(a + b) % p for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __sub__(self, other: "Mat") -> "Mat":
        self.field.check_same(other.field)
        p = self.field.p
        return Mat(
            self.field,
            [[(a - b) % p for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
        )

    def __neg__(self) -> "Mat":
        p = self.field.p
        return Mat(self.field, [[-a % p for a in r] for r in self.rows])

    def scale(self, c: int) -> "Mat":
        p = self.field.p
        c %= p
        return Mat(self.field, [[a * c % p for a in r] for r in self.rows])

    def __mul__(self, other: "Mat") -> "Mat":
        self.field.check_same(other.field)
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.ncols} cols vs {other.nrows} rows")
        p = self.field.p
        bt = list(zip(*other.rows))
        out = [
            [sum(a * b for a, b in zip(row, col)) % p for col in bt]
            for row in self.rows
        ]
        return Mat(self.field, out)

    def matvec(self, v: Vec) -> Vec:
        if self.ncols != len(v):
            raise ShapeMismatch(f"{self.ncols} cols vs vector of {len(v)}")
        p = self.field.p
        return [sum(a * b for a, b in zip(row, v)) % p for row in self.rows]

    def transpose(self) -> "Mat":
        return Mat(self.field, [list(r) for r in zip(*self.rows)])

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.nrows)) % self.field.p

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.rows)

    def flatten(self) -> Vec:
        return [x for r in self.rows for x in r]

    # -- elimination-backed operations -------------------------------------
    def rank(self) -> int:
        return rank_rows(self.field, self.rows)

    def nullspace(self) -> list[Vec]:
        return nullspace_rows(self.field, self.rows)

    def det(self) -> int:
        if self.nrows != self.ncols:
            raise ShapeMismatch("det of non-square matrix")
        return self.field.kernel.det(self.to_numpy())

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.det() != 0

    def inverse(self) -> "Mat":
        n = self.nrows
        if n != self.ncols:
            raise ShapeMismatch("inverse of non-square matrix")
        aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        R, piv = rref_rows(self.field, aug)
        if piv != list(range(n)):
            raise Singular("matrix is singular")
        return Mat(self.field, [r[n:] for r in R])

    def solve(self, b: Vec):
        """A particular solution of self.x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise ShapeMismatch(f"{self.nrows} equations vs right-hand side of {len(b)}")
        aug = [list(r) + [bv] for r, bv in zip(self.rows, b)]
        R, piv = rref_rows(self.field, aug)
        n = self.ncols
        if any(c >= n for c in piv):
            return None
        x = [0] * n
        for i, c in enumerate(piv):
            x[c] = R[i][n]
        return x

    def charpoly(self) -> list[int]:
        """Monic characteristic polynomial det(tI - M), coeffs low-to-high.

        Evaluation at n+1 points (one stack of determinants) followed by
        interpolation; needs p > n, which the modulus policy guarantees.
        """
        n = self.nrows
        if n != self.ncols:
            raise ShapeMismatch("charpoly of non-square matrix")
        p = self.field.p
        ts = list(range(n + 1))
        stack = [[[((t if i == j else 0) - x) % p for j, x in enumerate(row)]
                  for i, row in enumerate(self.rows)] for t in ts]
        return newton_interp(p, ts, self.field.kernel.det_many(stack).tolist())

    # -- block structure ----------------------------------------------------
    def block(self, r0: int, c0: int, h: int, w: int) -> "Mat":
        return Mat(self.field, [row[c0 : c0 + w] for row in self.rows[r0 : r0 + h]])

    def set_block(self, r0: int, c0: int, B: "Mat"):
        for i, row in enumerate(B.rows):
            self.rows[r0 + i][c0 : c0 + len(row)] = row


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
    p = A.field.p
    out = []
    for ra in A.rows:
        for rb in B.rows:
            out.append([a * b % p for a in ra for b in rb])
    return Mat(A.field, out)


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
    A = M.to_numpy()
    acc = k.zeros(A.shape)
    diag = np.arange(M.nrows)
    for c in reversed(coeffs):
        acc = k.gemm(acc, A)
        acc[diag, diag] = k.add(acc[diag, diag], c % M.field.p)
    return Mat(M.field, acc.tolist())


def in_span(field: Fp, basis: list[Vec], v: Vec) -> bool:
    """Exact membership of v in span(basis): adding v keeps the rank."""
    return rank_rows(field, [*basis, [x % field.p for x in v]]) == rank_rows(field, basis)


def same_span(field: Fp, basis_a: list[Vec], basis_b: list[Vec]) -> bool:
    """Equal-length spanning sets of one span: rank(A) == rank(A u B) == rank(B),
    tested in that order, so that a union that grows stops after two ranks."""
    if len(basis_a) != len(basis_b):
        return False
    r = rank_rows(field, basis_a)
    return r == rank_rows(field, [*basis_a, *basis_b]) == rank_rows(field, basis_b)
