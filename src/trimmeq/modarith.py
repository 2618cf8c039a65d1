"""Vectorized arithmetic kernels for every prime field.

Two lanes are provided, and this module alone decides which one runs and
what dtype residue arrays have:

* ``M61Kernel`` -- the default modulus 2^61 - 1 (Mersenne).  Products are
  computed limb-wise in int64 (31/30-bit splits) and reduced with shifts,
  so a full multiply costs ~25 elementwise numpy ops and never overflows
  a signed 64-bit intermediate; up to 64 products it runs on Python ints,
  which is cheaper at that size.
* ``SmallKernel`` -- every other prime, reducing with ``%``.  Residues are
  ``numpy.int64`` when p < 2^31, where ``a * b`` of canonical residues fits
  in int64 directly, and numpy ``object`` arrays of Python ints otherwise.

Everything here operates on canonical residues in [0, p) stored in the
kernel's ``dtype``; callers allocate residue arrays through ``asarray`` /
``zeros`` so they never depend on the lane.

Every matrix product is one exact float64 GEMM (``gemm``) on BLAS: residues
split into 21-bit limbs, and the inner dimension is cut into chunks of 2048
limb products, each below 2^42, so that every sum stays below 2^53, where
float64 is exact.  Rank, kernel basis and RREF come from one recursive
elimination that halves the columns (as LAPACK's ``dgetrf2`` does) down to a
first-nonzero-pivoting column step, whose pivot columns (``pivots``) are the
columns outside the span of those before them; determinants come from that
column step over a stack of matrices.
"""

from __future__ import annotations

from math import prod

import numpy as np

M61 = (1 << 61) - 1
_MASK31 = (1 << 31) - 1
_MASK30 = (1 << 30) - 1
_MASK61 = (1 << 61) - 1

_LIMB = 21
_K_CHUNK = 2048  # 2048 * (2^21 - 1)^2 < 2^53, where float64 stops being exact
_BLOCK_CELLS = 1 << 17  # one float64 temporary of gemm: 1 MB
# The recursion stops at 16 columns (rows of a triangular solve) or at
# 2^14 cells, below which numpy's per-call cost outweighs what GEMM saves.
_BASE_WIDTH = 16
_BASE_CELLS = 1 << 14
# Up to this many products, Python ints beat the ~25 numpy calls of the limb split.
_SMALL_MUL = 64


class _KernelBase:
    """Shared batched linear algebra built on top of mul/add/sub."""

    p: int
    dtype = np.int64

    # -- elementwise ops (implemented by subclasses) --------------------
    def mul(self, a, b):  # pragma: no cover - abstract
        raise NotImplementedError

    def add(self, a, b):  # pragma: no cover - abstract
        raise NotImplementedError

    def sub(self, a, b):  # pragma: no cover - abstract
        raise NotImplementedError

    def neg(self, a):
        return np.where(a == 0, a, self.p - a)

    def inv_many(self, a: np.ndarray) -> np.ndarray:
        """Inverses of a vector of residues; zeros stay zero."""
        return self.asarray([pow(x, -1, self.p) if x else 0 for x in a.tolist()])

    def asarray(self, rows) -> np.ndarray:
        return np.array(rows, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def uniform(self, py, shape) -> np.ndarray:
        """Uniform residues of the given shape, seeded from the
        ``random.Random`` stream ``py``."""
        gen = np.random.default_rng(py.getrandbits(63))
        return gen.integers(0, self.p, size=shape, dtype=self.dtype)

    # -- products ----------------------------------------------------------
    def _limbs(self, A: np.ndarray, count: int) -> list[np.ndarray]:
        """float64 limbs of the residues A, low to high: A = sum_t L_t 2^(21 t)."""
        return [((A >> (_LIMB * t)) & ((1 << _LIMB) - 1)).astype(np.float64) for t in range(count)]

    def _from_exact(self, X: np.ndarray) -> np.ndarray:
        """Residues of X, a float64 array of exact integers in [0, 2^53)."""
        X = X.astype(np.int64)
        if self.p < 1 << 53:
            X %= self.p
        return X.astype(self.dtype, copy=False)

    def gemm(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Exact (..., m, k) x (..., k, n) product mod p, batch axes broadcast.

        With A_s the limbs of A and B_s = 2^(21 s) B mod p, A B is
        sum_t (sum_s A_s (B_s)_t) 2^(21 t): each inner sum is one BLAS ``@``
        of the limbs of A side by side, on chunks of k small enough to be
        exact, reduced mod p and recombined with the lane's ``add``/``mul``.
        Large products are split in halves to bound the limb temporaries.
        """
        limbs = -(-self.p.bit_length() // _LIMB)
        (m, k), n = A.shape[-2:], B.shape[-1]
        if limbs * min(k, _K_CHUNK) * max(m, n) > _BLOCK_CELLS and max(m, n) > 1:
            if m >= n:
                return np.concatenate([self.gemm(A[..., : m // 2, :], B),
                                       self.gemm(A[..., m // 2 :, :], B)], axis=-2)
            return np.concatenate([self.gemm(A, B[..., : n // 2]), self.gemm(A, B[..., n // 2 :])],
                                  axis=-1)
        step = _K_CHUNK // limbs
        Bs = [B] + [self.mul(B, pow(2, _LIMB * s, self.p)) for s in range(1, limbs)]
        acc = [self.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (m, n))] * limbs
        for k0 in range(0, k, step):
            As = np.concatenate(self._limbs(A[..., k0 : k0 + step], limbs), axis=-1)
            parts = [self._limbs(Bj[..., k0 : k0 + step, :], limbs) for Bj in Bs]
            for t in range(limbs):
                Bt = np.concatenate([part[t] for part in parts], axis=-2)
                acc[t] = self.add(acc[t], self._from_exact(As @ Bt))
        C = acc[0]
        for t in range(1, limbs):
            C = self.add(C, self.mul(acc[t], pow(2, _LIMB * t, self.p)))
        return C

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(m, k) x (k, n) product."""
        return self.gemm(A, B)

    def batched_matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(r, k, N) x (k, c, N) product of N matrices stacked on the last axis."""
        return np.moveaxis(self.gemm(np.moveaxis(A, -1, 0), np.moveaxis(B, -1, 0)), 0, -1)

    # -- elimination -------------------------------------------------------
    def _column_step(self, R, r, c0, c1, piv) -> int:
        """Eliminate columns [c0, c1) of R from row r down, one pivot at a time,
        keeping the multipliers (entry / pivot) below each pivot; returns the
        number of pivots.  Rows are swapped whole."""
        r_start = r
        for c in range(c0, c1):
            nz = np.flatnonzero(R[r:, c])
            if nz.size == 0:
                continue
            if nz[0]:
                R[[r, r + nz[0]]] = R[[r + nz[0], r]]
            piv.append(c)
            rows = r + 1 + np.flatnonzero(R[r + 1 :, c])  # rows with a nonzero multiplier
            R[rows, c] = self.mul(R[rows, c], pow(int(R[r, c]), -1, self.p))
            R[rows, c + 1 : c1] = self.sub(
                R[rows, c + 1 : c1], self.mul(R[rows, c, None], R[r, None, c + 1 : c1]))
            r += 1
            if r == len(R):
                break
        return r - r_start

    def _factor_columns(self, R, r, c0, c1, piv) -> int:
        """``_column_step`` by halves, with the same pivots and result: the right
        half is updated by a triangular solve and one GEMM, then eliminated."""
        if c1 - c0 <= _BASE_WIDTH or (len(R) - r) * (c1 - c0) <= _BASE_CELLS:
            return self._column_step(R, r, c0, c1, piv)
        mid = (c0 + c1) // 2
        r1 = self._factor_columns(R, r, c0, mid, piv)
        if r1:
            left = piv[-r1:]
            top = R[r : r + r1, mid:c1]
            L = np.tril(R[r : r + r1, left], -1)  # the unit lower factor
            self._solve_unit_upper(L[::-1, ::-1], top[::-1])  # forward substitution
            R[r + r1 :, mid:c1] = self.sub(R[r + r1 :, mid:c1], self.gemm(R[r + r1 :, left], top))
        return r1 + self._factor_columns(R, r + r1, mid, c1, piv)

    def _solve_unit_upper(self, T: np.ndarray, B: np.ndarray) -> None:
        """B <- T^-1 B for T upper triangular with unit diagonal (not read)."""
        n = len(T)
        if n > _BASE_WIDTH and n * B.shape[1] > _BASE_CELLS:
            h = n // 2
            self._solve_unit_upper(T[h:, h:], B[h:])
            B[:h] = self.sub(B[:h], self.gemm(T[:h, h:], B[h:]))
            self._solve_unit_upper(T[:h, :h], B[:h])
            return
        for i in range(n - 1, 0, -1):
            if T[:i, i].any():
                B[:i] = self.sub(B[:i], self.mul(T[:i, i, None], B[i, None]))

    def _factor(self, M: np.ndarray):
        """(unit upper echelon form of M, pivot columns), found recursively."""
        R = self.asarray(M)
        piv: list[int] = []
        self._factor_columns(R, 0, 0, R.shape[1], piv)
        U = R[: len(piv)]
        for k, c in enumerate(piv):
            U[k + 1 :, c] = 0  # clear the stored multipliers
        inv = self.inv_many(U[np.arange(len(piv)), piv])
        rows = max(1, _BLOCK_CELLS // max(U.shape[1], 1))
        for i in range(0, len(piv), rows):  # unit pivots, a block of rows at a time
            U[i : i + rows] = self.mul(U[i : i + rows], inv[i : i + rows, None])
        return U, piv

    def rref(self, M: np.ndarray):
        """Fully reduced row echelon form.  Returns (R, pivot_columns)."""
        U, piv = self._factor(M)
        self._solve_unit_upper(U[:, piv], U)
        R = self.zeros(M.shape)
        R[: len(piv)] = U
        return R, piv

    def nullspace(self, M: np.ndarray) -> np.ndarray:
        """Kernel basis vectors, the rows of a (free, n) array, one per free
        column of the RREF: the echelon form back-solved on its free columns only."""
        U, piv = self._factor(M)
        free = sorted(set(range(U.shape[1])) - set(piv))
        F = U[:, free]
        self._solve_unit_upper(U[:, piv], F)
        basis = self.zeros((len(free), U.shape[1]))
        basis[np.arange(len(free)), free] = 1
        basis[:, piv] = self.neg(F).T
        return basis

    def pivots(self, M: np.ndarray) -> list[int]:
        """Pivot columns of M, in order: the columns outside the span of the
        columns before them."""
        piv: list[int] = []
        self._factor_columns(self.asarray(M), 0, 0, M.shape[1], piv)
        return piv

    def rank(self, M: np.ndarray) -> int:
        return len(self.pivots(M))

    def det_many(self, M) -> np.ndarray:
        """Determinants of a (B, n, n) stack: the column step over the
        leading axis, with a first-nonzero pivot search per matrix."""
        R = self.asarray(M)
        nb, n = R.shape[:2]
        R = R.reshape(nb, n, n)  # a stack of 0 x 0 matrices given as lists arrives as (B, 0)
        at, swaps = np.arange(nb), np.zeros(nb, dtype=np.int64)
        for c in range(n - 1):
            pr = c + (R[:, c:, c] != 0).argmax(axis=1)  # c where the column is zero
            if (pr != c).any():
                R[at, c], R[at, pr] = R[at, pr], R[at, c]
                swaps += pr != c
            f = self.mul(R[:, c + 1 :, c], self.inv_many(R[:, c, c])[:, None])
            R[:, c + 1 :, c + 1 :] = self.sub(
                R[:, c + 1 :, c + 1 :], self.mul(f[:, :, None], R[:, c, None, c + 1 :]))
        diag = R[:, np.arange(n), np.arange(n)].tolist()  # the pivots, or a zero
        return self.asarray([(-1) ** s * prod(d) % self.p for s, d in zip(swaps.tolist(), diag)])

    def det(self, M) -> int:
        return int(self.det_many([M])[0])


class M61Kernel(_KernelBase):
    """Limb-split multiply mod the Mersenne prime 2^61 - 1."""

    def __init__(self):
        self.p = M61

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.broadcast(a, b).size <= _SMALL_MUL:
            return (a.astype(object) * b % M61).astype(np.int64)
        a1 = a >> 31
        a0 = a & _MASK31
        b1 = b >> 31
        b0 = b & _MASK31
        h = a1 * b1                      # < 2^60
        m = a1 * b0 + a0 * b1            # < 2^62
        l = a0 * b0                      # < 2^62
        l = (l >> 61) + (l & _MASK61)
        # a*b = h*2^62 + m*2^31 + l;  2^61 == 1 (mod p)
        t = 2 * h + (m >> 30) + ((m & _MASK30) << 31) + l
        t = (t >> 61) + (t & _MASK61)
        t = t - M61
        return t + ((t >> 63) & M61)

    # branchless: an int64 sign bit selects the correction
    def add(self, a, b):
        r = a + b - M61
        return r + ((r >> 63) & M61)

    def sub(self, a, b):
        r = a - b
        return r + ((r >> 63) & M61)


class SmallKernel(_KernelBase):
    """``%``-reduced arithmetic for any prime other than 2^61 - 1.

    int64 residues when p < 2^31 (products of residues fit in int64),
    numpy object arrays of Python ints otherwise.
    """

    def __init__(self, p: int):
        self.p = p
        self.dtype = np.int64 if p < (1 << 31) else object

    def mul(self, a, b):
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        return (a * b) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def uniform(self, py, shape) -> np.ndarray:
        if self.dtype is not object:
            return super().uniform(py, shape)
        # Generator.integers stops at 2^63; the Python stream reaches any p
        vals = [py.randrange(self.p) for _ in range(int(np.prod(shape)))]
        return self.asarray(vals).reshape(shape)


_M61_SINGLETON = M61Kernel()


def get_kernel(p: int) -> _KernelBase:
    """The vectorized kernel for the prime p."""
    if p == M61:
        return _M61_SINGLETON
    return SmallKernel(p)
