"""Vectorized arithmetic kernels for every prime field.

Two lanes are provided, and this module alone decides which one runs and
what dtype residue arrays have:

* ``M61Kernel`` -- the default modulus 2^61 - 1 (Mersenne).  Products are
  computed limb-wise in int64 (31/30-bit splits) and reduced with shifts,
  so a full multiply costs ~25 elementwise numpy ops and never overflows
  a signed 64-bit intermediate.
* ``SmallKernel`` -- every other prime, reducing with ``%``.  Residues are
  ``numpy.int64`` when p < 2^31, where ``a * b`` of canonical residues fits
  in int64 directly, and numpy ``object`` arrays of Python ints otherwise.

Everything here operates on canonical residues in [0, p) stored in the
kernel's ``dtype``; callers allocate residue arrays through ``asarray`` /
``zeros`` so they never depend on the lane.  Rank, determinant, kernel
basis and RREF all derive from one forward elimination.
"""

from __future__ import annotations

import numpy as np

M61 = (1 << 61) - 1
_MASK31 = (1 << 31) - 1
_MASK30 = (1 << 30) - 1
_MASK61 = (1 << 61) - 1


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

    def inv_scalar(self, a: int) -> int:
        return pow(a, self.p - 2, self.p)

    def asarray(self, rows) -> np.ndarray:
        return np.array(rows, dtype=self.dtype)

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=self.dtype)

    def uniform(self, py, shape) -> np.ndarray:
        """Uniform residues of the given shape, seeded from the
        ``random.Random`` stream ``py``."""
        gen = np.random.default_rng(py.getrandbits(63))
        return gen.integers(0, self.p, size=shape, dtype=self.dtype)

    # -- batched helpers -------------------------------------------------
    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(m,k) x (k,n) product; accumulates one rank-1 term at a time."""
        m, k = A.shape
        k2, n = B.shape
        assert k == k2
        C = self.zeros((m, n))
        for t in range(k):
            C = self.add(C, self.mul(A[:, t : t + 1], B[t : t + 1, :]))
        return C

    def batched_matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(r, k, N) x (k, c, N) product of N matrices stacked on the last axis."""
        r, k, nb = A.shape
        c = B.shape[1]
        C = self.zeros((r, c, nb))
        for i in range(r):
            for j in range(c):
                acc = C[i, j]
                for u in range(k):
                    acc = self.add(acc, self.mul(A[i, u], B[u, j]))
                C[i, j] = acc
        return C

    def _eliminate(self, R: np.ndarray):
        """Forward elimination of R in place, first-nonzero pivoting.

        Yields (row, column, swapped) for each pivot once it has been swapped
        into place and before its row is scaled to a unit pivot and cleared
        below; a caller that stops iterating stops the elimination there.
        """
        m, n = R.shape
        r = 0
        for c in range(n):
            if r == m:
                return
            nz = np.nonzero(R[r:, c])[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                R[[r, pr]] = R[[pr, r]]
            yield r, c, pr != r
            inv = self.inv_scalar(int(R[r, c]))
            R[r, c:] = self.mul(R[r, c:], inv)
            if r + 1 < m:
                f = R[r + 1 :, c]
                R[r + 1 :, c:] = self.sub(
                    R[r + 1 :, c:], self.mul(f[:, None], R[r, c:][None, :])
                )
            r += 1

    def _echelon(self, M: np.ndarray):
        """(unit row echelon copy of M, pivot columns)."""
        R = self.asarray(M)
        return R, [c for _, c, _ in self._eliminate(R)]

    def rref(self, M: np.ndarray):
        """Fully reduced row echelon form.  Returns (R, pivot_columns)."""
        R, pivots = self._echelon(M)
        # eliminate above pivots, bottom-up
        for i in range(len(pivots) - 1, 0, -1):
            c = pivots[i]
            f = R[:i, c]
            if np.any(f):
                R[:i, c:] = self.sub(R[:i, c:], self.mul(f[:, None], R[i, c:][None, :]))
        return R, pivots

    def nullspace(self, M: np.ndarray):
        """Kernel basis vectors (list of arrays of length n).

        Avoids the full RREF back-pass: after forward elimination only the
        free columns are back-substituted, which is what dominates on the
        (n^2+32) x n^2 systems this package solves.
        """
        R, pivots = self._echelon(M)
        n = R.shape[1]
        rank = len(pivots)
        free = [c for c in range(n) if c not in set(pivots)]
        if not free:
            return []
        F = R[:rank, free].copy()  # rank x nfree
        # back-substitute pivot columns bottom-up; updates touch free cols only
        for i in range(rank - 1, 0, -1):
            c = pivots[i]
            f = R[:i, c]
            if np.any(f):
                F[:i] = self.sub(F[:i], self.mul(f[:, None], F[i][None, :]))
        basis = []
        for t, fc in enumerate(free):
            v = self.zeros(n)
            v[fc] = 1
            v[pivots] = self.neg(F[:, t])
            basis.append(v)
        return basis

    def rank(self, M: np.ndarray) -> int:
        return len(self._echelon(M)[1])

    def det(self, M: np.ndarray) -> int:
        R = self.asarray(M)
        d = 1
        rank = 0
        for r, c, swapped in self._eliminate(R):
            if c != r:
                return 0
            if swapped:
                d = self.p - d
            d = (d * int(R[r, c])) % self.p
            rank += 1
        return d if rank == len(R) else 0


class M61Kernel(_KernelBase):
    """Limb-split multiply mod the Mersenne prime 2^61 - 1."""

    def __init__(self):
        self.p = M61

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
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
