"""Vectorized arithmetic kernels for every prime field.

Two lanes are provided, and this module alone decides which one runs and
what dtype residue arrays have:

* ``M61Kernel`` -- the default modulus 2^61 - 1 (Mersenne).  Products are
  computed limb-wise in uint64 (31/30-bit splits, in-place where the
  shapes allow) and reduced with one fold and one conditional subtract, so
  a full multiply costs ~20 elementwise numpy ops and no intermediate passes
  2^64; up to 64 products it runs on Python ints,
  which is cheaper at that size.  A multiply by 2^s (``mul_pow2``) is a
  rotation of the 61 bits, since 2^61 = 1.
* ``SmallKernel`` -- every other prime, reducing with ``%``.  Residues are
  ``numpy.int64`` when p < 2^31, where ``a * b`` of canonical residues fits
  in int64 directly, and numpy ``object`` arrays of Python ints otherwise.

Everything here operates on canonical residues in [0, p) stored in the
kernel's ``dtype``; callers allocate residue arrays through ``asarray`` /
``zeros`` so they never depend on the lane.

Every matrix product is one exact float64 GEMM (``gemm``) on BLAS: residues
split into 21-bit limbs, the limb products A_s B_t are summed by u = s + t
in one BLAS product per u (as FFLAS-FFPACK groups them), and the inner
dimension is cut into chunks of 2048 limb products, each below 2^42, so that
every sum stays below 2^53, where float64 is exact; each of the 2 limbs - 1
sums is reduced and multiplied by 2^(21 u).  On M61 that multiply is a
rotation that keeps each sum below 2^61, so the five rotated sums add up
below 2^64 in uint64 and the product is reduced once.

Rank, kernel basis and RREF come from one recursive elimination that halves
the columns (as LAPACK's ``dgetrf2`` does), with the pivots of first-nonzero
pivoting, whose pivot columns (``pivots``) are the columns outside the span
of those before them.  A system of at most 64 cells, the size up to which
``M61Kernel.mul`` runs on Python ints, is reduced instead by one Gauss-Jordan
pass on Python ints (``_gauss_jordan``), which gives the same RREF and
pivots, and the determinants of a stack of at most 64 cells.  A system with
more than 64 rows below the current one halves down to panels of at most 16
columns.  When every leading pivot of a panel's top block is nonzero, which
is when first-nonzero pivoting takes its rows in order without a swap, the
block is factored as L U on Python ints and the multipliers below it are one
GEMM by U^-1 (``_panel_step``); otherwise, and on a shorter system, up to 256
columns at once, the column step eliminates one pivot at a time.  On a tall
system each level's forward substitution is one GEMM by the inverse of its
left half's unit lower factor, which a panel forms on Python ints and a
level merges from its halves'.  Determinants of a larger stack come from
the column step over the stack.  The forward substitutions of a short
system and the back-solves of RREF and kernel basis halve the triangle down
to 16 rows; a base applies its inverse, formed on Python ints, in one GEMM to
a right-hand side of 16 columns or more, and updates a narrower one row by
row.  Every batch of inverses (``inv_many``, a triangle's diagonal) costs
one ``pow``: Montgomery's batch inversion (Math. Comp. 48, 1987).
"""

from __future__ import annotations

from math import prod

import numpy as np

M61 = (1 << 61) - 1
# uint64 shifts and masks of the M61 multiply
_U1, _U30, _U31, _U61 = (np.uint64(s) for s in (1, 30, 31, 61))
_U_MASK30, _U_MASK31, _U_MASK61 = (np.uint64((1 << s) - 1) for s in (30, 31, 61))

_LIMB = 21
_K_CHUNK = 2048  # 2048 * (2^21 - 1)^2 < 2^53, where float64 stops being exact
_BLOCK_CELLS = 1 << 17  # one float64 temporary of gemm: 1 MB
# A system with more than _TALL_ROWS rows below the current one is eliminated
# in panels of at most _BASE_WIDTH columns; a shorter one by the column step on
# up to _SHORT_WIDTH columns at once, where numpy's per-call cost outweighs
# what GEMM saves.  A triangular solve halves down to _BASE_WIDTH rows.
_BASE_WIDTH = 16
_TALL_ROWS = 64
_SHORT_WIDTH = 256
# Up to this many products, Python ints beat the ~25 numpy calls of the limb split;
# up to this many cells, a system or a stack of determinants is reduced on Python ints.
_SMALL_MUL = 64


def _inverses(xs: list[int], p: int) -> list[int]:
    """Inverses of residues mod p, zeros staying zero, with one ``pow``:
    Montgomery's batch inversion inverts the product of the nonzero entries
    and peels it back with three products per entry."""
    prefix, acc = [], 1
    for x in xs:
        prefix.append(acc)
        if x:
            acc = acc * x % p
    inv, out = pow(acc, -1, p), [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        if xs[i]:
            out[i] = inv * prefix[i] % p
            inv = inv * xs[i] % p
    return out


def _upper_inverse(U: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of a nonsingular upper triangular matrix, on Python ints; the
    entries below the diagonal are not read."""
    n = len(U)
    X = [[0] * n for _ in range(n)]
    D = _inverses([U[i][i] for i in range(n)], p)
    for i in range(n - 1, -1, -1):
        d = X[i][i] = D[i]
        for j in range(i + 1, n):
            X[i][j] = -d * sum(U[i][t] * X[t][j] for t in range(i + 1, j + 1)) % p
    return X


def _unit_lower_inverse(L: list[list[int]], p: int) -> list[list[int]]:
    """Inverse of a lower triangular matrix with unit diagonal, on Python
    ints; the entries on and above the diagonal are not read."""
    n = len(L)
    T = [[1 if i == j else L[j][i] for j in range(n)] for i in range(n)]
    return [list(r) for r in zip(*_upper_inverse(T, p))]


def _gauss_jordan(A: list[list[int]], p: int) -> tuple[list[int], int]:
    """A <- its RREF in place, by first-nonzero pivoting on Python ints.
    Returns the pivot columns and, for a square A, its determinant (0 for
    any other shape)."""
    m, n = len(A), len(A[0]) if A else 0
    piv: list[int] = []
    det = 1
    for c in range(n):
        r = len(piv)
        if r == m:
            break
        i = next((i for i in range(r, m) if A[i][c]), None)
        if i is None:
            continue
        if i != r:
            A[r], A[i] = A[i], A[r]
            det = -det
        d = A[r][c]
        det = det * d % p
        inv = pow(d, -1, p)
        row = A[r][c:] = [x * inv % p for x in A[r][c:]]
        for i in range(m):
            f = A[i][c]
            if f and i != r:
                A[i][c:] = [(x - f * y) % p for x, y in zip(A[i][c:], row)]
        piv.append(c)
    return piv, det if len(piv) == m == n else 0


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

    def mul_pow2(self, a, s: int):
        """a * 2^s."""
        return self.mul(a, pow(2, s, self.p))

    def inv_many(self, a: np.ndarray) -> np.ndarray:
        """Inverses of a vector of residues; zeros stay zero."""
        return self.asarray(_inverses(a.tolist(), self.p))

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

        With A_s and B_t the limbs of A and B, A B is sum_u S_u 2^(21 u) with
        S_u = sum_{s+t=u} A_s B_t: each S_u is one BLAS ``@`` of the limbs
        A_s side by side against the limbs B_(u-s) stacked, on chunks of k
        small enough to be exact, since S_u adds at most ``limbs`` products
        per k; the sums are reduced mod p and each is multiplied by
        2^(21 u) once.  Large products are split in halves to bound the limb
        temporaries.
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
        acc = None
        for k0 in range(0, max(k, 1), step):  # k = 0 is one empty chunk
            kc = min(step, k - k0)
            # A_0 .. A_(L-1) side by side, B_(L-1) .. B_0 stacked
            As = np.concatenate(self._limbs(A[..., k0 : k0 + kc], limbs), axis=-1)
            Bs = np.concatenate(self._limbs(B[..., k0 : k0 + kc, :], limbs)[::-1], axis=-2)
            sums = []
            for u in range(2 * limbs - 1):
                lo, hi = max(0, u - limbs + 1), min(u, limbs - 1) + 1  # A_lo .. A_(hi-1)
                b0 = limbs - 1 - u + lo  # where B_(u-lo) sits in Bs
                sums.append(self._from_exact(
                    As[..., lo * kc : hi * kc] @ Bs[..., b0 * kc : (b0 + hi - lo) * kc, :]))
            acc = sums if acc is None else [self.add(a, S) for a, S in zip(acc, sums)]
        return self._recombine(acc)

    def _recombine(self, sums: list[np.ndarray]) -> np.ndarray:
        """sum_u S_u 2^(21 u) mod p, for the reduced limb sums S_u."""
        C = sums[0]
        for u in range(1, len(sums)):
            C = self.add(C, self.mul_pow2(sums[u], _LIMB * u))
        return C

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """(m, k) x (k, n) product."""
        return self.gemm(A, B)

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

    def _panel_step(self, R, r, c0, c1, piv, inverse):
        """``_column_step`` on a panel of a tall system, with the same pivots and
        result, returned as by ``_factor_columns``.  When every leading pivot
        of its top block R[r : r + b, c0 : c1] is nonzero, first-nonzero
        pivoting takes rows r .. r + b - 1 without a swap: the block is
        factored as L U on Python ints and stored in place, and the
        multipliers of the rows below, their panel entries times U^-1, are one
        GEMM.  Otherwise the column step runs."""
        b, p = c1 - c0, self.p
        A = R[r : r + b, c0:c1].tolist()
        for j in range(b):
            if not A[j][j]:
                return self._column_base(R, r, c0, c1, piv, inverse)
            inv = pow(A[j][j], -1, p)
            for i in range(j + 1, b):
                if A[i][j]:
                    f = A[i][j] = A[i][j] * inv % p
                    A[i][j + 1 :] = [(x - f * y) % p for x, y in zip(A[i][j + 1 :], A[j][j + 1 :])]
        R[r : r + b, c0:c1] = self.asarray(A)
        R[r + b :, c0:c1] = self.gemm(R[r + b :, c0:c1], self.asarray(_upper_inverse(A, p)))
        piv.extend(range(c0, c1))
        return b, self.asarray(_unit_lower_inverse(A, p)) if inverse else None

    def _column_base(self, R, r, c0, c1, piv, inverse):
        """``_column_step``, returned as by ``_factor_columns``: the inverse of
        its unit lower factor is formed from its result on Python ints."""
        k = self._column_step(R, r, c0, c1, piv)
        if not inverse:
            return k, None
        L = R[r : r + k, piv[len(piv) - k :]].tolist()
        return k, self.asarray(_unit_lower_inverse(L, self.p)).reshape(k, k)

    def _factor_columns(self, R, r, c0, c1, piv, inverse=False):
        """``_column_step`` by halves, with the same pivots and result: the right
        half is updated by a forward substitution and one GEMM, then
        eliminated.  A tall system halves down to panels of 16 columns, a
        short one down to the column step on 256.

        Returns the number of pivots and, when ``inverse`` is set, the inverse
        of their unit lower factor L (else None).  A node of a tall system
        asks its left half for it, so that its forward substitution is one
        GEMM; a short system's substitution is the triangular solve.  A node
        asked for it merges its halves' as [[Li^-1, 0], [-Lj^-1 Lji Li^-1,
        Lj^-1]], Lji the multipliers of the right half's pivot rows in the
        left half's pivot columns."""
        tall = len(R) - r > _TALL_ROWS
        if c1 - c0 <= (_BASE_WIDTH if tall else _SHORT_WIDTH):
            return (self._panel_step if tall else self._column_base)(R, r, c0, c1, piv, inverse)
        mid = (c0 + c1) // 2
        r1, Li = self._factor_columns(R, r, c0, mid, piv, tall or inverse)
        left = piv[len(piv) - r1 :]
        if r1:
            top = R[r : r + r1, mid:c1]
            if Li is None:
                L = np.tril(R[r : r + r1, left], -1)
                self._solve_unit_upper(L[::-1, ::-1], top[::-1])
            else:
                top[:] = self.gemm(Li, top)
            R[r + r1 :, mid:c1] = self.sub(R[r + r1 :, mid:c1], self.gemm(R[r + r1 :, left], top))
        r2, Lj = self._factor_columns(R, r + r1, mid, c1, piv, inverse)
        if not inverse:
            return r1 + r2, None
        if not (r1 and r2):
            return r1 + r2, Lj if r2 else Li
        X = self.zeros((r1 + r2, r1 + r2))
        X[:r1, :r1], X[r1:, r1:] = Li, Lj
        X[r1:, :r1] = self.neg(self.gemm(Lj, self.gemm(R[r + r1 : r + r1 + r2, left], Li)))
        return r1 + r2, X

    def _solve_unit_upper(self, T: np.ndarray, B: np.ndarray) -> None:
        """B <- T^-1 B for T upper triangular with unit diagonal (not read):
        halves down to 16 rows, whatever the width of B, so that the work
        is in GEMMs.  At the base, a B of 16 columns or more takes the
        triangle's inverse, formed on Python ints, in one GEMM; a narrower
        one is updated row by row."""
        n = len(T)
        if n > _BASE_WIDTH:
            h = n // 2
            self._solve_unit_upper(T[h:, h:], B[h:])
            B[:h] = self.sub(B[:h], self.gemm(T[:h, h:], B[h:]))
            self._solve_unit_upper(T[:h, :h], B[:h])
            return
        if n > 1 and B.shape[1] >= _BASE_WIDTH:
            U = T.tolist()
            for i in range(n):
                U[i][i] = 1
            B[:] = self.gemm(self.asarray(_upper_inverse(U, self.p)), B)
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

    def _rref_small(self, M: np.ndarray):
        """``rref`` of a system of at most 64 cells, on Python ints."""
        A = M.tolist()
        piv, _ = _gauss_jordan(A, self.p)
        return self.asarray(A).reshape(M.shape), piv

    def rref(self, M: np.ndarray):
        """Fully reduced row echelon form.  Returns (R, pivot_columns)."""
        if M.size <= _SMALL_MUL:
            return self._rref_small(M)
        U, piv = self._factor(M)
        self._solve_unit_upper(U[:, piv], U)
        R = self.zeros(M.shape)
        R[: len(piv)] = U
        return R, piv

    def nullspace(self, M: np.ndarray) -> np.ndarray:
        """Kernel basis vectors, the rows of a (free, n) array, one per free
        column of the RREF: the echelon form back-solved on its free columns
        only, or the RREF of a system of at most 64 cells."""
        small = M.size <= _SMALL_MUL
        U, piv = self._rref_small(M) if small else self._factor(M)
        n = M.shape[1]
        free = sorted(set(range(n)) - set(piv))
        F = U[: len(piv), free]
        if not small:
            self._solve_unit_upper(U[:, piv], F)
        basis = self.zeros((len(free), n))
        basis[np.arange(len(free)), free] = 1
        basis[:, piv] = self.neg(F).T
        return basis

    def pivots(self, M: np.ndarray) -> list[int]:
        """Pivot columns of M, in order: the columns outside the span of the
        columns before them."""
        if M.size <= _SMALL_MUL:
            return _gauss_jordan(M.tolist(), self.p)[0]
        piv: list[int] = []
        self._factor_columns(self.asarray(M), 0, 0, M.shape[1], piv)
        return piv

    def rank(self, M: np.ndarray) -> int:
        return len(self.pivots(M))

    def det_many(self, M) -> np.ndarray:
        """Determinants of a (B, n, n) stack: on Python ints, matrix by matrix,
        when the stack has at most 64 cells, otherwise the column step over
        the leading axis, with a first-nonzero pivot search per matrix."""
        R = self.asarray(M)
        nb, n = R.shape[:2]
        R = R.reshape(nb, n, n)  # a stack of 0 x 0 matrices given as lists arrives as (B, 0)
        if R.size <= _SMALL_MUL:
            return self.asarray([_gauss_jordan(A, self.p)[1] for A in R.tolist()])
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


def _fold(t: np.ndarray) -> np.ndarray:
    """The canonical residue mod 2^61 - 1 of a uint64 array t, in place:
    t >> 61 < 8, so one fold leaves t < 2^61 + 8 and one subtract makes it
    canonical."""
    m = t >> _U61
    t &= _U_MASK61
    t += m
    t = t.view(np.int64)
    t -= M61
    t += (t >> 63) & M61
    return t


class M61Kernel(_KernelBase):
    """Limb-split multiply mod the Mersenne prime 2^61 - 1."""

    def __init__(self):
        self.p = M61

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if np.broadcast(a, b).size <= _SMALL_MUL:
            return (a.astype(object) * b % M61).astype(np.int64)
        a, b = a.view(np.uint64), b.view(np.uint64)
        a1, a0 = a >> _U31, a & _U_MASK31
        b1, b0 = b >> _U31, b & _U_MASK31
        # a*b = h*2^62 + m*2^31 + l with h = a1*b1 < 2^60, m = a1*b0 + a0*b1 < 2^62
        # and l = a0*b0 < 2^62; since 2^61 == 1 (mod p), a*b == t below, and
        # t < 2^61 + 2^32 + 2^61 + 2^62 < 2^64 fits in uint64 unfolded
        m = a1 * b0
        m += a0 * b1
        t = a1 * b1
        t <<= _U1
        t += m >> _U30
        m &= _U_MASK30
        m <<= _U31
        t += m
        t += a0 * b0
        return _fold(t)

    def _recombine(self, sums):
        """sum_u S_u 2^(21 u) reduced once: each rotated S_u is below 2^61, so
        the 2 limbs - 1 = 5 of them sum below 2^64 in uint64."""
        t = sums[0].astype(np.uint64)
        for u in range(1, len(sums)):
            t += self.mul_pow2(sums[u], _LIMB * u).view(np.uint64)
        return _fold(t)

    def mul_pow2(self, a, s: int):
        """a * 2^s as a rotation of the 61 bits, since 2^61 = 1: the high s
        bits wrap around to the bottom.  Canonical residues stay canonical."""
        s %= 61
        a = np.asarray(a, dtype=np.int64)
        return ((a & ((1 << (61 - s)) - 1)) << s) | (a >> (61 - s))

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
