"""Determinant-equivalence oracles and the matrix-multiplication-tensor oracle.

A DET oracle takes a degree-w polynomial g in w^2 variables and returns a
w x w linear matrix X' with det(X') = g, or None when g is not equivalent
to the w x w determinant.  Two implementations: a genuine one for w = 2
(quadratic form classification over F_p is classical and constructive) and
a planted one for tests at larger w, which answers from registered secret
layer matrices.  Every answer is identity-tested before it is returned.
"""

from __future__ import annotations

import numpy as np

from .field import Fp, Rng
from .linalg import Mat
from .poly import ExplicitBlackbox, LinMat, MPoly, det_linear_matrix, pit_equal
from .trimm import TrimmShape, block_to_layer


def _gram_matrix(g: MPoly) -> Mat | None:
    """Symmetric Gram matrix of a homogeneous quadratic, or None."""
    field = g.field
    n = g.n
    half = field.inv(2)
    G = Mat.zeros(field, n, n)
    for e, c in g.terms.items():
        if sum(e) != 2:
            return None
        nz = [i for i, x in enumerate(e) if x]
        if len(nz) == 1:
            G.rows[nz[0], nz[0]] = c % field.p
        else:
            i, j = nz
            G.rows[i, j] = c * half % field.p
            G.rows[j, i] = G.rows[i, j]
    return G


def _congruence_diagonalize(G: Mat) -> tuple[Mat, list[int]]:
    """S with S^T G S diagonal (symmetric elimination over F_p, p odd).

    A vanishing diagonal pivot is repaired by swapping in a later diagonal
    entry or, failing that, completing a hyperbolic pair by a column add.
    """
    field = G.field
    k = field.kernel
    n = G.nrows
    A = G.rows.copy()
    S = Mat.identity(field, n)

    def col_op(dst, src, c):
        # x_dst <- x_dst + c * x_src applied to the form and the transform
        A[:, dst] = k.add(A[:, dst], k.mul(A[:, src], c))
        A[dst] = k.add(A[dst], k.mul(A[src], c))
        S.rows[:, dst] = k.add(S.rows[:, dst], k.mul(S.rows[:, src], c))

    def col_swap(i, j):
        A[:, [i, j]] = A[:, [j, i]]
        A[[i, j]] = A[[j, i]]
        S.rows[:, [i, j]] = S.rows[:, [j, i]]

    for t in range(n):
        if A[t, t] == 0:
            later = t + 1 + np.flatnonzero(A.diagonal()[t + 1 :])
            off = t + 1 + np.flatnonzero(A[t, t + 1 :])
            if later.size:
                col_swap(t, later[0])
            elif off.size:
                col_op(t, off[0], 1)  # makes A[t][t] = 2 A[t][off] != 0
            else:
                continue  # row/col t already zero
        inv = field.inv(int(A[t, t]))
        for l in range(t + 1, n):
            c = int(A[t, l])
            if c:
                col_op(l, t, -c * inv % field.p)
    return S, A.diagonal().tolist()


def _canonicalize_diagonal(field: Fp, diag: list[int]) -> tuple[Mat, int]:
    """T with T^T diag(d) T = diag(1, .., 1, delta); all d_i nonzero.

    Entry i is scaled when d_i is a square and otherwise merged with entry
    i+1 through an explicit rotation (a binary form over F_p represents 1).
    """
    p = field.p
    n = len(diag)
    d = [x % p for x in diag]
    T = Mat.identity(field, n)

    for i in range(n - 1):
        r = field.sqrt(d[i])
        if r is not None:
            T.rows[:, i] = field.kernel.mul(T.rows[:, i], field.inv(r))
            d[i] = 1
            continue
        # find a, b with d_i a^2 + d_{i+1} b^2 = 1 (deterministic scan)
        found = None
        a = 1
        while found is None:
            rhs = (1 - d[i] * a * a) % p
            b2 = rhs * field.inv(d[i + 1]) % p
            b = field.sqrt(b2)
            if b is not None and b != 0:
                found = (a, b)
            a += 1
        a, b = found
        di, dj = d[i], d[i + 1]
        # new basis: v1 = a e_i + b e_{i+1},  v2 = -dj*b e_i + di*a e_{i+1}
        rot = Mat(field, [[a, -dj * b % p], [b, di * a % p]])
        T.rows[:, i : i + 2] = (T.block(0, i, n, 2) * rot).rows
        d[i] = 1
        d[i + 1] = di * dj % p
    # last entry: pull out the square part
    r = field.sqrt(d[n - 1])
    if r is not None and d[n - 1] != 0:
        T.rows[:, n - 1] = field.kernel.mul(T.rows[:, n - 1], field.inv(r))
        d[n - 1] = 1
    return T, d[n - 1]


def _det2_gram(field: Fp) -> Mat:
    """Gram matrix of x0 x3 - x1 x2 (the 2x2 determinant, row-major)."""
    half = field.inv(2)
    G = Mat.zeros(field, 4, 4)
    G.rows[0, 3] = G.rows[3, 0] = half
    G.rows[1, 2] = G.rows[2, 1] = (-half) % field.p
    return G


class QuadraticDetOracle:
    """Genuine DET oracle for w = 2 via quadratic form classification."""

    def __init__(self, field: Fp, verify_trials: int = 50):
        self.field = field
        self.w = 2
        self.verify_trials = verify_trials
        G0 = _det2_gram(field)
        S0, diag0 = _congruence_diagonalize(G0)
        T0, self._delta0 = _canonicalize_diagonal(field, diag0)
        self._S0 = S0 * T0  # (S0 T0)^T G0 (S0 T0) = diag(1,1,1,delta0)

    def __call__(self, g: MPoly, rng: Rng) -> LinMat | None:
        field = self.field
        if g.n != 4 or g.is_zero():
            return None
        G = _gram_matrix(g)
        if G is None or G.rank() != 4:
            return None
        S, diag = _congruence_diagonalize(G)
        T, delta = _canonicalize_diagonal(field, diag)
        ratio = field.div(delta, self._delta0)
        c = field.sqrt(ratio)
        if c is None:
            return None  # discriminant class mismatch
        R = Mat.identity(field, 4)
        R.rows[3, 3] = c
        # G = L^T G0 L with L = S0 R (S T)^{-1}
        L = self._S0 * R * (S * T).inverse()
        Xp = LinMat(field, 2, 2, 4, L.rows)
        det_bb = ExplicitBlackbox(det_linear_matrix(Xp))
        if not pit_equal(det_bb, ExplicitBlackbox(g), self.verify_trials, rng):
            return None
        return Xp


class PlantedDetOracle:
    """Test stand-in DET oracle answering from registered layer matrices.

    For direct tensor-level runs the registry comes from the planted
    block transformation; end-to-end runs call observe_tensor_map with the
    computed change of basis, after which the oracle derives the layer
    matrices of the transformed tensor from the planted secret.
    """

    def __init__(self, field: Fp, shape: TrimmShape, planted_A: Mat,
                 transpose_answers: bool = False, verify_trials: int = 40):
        self.field = field
        self.shape = shape
        self.planted_A = planted_A
        self.transpose_answers = transpose_answers
        self.verify_trials = verify_trials
        self.w = shape.w
        self.registry: list[LinMat] = []
        self.observe_tensor_map(Mat.identity(field, shape.n))

    def observe_tensor_map(self, A_prime: Mat):
        """Register the layer matrices of f(A_prime . x) from the secret."""
        self.registry = []
        E = self.planted_A * A_prime
        w2 = self.shape.w ** 2
        for k in range(self.shape.d):
            used = np.flatnonzero(E.rows[:, k * w2 : (k + 1) * w2].any(axis=1))
            row_blocks = set((used // w2).tolist())
            if len(row_blocks) != 1:
                continue  # not block-structured; leave unregistered
            c = row_blocks.pop()  # rows of the w^2 x w^2 block in block-c order
            self.registry.append(block_to_layer(E.block(c * w2, k * w2, w2, w2), c))

    def __call__(self, g: MPoly, rng: Rng) -> LinMat | None:
        field = self.field
        if g.is_zero():
            return None
        g_bb = ExplicitBlackbox(g)
        for X in self.registry:
            # fit the scalar at a nonvanishing point, then identity-test
            beta = None
            for _ in range(20):
                a = rng.vector(field, g.n)
                dv = X.eval(a).det()
                if dv:
                    beta = field.div(g_bb.eval(a), dv)
                    break
            if beta is None or beta == 0:
                continue
            D = Mat.identity(field, self.shape.w)
            D.rows[0, 0] = beta
            Xp = X.left_mul(D)
            det_bb = ExplicitBlackbox(det_linear_matrix(Xp))
            if pit_equal(det_bb, g_bb, self.verify_trials, rng):
                return Xp.transpose() if self.transpose_answers else Xp
        return None


def mmti_oracle(h, w: int, det_oracle, rng: Rng):
    """Solve the 3-tensor isomorphism problem for a matrix multiplication
    tensor by running the tensor-to-determinant reduction at d = 3."""
    from .reduction import tensor_iso_to_det

    return tensor_iso_to_det(h, w, 3, det_oracle, rng)
