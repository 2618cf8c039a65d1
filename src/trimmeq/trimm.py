"""The trace-of-iterated-matrix-multiplication polynomial family.

Tr-IMM_{w,d} is the trace of a product of d symbolic w x w matrices.  The
n = w^2 d variables split into d blocks of w^2; block k is enumerated
row-major when k is even and column-major when k is odd, and all block
indices are cyclic mod d.  Everything downstream (Lie generators, layer
extraction, witness conventions) leans on this ordering: ``layout`` lists it
for one block, and this module is the one place that converts between a
layer's matrix of linear forms and its block transform (``block_to_layer`` /
``layer_to_block``).
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import InputError
from .field import Fp, Rng
from .linalg import Mat, assemble_block_diagonal, kron, random_invertible
from .poly import Blackbox, ComposedBlackbox, LinMat, MPoly


class TrimmShape:
    """Width w >= 2, length d >= 3, n = w^2 d variables."""

    __slots__ = ("w", "d", "n")

    def __init__(self, w: int, d: int):
        if w < 2 or d < 3:
            raise InputError(f"need w >= 2 and d >= 3, got w={w}, d={d}")
        self.w = w
        self.d = d
        self.n = w * w * d

    def __repr__(self):
        return f"TrimmShape(w={self.w}, d={self.d})"

    def __eq__(self, other):
        return isinstance(other, TrimmShape) and (self.w, self.d) == (other.w, other.d)

    def block_vars(self, k: int) -> list[int]:
        """Flat indices of block k (k taken mod d)."""
        k %= self.d
        w2 = self.w * self.w
        return list(range(k * w2, (k + 1) * w2))


def entry_offset(w: int, k: int, i: int, j: int) -> int:
    """Position of entry (i, j) (0-based) of layer k inside its block of
    w^2 variables: row-major when k is even, column-major when k is odd."""
    return i * w + j if k % 2 == 0 else j * w + i


def var_index(shape: TrimmShape, k: int, i: int, j: int) -> int:
    """Flat index of the (i, j) entry of layer k (i, j are 1-based)."""
    w, d = shape.w, shape.d
    k %= d
    if not (1 <= i <= w and 1 <= j <= w):
        raise InputError(f"entry ({i},{j}) outside [1,{w}]^2")
    return k * w * w + entry_offset(w, k, i - 1, j - 1)


def layout(w: int, k: int) -> list[int]:
    """Positions inside block k of the layer entries (i, j), taken in
    row-major (i, j) order."""
    return [entry_offset(w, k, i, j) for i in range(w) for j in range(w)]


def layer_from_point(shape: TrimmShape, k: int, block_vals: list[int], field: Fp) -> Mat:
    """Assemble the w x w layer-k matrix from the block's w^2 values."""
    vals = [block_vals[t] % field.p for t in layout(shape.w, k)]
    return Mat(field, field.kernel.asarray(vals).reshape(shape.w, shape.w))


def block_to_layer(B: Mat, k: int) -> LinMat:
    """The w x w layer-k matrix of linear forms in the block's w^2 local
    variables that the block transform B encodes: entry (i, j) reads row
    entry_offset(w, k, i, j) of B."""
    w = isqrt(B.nrows)
    return LinMat(B.field, w, w, B.ncols, B.rows[layout(w, k)])


def layer_to_block(X: LinMat, k: int) -> Mat:
    """Inverse of block_to_layer: the w^2 x w^2 block transform of a layer-k
    matrix of linear forms in w^2 local variables."""
    w = X.nrows
    B = Mat.zeros(X.field, w * w, X.n)
    B.rows[layout(w, k)] = X.coeffs.reshape(w * w, X.n)
    return B


class TraceProductBlackbox(Blackbox):
    """Evaluates tr(Q_0 Q_1 ... Q_{d-1}) directly: O(d w^3) per query."""

    def __init__(self, field: Fp, shape: TrimmShape):
        super().__init__(field, shape.n, shape.d)
        self.shape = shape

    def eval(self, point):
        self._check_arity(point)
        shape = self.shape
        M = layer_from_point(shape, 0, point[: shape.w ** 2], self.field)
        w2 = shape.w ** 2
        for k in range(1, shape.d):
            M = M * layer_from_point(shape, k, point[k * w2 : (k + 1) * w2], self.field)
        return M.trace()

    def _columns(self, k: int) -> list[int]:
        """Columns of layer k's entries (i, j), in row-major (i, j) order."""
        w = self.shape.w
        return [k * w * w + t for t in layout(w, k)]

    def _layers_np(self, pts: np.ndarray):
        """Per-layer (w, w, B) arrays respecting the block orderings."""
        w = self.shape.w
        return [pts[:, self._columns(k)].T.reshape(w, w, len(pts)) for k in range(self.shape.d)]

    def eval_many(self, pts):
        k = self.field.kernel
        layers = self._layers_np(pts)
        M = layers[0]
        for L in layers[1:]:
            M = k.batched_matmul(M, L)
        acc = k.zeros(len(pts))
        for i in range(self.shape.w):
            acc = k.add(acc, M[i, i])
        return acc

    def gradient_many(self, pts):
        """d tr(prod)/dQ_k[i,j] = (Q_{k+1} ... Q_{k-1})[j, i], batched."""
        kern = self.field.kernel
        shape = self.shape
        w, w2, d = shape.w, shape.w ** 2, shape.d
        B = len(pts)
        layers = self._layers_np(pts)
        eye = kern.zeros((w, w, B))
        for i in range(w):
            eye[i, i] = 1
        prefix = [eye]  # prefix[k] = Q_0 ... Q_{k-1}
        for k in range(d - 1):
            prefix.append(kern.batched_matmul(prefix[-1], layers[k]))
        suffix = [eye]  # suffix[k] = Q_{k+1} ... Q_{d-1}, built backwards
        for k in range(d - 1, 0, -1):
            suffix.append(kern.batched_matmul(layers[k], suffix[-1]))
        suffix.reverse()  # suffix[k] for k in 0..d-1
        out = kern.zeros((B, shape.n))
        for k in range(d):
            G = kern.batched_matmul(suffix[k], prefix[k])  # (Q_{k+1}..Q_{k-1})
            out[:, self._columns(k)] = G.transpose(1, 0, 2).reshape(w2, B).T  # entry (i, j): G[j, i]
        return out

    def gradient(self, point):
        return self.gradient_many(self.field.kernel.asarray([point]))[0].tolist()


def trimm_blackbox(field: Fp, shape: TrimmShape) -> TraceProductBlackbox:
    return TraceProductBlackbox(field, shape)


def trimm_explicit(field: Fp, shape: TrimmShape) -> MPoly:
    """Explicit sparse expansion: one monomial per cyclic index path."""
    w, d, n = shape.w, shape.d, shape.n
    out = MPoly.zero(field, n)

    def rec(k, first, cur, exps):
        if k == d:
            if cur == first:
                out.add_term(tuple(exps), 1)
            return
        for nxt in range(1, w + 1):
            e2 = list(exps)
            e2[var_index(shape, k, cur, nxt)] += 1
            rec(k + 1, first, nxt, e2)

    for start in range(1, w + 1):
        rec(0, start, start, [0] * n)
    return out


def lie_generator(shape: TrimmShape, k: int, M: Mat) -> Mat:
    """The n x n infinitesimal symmetry determined by layer k and M.

    The generator scales layer k by M on the right and layer k+1 by -M on
    the left; its nonzero blocks (explicit parity table, matching the
    within-block orderings) are:

        block k:    I (x) M^T  if k even,   M^T (x) I  if k odd
        block k+1:  -M (x) I   if k+1 even, -I (x) M   if k+1 odd
    """
    field = M.field
    w, d, n = shape.w, shape.d, shape.n
    k %= d
    kn = (k + 1) % d
    eye = Mat.identity(field, w)
    upper = kron(eye, M.transpose()) if k % 2 == 0 else kron(M.transpose(), eye)
    lower = kron(-M, eye) if kn % 2 == 0 else kron(eye, -M)
    out = Mat.zeros(field, n, n)
    w2 = w * w
    out.set_block(k * w2, k * w2, upper)
    out.set_block(kn * w2, kn * w2, lower)
    return out


class PlantedInstance:
    """A secret transformation A and blackbox access to Tr-IMM(A.x).

    Construction spot-checks the blackbox: the batched kernel evaluation
    must agree with the scalar path at a few random points.
    """

    def __init__(self, field: Fp, shape: TrimmShape, A: Mat, mode: str, blocks=None):
        self.field = field
        self.shape = shape
        self.A = A
        self.mode = mode
        self.blocks = blocks  # per-block B_k matrices for block mode
        self.f = ComposedBlackbox(trimm_blackbox(field, shape), A)
        pts = Rng(0xC0FFEE).array(field, (3, shape.n))
        fast = self.f.eval_many(pts)
        for t in range(3):
            assert fast[t] == self.f.eval(pts[t].tolist())


def plant_instance(field: Fp, shape: TrimmShape, rng: Rng, mode: str = "full") -> PlantedInstance:
    """mode='full' draws A in GL(n); mode='block' draws block-diagonal A."""
    field.check_char_bound(shape.w, shape.d)
    if mode == "full":
        A = random_invertible(field, shape.n, rng)
        return PlantedInstance(field, shape, A, mode)
    if mode == "block":
        blocks = [random_invertible(field, shape.w ** 2, rng) for _ in range(shape.d)]
        A = assemble_block_diagonal(blocks)
        return PlantedInstance(field, shape, A, mode, blocks=blocks)
    raise InputError(f"unknown planting mode {mode!r}")


def compose_witness(field: Fp, shape: TrimmShape, witness) -> Mat:
    """Accept either a full matrix or a list of d per-block matrices."""
    if isinstance(witness, Mat):
        return witness
    if len(witness) != shape.d:
        raise InputError("block witness must have d matrices")
    return assemble_block_diagonal(list(witness))


def verify_witness(f: Blackbox, shape: TrimmShape, witness, trials: int, rng: Rng) -> bool:
    """PIT of f against Tr-IMM composed with the claimed witness.

    The points are drawn as ``pit_equal`` draws them, but both sides are
    evaluated on the scalar Python-int path, so the batched kernel that
    produced a witness is not the one that vouches for it."""
    A = compose_witness(f.field, shape, witness)
    if not A.is_invertible():
        return False
    g = ComposedBlackbox(trimm_blackbox(f.field, shape), A)
    pts = Rng(rng.randrange(1 << 62)).array(f.field, (trials, f.n)).tolist()
    return all(f.eval(pt) == g.eval(pt) for pt in pts)
