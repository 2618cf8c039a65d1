"""The full equivalence-testing pipeline for the trace polynomial family.

Three stages:

* ``trace_to_tensor_iso`` -- from an arbitrary-basis blackbox to a d-tensor
  isomorphic to Tr-IMM, through the irreducible invariant subspaces of the
  Lie algebra and an evaluation-dimension block ordering.
* ``tensor_iso_to_det`` -- from the d-tensor to per-block transformations,
  through set-multilinear ABP reconstruction, determinant-oracle queries on
  the middle layers, intertwiner solves, and Kronecker factorization.  Each
  query is the root g of det(Y_k) = alpha * g^w as a blackbox: the paper's
  reduction needs only evaluation access to g, and no explicit polynomial is
  built for it.  An intertwiner pair (T, S) with T.Y = Z.S is read at one
  random point a where Y(a) is invertible: T = Z(a).S.Y(a)^-1, and S is a
  homomorphism between the modules of the P_v = Y(a)^-1.Y_v and of the
  Q_v = Z(a)^-1.Z_v, found from a Sylvester system in W^2 unknowns sampled
  at a few points and checked exactly against every variable (at w = 2,
  built from every variable at once).
* ``trace_equivalence`` -- the composition, returning (w, A) with a final
  randomized identity test, or None for "no such w exists".

Layers are matrices of linear forms (:class:`~trimmeq.poly.LinMat`); the
witness stores each as a w^2 x w^2 block transform, and :mod:`trimmeq.trimm`
converts between the two.  ``certify_blocks`` is the final gate shared with
the degree reduction: every block invertible, then an identity test.

A gate failure returns ``report.reject(gate)``: None, with the gate named in
the active RunReport, if any.  Certified witnesses are the only non-None
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .abp import evaldim, reconstruct_abp
from .errors import CertificationFailed, Singular, StructureViolation
from .field import Rng
from .lie import irreducible_invariant_subspaces
from .linalg import Mat, assemble_block_diagonal, kron, nullspace_rows, sylvester_rows
from .poly import Blackbox, ComposedBlackbox, DetBlackbox, LinMat, RootBlackbox, pit_equal
from .report import passed, reject
from .trimm import TrimmShape, layer_to_block, trimm_blackbox

_INTERTWINER_ATTEMPTS = 3  # random draws from an intertwiner space
_FIRST_POINTS = 2  # sampled points of intertwiner_space's first system
_BLOCKS_CERTIFY_TRIALS = 40  # identity-test points of certify_blocks
_FINAL_TRIALS = 20  # identity-test points of trace_equivalence's witness


@dataclass
class OrderingReport:
    """Recovered cyclic order of the blocks plus the evaldim table, whose
    entries are min(evaldim, w^2 + 16): the sample grid is (w^2 + 16)^2."""

    tau: list[int]
    evaldim_table: list[list[int]]


def order_blocks(g: Blackbox, shape: TrimmShape, rng: Rng) -> OrderingReport | None:
    """Chain the blocks of a d-tensor into cyclic order via evaluation
    dimension: adjacent block pairs give w^2, non-adjacent w^4.  None when
    the adjacency structure is broken.

    Adjacency only asks whether a pair's evaldim equals w^2, so each pair is
    sampled on an m x m grid with m = w^2 + 16, whose rank is min(evaldim, m)
    w.h.p.: a table entry is min(evaldim, w^2 + 16), and a non-adjacent pair
    reads w^4 only when w^4 <= w^2 + 16 (w = 2)."""
    w, d = shape.w, shape.d
    m = w * w + 16
    table = [[0] * d for _ in range(d)]
    for r in range(d):
        for rp in range(r + 1, d):
            fixed = shape.block_vars(r) + shape.block_vars(rp)
            e = evaldim(g, fixed, m, rng)
            table[r][rp] = table[rp][r] = e
    neighbors = [
        {rp for rp in range(d) if rp != r and table[r][rp] == w * w} for r in range(d)
    ]
    if any(len(s) != 2 for s in neighbors):
        return None
    if d == 3:
        return OrderingReport(list(range(3)), table)
    tau = [0, min(neighbors[0])]
    while len(tau) < d:
        nxt = neighbors[tau[-1]] - {tau[-2]}
        if len(nxt) != 1:
            return None
        tau.append(nxt.pop())
    if len(set(tau)) != d or tau[0] not in neighbors[tau[-1]]:
        return None
    return OrderingReport(tau, table)


def trace_to_tensor_iso(f: Blackbox, d: int, rng: Rng):
    """Algorithm: invariant subspaces -> V -> block ordering -> A', the
    columns of V in blocks, taken in the cyclic order.

    Returns (A', w) such that f(A'.x) is a d-tensor isomorphic to
    Tr-IMM_{w,d} (certified downstream), or None.
    """
    n = f.n
    spaces = irreducible_invariant_subspaces(f, rng, expected_count=d)
    if spaces is None:
        return None
    passed("invariant-subspaces")
    dim = spaces[0].dim
    w = isqrt(dim)
    if w * w != dim or w < 2 or n != dim * d:
        return reject("square-dimension")
    passed("square-dimension")
    field = f.field
    V = Mat(field, np.concatenate([s.basis for s in spaces]).T)
    if not V.is_invertible():
        return reject("subspace-independence")
    passed("subspace-independence")
    shape = TrimmShape(w, d)
    h0 = ComposedBlackbox(f, V)
    ordering = order_blocks(h0, shape, rng)
    if ordering is None:
        return reject("adjacency")
    passed("adjacency")
    cols = V.rows.reshape(n, d, dim)  # [:, k]: the basis of space k
    return Mat(field, cols[:, ordering.tau].reshape(n, n)), w  # space tau[k] becomes block k


# ---------------------------------------------------------------------------
# middle-layer determinant roots
# ---------------------------------------------------------------------------

def _layer_det_root(Yloc: LinMat, w: int, rng: Rng) -> Blackbox | None:
    """The blackbox g(x) / g(b) for det(Yloc) = alpha * g^w, g of degree w,
    read through ``RootBlackbox`` at the first of 10 random points b where
    det(Yloc) does not vanish.  None when there is no such b, or when the
    determinant is not a w-th power on one of 25 random lines a + t b.
    """
    field = Yloc.field
    det = DetBlackbox(Yloc)
    cands = rng.array(field, (10, Yloc.n))
    nonzero = np.flatnonzero(det.eval_many(cands))
    if not nonzero.size:
        return None
    g = RootBlackbox(det, w, cands[nonzero[0]])
    return g if g.is_power_on(rng.array(field, (25, Yloc.n))) else None


# ---------------------------------------------------------------------------
# intertwiners and Kronecker factorization
# ---------------------------------------------------------------------------

def _read(L: LinMat, a: np.ndarray):
    """L read at the (1, n) point a, from the kernel: (L(a), L(a)^-1, the
    linear matrix L(a)^-1.L, whose coefficients are the P_v = L(a)^-1.L_v);
    None when L(a) is singular."""
    at = L.eval_many(a)[0]
    try:
        inv = Mat(L.field, at).inverse()
    except Singular:
        return None
    return at, inv.rows, L.left_mul(inv)


def intertwiner_space(Y: LinMat, Z: LinMat, rng: Rng) -> list[tuple[Mat, Mat]]:
    """Basis of the space of pairs (T, S) with T.Y(x) = Z(x).S identically,
    for W x W linear matrices Y and Z read at a random point a.  [] when
    (0, 0) is the only pair, and [] when Y(a) or Z(a) is singular: for a
    genuine layer det Y(a) = alpha g(a)^w is nonzero w.h.p., and where it
    vanishes identically no invertible pair exists.

    With P = Y(a)^-1.Y and Q = Z(a)^-1.Z, the pairs are T = Z(a).S.Y(a)^-1
    for the S with S.P_v = Q_v.S for every variable v: the homomorphisms
    between the modules of the P_v and of the Q_v.  They solve the
    Sylvester system S.P(b) = Q(b).S at ``_FIRST_POINTS`` random points b
    (W^2 unknowns, W^2 rows per point), whose solutions therefore contain
    them and equal them when a basis passes the exact check against every
    P_v and Q_v.  When it fails, the P_v themselves make the system
    (n W^2 rows); so do they from the start when the sampled system would
    have half as many rows or more, as at w = 2 (n = 4), where two points
    cannot tell a pair of 2 x 2 matrices from its transpose.
    """
    field, kern = Y.field, Y.field.kernel
    a = rng.array(field, (1, Y.n))
    y, z = _read(Y, a), _read(Z, a)
    if y is None or z is None:
        return []
    (_, Yinv, P), (Za, _, Q) = y, z
    W, n = Y.nrows, Y.n
    for m in (_FIRST_POINTS, n) if 2 * _FIRST_POINTS < n else (n,):
        if m == n:
            Pb, Qb = P.coeffs.transpose(2, 0, 1), Q.coeffs.transpose(2, 0, 1)
        else:
            b = rng.array(field, (m, n))
            Pb, Qb = P.eval_many(b), Q.eval_many(b)
        rows = sylvester_rows(field, Qb, Pb).reshape(-1, W * W)  # S -> Q(b).S - S.P(b)
        S = nullspace_rows(field, rows).reshape(-1, W, W)
        if m == n or all(P.left_mul(Mat(field, s)) == Q.right_mul(Mat(field, s)) for s in S):
            break
    T = kern.gemm(kern.gemm(Za, S), Yinv)
    return [(Mat(field, Ti), Mat(field, Si)) for Ti, Si in zip(T, S)]


def solve_intertwiner(Y: LinMat, Z: LinMat, rng: Rng):
    """(T', S', transposed) with T'.Y = Z.S' or T'.Y = Z^T.S', both
    invertible, sampled from the solution space; None when neither or both
    branches admit nonzero solutions."""
    plain = intertwiner_space(Y, Z, rng)
    trans = intertwiner_space(Y, Z.transpose(), rng)
    if bool(plain) == bool(trans):
        # exactly one branch can admit nonzero solutions for a genuine
        # trace-product layer; both or neither means reject
        return None
    space = plain or trans
    field = Y.field
    for _ in range(_INTERTWINER_ATTEMPTS):
        T = Mat.zeros(field, space[0][0].nrows, space[0][0].ncols)
        S = Mat.zeros(field, space[0][1].nrows, space[0][1].ncols)
        for Tb, Sb in space:
            c = rng.scalar(field)
            T = T + Tb.scale(c)
            S = S + Sb.scale(c)
        if T.is_invertible() and S.is_invertible():
            return T, S, not plain
    return None


def factor_kron(Yhat: LinMat, w: int):
    """Split Yhat = (M (x) I_w) . (I_w (x) X) = M (x) X into (M, X).

    The first nonzero w x w block is taken as X (its grid coefficient
    normalized to one); every other block must be an exact scalar multiple.
    Raises StructureViolation otherwise or when M is singular.
    """
    field = Yhat.field
    W = Yhat.nrows
    if W != w * w or Yhat.ncols != W:
        raise StructureViolation("expected a w^2 x w^2 layer")

    n = Yhat.n
    C = Yhat.coeffs.reshape(w, w, w, w, n).transpose(0, 2, 1, 3, 4)  # [a, b]: block (a, b)
    nz = np.flatnonzero(C)
    if not nz.size:
        raise StructureViolation("zero layer")
    a, b, i0, j0, v0 = np.unravel_index(nz[0], C.shape)
    X = C[a, b]
    kern = field.kernel
    M = Mat(field, kern.mul(C[:, :, i0, j0, v0], field.inv(int(X[i0, j0, v0]))))
    if not np.array_equal(C, kern.mul(M.rows[:, :, None, None, None], X)):
        raise StructureViolation("blocks are not scalar multiples")
    if not M.is_invertible():
        raise StructureViolation("Kronecker factor is singular")
    return M, LinMat(field, w, w, n, X.copy())


# ---------------------------------------------------------------------------
# Reduction from tensor isomorphism to the determinant oracle
# ---------------------------------------------------------------------------

def tensor_iso_to_det(h: Blackbox, w: int, d: int, det_oracle, rng: Rng):
    """Per-block transformations B_0..B_{d-1} with
    h = Tr-IMM(B_0 x_0, ..., B_{d-1} x_{d-1}), or None.

    Reconstruct a width-w^2 ABP; hand the DET oracle the w-th root of each
    middle layer's determinant as a blackbox; align the layers to
    I (x) X' via intertwiners (the transpose branch, when it fires, fires
    globally and is absorbed by transposing the oracle answers); factor
    the Kronecker structure; read off the first and last layers; certify.
    """
    field = h.field
    shape = TrimmShape(w, d)
    w2 = w * w
    if h.n != w2 * d:
        return reject("tensor-arity")
    blocks = [shape.block_vars(k) for k in range(d)]
    try:
        abp = reconstruct_abp(h, blocks, w2, rng)
    except (Singular, CertificationFailed):
        return reject("abp-reconstruction")
    passed("abp-reconstruction")
    Y = abp.layers

    Tp: dict[int, Mat] = {}
    Sp: dict[int, Mat] = {}
    for k in range(1, d - 1):
        Yloc = Y[k].restrict(blocks[k])
        g_k = _layer_det_root(Yloc, w, rng)
        if g_k is None:
            return reject("layer-det")
        ans = det_oracle(g_k, rng)
        if ans is None:
            return reject("det-oracle")
        # A transposed branch is the plain branch for the transposed oracle
        # answer (Z^T = I (x) X'^T and determinants ignore transposition),
        # so it is absorbed layer by layer: the solutions already satisfy
        # T'.Y' = (I (x) X~).S' for the absorbed X~.
        sol = solve_intertwiner(Yloc, ans.identity_kron(w), rng)
        if sol is None:
            return reject("intertwiner")
        Tp[k - 1], Sp[k], _ = sol
    passed("det-oracle")
    passed("intertwiner")

    Yhat: dict[int, LinMat] = {}
    Yhat[0] = Y[0].right_mul(Tp[0].inverse())
    for k in range(1, d - 2):  # k in [1, d-3]
        Yhat[k] = Y[k].left_mul(Tp[k - 1]).right_mul(Tp[k].inverse())
    Yhat[d - 2] = Y[d - 2].left_mul(Tp[d - 3]).right_mul(Sp[d - 2].inverse())
    Yhat[d - 1] = Y[d - 1].left_mul(Sp[d - 2])

    Xhat: dict[int, LinMat] = {d - 2: Yhat[d - 2].block(0, 0, w, w)}
    if Yhat[d - 2] != Xhat[d - 2].identity_kron(w):
        return reject("kron-structure")
    prod_M = Mat.identity(field, w)
    try:
        for k in range(1, d - 2):
            Mk, Xk = factor_kron(Yhat[k], w)
            Xhat[k] = Xk
            prod_M = prod_M * Mk
    except StructureViolation:
        return reject("kron-structure")
    passed("kron-structure")
    Ybar = Yhat[d - 1].left_mul(kron(prod_M, Mat.identity(field, w)))

    Xhat[0] = LinMat(field, w, w, h.n, Yhat[0].coeffs[0])
    last = Ybar.coeffs[:, 0].reshape(w, w, h.n)  # entry (i, j) is row j * w + i
    Xhat[d - 1] = LinMat(field, w, w, h.n, last.transpose(1, 0, 2))

    layers = [Xhat[k].restrict(blocks[k]) for k in range(d)]
    return certify_blocks(h, shape, [], layers, rng)


def certify_blocks(f: Blackbox, shape: TrimmShape, known: list[Mat], layers: list[LinMat],
                   rng: Rng) -> list[Mat] | None:
    """Per-block transformations B_0..B_{d-1} certified against f, or None.

    ``known`` are the first blocks, taken as given; the rest are the block
    transforms of ``layers`` (each over its block's w^2 local variables),
    each required invertible.  The composed Tr-IMM is identity-tested
    against f at ``_BLOCKS_CERTIFY_TRIALS`` points.
    """
    Bs = list(known)
    for X in layers:
        Bk = layer_to_block(X, len(Bs))
        if not Bk.is_invertible():
            return reject("witness-invertible")
        Bs.append(Bk)
    composed = ComposedBlackbox(trimm_blackbox(f.field, shape), assemble_block_diagonal(Bs))
    if not pit_equal(f, composed, _BLOCKS_CERTIFY_TRIALS, rng):
        return reject("final-pit")
    passed("final-pit")
    return Bs


def trace_equivalence(f: Blackbox, d: int, det_provider, rng: Rng):
    """Full pipeline: blackbox f -> (w, A) with f = Tr-IMM_{w,d}(A.x).

    det_provider maps a width w to a DET oracle for that width (or None if
    unavailable).  Oracles exposing observe_tensor_map are notified of the
    computed tensor-stage basis change first (planted test oracles use
    this to derive their registry).  Returns None for "no such w exists".
    """
    field = f.field
    stage1 = trace_to_tensor_iso(f, d, rng)
    if stage1 is None:
        return None
    A_prime, w = stage1
    det_oracle = det_provider(w)
    if det_oracle is None:
        return reject("det-oracle-unavailable")
    observe = getattr(det_oracle, "observe_tensor_map", None)
    if observe is not None:
        observe(A_prime)
    h = ComposedBlackbox(f, A_prime)
    Bs = tensor_iso_to_det(h, w, d, det_oracle, rng)
    if Bs is None:
        return None
    A = assemble_block_diagonal(Bs) * A_prime.inverse()
    shape = TrimmShape(w, d)
    target = ComposedBlackbox(trimm_blackbox(field, shape), A)
    if not pit_equal(f, target, _FINAL_TRIALS, rng):
        return reject("final-pit")
    passed("certified")
    return w, A
