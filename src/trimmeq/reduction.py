"""The full equivalence-testing pipeline for the trace polynomial family.

Three stages:

* ``trace_to_tensor_iso`` -- from an arbitrary-basis blackbox to a d-tensor
  isomorphic to Tr-IMM, through the irreducible invariant subspaces of the
  Lie algebra and an evaluation-dimension block ordering.
* ``tensor_iso_to_det`` -- from the d-tensor to per-block transformations,
  through set-multilinear ABP reconstruction, determinant-oracle queries on
  the middle layers, intertwiner solves, and Kronecker factorization.
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
from math import isqrt, prod

import numpy as np

from .abp import evaldim, reconstruct_abp
from .errors import AnchorSingular, CertificationFailed, NotAPerfectPower, StructureViolation
from .field import Fp, Rng
from .lie import irreducible_invariant_subspaces
from .linalg import Mat, assemble_block_diagonal, kron, nullspace_rows, sylvester_rows
from .poly import (
    Blackbox,
    ComposedBlackbox,
    LinMat,
    MPoly,
    det_linear_matrix,
    interpolate_univariate,
    matches_power,
    pit_equal,
    uni_mul,
    uni_sub,
    wth_root,
)
from .report import passed, reject
from .trimm import TrimmShape, layer_to_block, trimm_blackbox


@dataclass
class OrderingReport:
    """Recovered cyclic order of the blocks plus the evaldim table."""

    tau: list[int]
    evaldim_table: list[list[int]]


def order_blocks(g: Blackbox, shape: TrimmShape, rng: Rng) -> OrderingReport | None:
    """Chain the blocks of a d-tensor into cyclic order via evaluation
    dimension: adjacent block pairs give w^2, non-adjacent w^4.  None when
    the adjacency structure is broken."""
    w, d = shape.w, shape.d
    m = w ** 4 + 16
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
    """Algorithm: invariant subspaces -> V -> block ordering -> A' = V.B.

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
    w2 = w * w
    B = Mat.zeros(field, n, n)
    for k in range(d):  # block tau[k] of the spaces becomes block k
        B.set_block(ordering.tau[k] * w2, k * w2, Mat.identity(field, w2))
    return V * B, w


# ---------------------------------------------------------------------------
# middle-layer determinant roots
# ---------------------------------------------------------------------------

def _monic_wth_root_uni(field: Fp, U: list[int], w: int):
    """Monic u of degree deg(U)/w with u^w == U (U monic), else None."""
    D = len(U) - 1
    if D % w:
        return None
    dw = D // w
    p = field.p
    u = [0] * dw + [1]
    inv_w = field.inv(w)
    for j in range(1, dw + 1):
        uw = [1]
        for _ in range(w):
            uw = uni_mul(field, uw, u)
        uw += [0] * (D + 1 - len(uw))
        target = U[D - j] if D - j < len(U) else 0
        delta = (target - uw[D - j]) * inv_w % p
        u[dw - j] = delta
    uw = [1]
    for _ in range(w):
        uw = uni_mul(field, uw, u)
    if uni_sub(field, uw, list(U)):
        return None
    return u


def _layer_det_root(Yloc: LinMat, w: int, rng: Rng) -> MPoly | None:
    """The degree-w polynomial g with det(Yloc) = alpha * g^w, normalized
    so that its graded-lex leading coefficient is one.

    For w = 2 the 4x4 symbolic determinant is computed explicitly and the
    root extracted by wth_root.  For larger w the symbolic determinant
    blows up, so g is recovered from univariate restrictions of the
    numeric determinant along a fixed direction (each restriction is a
    perfect w-th power whose monic root pins g up to one global scalar),
    followed by exact interpolation of g's coefficients.  Both routes are
    verified by identity testing against the numeric determinant.
    """
    field = Yloc.field
    if w == 2:
        P = det_linear_matrix(Yloc)
        if P.is_zero():
            return None
        try:
            return wth_root(P, w, rng=rng)
        except NotAPerfectPower:
            return None
    W = Yloc.nrows
    nloc = Yloc.n

    def detval(point):
        return Yloc.eval(point).det()

    b = None
    for _ in range(10):
        cand = rng.vector(field, nloc)
        if detval(cand):
            b = cand
            break
    if b is None:
        return None

    from .poly import _monomials

    cands = _monomials(nloc, list(range(nloc)), w, homogeneous=True)
    npts = len(cands) + 12
    p = field.p
    points = [rng.vector(field, nloc) for _ in range(npts)]
    kern = field.kernel
    line = kern.asarray([[(x + t * y) % p for x, y in zip(a, b)]
                         for a in points for t in range(W + 1)])
    dets = kern.det_many(Yloc.eval_many(line)).reshape(npts, W + 1)
    rows = []
    rhs = []  # g(a)/g(b), read off the samples det(Y(a + t b)), t = 0..W
    for a, samples in zip(points, dets.tolist()):
        U = interpolate_univariate(field, list(enumerate(samples)))
        u = (_monic_wth_root_uni(field, [x * field.inv(U[-1]) % p for x in U], w)
             if len(U) == W + 1 else None)
        if u is None:
            continue
        rows.append([prod(a[i] ** ei for i, ei in enumerate(e)) % p for e in cands])
        rhs.append(u[0])
    if len(rows) < len(cands):
        return None
    A = Mat(field, rows)
    x = A.solve(rhs)
    if x is None:
        return None
    g = MPoly(field, nloc, {e: c for e, c in zip(cands, x) if c})
    if g.is_zero():
        return None
    g = g.normalized_grlex()
    return g if matches_power(detval, g, w, 25, rng) else None


# ---------------------------------------------------------------------------
# intertwiners and Kronecker factorization
# ---------------------------------------------------------------------------

def intertwiner_space(Y: LinMat, Z: LinMat) -> list[tuple[Mat, Mat]]:
    """Basis of the space of pairs (T, S) with T.Y(x) = Z(x).S identically.

    Coefficient matching per variable yields n * W^2 linear equations
    Z_v S - T Y_v = 0 in the 2 W^2 unknowns of T and S.
    """
    field = Y.field
    W = Y.nrows
    Yv, Zv = Y.coeffs.transpose(2, 0, 1), Z.coeffs.transpose(2, 0, 1)  # (n, W, W)
    zero = field.kernel.zeros(Yv.shape)
    rows = np.concatenate([sylvester_rows(field, zero, Yv), sylvester_rows(field, Zv, zero)],
                          axis=-1).reshape(-1, 2 * W * W)
    rows = rows[rows.any(axis=1)]
    if not len(rows):  # Y = Z = 0: no equation, and no intertwiner is offered
        return []
    return [(Mat(field, v[: W * W].reshape(W, W)), Mat(field, v[W * W :].reshape(W, W)))
            for v in nullspace_rows(field, rows)]


def solve_intertwiner(Y: LinMat, Z: LinMat, rng: Rng, attempts: int = 3):
    """(T', S', transposed) with T'.Y = Z.S' or T'.Y = Z^T.S', both
    invertible, sampled from the solution space; None when neither or both
    branches admit nonzero solutions."""
    plain = intertwiner_space(Y, Z)
    trans = intertwiner_space(Y, Z.transpose())
    if bool(plain) == bool(trans):
        # exactly one branch can admit nonzero solutions for a genuine
        # trace-product layer; both or neither means reject
        return None
    space = plain or trans
    field = Y.field
    for _ in range(attempts):
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

def tensor_iso_to_det(
    h: Blackbox,
    w: int,
    d: int,
    det_oracle,
    rng: Rng,
    certify_trials: int = 40,
):
    """Per-block transformations B_0..B_{d-1} with
    h = Tr-IMM(B_0 x_0, ..., B_{d-1} x_{d-1}), or None.

    Reconstruct a width-w^2 ABP; extract the w-th root of each middle
    layer's determinant and hand it to the DET oracle; align the layers to
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
    except (AnchorSingular, CertificationFailed):
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
    return certify_blocks(h, shape, [], layers, certify_trials, rng)


def certify_blocks(f: Blackbox, shape: TrimmShape, known: list[Mat], layers: list[LinMat],
                   trials: int, rng: Rng) -> list[Mat] | None:
    """Per-block transformations B_0..B_{d-1} certified against f, or None.

    ``known`` are the first blocks, taken as given; the rest are the block
    transforms of ``layers`` (each over its block's w^2 local variables),
    each required invertible.  The composed Tr-IMM is identity-tested
    against f.
    """
    Bs = list(known)
    for X in layers:
        Bk = layer_to_block(X, len(Bs))
        if not Bk.is_invertible():
            return reject("witness-invertible")
        Bs.append(Bk)
    composed = ComposedBlackbox(trimm_blackbox(f.field, shape), assemble_block_diagonal(Bs))
    if not pit_equal(f, composed, trials, rng):
        return reject("final-pit")
    passed("final-pit")
    return Bs


def trace_equivalence(
    f: Blackbox,
    d: int,
    det_provider,
    rng: Rng,
    final_trials: int = 20,
):
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
    det_oracle = det_provider(w) if callable(det_provider) else det_provider
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
    if not pit_equal(f, target, final_trials, rng):
        return reject("final-pit")
    passed("certified")
    return w, A
