"""Full-matrix-algebra isomorphism through tensor isomorphism.

Given a basis of an algebra inside M_m, decide whether it is isomorphic to
the full algebra M_w (necessarily w^2 = dim) and produce an explicit
isomorphism.  The route: left-multiplication matrices, their transpose
commutant, a 4-tensor forced to admit both families of infinitesimal
symmetries, the degree-4 -> degree-3 tensor reduction, and an extraction
step that conjugates the left-multiplication action into I (x) F form.

The 4-tensor is solved pair by pair: by Schur's lemma the identities of two
adjacent modes leave a w^2-dimensional pair kernel K, the tensor is a
combination of K (x) K in w^4 unknowns, and it is normalised to the RREF
kernel basis of the whole w^8-unknown system.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .errors import Degenerate, InputError, NotClosed
from .field import Fp, Rng
from .linalg import Mat, kron, nullspace_rows, rank_rows, rref_rows, sylvester_rows
from .poly import ExplicitBlackbox, MPoly
from .report import passed, reject
from .tensor import degree_d_to_3
from .trimm import layout


class AlgebraInput:
    """A matrix algebra given by a linearly independent basis in M_m."""

    def __init__(self, field: Fp, basis: list[Mat]):
        if not basis:
            raise InputError("empty basis")
        self.field = field
        self.m = basis[0].nrows
        for E in basis:
            if E.nrows != self.m or E.ncols != self.m:
                raise InputError("basis matrices must share one square size")
        self.basis = basis
        if rank_rows(field, _flat(basis)) != len(basis):
            raise InputError("basis is not linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)


class AlgebraIso:
    """phi: A -> M_w by images of the renamed basis elements."""

    def __init__(self, w: int, images: dict[tuple[int, int], Mat]):
        self.w = w
        self.images = images


def _flat(mats: list[Mat]) -> np.ndarray:
    """The matrices, flattened row-major, as the rows of one array."""
    return np.array([M.flatten() for M in mats])


def left_mult_matrices(A: AlgebraInput) -> list[Mat]:
    """L_(i,j): the matrix of left multiplication by basis element (i, j).

    Basis elements are renamed (1,1)..(w,w) in row-major order; rows and
    columns of each L are indexed the same way.  The coordinates of all r^2
    products come from one elimination of [basis | products], whose first r
    columns are independent; raises NotClosed when a product leaves the
    basis span.
    """
    field = A.field
    r = A.dim
    w = isqrt(r)
    if w * w != r:
        raise InputError("basis size is not a perfect square")
    S = field.kernel.asarray([E.rows for E in A.basis])
    prods = field.kernel.gemm(S[:, None], S[None]).reshape(r * r, -1)  # row t1*r + t2
    R, piv = rref_rows(field, np.concatenate([_flat(A.basis), prods]).T)
    if len(piv) > r:
        raise NotClosed("a basis product leaves the span")
    coords = R[:r, r:]  # column t1*r + t2: the coordinates of basis[t1] * basis[t2]
    return [Mat(field, coords[:, t1 * r : (t1 + 1) * r]) for t1 in range(r)]


def commutant_basis(mats: list[Mat]) -> list[Mat]:
    """Basis of the matrices commuting with every matrix in the list."""
    field = mats[0].field
    s = mats[0].nrows
    Ms = field.kernel.asarray([M.rows for M in mats])
    rows = sylvester_rows(field, Ms, Ms).reshape(-1, s * s)  # M X - X M = 0
    return [Mat(field, v.reshape(s, s)) for v in nullspace_rows(field, rows)]


def _pair_rows(mats: list[Mat], k: int, w: int) -> np.ndarray:
    """Nonzero rows of O(M^T, k) - O(M, k+1) = 0 for every M in mats, over the
    W^2 unknowns T[i_k, i_{k+1}] of the two modes, row-major.

    Each side acts through its own block's layout, plain on an even block and
    with the index pair swapped on an odd one, so with A and B the matrix M
    permuted to the layouts of blocks k and k+1 the rows are the Sylvester
    operators A (x) I - I (x) B^T.
    """
    field = mats[0].field
    Ms = field.kernel.asarray([M.rows for M in mats])
    A, B = (Ms[:, layout(w, blk)][:, :, layout(w, blk)] for blk in (k, k + 1))
    rows = sylvester_rows(field, A, B).reshape(-1, w ** 4)
    return rows[rows.any(axis=1)]


def build_constrained_tensor(L_list: list[Mat], N_list: list[Mat], w: int):
    """A nonzero 4-tensor whose Lie algebra contains the conjugated block
    generators encoded by the L's (even interfaces) and N's (odd ones).

    The identities of pair (k, k+1) admit exactly K_{k,k+1} (x) (the two free
    modes), K_{k,k+1} being the kernel of the pair's rows in W^2 unknowns
    (dimension w^2 by Schur's lemma).  Blocks k and k+2 share a layout, so
    K = K_01 = K_23 (from the L's) and one row basis Q serves (1,2) and (3,0)
    (from the N's): T = sum_ab x_ab K_a (x) K_b, where x_ab has coefficient
    (K_a Q_beta K_b)[i0, i3], resp. (K_b Q_beta K_a)[i2, i1], a system in w^4
    unknowns.  The kernel basis is normalised to the RREF one of the system
    in all W^4 coefficients, which depends only on the space.  Returns
    (tensor as MPoly, kernel dim), the tensor being the basis vector of the
    first free column; raises Degenerate when only the zero tensor satisfies
    the system.
    """
    field = L_list[0].field
    kern = field.kernel
    W = w * w
    rows = _pair_rows(L_list, 0, w)
    if not len(rows):  # w = 1: no identity constrains M_1, which is given no tensor
        raise Degenerate("only the zero tensor satisfies the symmetry system")
    K = nullspace_rows(field, rows)
    k = len(K)
    Q, piv = rref_rows(field, _pair_rows(N_list, 1, w))
    Q = Q[: len(piv)].reshape(-1, W, W)
    Ks = K.reshape(k, W, W)
    G = kern.gemm(kern.gemm(Ks[:, None], Q[None])[:, :, None], Ks[None, None])  # K_a Q_beta K_b
    # rows (beta, i0, i3) of pair (1,2) and (beta, i2, i1) of (3,0); columns (a, b)
    eqs = np.concatenate([G.transpose(1, 3, 4, 0, 2), G.transpose(1, 3, 4, 2, 0)])
    X = nullspace_rows(field, eqs.reshape(-1, k * k))
    if not len(X):
        raise Degenerate("only the zero tensor satisfies the symmetry system")
    T = kern.gemm(kern.gemm(K.T, X.reshape(-1, k, k)), K)  # sum_ab x_ab K_a (x) K_b
    R, _ = rref_rows(field, T.reshape(len(X), W ** 4)[:, ::-1])
    vec = R[-1][::-1]  # the reversed RREF's last row: the first free column's vector
    n = 4 * W
    lays = [layout(w, blk) for blk in range(4)]
    terms = {}
    for t in np.flatnonzero(vec).tolist():
        exp = [0] * n
        for blk in range(4):
            exp[blk * W + lays[blk][t // W ** (3 - blk) % W]] = 1
        terms[tuple(exp)] = int(vec[t])
    return MPoly(field, n, terms), len(X)


def extract_conjugated_unit(B: Mat, L: Mat, w: int) -> Mat | None:
    """F with B L B^{-1} = I_w (x) F, or None if not of that shape."""
    G = B * L * B.inverse()
    F = G.block(0, 0, w, w)
    return F if G == kron(Mat.identity(B.field, w), F) else None


def fmai_solve(A: AlgebraInput, mmti, rng: Rng):
    """Decide A ~ M_w and produce an isomorphism, or None.

    mmti is the 3-tensor oracle callable handed to the degree reduction.
    The returned map is verified multiplicative and bijective; extraction
    inconsistencies between the two conjugation identities reject.  At
    w = 1 no identity constrains a tensor, and e maps to its 1 x 1 action.
    """
    field = A.field
    r = A.dim
    w = isqrt(r)
    if w * w != r or w < 1:
        return reject("dimension-square")
    passed("dimension-square")
    try:
        Ls = left_mult_matrices(A)
    except (NotClosed, InputError):
        return reject("left-multiplication")
    passed("left-multiplication")
    Ns = commutant_basis([L.transpose() for L in Ls])
    if len(Ns) != w * w:
        return reject("commutant-dimension")
    passed("commutant-dimension")
    images = {(0, 0): Ls[0]} if w == 1 else _tensor_images(Ls, Ns, w, mmti, rng)
    if images is None:
        return None
    iso = AlgebraIso(w, images)
    if not verify_isomorphism(A, Ls, iso):
        return reject("multiplicativity")
    passed("multiplicativity")
    return iso


def _tensor_images(Ls: list[Mat], Ns: list[Mat], w: int, mmti, rng: Rng):
    """The images read off the constrained tensor's block transforms, or None."""
    try:
        tensor, _ = build_constrained_tensor(Ls, Ns, w)
    except Degenerate:
        return reject("tensor-nonzero")
    passed("tensor-nonzero")
    Bs = degree_d_to_3(ExplicitBlackbox(tensor), w, 4, mmti, rng)
    if Bs is None:
        return None
    B0, B1 = Bs[0], Bs[1]
    images: dict[tuple[int, int], Mat] = {}
    for i in range(w):
        for j in range(w):
            L = Ls[i * w + j]
            F = extract_conjugated_unit(B1, L, w)
            if F is None:
                return reject("extraction")
            Ft = extract_conjugated_unit(B0, L.transpose(), w)
            if Ft is None or Ft != F.transpose():
                return reject("extraction")
            images[(i, j)] = F
    return images


def verify_isomorphism(A: AlgebraInput, Ls: list[Mat], iso: AlgebraIso) -> bool:
    """Multiplicativity on all basis pairs plus bijectivity onto M_w."""
    field = A.field
    w = iso.w
    r = w * w
    F = [iso.images[divmod(t, w)] for t in range(r)]
    flat = Mat(field, _flat(F))
    if flat.rank() != r:
        return False
    for t1 in range(r):
        rhs = Ls[t1].transpose() * flat  # row t2: sum_t L_t1[t, t2] phi(t), flattened
        for t2 in range(r):
            if not np.array_equal((F[t1] * F[t2]).flatten(), rhs.rows[t2]):
                return False
    return True
