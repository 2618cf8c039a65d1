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
from .linalg import Mat, nullspace_rows, rank_rows, rref_rows
from .poly import ExplicitBlackbox, MPoly
from .report import passed, reject
from .tensor import degree_d_to_3
from .trimm import entry_offset


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
        flat = [E.flatten() for E in basis]
        if rank_rows(field, flat) != len(basis):
            raise InputError("basis is not linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)


class AlgebraIso:
    """phi: A -> M_w by images of the renamed basis elements."""

    def __init__(self, w: int, images: dict[tuple[int, int], Mat]):
        self.w = w
        self.images = images


def left_mult_matrices(A: AlgebraInput) -> list[Mat]:
    """L_(i,j): the matrix of left multiplication by basis element (i, j).

    Basis elements are renamed (1,1)..(w,w) in row-major order; rows and
    columns of each L are indexed the same way.  Raises NotClosed when a
    product leaves the basis span.
    """
    field = A.field
    r = A.dim
    w = isqrt(r)
    if w * w != r:
        raise InputError("basis size is not a perfect square")
    # coordinates: solve  sum_t x_t basis[t] = target  for each product
    cols = Mat(field, [list(v) for v in zip(*[E.flatten() for E in A.basis])])
    Ls = []
    for t1 in range(r):
        L = Mat.zeros(field, r, r)
        for t2 in range(r):
            prod = (A.basis[t1] * A.basis[t2]).flatten()
            coords = cols.solve(prod)
            if coords is None:
                raise NotClosed("a basis product leaves the span")
            for t, c in enumerate(coords):
                L.rows[t][t2] = c
        Ls.append(L)
    return Ls


def commutant_basis(mats: list[Mat]) -> list[Mat]:
    """Basis of the matrices commuting with every matrix in the list."""
    field = mats[0].field
    s = mats[0].nrows
    rows = []
    for M in mats:
        for i in range(s):
            for j in range(s):
                row = [0] * (s * s)
                for b in range(s):
                    row[i * s + b] = (row[i * s + b] + M.rows[b][j]) % field.p
                for a in range(s):
                    row[a * s + j] = (row[a * s + j] - M.rows[i][a]) % field.p
                if any(row):
                    rows.append(row)
    if not rows:
        return [_unit(field, s, a, b) for a in range(s) for b in range(s)]
    kernel = nullspace_rows(field, rows)
    return [Mat(field, [[v[a * s + b] for b in range(s)] for a in range(s)]) for v in kernel]


def _unit(field, s, a, b):
    M = Mat.zeros(field, s, s)
    M.rows[a][b] = 1
    return M


def _pair_rows(mats: list[Mat], k: int, w: int) -> np.ndarray:
    """Nonzero rows of O(M^T, k) - O(M, k+1) = 0 for every M in mats, over the
    W^2 unknowns T[i_k, i_{k+1}] of the two modes, row-major.

    Each side acts through its own block's layout, plain on an even block and
    with the index pair swapped on an odd one, so with A and B the matrix M
    permuted to the layouts of blocks k and k+1 the rows are the Sylvester
    operators A (x) I - I (x) B^T.
    """
    kern = mats[0].field.kernel
    W = w * w
    Ms = kern.asarray([M.rows for M in mats])

    def laid_out(blk):
        perm = [entry_offset(w, blk, *divmod(t, w)) for t in range(W)]
        return Ms[:, perm][:, :, perm]

    A, B = laid_out(k), laid_out(k + 1)
    I = np.eye(W, dtype=np.int64)
    rows = kern.sub(A[:, :, None, :, None] * I[:, None, :],
                    I[:, None, :, None] * B.transpose(0, 2, 1)[:, None, :, None, :])
    rows = rows.reshape(-1, W * W)
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
    # a row list, whose width is lost when it is empty: at w = 1, where every
    # pair row vanishes, M_1 gets no kernel vector, as in the dense solve
    K = nullspace_rows(field, list(_pair_rows(L_list, 0, w)))
    if not K:
        raise Degenerate("only the zero tensor satisfies the symmetry system")
    K, k = kern.asarray(K), len(K)
    Q, piv = rref_rows(field, _pair_rows(N_list, 1, w))
    Q = kern.asarray(Q[: len(piv)]).reshape(-1, W, W)
    Ks = K.reshape(k, W, W)
    G = kern.gemm(kern.gemm(Ks[:, None], Q[None])[:, :, None], Ks[None, None])  # K_a Q_beta K_b
    # rows (beta, i0, i3) of pair (1,2) and (beta, i2, i1) of (3,0); columns (a, b)
    eqs = np.concatenate([G.transpose(1, 3, 4, 0, 2), G.transpose(1, 3, 4, 2, 0)])
    X = nullspace_rows(field, eqs.reshape(-1, k * k))
    if not X:
        raise Degenerate("only the zero tensor satisfies the symmetry system")
    T = kern.gemm(kern.gemm(K.T, kern.asarray(X).reshape(-1, k, k)), K)  # sum_ab x_ab K_a (x) K_b
    R, _ = rref_rows(field, T.reshape(len(X), W ** 4)[:, ::-1])
    vec = R[-1][::-1]  # the reversed RREF's last row: the first free column's vector
    n = 4 * W
    terms = {}
    for t, c in enumerate(vec):
        if not c:
            continue
        exp = [0] * n
        for blk in range(4):
            pair = t // W ** (3 - blk) % W
            exp[blk * W + entry_offset(w, blk, *divmod(pair, w))] = 1
        terms[tuple(exp)] = c
    return MPoly(field, n, terms), len(X)


def extract_conjugated_unit(B: Mat, L: Mat, w: int) -> Mat | None:
    """F with B L B^{-1} = I_w (x) F, or None if not of that shape."""
    G = B * L * B.inverse()
    F = G.block(0, 0, w, w)
    for a in range(w):
        for b in range(w):
            blk = G.block(a * w, b * w, w, w)
            want = F if a == b else Mat.zeros(B.field, w, w)
            if blk != want:
                return None
    return F


def fmai_solve(A: AlgebraInput, mmti, rng: Rng):
    """Decide A ~ M_w and produce an isomorphism, or None.

    mmti is the 3-tensor oracle callable handed to the degree reduction.
    The returned map is verified multiplicative and bijective; extraction
    inconsistencies between the two conjugation identities reject.
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
    try:
        tensor, _ = build_constrained_tensor(Ls, Ns, w)
    except Degenerate:
        return reject("tensor-nonzero")
    passed("tensor-nonzero")
    f4 = ExplicitBlackbox(tensor)
    Bs = degree_d_to_3(f4, w, 4, mmti, rng)
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
    iso = AlgebraIso(w, images)
    if not verify_isomorphism(A, Ls, iso):
        return reject("multiplicativity")
    passed("multiplicativity")
    return iso


def verify_isomorphism(A: AlgebraInput, Ls: list[Mat], iso: AlgebraIso) -> bool:
    """Multiplicativity on all basis pairs plus bijectivity onto M_w."""
    field = A.field
    w = iso.w
    r = w * w
    flat = [iso.images[divmod(t, w)].flatten() for t in range(r)]
    if rank_rows(field, flat) != r:
        return False
    for t1 in range(r):
        for t2 in range(r):
            lhs = iso.images[divmod(t1, w)] * iso.images[divmod(t2, w)]
            rhs = Mat.zeros(field, w, w)
            for t, c in ((t, Ls[t1].rows[t][t2]) for t in range(r)):
                if c:
                    rhs = rhs + iso.images[divmod(t, w)].scale(c)
            if lhs != rhs:
                return False
    return True
