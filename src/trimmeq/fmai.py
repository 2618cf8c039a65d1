"""Full-matrix-algebra isomorphism through tensor isomorphism.

Given a basis of an algebra inside M_m, decide whether it is isomorphic to
the full algebra M_w (necessarily w^2 = dim) and produce an explicit
isomorphism.  The route: left-multiplication matrices, their transpose
commutant, a 4-tensor forced to admit both families of infinitesimal
symmetries, the degree-4 -> degree-3 tensor reduction, and an extraction
step that conjugates the left-multiplication action into I (x) F form.
"""

from __future__ import annotations

from math import isqrt

from .errors import Degenerate, InputError, NotClosed
from .field import Fp, Rng
from .linalg import Mat, nullspace_rows, rank_rows
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


def build_constrained_tensor(L_list: list[Mat], N_list: list[Mat], w: int):
    """A nonzero 4-tensor whose Lie algebra contains the conjugated block
    generators encoded by the L's (even interfaces) and N's (odd ones).

    Unknowns are the w^8 set-multilinear coefficients; each symmetry
    identity is linear in them.  Returns (tensor as MPoly, kernel dim);
    raises Degenerate when only the zero tensor satisfies the system.
    """
    field = L_list[0].field
    W = w * w
    ncoef = W ** 4

    def cidx(p_, q_, r_, s_):
        return ((p_ * W + q_) * W + r_) * W + s_

    p = field.p

    def pos(blk: int, t: int) -> int:
        # block-local position of the pair t = a*w + b under block blk's layout
        return entry_offset(w, blk, *divmod(t, w))

    def build_rows(k: int, Wm: Mat):
        """Rows of O(Wm^T, k) - O(Wm, k+1) = 0.

        Each side acts through its own block's layout: plain on an even
        block, with the index pair swapped on an odd one.
        """
        k2 = (k + 1) % 4
        other = [t for t in range(4) if t not in (k, k2)]
        Wt = Wm.transpose()
        out = []
        for beta_k in range(W):
            sb = pos(k, beta_k)
            colsA = [(pos(k, u), Wt.rows[u][sb]) for u in range(W) if Wt.rows[u][sb]]
            for beta_k2 in range(W):
                sb2 = pos(k2, beta_k2)
                colsB = [(pos(k2, u), Wm.rows[u][sb2]) for u in range(W) if Wm.rows[u][sb2]]
                base = {}
                idx = [0, 0, 0, 0]
                idx[k], idx[k2] = beta_k, beta_k2
                for u, cval in colsA:
                    iu = list(idx)
                    iu[k] = u
                    base[(iu[0], iu[1], iu[2], iu[3])] = cval % p
                for u, cval in colsB:
                    iu = list(idx)
                    iu[k2] = u
                    key = (iu[0], iu[1], iu[2], iu[3])
                    base[key] = (base.get(key, 0) - cval) % p
                if not base:
                    continue
                for o1 in range(W):
                    for o2 in range(W):
                        row = [0] * ncoef
                        nz = False
                        for (a0, a1, a2, a3), cval in base.items():
                            full = [a0, a1, a2, a3]
                            full[other[0]], full[other[1]] = o1, o2
                            if cval:
                                row[cidx(*full)] = cval
                                nz = True
                        if nz:
                            out.append(row)
        return out

    rows = []
    for L in L_list:
        rows.extend(build_rows(0, L))
        rows.extend(build_rows(2, L))
    for N in N_list:
        rows.extend(build_rows(1, N))
        rows.extend(build_rows(3, N))
    kernel = nullspace_rows(field, rows)
    if not kernel:
        raise Degenerate("only the zero tensor satisfies the symmetry system")
    vec = kernel[0]
    n = 4 * W
    terms = {}
    for t, c in enumerate(vec):
        if not c:
            continue
        s_ = t % W
        r_ = (t // W) % W
        q_ = (t // W ** 2) % W
        p_ = t // W ** 3
        exp = [0] * n
        for blk, pair in enumerate((p_, q_, r_, s_)):
            exp[blk * W + pos(blk, pair)] = 1
        terms[tuple(exp)] = c
    return MPoly(field, n, terms), len(kernel)


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
