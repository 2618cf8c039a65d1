"""The dense constrained-tensor solve over all w^8 coefficients: the
reference that :func:`trimmeq.fmai.build_constrained_tensor` is tested
against.

Every symmetry identity is expanded over the two free modes into one row of
a single system in the W^4 = w^8 set-multilinear coefficients, whose RREF
kernel basis gives the tensor (its first vector) and the kernel dimension.
"""

from trimmeq.errors import Degenerate
from trimmeq.linalg import Mat, nullspace_rows
from trimmeq.poly import MPoly
from trimmeq.trimm import entry_offset


def build_constrained_tensor_reference(L_list: list[Mat], N_list: list[Mat], w: int):
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
