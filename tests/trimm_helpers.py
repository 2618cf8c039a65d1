"""Constructions that only the tests use: the inverse of ``var_index``, the
full basis of Lie generators, the Lie generators from an explicit parity
table, a generic diagonal Lie-algebra element, the rotation symmetries of
Tr-IMM, scaling of univariate coefficient lists, and a DET oracle whose
answers come transposed."""

from trimmeq.field import Fp, Rng
from trimmeq.linalg import Mat, kron
from trimmeq.trimm import TrimmShape, entry_offset, lie_generator, var_index


def var_entry(shape: TrimmShape, flat: int) -> tuple[int, int, int]:
    """Inverse of var_index: flat position -> (k, i, j), 1-based i, j."""
    w = shape.w
    k, off = divmod(flat, w * w)
    # either layout maps offset a*w + b to entry (a, b) or to entry (b, a),
    # so applying it to the digits of off yields i*w + j
    i, j = divmod(entry_offset(w, k, *divmod(off, w)), w)
    return k, i + 1, j + 1


def lie_generator_basis(field: Fp, shape: TrimmShape) -> list[Mat]:
    """All d*w^2 generators lie_generator(k, E_uv)."""
    out = []
    w = shape.w
    for k in range(shape.d):
        for u in range(w):
            for v in range(w):
                E = Mat.zeros(field, w, w)
                E.rows[u][v] = 1
                out.append(lie_generator(shape, k, E))
    return out


def lie_generator_by_parity(shape: TrimmShape, k: int, M: Mat) -> Mat:
    """lie_generator(shape, k, M) from an explicit parity table of its two
    Kronecker blocks, matching the within-block orderings:

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


def distinct_diagonal_element(field: Fp, shape: TrimmShape, rng: Rng) -> Mat:
    """A diagonal Lie-algebra element with (w.h.p.) n distinct entries.

    Built as sum_k lie_generator(k, D_k) for random diagonal D_k: the entry
    indexed by layer-k position (i, j) comes out as D_k[j] - D_{k-1}[i].
    """
    total = Mat.zeros(field, shape.n, shape.n)
    for k in range(shape.d):
        D = Mat.zeros(field, shape.w, shape.w)
        for i in range(shape.w):
            D.rows[i][i] = rng.scalar(field)
        total = total + lie_generator(shape, k, D)
    return total


def rotation_symmetry(field: Fp, shape: TrimmShape, ell: int) -> Mat:
    """Variable permutation P with Tr-IMM(P.x) = Tr-IMM(x): layer k of the
    result reads layer ell+k of the input, entrywise."""
    n = shape.n
    P = Mat.zeros(field, n, n)
    for k in range(shape.d):
        for i in range(1, shape.w + 1):
            for j in range(1, shape.w + 1):
                P.rows[var_index(shape, k, i, j)][var_index(shape, k + ell, i, j)] = 1
    return P


def uni_scale(field: Fp, a, c):
    c %= field.p
    if c == 0:
        return []
    return [x * c % field.p for x in a]


def transposing(oracle):
    """The DET oracle ``oracle`` with every answer transposed, which changes
    no determinant."""
    def ask(g, rng):
        ans = oracle(g, rng)
        return None if ans is None else ans.transpose()
    return ask
