"""Degree reduction: d-tensor isomorphism via the d = 3 oracle.

A random restriction of the last d-3 blocks turns the input into a
3-tensor handled by the matrix-multiplication-tensor oracle; the first
three layer matrices (the oracle's block transforms, read through
``trimm.block_to_layer``) then let unit points be solved (points at which
a layer evaluates to a matrix unit), and the remaining layers are read off
entry by entry with ``abp.linear_form_coeffs``.  d = 4 needs only the
direct read-off; d >= 5 reconstructs a width-w suffix ABP first.  The
blocks pass the same final gates as the tensor-to-determinant reduction
(``reduction.certify_blocks``).
"""

from __future__ import annotations

from .abp import linear_form_coeffs, reconstruct_abp
from .errors import AnchorSingular, CertificationFailed, Singular
from .field import Rng
from .poly import Blackbox, LinMat, RestrictionBlackbox
from .reduction import certify_blocks
from .report import passed, reject
from .trimm import TrimmShape, block_to_layer


def unit_point(Xp: LinMat, i: int, j: int) -> list[int]:
    """b with Xp(b) equal to the (i, j) matrix unit (i, j zero-based).

    Singular when the entry forms are dependent (a broken upstream
    invariant)."""
    return _unit_points_all(Xp)[i][j]


def _unit_points_all(Xp: LinMat) -> list[list[list[int]]]:
    """unit[i][j] for all positions, from one matrix inversion."""
    w = Xp.nrows
    C = Xp.coefficient_matrix()
    if not C.is_invertible():
        raise Singular("layer linear forms are dependent")
    return C.inverse().rows.T.reshape(w, w, -1).tolist()  # column t of C^-1 solves for unit t


def _entry_linear_form(f: Blackbox, template: list[int], block: list[int], rng: Rng):
    """Coefficients of the linear form x_block -> f(template | block = x),
    with a random two-point collinearity check."""
    field = f.field
    p = field.p
    base = list(template)
    for v in block:
        base[v] = 0
    if f.eval(base) != 0:
        return None
    coeffs = linear_form_coeffs(f, base, block)
    r1 = rng.vector(field, len(block))
    r2 = rng.vector(field, len(block))
    q1, q2, q12 = list(base), list(base), list(base)
    for v, a, b in zip(block, r1, r2):
        q1[v] = a
        q2[v] = b
        q12[v] = (a + b) % p
    if (f.eval(q1) + f.eval(q2)) % p != f.eval(q12):
        return None
    lin = sum(c * a for c, a in zip(coeffs, r1)) % p
    if lin != f.eval(q1):
        return None
    return coeffs


def degree_d_to_3(
    f: Blackbox,
    w: int,
    d: int,
    mmti,
    rng: Rng,
    final_trials: int = 40,
):
    """B_0..B_{d-1} with f = Tr-IMM_{w,d}(B_0 x_0, ...), via the MMTI oracle.

    mmti is a callable (3-tensor blackbox, w, rng) -> [B_0, B_1, B_2] | None.
    One resample of the restriction points on failure, then None.
    """
    field = f.field
    shape = TrimmShape(w, d)
    if f.n != shape.n:
        return reject("tensor-arity")
    if d == 3:
        return mmti(f, w, rng)
    for _ in range(2):
        Bs = _degree_reduce_once(f, w, d, mmti, rng, final_trials)
        if Bs is not None:
            return Bs
    return None


def _degree_reduce_once(f, w, d, mmti, rng, final_trials):
    field = f.field
    shape = TrimmShape(w, d)
    w2 = w * w
    blocks = [shape.block_vars(k) for k in range(d)]

    template = [0] * f.n
    for k in range(3, d):
        for v in blocks[k]:
            template[v] = rng.scalar(field)
    h = RestrictionBlackbox(f, template, blocks[0] + blocks[1] + blocks[2])
    h.degree = 3
    first = mmti(h, w, rng)
    if first is None:
        return reject("mmti-oracle")
    passed("mmti-oracle")
    B012 = first
    try:
        units = {k: _unit_points_all(block_to_layer(B012[k], k)) for k in range(3)}
    except Singular:
        return reject("unit-points")

    def put(point, k, local_vals):
        for v, x in zip(blocks[k], local_vals):
            point[v] = x % field.p

    if d == 4:
        X3 = LinMat(field, w, w, w2)
        for i in range(w):
            for j in range(w):
                t = [0] * f.n
                put(t, 0, units[0][j][0])
                put(t, 1, units[1][0][0])
                put(t, 2, units[2][0][i])
                form = _entry_linear_form(f, t, blocks[3], rng)
                if form is None:
                    return reject("entry-linearity")
                X3.coeffs[i, j] = form
        layer_mats = {3: X3}
    else:
        # suffix ABP of the (1,1)-pinned restriction over blocks 3..d-1
        t = [0] * f.n
        put(t, 0, units[0][0][0])
        put(t, 1, units[1][0][0])
        put(t, 2, units[2][0][0])
        free = [v for k in range(3, d) for v in blocks[k]]
        g = RestrictionBlackbox(f, t, free)
        g.degree = d - 3
        g_blocks = [list(range(s * w2, (s + 1) * w2)) for s in range(d - 3)]
        try:
            suffix = reconstruct_abp(g, g_blocks, w, rng)
        except (AnchorSingular, CertificationFailed):
            return reject("suffix-abp")
        passed("suffix-abp")
        layer_mats = {}
        units_suffix = {}
        for k in range(4, d - 1):
            # suffix layer k-3 is the w x w layer in f-block k
            layer_mats[k] = suffix.layers[k - 3].restrict(g_blocks[k - 3])
            try:
                units_suffix[k] = _unit_points_all(layer_mats[k])
            except Singular:
                return reject("unit-points")
        # last suffix layer: w x 1 column; b_j with Y(b_j) = e_j
        A_last = suffix.layers[d - 4].restrict(g_blocks[d - 4]).coefficient_matrix()
        b_last = []
        for j in range(w):
            rhs = [1 if u == j else 0 for u in range(w)]
            sol = A_last.solve(rhs)
            if sol is None:
                return reject("unit-points")
            b_last.append(sol)

        X3 = LinMat(field, w, w, w2)
        for i in range(w):
            for j in range(w):
                t = [0] * f.n
                put(t, 0, units[0][0][0])
                put(t, 1, units[1][0][0])
                put(t, 2, units[2][0][i])
                for k in range(4, d - 1):
                    put(t, k, units_suffix[k][j][j])
                put(t, d - 1, b_last[j])
                form = _entry_linear_form(f, t, blocks[3], rng)
                if form is None:
                    return reject("entry-linearity")
                X3.coeffs[i, j] = form
        layer_mats[3] = X3
        try:
            units3 = _unit_points_all(X3)
        except Singular:
            return reject("unit-points")

        Xlast = LinMat(field, w, w, w2)
        for i in range(w):
            for j in range(w):
                t = [0] * f.n
                put(t, 0, units[0][j][0])
                put(t, 1, units[1][0][0])
                put(t, 2, units[2][0][0])
                put(t, 3, units3[0][0])
                for k in range(4, d - 2):
                    put(t, k, units_suffix[k][0][0])
                if d - 2 >= 4:
                    put(t, d - 2, units_suffix[d - 2][0][i])
                else:
                    put(t, d - 2, units3[0][i])
                form = _entry_linear_form(f, t, blocks[d - 1], rng)
                if form is None:
                    return reject("entry-linearity")
                Xlast.coeffs[i, j] = form
        layer_mats[d - 1] = Xlast

    layers = [layer_mats[k] for k in range(3, d)]
    return certify_blocks(f, shape, B012, layers, final_trials, rng)
