"""Degree reduction: d-tensor isomorphism via the d = 3 oracle.

One read-off for every d >= 4.  A random restriction of blocks 3..d-1
turns the input into a 3-tensor handled by the matrix-multiplication-tensor
oracle, which returns B_0, B_1, B_2.  Each block k then gets a table
``units[k]`` of unit points (``unit_points``: for entry (i, j) of the
block's layer, a point at which the layer is the matrix unit E_ij):

* blocks 0-2 from the oracle's transforms, read through
  ``trimm.block_to_layer``;
* from d = 5 on, blocks 4..d-1 from the layers of a width-w suffix ABP
  (``abp.reconstruct_abp``, its w x 1 last layer included) of f with
  blocks 0-2 at E_00, and block 3 from its own layer, read with blocks
  0-2 at E_00, E_00, E_0i and blocks 4..d-1 at E_jj (E_j0 on the last).

The last layer is then read with block 0 at E_j0, blocks 1..d-3 at E_00
and block d-2 at E_0i: the other layers multiply to E_ji, so the trace
is entry (i, j) of the last layer.  Every layer read is one ``eval_many``
of all w^2 entry forms with their collinearity checks.  The blocks pass
the same final gates as the tensor-to-determinant reduction
(``reduction.certify_blocks``).
"""

from __future__ import annotations

import numpy as np

from .abp import _block_values, reconstruct_abp
from .errors import CertificationFailed, Singular
from .field import Rng
from .linalg import rref_rows
from .poly import Blackbox, LinMat, RestrictionBlackbox
from .reduction import certify_blocks
from .report import passed, reject
from .trimm import TrimmShape, block_to_layer


def unit_points(X: LinMat) -> np.ndarray:
    """(nrows, ncols, n) array whose [i, j] is a point b with X(b) equal to
    the (i, j) matrix unit (zero-based): C b = e_t for every entry t of the
    coefficient matrix C, from one elimination of [C | I], with 0 on the
    variables that carry no pivot.  Singular when the entry forms are
    dependent (a broken upstream invariant)."""
    C = X.coefficient_matrix().rows
    t, n = C.shape
    R, piv = rref_rows(X.field, np.concatenate([C, np.eye(t, dtype=C.dtype)], axis=1))
    if piv[-1] >= n:
        raise Singular("dependent entry forms")
    b = X.field.kernel.zeros((t, n))
    b[:, piv] = R[:, n:].T  # pivot row r fixes variable piv[r] of every solution
    return b.reshape(X.nrows, X.ncols, n)


def _entry_linear_forms(f: Blackbox, templates, block: list[int], rng: Rng):
    """Coefficients of the linear forms x_block -> f(template | block = x),
    one row per template, each with a random two-point collinearity check,
    or None when a check fails.  The r1, r2 of every template are drawn
    first, in template order, and f is read in one ``_block_values``: per
    template at the base point (block zeroed), the block's unit points, and
    q1, q2, q12 (block set to r1, r2, r1 + r2)."""
    field = f.field
    k = field.kernel
    m = len(block)
    rs = k.asarray([rng.vector(field, m) + rng.vector(field, m) for _ in templates])
    r1, r2 = rs[:, :m], rs[:, m:]
    local = np.zeros((len(templates), m + 4, m), dtype=k.dtype)
    local[:, 1 : m + 1] = np.eye(m, dtype=k.dtype)
    local[:, m + 1], local[:, m + 2], local[:, m + 3] = r1, r2, k.add(r1, r2)
    vals = _block_values(f, templates, block, local)
    base, coeffs, (q1, q2, q12) = vals[:, 0], vals[:, 1 : m + 1], vals[:, m + 1 :].T
    read_q1 = k.gemm(coeffs[:, None, :], r1[:, :, None])[:, 0, 0]
    if base.any() or not np.array_equal(k.add(q1, q2), q12) or not np.array_equal(read_q1, q1):
        return None
    return coeffs


def degree_d_to_3(f: Blackbox, w: int, d: int, mmti, rng: Rng):
    """B_0..B_{d-1} with f = Tr-IMM_{w,d}(B_0 x_0, ...), via the MMTI oracle.

    mmti is a callable (3-tensor blackbox, w, rng) -> [B_0, B_1, B_2] | None.
    One resample of the restriction points on failure, then None.
    """
    shape = TrimmShape(w, d)
    if f.n != shape.n:
        return reject("tensor-arity")
    if d == 3:
        return mmti(f, w, rng)
    for _ in range(2):
        Bs = _degree_reduce_once(f, w, d, mmti, rng)
        if Bs is not None:
            return Bs
    return None


def _degree_reduce_once(f, w, d, mmti, rng):
    field = f.field
    shape = TrimmShape(w, d)
    w2 = w * w
    blocks = [shape.block_vars(k) for k in range(d)]

    def point(pins):
        """The point of f with block k at pins[k] and zero elsewhere."""
        t = field.kernel.zeros(f.n)
        for k, b in pins.items():
            t[blocks[k]] = b
        return t

    def read_layer(k, pin):
        """The w x w layer of f-block k: entry (i, j) is the linear form of f
        in block k at ``point(pin(i, j))``, all in one read."""
        templates = np.stack([point(pin(i, j)) for i, j in np.ndindex(w, w)])
        forms = _entry_linear_forms(f, templates, blocks[k], rng)
        return None if forms is None else LinMat(field, w, w, w2, forms.reshape(w, w, w2))

    template = point({k: rng.vector(field, w2) for k in range(3, d)})
    h = RestrictionBlackbox(f, template.tolist(), blocks[0] + blocks[1] + blocks[2])
    h.degree = 3
    B012 = mmti(h, w, rng)
    if B012 is None:
        return reject("mmti-oracle")
    passed("mmti-oracle")
    try:
        units = [unit_points(block_to_layer(B012[k], k)) for k in range(3)]
    except Singular:
        return reject("unit-points")

    layers = []
    if d >= 5:
        # suffix ABP of the (0, 0)-pinned restriction over blocks 3..d-1
        free = [v for k in range(3, d) for v in blocks[k]]
        g = RestrictionBlackbox(f, point({k: units[k][0, 0] for k in range(3)}).tolist(), free)
        g.degree = d - 3
        g_blocks = [list(range(s * w2, (s + 1) * w2)) for s in range(d - 3)]
        try:
            suffix = reconstruct_abp(g, g_blocks, w, rng)
        except (Singular, CertificationFailed):
            return reject("suffix-abp")
        passed("suffix-abp")
        # suffix layer s is the layer of f-block s + 3
        layers = [L.restrict(b) for L, b in zip(suffix.layers[1:], g_blocks[1:])]
        try:
            units += [None] + [unit_points(L) for L in layers]
        except Singular:
            return reject("unit-points")
        X3 = read_layer(3, lambda i, j: {0: units[0][0, 0], 1: units[1][0, 0], 2: units[2][0, i],
                                         **{k: units[k][j, j] for k in range(4, d - 1)},
                                         d - 1: units[d - 1][j, 0]})
        if X3 is None:
            return reject("entry-linearity")
        try:
            units[3] = unit_points(X3)
        except Singular:
            return reject("unit-points")
        layers = [X3] + layers[:-1]

    last = read_layer(d - 1, lambda i, j: {0: units[0][j, 0],
                                           **{k: units[k][0, 0] for k in range(1, d - 2)},
                                           d - 2: units[d - 2][0, i]})
    if last is None:
        return reject("entry-linearity")
    return certify_blocks(f, shape, B012, layers + [last], rng)
