"""Evaluation dimension and set-multilinear branching program reconstruction.

A set-multilinear ABP over blocks B_0..B_{d-1} is a product
row(1xW) . mid(WxW)^{d-2} . col(Wx1) of linear matrices, layer k reading
only block-k variables.  Reconstruction recovers a min-width ABP from
blackbox access by anchoring random suffix assignments and solving one
linear system per layer; it reads the blackbox and the layers already
built only through batched evaluations.  The result is certified against
the blackbox by randomized identity testing.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificationFailed, Singular
from .field import Fp, Rng
from .linalg import Mat, rank_rows
from .poly import Blackbox, LinMat, pit_equal

_CERTIFY_POINTS = 50  # identity-test points of a reconstructed ABP
_ATTEMPTS = 3  # whole reconstructions tried before giving up


def evaldim(f: Blackbox, fixed_vars: list[int], samples: int, rng: Rng) -> int:
    """Rank of the span of partial evaluations of f at the fixed variables.

    Draws `samples` random assignments for the fixed variables and the same
    number of probe points for the rest; the estimate is the rank of the
    samples x samples value matrix.  Monte-Carlo: may only underestimate.
    """
    field = f.field
    n = f.n
    fixed = list(fixed_vars)
    rest = [i for i in range(n) if i not in set(fixed)]
    m = samples
    assigns = rng.array(field, (m, len(fixed)))
    probes = rng.array(field, (m, len(rest)))
    pts = field.kernel.zeros((m * m, n))
    pts[:, fixed] = np.repeat(assigns, m, axis=0)
    pts[:, rest] = np.tile(probes, (m, 1))
    vals = f.eval_many(pts).reshape(m, m)
    return rank_rows(field, vals)


def _partial_products(layers: list[LinMat], pts: np.ndarray) -> np.ndarray:
    """(B, 1, c) product of the layers (1 x W first, c columns last) at the
    B rows of pts."""
    kern = layers[0].field.kernel
    cur = layers[0].eval_many(pts)
    for L in layers[1:]:
        cur = kern.gemm(cur, L.eval_many(pts))
    return cur


class SetMultABP(Blackbox):
    """Layered linear-matrix product: 1xW row, then WxW layers, then Wx1,
    as a blackbox over the ambient n variables of degree d = len(layers)."""

    def __init__(self, field: Fp, blocks: list[list[int]], layers: list[LinMat], n: int):
        super().__init__(field, n, len(layers))
        self.blocks = blocks
        self.layers = layers

    @property
    def width(self) -> int:
        return self.layers[0].ncols

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        return _partial_products(self.layers, pts)[:, 0, 0]


def _block_values(f: Blackbox, templates, block: list[int], local) -> np.ndarray:
    """f at each template with its block set to each row of local, as one
    (templates, rows) array from one ``eval_many``: local is (rows, |block|),
    or (templates, rows, |block|) for rows of each template's own."""
    T = f.field.kernel.asarray(templates)
    pts = np.repeat(T[:, None, :], local.shape[-2], axis=1)
    pts[:, :, block] = local
    return f.eval_many(pts.reshape(-1, f.n)).reshape(len(T), -1)


def _linear_forms(f: Blackbox, templates, block: list[int]) -> np.ndarray:
    """Coefficients of the linear form x_block -> f(template with block = x)
    for each template, as the rows of one array: f is linear in each block,
    so its values at the unit points of the block are the coefficients."""
    return _block_values(f, templates, block, np.eye(len(block), dtype=f.field.kernel.dtype))


def _random_points(field: Fp, n: int, count: int, blocks, rng: Rng) -> np.ndarray:
    """count points, zero except on the variables of blocks, which one
    ``rng.vector`` fills point by point in block order."""
    cols = [v for b in blocks for v in b]
    pts = field.kernel.zeros((count, n))
    pts[:, cols] = field.kernel.asarray(rng.vector(field, count * len(cols))).reshape(count, -1)
    return pts


def reconstruct_abp(h: Blackbox, blocks: list[list[int]], width: int, rng: Rng) -> SetMultABP:
    """Width-`width` set-multilinear ABP computing the d-tensor h.

    Layer k is solved from anchor systems: suffix anchors fix random values
    for blocks k+1.., prefix anchors instantiate the already-built partial
    product, whose values at them form the anchor matrix.  An attempt ends
    when that matrix is singular (``Singular``) or when the output fails its
    identity test against h at ``_CERTIFY_POINTS`` points
    (``CertificationFailed``); after ``_ATTEMPTS`` attempts the last error
    is raised.
    """
    for attempt in range(1, _ATTEMPTS + 1):
        try:
            abp = _reconstruct_once(h, blocks, width, rng)
        except Singular:
            if attempt == _ATTEMPTS:
                raise
            continue
        if pit_equal(h, abp, _CERTIFY_POINTS, rng):
            return abp
    raise CertificationFailed("reconstructed ABP failed identity test")


def _reconstruct_once(h: Blackbox, blocks, W: int, rng: Rng) -> SetMultABP:
    field = h.field
    kern = field.kernel
    d = len(blocks)
    n = h.n

    # layer 0: entries are h with suffix anchored
    suffixes = _random_points(field, n, W, blocks[1:], rng)
    Y0 = LinMat(field, 1, W, n)
    Y0.coeffs[0][:, blocks[0]] = _linear_forms(h, suffixes, blocks[0])
    layers = [Y0]

    for k in range(1, d):
        prefixes = _random_points(field, n, W, blocks[:k], rng)
        # anchor matrix: rows are the partial products at the prefixes
        Ainv = Mat(field, _partial_products(layers, prefixes)[:, 0, :]).inverse()
        if k < d - 1:
            suffixes = _random_points(field, n, W, blocks[k + 1 :], rng)
            anchors = kern.add(prefixes[:, None], suffixes[None])  # disjoint supports
        else:
            anchors = prefixes[:, None]
        cols = anchors.shape[1]
        forms = _linear_forms(h, anchors.reshape(-1, n), blocks[k])
        # row i of the layer is row i of A^-1 applied to the anchored forms
        layer = LinMat(field, W, cols, n)
        coeffs = kern.gemm(Ainv.rows, forms.reshape(W, -1))
        layer.coeffs[:, :, blocks[k]] = coeffs.reshape(W, cols, -1)
        layers.append(layer)
    return SetMultABP(field, [list(b) for b in blocks], layers, n)
