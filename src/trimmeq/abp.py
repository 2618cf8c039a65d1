"""Evaluation dimension and set-multilinear branching program reconstruction.

A set-multilinear ABP over blocks B_0..B_{d-1} is a product
row(1xW) . mid(WxW)^{d-2} . col(Wx1) of linear matrices, layer k reading
only block-k variables.  Reconstruction recovers a min-width ABP from
blackbox access by anchoring random suffix assignments and solving one
linear system per layer; the result is certified against the blackbox by
randomized identity testing.
"""

from __future__ import annotations

import numpy as np

from .errors import AnchorSingular, CertificationFailed
from .field import Fp, Rng
from .linalg import Mat, rank_rows
from .poly import Blackbox, LinMat, pit_equal


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
    for c, v in enumerate(fixed):
        pts[:, v] = np.repeat(assigns[:, c], m)
    for c, v in enumerate(rest):
        pts[:, v] = np.tile(probes[:, c], m)
    vals = f.eval_many(pts).reshape(m, m)
    return rank_rows(field, vals)


class SetMultABP:
    """Layered linear-matrix product: 1xW row, then WxW layers, then Wx1."""

    def __init__(self, field: Fp, blocks: list[list[int]], layers: list[LinMat], n: int):
        self.field = field
        self.blocks = blocks
        self.layers = layers
        self.n = n  # arity of the ambient variable space

    @property
    def width(self) -> int:
        return self.layers[0].ncols

    @property
    def d(self) -> int:
        return len(self.layers)

    def eval(self, point: list[int]) -> int:
        M = self.layers[0].eval(point)
        for L in self.layers[1:]:
            M = M * L.eval(point)
        return int(M.rows[0, 0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        cur = self.layers[0].eval_many(pts)
        for L in self.layers[1:]:
            cur = self.field.kernel.gemm(cur, L.eval_many(pts))
        return cur[:, 0, 0]

    def as_blackbox(self) -> Blackbox:
        abp = self

        class _BB(Blackbox):
            def eval(self, point):
                return abp.eval(point)

            def eval_many(self, pts):
                return abp.eval_many(pts)

        return _BB(self.field, self.n, self.d)


def linear_form_coeffs(f: Blackbox, template: list[int], block: list[int]) -> list[int]:
    """Coefficient vector of the linear form x_block -> f(template with block=x).

    f restricted this way is homogeneous linear for set-multilinear f, so
    unit-vector evaluations read the coefficients off directly.
    """
    base = list(template)
    for v in block:
        base[v] = 0
    coeffs = []
    for v in block:
        q = list(base)
        q[v] = 1
        coeffs.append(f.eval(q))
    return coeffs


def reconstruct_abp(
    h: Blackbox,
    blocks: list[list[int]],
    width: int,
    rng: Rng,
    certify_points: int = 50,
    attempts: int = 3,
) -> SetMultABP:
    """Width-`width` set-multilinear ABP computing the d-tensor h.

    Layer k is solved from anchor systems: suffix anchors fix random values
    for blocks k+1.., prefix anchors instantiate the already-built partial
    product; the anchor matrix must be invertible (resampled up to 3 times,
    else AnchorSingular).  The output is PIT-certified against h.
    """
    field = h.field
    last_err: Exception = AnchorSingular("no attempt ran")
    for _ in range(attempts):
        try:
            abp = _reconstruct_once(h, blocks, width, rng)
        except AnchorSingular as e:
            last_err = e
            continue
        bb = abp.as_blackbox()
        if pit_equal(h, bb, certify_points, rng):
            return abp
        last_err = CertificationFailed("reconstructed ABP failed identity test")
    raise last_err


def _suffix_template(field: Fp, n: int, blocks, k: int, rng: Rng) -> list[int]:
    """Random assignment to blocks k+1.. (zero elsewhere)."""
    t = [0] * n
    for b in blocks[k + 1 :]:
        for v in b:
            t[v] = rng.scalar(field)
    return t


def _reconstruct_once(h: Blackbox, blocks, W: int, rng: Rng) -> SetMultABP:
    field = h.field
    kern = field.kernel
    d = len(blocks)
    n = h.n

    # layer 0: entries are h with suffix anchored
    suffix = [_suffix_template(field, n, blocks, 0, rng) for _ in range(W)]
    Y0 = LinMat(field, 1, W, n)
    for j in range(W):
        Y0.coeffs[0, j, blocks[0]] = linear_form_coeffs(h, suffix[j], blocks[0])
    layers = [Y0]

    for k in range(1, d):
        layer = None
        for _ in range(3):
            prefixes = []
            for _ in range(W):
                pt = [0] * n
                for b in blocks[:k]:
                    for v in b:
                        pt[v] = rng.scalar(field)
                prefixes.append(pt)
            # anchor matrix: rows are the partial products at the prefixes
            A_rows = []
            for pt in prefixes:
                M = layers[0].eval(pt)
                for L in layers[1:]:
                    M = M * L.eval(pt)
                A_rows.append(M.rows[0])
            A = Mat(field, A_rows)
            if A.det() == 0:
                continue
            Ainv = A.inverse()
            if k < d - 1:
                suffix = [_suffix_template(field, n, blocks, k, rng) for _ in range(W)]
                # prefix and suffix assignments have disjoint support
                anchors = [[[(a + b) % field.p for a, b in zip(pre, suf)] for suf in suffix]
                           for pre in prefixes]
            else:
                anchors = [[pre] for pre in prefixes]
            G = kern.asarray([[linear_form_coeffs(h, t, blocks[k]) for t in row] for row in anchors])
            # row i of the layer is row i of A^-1 applied to the anchored forms
            layer = LinMat(field, W, G.shape[1], n)
            coeffs = kern.gemm(Ainv.rows, G.reshape(W, -1))
            layer.coeffs[:, :, blocks[k]] = coeffs.reshape(G.shape)
            break
        if layer is None:
            raise AnchorSingular(f"anchor matrix singular at layer {k}")
        layers.append(layer)
    return SetMultABP(field, [list(b) for b in blocks], layers, n)
