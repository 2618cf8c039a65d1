"""Evaluation dimension and ABP reconstruction."""

import pytest

from trimmeq import abp as abp_module
from trimmeq.abp import SetMultABP, _ATTEMPTS, _linear_forms, evaldim, reconstruct_abp
from trimmeq.errors import Singular
from trimmeq.field import Fp, Rng
from trimmeq.linalg import Mat, assemble_block_diagonal, random_invertible
from trimmeq.poly import (
    Blackbox,
    ComposedBlackbox,
    ExplicitBlackbox,
    LinMat,
    MPoly,
    RestrictionBlackbox,
    pit_equal,
)
from trimmeq.reduction import _layer_det_root
from trimmeq.trimm import TrimmShape, plant_instance, trimm_blackbox, trimm_explicit

F = Fp()


def test_evaldim_constant_polynomial():
    c = ExplicitBlackbox(MPoly.constant(F, 8, 5))
    assert evaldim(c, [0, 1, 2, 3], 10, Rng(1)) == 1


def test_evaldim_adjacent_and_nonadjacent_24():
    sh = TrimmShape(2, 4)
    bb = trimm_blackbox(F, sh)
    rng = Rng(2)
    m = 2 ** 4 + 16
    assert evaldim(bb, sh.block_vars(0) + sh.block_vars(1), m, rng) == 4
    assert evaldim(bb, sh.block_vars(3) + sh.block_vars(0), m, rng) == 4
    assert evaldim(bb, sh.block_vars(0) + sh.block_vars(2), m, rng) == 16
    assert evaldim(bb, sh.block_vars(1) + sh.block_vars(3), m, rng) == 16


def test_evaldim_invariant_under_block_change_of_basis():
    sh = TrimmShape(2, 4)
    bb = trimm_blackbox(F, sh)
    m = 2 ** 4 + 16
    for seed in range(10):
        rng = Rng(100 + seed)
        blocks = [random_invertible(F, 4, rng) for _ in range(4)]
        g = ComposedBlackbox(bb, assemble_block_diagonal(blocks))
        fixed = sh.block_vars(0) + sh.block_vars(1)
        assert evaldim(g, fixed, m, rng) == evaldim(bb, fixed, m, rng) == 4


def test_reconstruct_trimm_itself():
    sh = TrimmShape(2, 3)
    bb = trimm_blackbox(F, sh)
    rng = Rng(3)
    abp = reconstruct_abp(bb, [sh.block_vars(k) for k in range(3)], 4, rng)
    assert abp.width == 4
    assert pit_equal(bb, abp, 100, rng)


def test_reconstruct_planted_block_25():
    sh = TrimmShape(2, 5)
    rng = Rng(4)
    inst = plant_instance(F, sh, rng, mode="block")
    abp = reconstruct_abp(inst.f, [sh.block_vars(k) for k in range(5)], 4, rng)
    assert pit_equal(inst.f, abp, 200, rng)


def test_reconstruct_layers_variable_disjoint():
    sh = TrimmShape(2, 4)
    rng = Rng(5)
    inst = plant_instance(F, sh, rng, mode="block")
    abp = reconstruct_abp(inst.f, [sh.block_vars(k) for k in range(4)], 4, rng)
    for k, layer in enumerate(abp.layers):
        block = set(sh.block_vars(k))
        for i in range(layer.nrows):
            for j in range(layer.ncols):
                for v, c in enumerate(layer.coeffs[i][j]):
                    if c:
                        assert v in block


def test_reconstructed_middle_dets_nonzero_and_proportional():
    """det(Y'_k) is nonzero on planted runs, and its extracted root is
    proportional to det of the planted layer matrix."""
    sh = TrimmShape(2, 4)
    rng = Rng(6)
    inst = plant_instance(F, sh, rng, mode="block")
    blocks = [sh.block_vars(k) for k in range(4)]
    abp = reconstruct_abp(inst.f, blocks, 4, rng)
    for k in (1, 2):
        Yloc = abp.layers[k].restrict(blocks[k])
        g = _layer_det_root(Yloc, 2, rng)
        assert g is not None
        # planted layer: X_k(x) = Q_k(B_k x); det is a quadratic in 4 vars
        from trimmeq.oracles import PlantedDetOracle

        oracle = PlantedDetOracle(F, sh, inst.A)
        X = oracle.registry[k]
        a = rng.vector(F, 4)
        while g.eval(a) == 0:
            a = rng.vector(F, 4)
        c = F.div(X.eval(a).det(), g.eval(a))
        for _ in range(30):
            b = rng.vector(F, 4)
            assert X.eval(b).det() == F.mul(c, g.eval(b))


def test_set_mult_abp_is_a_blackbox():
    """A SetMultABP is a Blackbox of arity n and degree d whose ``eval`` is
    the exact product of its layers' ``LinMat.eval`` at the point."""
    rng = Rng(8)
    n, W = 16, 3
    blocks = [list(range(4 * k, 4 * k + 4)) for k in range(4)]
    layers = [LinMat(F, r, c, n) for r, c in [(1, W), (W, W), (W, W), (W, 1)]]
    for L, block in zip(layers, blocks):
        L.coeffs[:, :, block] = rng.array(F, (L.nrows, L.ncols, 4))
    abp = SetMultABP(F, blocks, layers, n)
    assert isinstance(abp, Blackbox)
    assert (abp.n, abp.degree, abp.width) == (n, 4, W)
    for _ in range(10):
        a = rng.vector(F, n)
        M = layers[0].eval(a)
        for L in layers[1:]:
            M = M * L.eval(a)
        assert abp.eval(a) == int(M.rows[0, 0])


def _planted_width_2(rng):
    """A width-2 layered product over three blocks of 4 variables."""
    n = 12
    blocks = [list(range(4)), list(range(4, 8)), list(range(8, 12))]
    row = LinMat(F, 1, 2, n)
    mid = LinMat(F, 2, 2, n)
    col = LinMat(F, 2, 1, n)
    for j in range(2):
        row.coeffs[0][j] = [rng.scalar(F) if v in blocks[0] else 0 for v in range(n)]
        col.coeffs[j][0] = [rng.scalar(F) if v in blocks[2] else 0 for v in range(n)]
        for i in range(2):
            mid.coeffs[i][j] = [rng.scalar(F) if v in blocks[1] else 0 for v in range(n)]
    return SetMultABP(F, blocks, [row, mid, col], n), blocks


def test_reconstruct_general_width():
    """Width-2 reconstruction of a planted width-2 layered product."""
    rng = Rng(7)
    planted, blocks = _planted_width_2(rng)
    abp = reconstruct_abp(planted, blocks, 2, rng)
    assert abp.width == 2
    assert pit_equal(planted, abp, 100, rng)


def test_too_wide_reconstruction_fails_each_attempt_at_its_first_anchor(monkeypatch):
    """At width 4 the anchor matrix of a width-2 product has rank 2, so every
    attempt ends at its first elimination: Singular after ``_ATTEMPTS``
    attempts, with one inversion each and no determinant."""
    calls = {"attempts": 0, "inverse": 0, "det": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(abp_module, "_reconstruct_once",
                        counted("attempts", abp_module._reconstruct_once))
    monkeypatch.setattr(Mat, "inverse", counted("inverse", Mat.inverse))
    monkeypatch.setattr(Mat, "det", counted("det", Mat.det))
    rng = Rng(7)
    planted, blocks = _planted_width_2(rng)
    with pytest.raises(Singular):
        reconstruct_abp(planted, blocks, 4, rng)
    assert calls == {"attempts": _ATTEMPTS, "inverse": _ATTEMPTS, "det": 0}


def test_linear_form_coeffs_match_batched_reads():
    """The linear-form reader of one template agrees with eval_many at the
    same unit points, and with the reader of many templates that the ABP
    solve uses."""
    rng = Rng(11)
    sh3, sh4 = TrimmShape(2, 3), TrimmShape(2, 4)
    template = [0] * sh4.n
    for v in sh4.block_vars(3):
        template[v] = rng.scalar(F)
    free = sh4.block_vars(0) + sh4.block_vars(1) + sh4.block_vars(2)
    for f in (
        trimm_blackbox(F, sh3),
        RestrictionBlackbox(ExplicitBlackbox(trimm_explicit(F, sh4)), template, free),
    ):
        point = rng.vector(F, f.n)
        for k in range(3):
            block = sh3.block_vars(k)
            rows = []
            for v in block:
                q = list(point)
                for u in block:
                    q[u] = 1 if u == v else 0
                rows.append(q)
            want = [int(x) for x in f.eval_many(F.kernel.asarray(rows))]
            assert _linear_forms(f, [point], block).tolist() == [want]
            assert any(want)
            other = rng.vector(F, f.n)
            assert _linear_forms(f, [point, other], block).tolist() == [
                want, _linear_forms(f, [other], block)[0].tolist()]
