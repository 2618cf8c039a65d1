"""Variable ordering, the trace blackbox, Lie generators, planted instances."""

import numpy as np
import pytest

from trimm_helpers import (
    distinct_diagonal_element,
    lie_generator_basis,
    lie_generator_by_parity,
    rotation_symmetry,
    var_entry,
)
from trimmeq.errors import InputError
from trimmeq.field import Fp, Rng
from trimmeq.lie import _certify_basis, lie_algebra_basis_exact
from trimmeq.linalg import Mat, rank_rows
from trimmeq.poly import ExplicitBlackbox, pit_equal
from trimmeq.trimm import (
    TrimmShape,
    block_to_layer,
    layer_from_point,
    layer_to_block,
    lie_generator,
    plant_instance,
    trimm_blackbox,
    trimm_explicit,
    var_index,
    verify_witness,
)

F = Fp()


def test_shape_validation():
    with pytest.raises(InputError):
        TrimmShape(1, 3)
    with pytest.raises(InputError):
        TrimmShape(2, 2)
    assert TrimmShape(2, 3).n == 12


def test_var_index_paper_ordering():
    sh = TrimmShape(2, 3)
    assert var_index(sh, 0, 1, 2) == 1  # block 0 row-major
    assert var_index(sh, 1, 2, 1) == 5  # block 1 column-major
    assert var_index(sh, 2, 1, 1) == 8


def test_var_index_roundtrip():
    for (w, d) in [(2, 3), (3, 4)]:
        sh = TrimmShape(w, d)
        seen = set()
        for k in range(d):
            for i in range(1, w + 1):
                for j in range(1, w + 1):
                    flat = var_index(sh, k, i, j)
                    assert var_entry(sh, flat) == (k, i, j)
                    seen.add(flat)
        assert seen == set(range(sh.n))


def test_trimm_blackbox_values():
    sh = TrimmShape(2, 3)
    bb = trimm_blackbox(F, sh)
    assert bb.eval([1] * 12) == 8  # tr(J_2^3) = 2^3
    ident_point = [0] * 12
    for k in range(3):
        for i in range(1, 3):
            ident_point[var_index(sh, k, i, i)] = 1
    assert bb.eval(ident_point) == 2  # tr(I_2)


def test_trimm_explicit_matches_blackbox_and_path_count():
    rng = Rng(1)
    for (w, d) in [(2, 3), (2, 4), (3, 3)]:
        sh = TrimmShape(w, d)
        e = trimm_explicit(F, sh)
        assert len(e.terms) == w ** d  # one monomial per cyclic index path
        bb = trimm_blackbox(F, sh)
        assert pit_equal(ExplicitBlackbox(e), bb, 100, rng)


def test_eval_many_matches_eval():
    rng = Rng(2)
    for (w, d) in [(2, 3), (3, 4)]:
        sh = TrimmShape(w, d)
        bb = trimm_blackbox(F, sh)
        pts = rng.array(F, (7, sh.n))
        fast = bb.eval_many(pts)
        for t in range(7):
            assert int(fast[t]) == bb.eval([int(x) for x in pts[t]])


def test_lie_generator_zero_matrix():
    sh = TrimmShape(2, 3)
    assert lie_generator(sh, 0, Mat.zeros(F, 2, 2)).is_zero()


def test_lie_generator_identity_blocks():
    sh = TrimmShape(2, 4)
    E = lie_generator(sh, 0, Mat.identity(F, 2))
    w2 = 4
    assert E.block(0, 0, w2, w2) == Mat.identity(F, w2)
    assert E.block(w2, w2, w2, w2) == Mat.identity(F, w2).scale(F.p - 1)


@pytest.mark.parametrize("w,d", [(2, 3), (2, 4), (3, 3), (2, 5), (2, 6), (3, 4)])
def test_lie_generators_satisfy_identity_all_parities(w, d):
    """Regression over every (parity of k, parity of d) combination."""
    rng = Rng(100 * w + d)
    sh = TrimmShape(w, d)
    bb = trimm_blackbox(F, sh)
    for k in range(d):
        for _ in range(3):
            M = Mat.random(F, w, w, rng)
            assert _certify_basis(bb, [lie_generator(sh, k, M)], 20, rng), (k, d)


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_lie_generator_matches_parity_table(w, d):
    """The generator placed through ``layout`` equals the explicit parity
    table at every k, both parities of k and of k + 1 (wrapping at d - 1)."""
    rng = Rng(10 * w + d)
    sh = TrimmShape(w, d)
    for k in range(d):
        M = Mat.random(F, w, w, rng)
        assert lie_generator(sh, k, M) == lie_generator_by_parity(sh, k, M), (k, d)


def test_generator_span_dimension_matches_exact_nullspace():
    for (w, d) in [(2, 3), (2, 4)]:
        sh = TrimmShape(w, d)
        gens = lie_generator_basis(F, sh)
        dim = rank_rows(F, np.array([g.flatten() for g in gens]))
        exact = lie_algebra_basis_exact(trimm_explicit(F, sh))
        assert dim == exact.dim == d * w * w - 1


def test_lie_generators_are_block_diagonal():
    rng = Rng(44)
    for (w, d) in [(2, 3), (2, 4), (3, 3)]:
        sh = TrimmShape(w, d)
        w2 = w * w
        for k in range(d):
            E = lie_generator(sh, k, Mat.random(F, w, w, rng))
            for i in range(sh.n):
                for j in range(sh.n):
                    if E.rows[i][j]:
                        assert i // w2 == j // w2


def test_distinct_diagonal_element():
    rng = Rng(4)
    sh = TrimmShape(2, 3)
    B = distinct_diagonal_element(F, sh, rng)
    diag = [B.rows[i][i] for i in range(12)]
    assert len(set(diag)) == 12
    for i in range(12):
        for j in range(12):
            if i != j:
                assert B.rows[i][j] == 0
    assert _certify_basis(trimm_blackbox(F, sh), [B], 20, rng)


def test_plant_instance_identity_and_invertibility():
    rng = Rng(5)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    assert inst.A.is_invertible()
    for seed in range(10):
        assert plant_instance(F, sh, Rng(seed), mode="full").A.is_invertible()


def test_plant_block_mode_is_set_multilinear():
    """Fixing all but one block must leave a homogeneous linear function."""
    rng = Rng(6)
    sh = TrimmShape(2, 4)
    inst = plant_instance(F, sh, rng, mode="block")
    f = inst.f
    for k in range(4):
        template = [0] * 16
        for kk in range(4):
            if kk != k:
                for v in sh.block_vars(kk):
                    template[v] = rng.scalar(F)
        base = list(template)
        assert f.eval(base) == 0  # tensor: vanishes when a block is zero
        a = rng.vector(F, 4)
        b = rng.vector(F, 4)
        pa, pb, pab = list(base), list(base), list(base)
        for t, v in enumerate(sh.block_vars(k)):
            pa[v], pb[v], pab[v] = a[t], b[t], (a[t] + b[t]) % F.p
        assert (f.eval(pa) + f.eval(pb)) % F.p == f.eval(pab)


def test_verify_witness_accepts_plant_and_rejects_perturbation():
    rng = Rng(7)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    assert verify_witness(inst.f, sh, inst.A, 50, rng)
    bad = inst.A.copy()
    bad.rows[3][7] = (bad.rows[3][7] + 1) % F.p
    assert not verify_witness(inst.f, sh, bad, 50, rng)


def test_verify_witness_does_not_use_the_kernel_product(monkeypatch):
    """A broken GEMM cannot vouch for a witness: verify evaluates on the
    scalar path, so it still tells the plant from a perturbation."""
    from trimmeq.modarith import _KernelBase

    rng = Rng(7)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="full")

    def garbage(self, A, B):
        shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
        return self.zeros(shape) + 1

    monkeypatch.setattr(_KernelBase, "gemm", garbage)
    assert verify_witness(inst.f, sh, inst.A, 50, rng)
    bad = inst.A.copy()
    bad.rows[3][7] = (bad.rows[3][7] + 1) % F.p
    assert not verify_witness(inst.f, sh, bad, 50, rng)


def test_verify_witness_accepts_rotated_symmetry():
    rng = Rng(8)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    for ell in range(3):
        P = rotation_symmetry(F, sh, ell)
        assert verify_witness(inst.f, sh, P * inst.A, 50, rng), ell


def test_verify_witness_block_list():
    rng = Rng(9)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    assert verify_witness(inst.f, sh, inst.blocks, 50, rng)


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_layer_block_round_trip(w, k):
    rng = Rng(10 * w + k)
    B = Mat.random(F, w * w, w * w, rng)
    X = block_to_layer(B, k)
    assert layer_to_block(X, k) == B
    assert block_to_layer(layer_to_block(X, k), k) == X
    # X(x) is the layer-k matrix that the trace product reads at B.x
    for _ in range(3):
        x = rng.vector(F, w * w)
        assert X.eval(x) == layer_from_point(TrimmShape(w, 4), k, B.matvec(x), F)
