"""Degree reduction to the 3-tensor oracle (unit points, read-off layers)."""

import pytest

from trimmeq import tensor
from trimmeq.errors import Singular
from trimmeq.field import Fp, Rng
from trimmeq.linalg import Mat, assemble_block_diagonal, random_invertible
from trimmeq.oracles import PlantedDetOracle, QuadraticDetOracle, mmti_oracle
from trimmeq.poly import ExplicitBlackbox, LinMat, MPoly
from trimmeq.tensor import _entry_linear_forms, degree_d_to_3, unit_points
from trimmeq.trimm import TrimmShape, plant_instance, verify_witness

F = Fp()


def _mmti(field):
    det = QuadraticDetOracle(field)
    return lambda h, w, rng: mmti_oracle(h, w, det, rng)


def test_unit_points_symbolic_identity_labeling():
    X = LinMat.symbolic(F, 2)
    U = unit_points(X)
    for i in range(2):
        for j in range(2):
            expect = [0] * 4
            expect[2 * i + j] = 1
            assert U[i, j].tolist() == expect


def test_unit_points_composed_layer():
    rng = Rng(1)
    X = LinMat.symbolic(F, 2)
    B = random_invertible(F, 4, rng)
    Xl, Bl = X.coeffs.tolist(), B.rows.tolist()
    Xc = LinMat(F, 2, 2, 4)
    for i in range(2):
        for j in range(2):
            Xc.coeffs[i][j] = [
                sum(Xl[i][j][t] * Bl[t][v] for t in range(4)) % F.p
                for v in range(4)
            ]
    U = unit_points(Xc)
    for i in range(2):
        for j in range(2):
            E = Xc.eval(U[i, j].tolist())
            want = Mat.zeros(F, 2, 2)
            want.rows[i][j] = 1
            assert E == want


def test_unit_points_column_layer():
    """A w x 1 layer over w^2 variables (the last layer of a suffix ABP):
    point j evaluates to e_j, with 0 on the variables without a pivot."""
    rng = Rng(2)
    X = LinMat(F, 2, 1, 4, F.kernel.asarray(rng.matrix(F, 2, 4)).reshape(2, 1, 4))
    U = unit_points(X)
    assert U.shape == (2, 1, 4)
    for j in range(2):
        assert X.eval(U[j, 0].tolist()).rows[:, 0].tolist() == [int(j == 0), int(j == 1)]
    assert not U[:, 0, 2:].any()  # the first two columns are independent, so they pivot


def test_unit_points_rank_deficient_raises():
    X = LinMat(F, 2, 2, 4)
    X.coeffs[0][0][0] = 1
    X.coeffs[1][1][0] = 1  # dependent forms
    with pytest.raises(Singular):
        unit_points(X)
    column = LinMat(F, 2, 1, 4)
    column.coeffs[0][0][1] = column.coeffs[1][0][1] = 1  # both entries read x_1: e_0 is out of reach
    with pytest.raises(Singular):
        unit_points(column)


def test_degree_reduce_passthrough_d3():
    rng = Rng(2)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    Bs = degree_d_to_3(inst.f, 2, 3, _mmti(F), rng)
    assert Bs is not None and verify_witness(inst.f, sh, Bs, 100, rng)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_degree_reduce_planted(monkeypatch, d):
    """The planted tensor certifies, and each read-off layer (block 3, and
    the last block from d = 5 on) takes its w^2 entry forms from one read."""
    reads = []

    def counting(f, templates, block, rng):
        reads.append(len(templates))
        return _entry_linear_forms(f, templates, block, rng)

    monkeypatch.setattr(tensor, "_entry_linear_forms", counting)
    rng = Rng(30 + d)
    sh = TrimmShape(2, d)
    inst = plant_instance(F, sh, rng, mode="block")
    Bs = degree_d_to_3(inst.f, 2, d, _mmti(F), rng)
    assert Bs is not None
    assert verify_witness(inst.f, sh, Bs, 100, rng)
    assert reads == [4] * min(d - 3, 2)


@pytest.mark.parametrize("w,d", [(3, 4), (3, 5), (3, 6), (2, 7)])
def test_degree_reduce_planted_oracle(w, d):
    """Past w = 2 and d = 6: the MMTI oracle runs on a DET oracle planted
    from the instance's first three blocks, and the blocks it returns
    certify."""
    rng = Rng(50 + 10 * w + d)
    sh = TrimmShape(w, d)
    inst = plant_instance(F, sh, rng, mode="block")
    det = PlantedDetOracle(F, TrimmShape(w, 3), assemble_block_diagonal(inst.blocks[:3]))
    Bs = degree_d_to_3(inst.f, w, d, lambda h, w_, r: mmti_oracle(h, w_, det, r), rng)
    assert Bs is not None
    assert verify_witness(inst.f, sh, Bs, 100, rng)


def test_degree_reduce_restricted_three_tensor_signature():
    """The random restriction of a planted tensor has the evaluation
    signature of a 3-block trace tensor: w^2 on every pair."""
    from trimmeq.abp import evaldim
    from trimmeq.poly import RestrictionBlackbox

    rng = Rng(3)
    sh = TrimmShape(2, 5)
    inst = plant_instance(F, sh, rng, mode="block")
    template = [0] * sh.n
    for k in range(3, 5):
        for v in sh.block_vars(k):
            template[v] = rng.scalar(F)
    free = sh.block_vars(0) + sh.block_vars(1) + sh.block_vars(2)
    h = RestrictionBlackbox(inst.f, template, free)
    h.degree = 3
    m = 2 ** 4 + 16
    for r in range(3):
        for rp in range(r + 1, 3):
            fixed = list(range(r * 4, r * 4 + 4)) + list(range(rp * 4, rp * 4 + 4))
            assert evaldim(h, fixed, m, rng) == 4


def test_degree_reduce_rejects_random_tensor():
    rng = Rng(4)
    t = MPoly.zero(F, 16)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for e4 in range(4):
                    e = [0] * 16
                    e[a] = e[4 + b] = e[8 + c] = e[12 + e4] = 1
                    t.add_term(tuple(e), rng.scalar(F))
    assert degree_d_to_3(ExplicitBlackbox(t), 2, 4, _mmti(F), rng) is None
