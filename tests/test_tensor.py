"""Degree reduction to the 3-tensor oracle (unit points, read-off layers)."""

import pytest

from trimmeq.errors import Singular
from trimmeq.field import Fp, Rng
from trimmeq.linalg import Mat, random_invertible
from trimmeq.oracles import QuadraticDetOracle, mmti_oracle
from trimmeq.poly import ExplicitBlackbox, LinMat, MPoly
from trimmeq.tensor import degree_d_to_3, unit_point
from trimmeq.trimm import TrimmShape, plant_instance, verify_witness

F = Fp()


def _mmti(field):
    det = QuadraticDetOracle(field)
    return lambda h, w, rng: mmti_oracle(h, w, det, rng)


def test_unit_point_symbolic_identity_labeling():
    X = LinMat.symbolic(F, 2)
    for i in range(2):
        for j in range(2):
            b = unit_point(X, i, j)
            expect = [0] * 4
            expect[2 * i + j] = 1
            assert b == expect


def test_unit_point_composed_layer():
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
    for i in range(2):
        for j in range(2):
            b = unit_point(Xc, i, j)
            E = Xc.eval(b)
            want = Mat.zeros(F, 2, 2)
            want.rows[i][j] = 1
            assert E == want


def test_unit_point_rank_deficient_raises():
    X = LinMat(F, 2, 2, 4)
    X.coeffs[0][0][0] = 1
    X.coeffs[1][1][0] = 1  # dependent forms
    with pytest.raises(Singular):
        unit_point(X, 0, 1)


def test_degree_reduce_passthrough_d3():
    rng = Rng(2)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    Bs = degree_d_to_3(inst.f, 2, 3, _mmti(F), rng)
    assert Bs is not None and verify_witness(inst.f, sh, Bs, 100, rng)


@pytest.mark.parametrize("d", [4, 5, 6])
def test_degree_reduce_planted(d):
    rng = Rng(30 + d)
    sh = TrimmShape(2, d)
    inst = plant_instance(F, sh, rng, mode="block")
    Bs = degree_d_to_3(inst.f, 2, d, _mmti(F), rng)
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
