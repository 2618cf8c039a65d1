"""The determinant oracles and the matrix-multiplication-tensor oracle."""

from trimmeq import oracles
from trimmeq.field import Fp, Rng
from trimmeq.linalg import Mat, random_invertible
from trimmeq.oracles import PlantedDetOracle, QuadraticDetOracle, mmti_oracle
from trimmeq.poly import DetBlackbox, ExplicitBlackbox, LinMat, MPoly, det_linear_matrix, pit_equal
from trimmeq.trimm import (
    TrimmShape,
    block_to_layer,
    plant_instance,
    trimm_blackbox,
    verify_witness,
)
from trimm_helpers import transposing

F = Fp()
DET2 = det_linear_matrix(LinMat.symbolic(F, 2))  # x0 x3 - x1 x2


def test_quadratic_oracle_identity_query():
    rng = Rng(1)
    oracle = QuadraticDetOracle(F)
    Xp = oracle(ExplicitBlackbox(DET2), rng)
    assert Xp is not None
    # identity assignment: entry (i, j) is exactly variable 2i + j
    assert Xp == LinMat.symbolic(F, 2)


def test_quadratic_oracle_rejects_rank_deficient():
    rng = Rng(2)
    oracle = QuadraticDetOracle(F)
    assert oracle(ExplicitBlackbox(MPoly(F, 4, {(2, 0, 0, 0): 1})), rng) is None  # rank 1
    assert oracle(ExplicitBlackbox(MPoly(F, 4, {(1, 1, 0, 0): 1})), rng) is None  # rank 2


def test_quadratic_oracle_rejects_cubic_and_non_homogeneous():
    """The Gram matrix is read from g at e_i and e_i + e_j whatever g is, so
    a query that is no quadratic form must fall to the answer's identity
    test, if not to the rank or discriminant check."""
    rng = Rng(13)
    oracle = QuadraticDetOracle(F)
    cubic = DET2 * MPoly.var(F, 4, 0)
    assert oracle(ExplicitBlackbox(cubic), rng) is None
    assert oracle(ExplicitBlackbox(DET2 + MPoly.var(F, 4, 1)), rng) is None  # degrees 2 and 1
    assert oracle(ExplicitBlackbox(DET2 + MPoly.constant(F, 4, 3)), rng) is None


def test_quadratic_oracle_planted_compositions():
    rng = Rng(3)
    oracle = QuadraticDetOracle(F)
    for _ in range(50):
        B = random_invertible(F, 4, rng)
        g = DET2.compose_linear(B)
        Xp = oracle(ExplicitBlackbox(g), rng)
        assert Xp is not None
        assert pit_equal(
            ExplicitBlackbox(det_linear_matrix(Xp)), ExplicitBlackbox(g), 50, rng
        )


def test_quadratic_oracle_transpose_orbit():
    """Det_2(X^T) = Det_2(X): the transpose relabeling also succeeds."""
    rng = Rng(4)
    oracle = QuadraticDetOracle(F)
    B = random_invertible(F, 4, rng)
    g = DET2.compose_linear(B)
    # transpose relabeling swaps variables 1 and 2
    perm = Mat.zeros(F, 4, 4)
    for src, dst in [(0, 0), (1, 2), (2, 1), (3, 3)]:
        perm.rows[dst][src] = 1
    gt = g.compose_linear(perm)
    assert oracle(ExplicitBlackbox(g), rng) is not None
    assert oracle(ExplicitBlackbox(gt), rng) is not None


def test_quadratic_oracle_scaled_queries():
    rng = Rng(5)
    oracle = QuadraticDetOracle(F)
    for _ in range(5):
        c = rng.nonzero_scalar(F)
        g = DET2.scale(c)
        Xp = oracle(ExplicitBlackbox(g), rng)
        assert Xp is not None
        assert pit_equal(
            ExplicitBlackbox(det_linear_matrix(Xp)), ExplicitBlackbox(g), 50, rng
        )


def test_planted_oracle_block_mode_registry():
    rng = Rng(6)
    sh = TrimmShape(2, 4)
    inst = plant_instance(F, sh, rng, mode="block")
    oracle = PlantedDetOracle(F, sh, inst.A)
    assert len(oracle.registry) == 4
    # query = det of a registered layer -> answered with beta = 1
    X = oracle.registry[1]
    g = det_linear_matrix(X)
    ans = oracle(ExplicitBlackbox(g), rng)
    assert ans is not None
    assert pit_equal(ExplicitBlackbox(det_linear_matrix(ans)), ExplicitBlackbox(g), 50, rng)


def test_planted_oracle_registry_is_the_block_layers():
    for sh in (TrimmShape(2, 4), TrimmShape(3, 3)):
        inst = plant_instance(F, sh, Rng(sh.w), mode="block")
        oracle = PlantedDetOracle(F, sh, inst.A)
        assert oracle.registry == [block_to_layer(B, k) for k, B in enumerate(inst.blocks)]


def test_planted_oracle_scalar_absorption():
    rng = Rng(7)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    oracle = PlantedDetOracle(F, sh, inst.A)
    X = oracle.registry[0]
    g = det_linear_matrix(X).scale(5)
    ans = oracle(ExplicitBlackbox(g), rng)
    assert ans is not None
    assert pit_equal(ExplicitBlackbox(det_linear_matrix(ans)), ExplicitBlackbox(g), 50, rng)


def test_planted_oracle_rejects_unregistered():
    rng = Rng(8)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    oracle = PlantedDetOracle(F, sh, inst.A)
    strange = LinMat(F, 2, 2, 4)
    for i in range(2):
        for j in range(2):
            strange.coeffs[i][j] = rng.vector(F, 4)
    g = det_linear_matrix(strange)
    assert oracle(ExplicitBlackbox(g), rng) is None


def test_planted_oracle_transpose_flag():
    rng = Rng(9)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    planted = PlantedDetOracle(F, sh, inst.A)
    oracle = transposing(planted)
    X = planted.registry[0]
    g = det_linear_matrix(X)
    ans = oracle(ExplicitBlackbox(g), rng)
    assert ans is not None
    # determinant is transpose-invariant, so the answer still verifies
    assert pit_equal(ExplicitBlackbox(det_linear_matrix(ans)), ExplicitBlackbox(g), 50, rng)


def test_mmti_on_trimm_itself():
    rng = Rng(10)
    sh = TrimmShape(2, 3)
    bb = trimm_blackbox(F, sh)
    det = QuadraticDetOracle(F)
    Bs = mmti_oracle(bb, 2, det, rng)
    assert Bs is not None
    assert verify_witness(bb, sh, Bs, 100, rng)


def test_mmti_planted_block():
    rng = Rng(11)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    det = QuadraticDetOracle(F)
    Bs = mmti_oracle(inst.f, 2, det, rng)
    assert Bs is not None
    assert verify_witness(inst.f, sh, Bs, 100, rng)


def test_mmti_rejects_random_tensor():
    rng = Rng(12)
    det = QuadraticDetOracle(F)
    rejected = 0
    for seed in range(5):
        r = Rng(1200 + seed)
        t = MPoly.zero(F, 12)
        for a in range(4):
            for b in range(4):
                for c in range(4):
                    e = [0] * 12
                    e[a] = e[4 + b] = e[8 + c] = 1
                    t.add_term(tuple(e), r.scalar(F))
        if mmti_oracle(ExplicitBlackbox(t), 2, det, r) is None:
            rejected += 1
    assert rejected == 5


def test_planted_oracle_drops_a_wrong_entry_before_the_identity_test(monkeypatch):
    """With a wrong registry entry first, the answer is the one the right
    entry alone gives, the identity test runs once, and the random stream
    ends where it ends when every fitted entry runs the identity test."""
    sh = TrimmShape(3, 3)
    inst = plant_instance(F, sh, Rng(5), mode="block")
    oracle = PlantedDetOracle(F, sh, inst.A)
    wrong, right = oracle.registry[0], oracle.registry[1]
    g = DetBlackbox(right.scale(7))
    oracle.registry = [right]
    alone = oracle(g, Rng(1))
    calls = []

    def counting_pit(*args):
        calls.append(args)
        return pit_equal(*args)

    monkeypatch.setattr(oracles, "pit_equal", counting_pit)
    oracle.registry = [wrong, right]
    rng = Rng(1)
    assert oracle(g, rng) == alone
    assert len(calls) == 1
    # the reference stream: the wrong entry's fit, then one identity-test seed
    # per fitted entry, then the right entry's fit and seed
    ref = Rng(1)
    for X in (wrong, right):
        while not X.eval(ref.vector(F, g.n)).det():
            pass
        ref.randrange(1 << 62)
    assert rng.randrange(1 << 62) == ref.randrange(1 << 62)
