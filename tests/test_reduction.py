"""The reduction pipeline: ordering, intertwiners, Kronecker factorization,
tensor isomorphism, and the end-to-end equivalence test."""

import sys

import numpy as np
import pytest

from trimmeq import reduction
from trimmeq.abp import SetMultABP, evaldim
from trimmeq.errors import StructureViolation
from trimmeq.field import Fp, Rng
from trimmeq.linalg import Mat, kron, random_invertible, same_span
from trimmeq.oracles import PlantedDetOracle, QuadraticDetOracle
from trimmeq.poly import Blackbox, ComposedBlackbox, DetBlackbox, ExplicitBlackbox, LinMat, MPoly
from trimmeq.reduction import (
    _layer_det_root,
    factor_kron,
    intertwiner_space,
    order_blocks,
    solve_intertwiner,
    tensor_iso_to_det,
    trace_equivalence,
    trace_to_tensor_iso,
)
from trimmeq.report import RunReport
from trimmeq.trimm import (
    TrimmShape,
    plant_instance,
    trimm_blackbox,
    trimm_explicit,
    verify_witness,
)
from intertwiner_reference import intertwiner_space_by_coefficients
from trimm_helpers import transposing

F = Fp()


# ---------------------------------------------------------------------------
# ordering
# ---------------------------------------------------------------------------

def test_order_blocks_unshuffled_is_rotation():
    for (w, d) in [(2, 4), (2, 5)]:
        sh = TrimmShape(w, d)
        rep = order_blocks(trimm_blackbox(F, sh), sh, Rng(10 * d))
        assert rep is not None
        tau = rep.tau
        diffs = {(tau[(t + 1) % d] - tau[t]) % d for t in range(d)}
        assert diffs in ({1}, {d - 1})


SIGMA = [2, 0, 3, 1]  # block k of the shuffled (2,4) tensor is block SIGMA[k] of Tr-IMM


def _shuffled_24():
    sh = TrimmShape(2, 4)
    P = Mat.zeros(F, sh.n, sh.n)
    for k, s in enumerate(SIGMA):
        P.rows[s * 4 : s * 4 + 4, k * 4 : k * 4 + 4] = Mat.identity(F, 4).rows
    return ComposedBlackbox(trimm_blackbox(F, sh), P), sh


def _generic_4tensor():
    rng = Rng(3)
    t = MPoly.zero(F, 16)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                for e4 in range(4):
                    e = [0] * 16
                    e[a] = e[4 + b] = e[8 + c] = e[12 + e4] = 1
                    t.add_term(tuple(e), rng.scalar(F))
    return ExplicitBlackbox(t), TrimmShape(2, 4)


def test_order_blocks_recovers_shuffle():
    g, sh = _shuffled_24()
    d = sh.d
    rep = order_blocks(g, sh, Rng(2))
    assert rep is not None
    tau = rep.tau
    # tau must chain blocks whose images under SIGMA are cyclically adjacent
    for t in range(d):
        a, b = SIGMA[tau[t]], SIGMA[tau[(t + 1) % d]]
        assert (b - a) % d in (1, d - 1)


def test_order_blocks_rejects_generic_4tensor():
    bb, sh = _generic_4tensor()
    assert order_blocks(bb, sh, Rng(3)) is None


def test_order_blocks_d3_identity():
    sh = TrimmShape(2, 3)
    rep = order_blocks(trimm_blackbox(F, sh), sh, Rng(4))
    assert rep is not None and rep.tau == [0, 1, 2]


@pytest.mark.parametrize("case", ["2x4", "2x5", "3x3", "shuffled-2x4", "generic-4-tensor"])
def test_order_blocks_decides_as_the_full_grid(monkeypatch, case):
    """The (w^2 + 16)-sample table chains the blocks exactly as the
    (w^4 + 16)-sample one did, and each entry is min(evaldim, w^2 + 16)."""
    if case == "shuffled-2x4":
        g, sh = _shuffled_24()
    elif case == "generic-4-tensor":
        g, sh = _generic_4tensor()
    else:
        sh = TrimmShape(*map(int, case.split("x")))
        g = trimm_blackbox(F, sh)
    rep = order_blocks(g, sh, Rng(11))
    with monkeypatch.context() as mp:
        full = sh.w ** 4 + 16
        mp.setattr(reduction, "evaldim", lambda f, fixed, m, rng: evaldim(f, fixed, full, rng))
        ref = order_blocks(g, sh, Rng(11))
    assert (rep is None) == (ref is None)
    if ref is not None:
        assert rep.tau == ref.tau
        cap = sh.w ** 2 + 16
        assert rep.evaldim_table == [[min(e, cap) for e in row] for row in ref.evaldim_table]


@pytest.mark.parametrize("w", [2, 3])
def test_order_blocks_reads_a_w2_plus_16_grid_per_pair(w):
    """At d = 3 there are three pairs, each read on a (w^2 + 16)^2 grid."""
    sh = TrimmShape(w, 3)
    base = trimm_blackbox(F, sh)
    read = []

    class Counting(Blackbox):
        def eval_many(self, pts):
            read.append(len(pts))
            return base.eval_many(pts)

    assert order_blocks(Counting(F, sh.n, sh.d), sh, Rng(5)).tau == [0, 1, 2]
    assert sum(read) == 3 * (w * w + 16) ** 2


# ---------------------------------------------------------------------------
# intertwiners
# ---------------------------------------------------------------------------

def test_intertwiner_plain_structure():
    X = LinMat.symbolic(F, 2)
    Z = X.identity_kron(2)
    space = intertwiner_space(Z, Z, Rng(4))
    assert len(space) == 4
    for (T, S) in space:
        assert T == S
        for a in range(2):
            for b in range(2):
                blk = T.block(2 * a, 2 * b, 2, 2)
                assert blk == Mat.identity(F, 2).scale(blk.rows[0][0])


def test_intertwiner_mixed_only_zero():
    X = LinMat.symbolic(F, 2)
    Z = X.identity_kron(2)
    assert intertwiner_space(Z, Z.transpose(), Rng(4)) == []


def _planted_layer(w, rng):
    """(Y, Z): Y = T0.(I (x) X).T1 for a random w x w linear matrix X in
    w^2 variables, as a reconstructed middle layer, and Z = I (x) C.X.D, as
    the DET oracle's answer for it, with T0, T1, C and D random invertibles."""
    W = w * w
    X = LinMat(F, w, w, W, rng.array(F, (w, w, W)))
    Y = X.identity_kron(w).left_mul(random_invertible(F, W, rng)).right_mul(
        random_invertible(F, W, rng))
    Xp = X.left_mul(random_invertible(F, w, rng)).right_mul(random_invertible(F, w, rng))
    return Y, Xp.identity_kron(w)


def _same_pairs(a, b):
    """The two lists of pairs (T, S) span one space."""
    flat = lambda sp: np.array([np.concatenate([T.rows.ravel(), S.rows.ravel()]) for T, S in sp])
    return len(a) == len(b) and (not a or same_span(F, flat(a), flat(b)))


@pytest.mark.parametrize("w", [2, 3, 4])
def test_intertwiner_space_equals_coefficient_matching(w):
    """On random planted layers the sampled space is the space of every
    pair with T.Y = Z.S: dimension w^2 on the plain branch and 0 on the
    transposed one, as coefficient matching finds it."""
    rng = Rng(20 + w)
    for _ in range(2):
        Y, Z = _planted_layer(w, rng)
        for Zb, dim in ((Z, w * w), (Z.transpose(), 0)):
            space = intertwiner_space(Y, Zb, rng)
            assert len(space) == dim
            assert _same_pairs(space, intertwiner_space_by_coefficients(Y, Zb))
            for T, S in space:
                assert Y.left_mul(T) == Zb.right_mul(S)


def test_intertwiner_space_of_a_layer_singular_everywhere_is_empty():
    """det Y = 0 identically: Y(a) is singular, so no invertible pair
    exists and the space is [], on either branch."""
    rng = Rng(24)
    _, Z = _planted_layer(3, rng)
    Y = LinMat(F, 9, 9, 9, _skew_middle(9))
    assert intertwiner_space(Y, Z, rng) == []
    assert intertwiner_space(Y, Z.transpose(), rng) == []
    assert solve_intertwiner(Y, Z, rng) is None


def _spy_systems(monkeypatch):
    """One list per intertwiner_space call, of the (rows, columns) of each
    system it eliminates."""
    calls = []
    space, nullspace = reduction.intertwiner_space, reduction.nullspace_rows

    def spied_space(*args, **kwargs):
        calls.append([])
        return space(*args, **kwargs)

    def spied_nullspace(field, rows):
        calls[-1].append(rows.shape)
        return nullspace(field, rows)

    monkeypatch.setattr(reduction, "intertwiner_space", spied_space)
    monkeypatch.setattr(reduction, "nullspace_rows", spied_nullspace)
    return calls


def test_intertwiner_exact_check_falls_back_to_every_variable(monkeypatch):
    """From one sampled point, S.P(b) = Q(b).S is solved by every S in the
    w^3-dimensional commutant of a point of I (x) X: the check against
    every variable rejects it on both branches, the exact system of all
    n = 9 variables follows, and the result is the coefficient-matching
    space."""
    calls = _spy_systems(monkeypatch)
    monkeypatch.setattr(reduction, "_FIRST_POINTS", 1)
    rng = Rng(25)
    Y, Z = _planted_layer(3, rng)
    for Zb in (Z, Z.transpose()):
        space = reduction.intertwiner_space(Y, Zb, rng)
        assert _same_pairs(space, intertwiner_space_by_coefficients(Y, Zb))
    assert calls == [[(81, 81), (729, 81)]] * 2


def test_intertwiner_solves_the_exact_system_at_w2(monkeypatch):
    """At w = 2 a pair of matrices and its transpose are simultaneously
    conjugate (tr A, tr B, det A, det B and tr AB decide it), so two points
    admit a nonzero S on the branch that has no pair, and the check would
    always send that branch on to the exact system.  With n = 4 the two
    points would be half its rows, so every call of a planted (2,4) solve
    eliminates the exact 64 x 16 system alone.  The solve certifies."""
    rng = Rng(1)
    Y, Z = _planted_layer(2, rng)
    a = rng.array(F, (1, 4))
    (_, _, P), (_, _, Q) = reduction._read(Y, a), reduction._read(Z.transpose(), a)
    b = rng.array(F, (2, 4))
    rows = reduction.sylvester_rows(F, Q.eval_many(b), P.eval_many(b)).reshape(-1, 16)
    assert len(reduction.nullspace_rows(F, rows)) > 0
    assert intertwiner_space_by_coefficients(Y, Z.transpose()) == []

    calls = _spy_systems(monkeypatch)
    sh = TrimmShape(2, 4)
    inst = plant_instance(F, sh, rng, mode="full")
    res = trace_equivalence(inst.f, 4, lambda w: QuadraticDetOracle(F) if w == 2 else None, rng)
    assert res is not None and verify_witness(inst.f, sh, res[1], 100, rng)
    assert calls == [[(64, 16)]] * 4


@pytest.mark.parametrize("w,d", [(3, 3), (4, 4)])
def test_intertwiner_builds_no_coefficient_matching_system(monkeypatch, w, d):
    """In planted solves every intertwiner system has W^2 = w^4 columns, not
    2 W^2, and at most m W^2 rows for the final m, not n W^2: here two
    points suffice in every call."""
    calls = _spy_systems(monkeypatch)
    sh = TrimmShape(w, d)
    rng = Rng(1)
    inst = plant_instance(F, sh, rng, mode="full")
    res = trace_equivalence(inst.f, d, lambda ww: PlantedDetOracle(F, sh, inst.A), rng)
    assert res is not None and verify_witness(inst.f, sh, res[1], 100, rng)
    W2 = w ** 4
    assert len(calls) == 2 * (d - 2)
    for systems in calls:
        final_m = systems[-1][0] // W2
        assert all(cols == W2 and rows <= final_m * W2 for rows, cols in systems)
        assert final_m == 2


def test_solve_intertwiner_conjugated_layer():
    rng = Rng(5)
    X = LinMat.symbolic(F, 2)
    Z = X.identity_kron(2)
    T0 = random_invertible(F, 4, rng)
    T1 = random_invertible(F, 4, rng)
    Y = Z.left_mul(T0.inverse()).right_mul(T1)
    res = solve_intertwiner(Y, Z, rng)
    assert res is not None
    T, S, transposed = res
    assert not transposed
    # T.Y == Z.S as linear matrices
    assert Y.left_mul(T) == Z.right_mul(S)


def test_solve_intertwiner_transposed_branch():
    rng = Rng(6)
    X = LinMat.symbolic(F, 2)
    Z = X.identity_kron(2)
    T0 = random_invertible(F, 4, rng)
    T1 = random_invertible(F, 4, rng)
    Y = Z.transpose().left_mul(T0).right_mul(T1)
    res = solve_intertwiner(Y, Z, rng)
    assert res is not None
    _, _, transposed = res
    assert transposed


# ---------------------------------------------------------------------------
# Kronecker factorization
# ---------------------------------------------------------------------------

def test_factor_kron_identity_factor():
    X = LinMat.symbolic(F, 2)
    Y = X.identity_kron(2)
    M, Xf = factor_kron(Y, 2)
    assert M == Mat.identity(F, 2)
    assert Xf == X


def test_factor_kron_random_factor_remultiplies():
    rng = Rng(7)
    X = LinMat.symbolic(F, 2)
    for _ in range(10):
        M = random_invertible(F, 2, rng)
        Y = X.identity_kron(2).left_mul(kron(M, Mat.identity(F, 2)))
        Mf, Xf = factor_kron(Y, 2)
        rebuilt = Xf.identity_kron(2).left_mul(kron(Mf, Mat.identity(F, 2)))
        assert rebuilt == Y


def test_factor_kron_rejects_inconsistent_grid():
    X = LinMat.symbolic(F, 2)
    Y = X.identity_kron(2)
    Y.coeffs[0][2][3] = 7  # break the scalar-multiple structure
    with pytest.raises(StructureViolation):
        factor_kron(Y, 2)


@pytest.mark.parametrize("w", [2, 3, 4])
def test_layer_det_root_line_method(w):
    """The blackbox root of a conjugated I (x) X is proportional to det(X)."""
    rng = Rng(8)
    W = w * w
    X = LinMat.symbolic(F, w)
    # conjugate I (x) X by invertibles to mimic a reconstructed layer
    T0, T1 = random_invertible(F, W, rng), random_invertible(F, W, rng)
    Y = X.identity_kron(w).left_mul(T0).right_mul(T1)
    g = _layer_det_root(Y, w, rng)
    assert g is not None and (g.n, g.degree) == (W, w)
    a = rng.vector(F, W)
    while g.eval(a) == 0:
        a = rng.vector(F, W)
    c = F.div(X.eval(a).det(), g.eval(a))
    pts = rng.array(F, (30, W))
    assert list(DetBlackbox(X).eval_many(pts)) == [F.mul(c, int(v)) for v in g.eval_many(pts)]


def _skew_middle(W):
    """A W x W linear matrix in W variables with det = 0 identically that
    still sits in a minimum-width ABP: 3 x 3 skew-symmetric blocks down the
    diagonal (each of determinant 0), then single variables."""
    M = F.kernel.zeros((W, W, W))
    top = W - W % 3
    for s in range(0, top, 3):
        for v, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)], s):
            M[s + i, s + j, v], M[s + j, s + i, v] = 1, F.p - 1
    M[range(top, W), range(top, W), range(top, W)] = 1
    return M


def _diagonal_middle(W):
    """diag(x_0, ..., x_(W-1)): its determinant is no w-th power."""
    M = F.kernel.zeros((W, W, W))
    M[range(W), range(W), range(W)] = 1
    return M


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("middle", [_skew_middle, _diagonal_middle])
def test_layer_det_gate_rejects(w, middle):
    """A 3-tensor Y_0 . M . Y_2 with random outer layers reconstructs, and
    a middle layer M whose determinant vanishes or is no w-th power stops
    the reduction at ``layer-det``, before any DET query."""
    rng = Rng(20 + w)
    sh, W = TrimmShape(w, 3), w * w
    blocks = [sh.block_vars(k) for k in range(3)]
    layers = [LinMat(F, r, c, sh.n) for r, c in [(1, W), (W, W), (W, 1)]]
    for k, L in enumerate(layers):
        L.coeffs[:, :, blocks[k]] = middle(W) if k == 1 else rng.array(F, (L.nrows, L.ncols, W))
    h = SetMultABP(F, blocks, layers, sh.n)

    def oracle(g, r):
        raise AssertionError("DET oracle queried")

    with RunReport() as rep:
        assert tensor_iso_to_det(h, w, 3, oracle, rng) is None
    assert rep.failed_gate == "layer-det"


def test_solve_builds_no_explicit_determinant_root(monkeypatch):
    """The reduction reads each g_k only through evaluations: with the
    symbolic determinant, the explicit w-th root and their helpers raising,
    planted (2,3) with the quadratic oracle, planted (3,3) with the planted
    oracle and a w = 2 FMAI solve still certify."""
    from test_fmai import _conjugated_algebra, _mmti

    from trimmeq import poly
    from trimmeq.fmai import fmai_solve

    for name in ("det_linear_matrix", "wth_root", "mp_div_exact", "matches_power"):
        original = getattr(poly, name)

        def forbidden(*args, name=name, **kwargs):
            raise AssertionError(f"{name} called")

        for module in [m for key, m in list(sys.modules.items())
                       if m is not None and (key == "trimmeq" or key.startswith("trimmeq."))]:
            for key, val in list(vars(module).items()):
                if val is original:
                    monkeypatch.setattr(module, key, forbidden)

    for (w, d), seed in [((2, 3), 41), ((3, 3), 42)]:
        sh = TrimmShape(w, d)
        rng = Rng(seed)
        inst = plant_instance(F, sh, rng, mode="full")
        oracle = QuadraticDetOracle(F) if w == 2 else PlantedDetOracle(F, sh, inst.A)
        res = trace_equivalence(inst.f, d, lambda ww: oracle if ww == w else None, rng)
        assert res is not None and verify_witness(inst.f, sh, res[1], 100, rng)
    A, _ = _conjugated_algebra(Rng(43))
    assert fmai_solve(A, _mmti(F), Rng(44)) is not None


def test_solve_reads_no_value_on_the_scalar_lane(monkeypatch):
    """Every solve reads its blackboxes, its ABP layers and the planted
    oracle's registry through ``eval_many``: with the scalar ``eval`` of
    LinMat and of the blackboxes that write one out raising, planted (3,3)
    with the planted oracle and planted (2,3) with the quadratic oracle
    certify, a w = 2 FMAI positive certifies and the diagonal negative is
    rejected."""
    from test_fmai import _conjugated_algebra, _diagonal_algebra, _mmti

    from trimmeq.fmai import fmai_solve
    from trimmeq.trimm import TraceProductBlackbox

    # planting spot-checks the instance on the scalar lane, so it comes first
    runs = []
    for (w, d), seed in [((3, 3), 42), ((2, 3), 41)]:
        sh = TrimmShape(w, d)
        rng = Rng(seed)
        inst = plant_instance(F, sh, rng, mode="full")
        oracle = QuadraticDetOracle(F) if w == 2 else PlantedDetOracle(F, sh, inst.A)
        runs.append((sh, inst, oracle, rng))
    positive, _ = _conjugated_algebra(Rng(43))
    negative = _diagonal_algebra(Rng(21))

    for cls in (LinMat, ExplicitBlackbox, ComposedBlackbox, TraceProductBlackbox):
        def scalar(self, point, name=cls.__name__):
            raise AssertionError(f"{name}.eval called")
        monkeypatch.setattr(cls, "eval", scalar)
    results = []
    for sh, inst, oracle, rng in runs:
        res = trace_equivalence(inst.f, sh.d, lambda ww: oracle if ww == sh.w else None, rng)
        assert res is not None
        results.append(res)
    assert fmai_solve(positive, _mmti(F), Rng(44)) is not None
    with RunReport() as rep:
        assert fmai_solve(negative, _mmti(F), Rng(45)) is None
    assert rep.failed_gate == "mmti-oracle"
    monkeypatch.undo()
    for (sh, inst, _, rng), (_, A) in zip(runs, results):
        assert verify_witness(inst.f, sh, A, 100, rng)


# ---------------------------------------------------------------------------
# stage 1 and full pipeline
# ---------------------------------------------------------------------------

def test_trace_to_tensor_iso_planted():
    rng = Rng(9)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    res = trace_to_tensor_iso(inst.f, 3, rng)
    assert res is not None
    A_prime, w = res
    assert w == 2
    h = ComposedBlackbox(inst.f, A_prime)
    # h is a 3-tensor: zeroing any block kills it
    for k in range(3):
        pt = rng.vector(F, 12)
        for v in sh.block_vars(k):
            pt[v] = 0
        assert h.eval(pt) == 0


def test_trace_to_tensor_iso_rejects_wrong_arity():
    rng = Rng(10)
    f = ExplicitBlackbox(MPoly(F, 3, {(1, 1, 1): 1}))  # x0 x1 x2, n = 3
    with RunReport() as rep:
        assert trace_to_tensor_iso(f, 3, rng) is None
    assert rep.failed_gate == "square-dimension"


def test_tensor_iso_to_det_planted_with_transposed_oracle():
    """A planted oracle that answers with transposes still certifies."""
    rng = Rng(11)
    sh = TrimmShape(2, 4)
    inst = plant_instance(F, sh, rng, mode="block")
    det = transposing(PlantedDetOracle(F, sh, inst.A))
    Bs = tensor_iso_to_det(inst.f, 2, 4, det, rng)
    assert Bs is not None
    assert verify_witness(inst.f, sh, Bs, 100, rng)


def test_tensor_iso_to_det_planted_oracle_25():
    rng = Rng(12)
    sh = TrimmShape(2, 5)
    inst = plant_instance(F, sh, rng, mode="block")
    det = PlantedDetOracle(F, sh, inst.A)
    Bs = tensor_iso_to_det(inst.f, 2, 5, det, rng)
    assert Bs is not None
    assert verify_witness(inst.f, sh, Bs, 100, rng)


def test_trace_equivalence_trimm_itself():
    rng = Rng(13)
    sh = TrimmShape(2, 3)
    bb = trimm_blackbox(F, sh)
    res = trace_equivalence(bb, 3, lambda w: QuadraticDetOracle(F) if w == 2 else None, rng)
    assert res is not None
    w, A = res
    assert w == 2 and verify_witness(bb, sh, A, 100, rng)


def test_trace_equivalence_planted_33():
    rng = Rng(14)
    sh = TrimmShape(3, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    provider = lambda w: PlantedDetOracle(F, sh, inst.A) if w == 3 else None
    res = trace_equivalence(inst.f, 3, provider, rng)
    assert res is not None
    assert res[0] == 3
    assert verify_witness(inst.f, sh, res[1], 100, rng)


def test_trace_equivalence_planted_43():
    """w = 4: the determinant roots (C(19, 4) = 3,876 coefficients each) are
    only ever read at points."""
    rng = Rng(1)
    sh = TrimmShape(4, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    provider = lambda w: PlantedDetOracle(F, sh, inst.A) if w == 4 else None
    res = trace_equivalence(inst.f, 3, provider, rng)
    assert res is not None and res[0] == 4
    assert verify_witness(inst.f, sh, res[1], 100, rng)


def test_trace_equivalence_planted_44():
    """n = 64: the Lie algebra comes from seven blocks of 9 or 10 columns
    and one combined system, never from one 4,096-unknown elimination."""
    rng = Rng(1)
    sh = TrimmShape(4, 4)
    inst = plant_instance(F, sh, rng, mode="full")
    provider = lambda w: PlantedDetOracle(F, sh, inst.A) if w == 4 else None
    res = trace_equivalence(inst.f, 4, provider, rng)
    assert res is not None and res[0] == 4
    assert verify_witness(inst.f, sh, res[1], 100, rng)


def test_trace_equivalence_rejects_product_of_variables():
    rng = Rng(15)
    f = ExplicitBlackbox(MPoly(F, 3, {(1, 1, 1): 1}))
    provider = lambda w: QuadraticDetOracle(F) if w == 2 else None
    assert trace_equivalence(f, 3, provider, rng) is None


def test_d3_run_makes_exactly_one_det_query():
    rng = Rng(17)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="block")
    inner = QuadraticDetOracle(F)
    calls = []

    def counting_oracle(g, r):
        calls.append(g)
        return inner(g, r)

    Bs = tensor_iso_to_det(inst.f, 2, 3, counting_oracle, rng)
    assert Bs is not None
    assert len(calls) == 1


def test_nullspace_vectors_map_into_single_block():
    """The factor null spaces land inside single coordinate blocks under A."""
    from trimmeq.lie import lie_algebra_basis, random_element
    from trimmeq.linalg import poly_at_matrix
    from trimmeq.poly import factor_univariate, squarefree_test

    rng = Rng(18)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    L = lie_algebra_basis(inst.f, rng)
    R = random_element(L, rng)
    q = R.charpoly()
    assert squarefree_test(F, q)
    for p_i, _ in factor_univariate(F, q, rng):
        for v in poly_at_matrix(p_i, R).nullspace():
            av = inst.A.matvec(v)
            blocks = {t // 4 for t, x in enumerate(av) if x}
            assert len(blocks) == 1


@pytest.mark.parametrize("p", [1000003, (1 << 89) - 1], ids=["small-kernel", "pure-python"])
def test_tensor_iso_other_modulus_lanes(p):
    """The pipeline is lane-independent: non-default primes certify too."""
    field = Fp(p)
    rng = Rng(19)
    sh = TrimmShape(2, 3)
    inst = plant_instance(field, sh, rng, mode="block")
    Bs = tensor_iso_to_det(inst.f, 2, 3, QuadraticDetOracle(field), rng)
    assert Bs is not None
    assert verify_witness(inst.f, sh, Bs, 50, rng)


def test_final_pit_never_returns_uncertified():
    """Perturbing one coefficient of Tr-IMM must yield None, not a bogus A."""
    rng = Rng(16)
    base = trimm_explicit(F, TrimmShape(2, 3))
    terms = dict(base.terms)
    e0 = sorted(terms)[0]
    terms[e0] = (terms[e0] + 1) % F.p
    f = ExplicitBlackbox(MPoly(F, 12, terms))
    provider = lambda w: QuadraticDetOracle(F) if w == 2 else None
    assert trace_equivalence(f, 3, provider, rng) is None
