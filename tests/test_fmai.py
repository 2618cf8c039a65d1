"""Matrix algebra isomorphism: left multiplication, commutants, the
constrained tensor, and the full solver."""

import numpy as np
import pytest
from fmai_reference import build_constrained_tensor_reference

from trimmeq import modarith
from trimmeq.errors import Degenerate, InputError, NotClosed
from trimmeq.field import Fp, Rng
from trimmeq.fmai import (
    AlgebraInput,
    AlgebraIso,
    build_constrained_tensor,
    commutant_basis,
    fmai_solve,
    left_mult_matrices,
    verify_isomorphism,
)
from trimmeq.linalg import Mat, kron, random_invertible
from trimmeq.oracles import QuadraticDetOracle, mmti_oracle
from trimmeq.poly import ExplicitBlackbox
from trimmeq.report import RunReport
from trimmeq.trimm import TrimmShape, trimm_explicit

F = Fp()


def _mmti(field):
    det = QuadraticDetOracle(field)
    return lambda h, w, rng: mmti_oracle(h, w, det, rng)


def _canonical_m2():
    basis = []
    for i in range(2):
        for j in range(2):
            E = Mat.zeros(F, 2, 2)
            E.rows[i][j] = 1
            basis.append(E)
    return AlgebraInput(F, basis)


def _conjugated_algebra(rng, w=2):
    """A randomized basis of K^{-1} (I_w (x) M_w) K inside M_{w^2}."""
    W = w * w
    K = random_invertible(F, W, rng)
    Kinv = K.inverse()
    emb = []
    for a in range(w):
        for b in range(w):
            E = Mat.zeros(F, w, w)
            E.rows[a][b] = 1
            emb.append(Kinv * kron(Mat.identity(F, w), E) * K)
    R = random_invertible(F, W, rng)
    basis = []
    for i in range(W):
        M = Mat.zeros(F, W, W)
        for j in range(W):
            if R.rows[i][j]:
                M = M + emb[j].scale(R.rows[i][j])
        basis.append(M)
    return AlgebraInput(F, basis), K


def _identity_named(w):
    """M_w with basis element (i, j) named by the matrix unit E_ji."""
    basis = []
    for i in range(w):
        for j in range(w):
            E = Mat.zeros(F, w, w)
            E.rows[j][i] = 1
            basis.append(E)
    return AlgebraInput(F, basis)


def _diagonal_algebra(rng):
    """Randomly scaled diagonal matrix units: commutative, dimension 4."""
    basis = []
    for i in range(4):
        E = Mat.zeros(F, 4, 4)
        E.rows[i][i] = rng.nonzero_scalar(F)
        basis.append(E)
    return AlgebraInput(F, basis)


def _generators(A):
    Ls = left_mult_matrices(A)
    return Ls, commutant_basis([L.transpose() for L in Ls])


def _assert_proportional(tensor, target):
    e0 = next(iter(target.terms))
    c = F.div(tensor.terms[e0], target.terms[e0])
    assert tensor.terms == {e: F.mul(c, v) for e, v in target.terms.items()}


def test_algebra_input_rejects_dependent_basis():
    E = Mat.identity(F, 2)
    with pytest.raises(InputError):
        AlgebraInput(F, [E, E.scale(2)])


def test_left_mult_canonical_reproduces_products():
    A = _canonical_m2()
    Ls = left_mult_matrices(A)
    # identity element: L for sum of diagonal units is the identity matrix
    L_id = Ls[0] + Ls[3]  # E_{1,1} + E_{2,2} = I
    assert L_id == Mat.identity(F, 4)
    # L columns are the coordinates of the products
    for t1 in range(4):
        for t2 in range(4):
            prod = A.basis[t1] * A.basis[t2]
            rebuilt = Mat.zeros(F, 2, 2)
            for t in range(4):
                c = Ls[t1].rows[t][t2]
                if c:
                    rebuilt = rebuilt + A.basis[t].scale(c)
            assert rebuilt == prod


def test_left_mult_rejects_non_closed_span():
    rng = Rng(1)
    basis = [Mat.random(F, 3, 3, rng) for _ in range(4)]
    A = AlgebraInput(F, basis)
    with pytest.raises(NotClosed):
        left_mult_matrices(A)


def test_commutant_of_identity_is_everything():
    out = commutant_basis([Mat.identity(F, 3)])
    assert len(out) == 9


def test_commutant_of_distinct_diagonal_is_diagonal():
    D = Mat.from_rows(F, [[1, 0, 0], [0, 2, 0], [0, 0, 5]])
    out = commutant_basis([D])
    assert len(out) == 3
    for N in out:
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert N.rows[i][j] == 0


def test_commutant_conjugated_kron_family():
    rng = Rng(2)
    K = random_invertible(F, 4, rng)
    fam = []
    for a in range(2):
        for b in range(2):
            E = Mat.zeros(F, 2, 2)
            E.rows[a][b] = 1
            fam.append(K * kron(Mat.identity(F, 2), E) * K.inverse())
    out = commutant_basis(fam)
    assert len(out) == 4
    Kinv = K.inverse()
    for N in out:
        inner = Kinv * N * K
        # inner must be M (x) I
        for a in range(2):
            for b in range(2):
                blk = inner.block(2 * a, 2 * b, 2, 2)
                assert blk == Mat.identity(F, 2).scale(blk.rows[0][0])


def test_commutant_gate_fires_for_zero_product_algebra():
    """A basis with all-zero pairwise products: the left-multiplication
    images vanish, the commutant is all of M_4 (dimension 16 != 4), and the
    solver must stop exactly at the commutant gate."""
    basis = []
    for i in range(4):
        E = Mat.zeros(F, 8, 8)
        E.rows[i][4 + i] = 1  # E_a E_b = 0 for all a, b
        basis.append(E)
    A = AlgebraInput(F, basis)
    Ls = left_mult_matrices(A)
    assert all(L.is_zero() for L in Ls)
    assert len(commutant_basis([L.transpose() for L in Ls])) == 16
    rng = Rng(3)
    with RunReport() as rep:
        assert fmai_solve(A, _mmti(F), rng) is None
    assert rep.failed_gate == "commutant-dimension"


def _tensor_or_degenerate(solve, Ls, Ns, w):
    try:
        tensor, dim = solve(Ls, Ns, w)
    except Degenerate:
        return "Degenerate"
    return tensor.terms, dim


def _random_families(seed):
    rng = Rng(seed)
    return ([random_invertible(F, 4, rng) for _ in range(4)],
            [random_invertible(F, 4, rng) for _ in range(4)], 2)


@pytest.mark.parametrize("case, dim", [
    *[pytest.param(lambda s=s: (*_generators(_conjugated_algebra(Rng(s))[0]), 2), 1,
                   id=f"planted-{s}") for s in (11, 12, 13)],
    pytest.param(lambda: (*_generators(_identity_named(2)), 2), 1, id="identity-named-m2"),
    *[pytest.param(lambda s=s: (*_generators(_diagonal_algebra(Rng(s))), 2), 4,
                   id=f"diagonal-{s}") for s in (21, 22)],
    *[pytest.param(lambda s=s: _random_families(s), None, id=f"random-{s}") for s in (31, 32)],
    pytest.param(lambda: (*_generators(_identity_named(1)), 1), None, id="m1"),
])
def test_constrained_tensor_matches_dense_reference(case, dim):
    """The structured solve returns the dense solve's tensor and kernel
    dimension (dim), or raises Degenerate where it does (dim None)."""
    Ls, Ns, w = case()
    got = _tensor_or_degenerate(build_constrained_tensor, Ls, Ns, w)
    assert got == _tensor_or_degenerate(build_constrained_tensor_reference, Ls, Ns, w)
    assert got == "Degenerate" if dim is None else got[1] == dim


@pytest.mark.parametrize("c", [1, 5, F.p - 1])
def test_m1_certifies_without_the_tensor(c):
    """At w = 1 no symmetry identity constrains a tensor: the basis element
    e = c E_11 (e.e = c e) maps to its 1 x 1 left-multiplication matrix [c],
    which verify_isomorphism accepts."""
    with RunReport() as rep:
        iso = fmai_solve(AlgebraInput(F, [Mat(F, [[c]])]), _mmti(F), Rng(8))
    assert iso is not None and iso.w == 1
    assert iso.images[(0, 0)] == Mat(F, [[c]])
    assert rep.failed_gate is None and "tensor-nonzero" not in rep.gates_passed
    assert rep.gates_passed[-1] == "multiplicativity"


def test_zero_algebra_is_rejected_at_multiplicativity():
    """The one-dimensional algebra with e.e = 0 (e = E_12 in M_2) passes the
    commutant gate, and its image [0] is not a bijection onto M_1."""
    E = Mat(F, [[0, 1], [0, 0]])
    with RunReport() as rep:
        assert fmai_solve(AlgebraInput(F, [E]), _mmti(F), Rng(8)) is None
    assert rep.failed_gate == "multiplicativity"


def test_constrained_tensor_identity_naming_is_trimm():
    for w in (2, 3):
        tensor, dim = build_constrained_tensor(*_generators(_identity_named(w)), w)
        assert dim == 1
        _assert_proportional(tensor, trimm_explicit(F, TrimmShape(w, 4)))


def test_constrained_tensor_planted_k():
    """For a conjugated algebra the solution is the K-composed trace tensor."""
    for w, seed in ((2, 4), (3, 9)):
        _check_planted_k(w, Rng(seed))


def _check_planted_k(w, rng):
    A, K = _conjugated_algebra(rng, w)
    Ls, Ns = _generators(A)
    tensor, dim = build_constrained_tensor(Ls, Ns, w)
    assert dim == 1
    # expected: alpha * Tr-IMM((K^T)^{-1} x0, K x1, (K^T)^{-1} x2, K x3)
    # up to the basis renaming absorbed in K; verify by the Lie property:
    # every generator encoded by the L and N families annihilates it, i.e.
    # grad f(a) . E a = 0 at random points a (the gradients taken once).
    kern = F.kernel
    f4 = ExplicitBlackbox(tensor)
    pts = rng.array(F, (10, f4.n))
    grads = f4.gradient_many(pts)
    for fam, blocks in ((Ls, (0, 2)), (Ns, (1, 3))):
        for idx, M in enumerate(fam):
            for k in blocks:
                Ea = kern.matmul(pts, _operator_matrix(M, k).rows.T)
                assert not np.any(kern.gemm(grads[:, None, :], Ea[:, :, None])), (idx, k)


def _operator_matrix(Wm, k):
    """The n x n Lie-algebra element encoded by one symmetry identity: Wm^T
    on block k and -Wm on block k+1.  (Both blocks' layouts act on the index
    pairs of the identity and on the variables alike, so they cancel.)"""
    W = Wm.nrows
    E = Mat.zeros(F, 4 * W, 4 * W)
    E.set_block(k * W, k * W, Wm.transpose())
    E.set_block((k + 1) % 4 * W, (k + 1) % 4 * W, -Wm)
    return E


def test_fmai_canonical_m2():
    rng = Rng(5)
    iso = fmai_solve(_canonical_m2(), _mmti(F), rng)
    assert iso is not None


def test_fmai_conjugated_end_to_end():
    rng = Rng(6)
    A, _ = _conjugated_algebra(rng)
    iso = fmai_solve(A, _mmti(F), rng)
    assert iso is not None
    # returned images are verified multiplicative + bijective by the solver;
    # double check one product by hand
    Ls = left_mult_matrices(A)
    lhs = iso.images[(0, 1)] * iso.images[(1, 0)]
    rhs = Mat.zeros(F, 2, 2)
    t1, t2 = 1, 2  # named (1,2) and (2,1)
    for t in range(4):
        c = Ls[t1].rows[t][t2]
        if c:
            rhs = rhs + iso.images[divmod(t, 2)].scale(c)
    assert lhs == rhs


def test_fmai_reads_the_tensor_only_through_eval_many(monkeypatch):
    """The solve reads its explicit polynomials (the constrained tensor and
    the DET oracle's queries) in batches: with the scalar ``eval`` raising,
    a planted w = 2 algebra still certifies."""

    def scalar(self, point):
        raise AssertionError("ExplicitBlackbox.eval called during fmai_solve")

    monkeypatch.setattr(ExplicitBlackbox, "eval", scalar)
    A, _ = _conjugated_algebra(Rng(15))
    with RunReport() as rep:
        iso = fmai_solve(A, _mmti(F), Rng(16))
    assert iso is not None and rep.failed_gate is None
    assert verify_isomorphism(A, left_mult_matrices(A), iso)


def test_small_systems_skip_the_column_step(monkeypatch):
    """A planted w = 2 algebra, as the positives of the ``fmai-w2``
    benchmark: every system of at most 64 cells (the 4 x 8 inverses among
    them) is reduced on Python ints and never reaches the per-pivot column
    step, and the solve still certifies."""
    small = []
    column_step = modarith._KernelBase._column_step

    def spy(self, R, r, c0, c1, piv):
        if R.size <= modarith._SMALL_MUL:
            small.append(R.shape)
        return column_step(self, R, r, c0, c1, piv)

    monkeypatch.setattr(modarith._KernelBase, "_column_step", spy)
    A, _ = _conjugated_algebra(Rng(15))
    iso = fmai_solve(A, _mmti(F), Rng(16))
    assert iso is not None and verify_isomorphism(A, left_mult_matrices(A), iso)
    assert small == []


def test_verify_isomorphism_does_not_use_the_kernel_product(monkeypatch):
    """A broken GEMM cannot vouch for an isomorphism: verify_isomorphism
    multiplies on the exact Python-int lane, so it still accepts a planted
    isomorphism and rejects one with a perturbed image."""
    from trimmeq.modarith import _KernelBase

    rng = Rng(14)
    w = 2
    K, R = random_invertible(F, 4, rng), random_invertible(F, 4, rng)
    # basis element t is K^-1 (I (x) phi_t) K with phi_t = sum_j R[t, j] E_j
    images = {divmod(t, w): Mat(F, R.rows[t].reshape(w, w)) for t in range(w * w)}
    Kinv, eye = K.inverse(), Mat.identity(F, w)
    A = AlgebraInput(F, [Kinv * kron(eye, images[divmod(t, w)]) * K for t in range(w * w)])
    Ls = left_mult_matrices(A)
    bad = dict(images)
    bad[(0, 1)] = images[(0, 1)] + eye

    def garbage(self, A, B):
        shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-2], B.shape[-1])
        return self.zeros(shape) + 1

    monkeypatch.setattr(_KernelBase, "gemm", garbage)
    assert verify_isomorphism(A, Ls, AlgebraIso(w, images))
    assert not verify_isomorphism(A, Ls, AlgebraIso(w, bad))


def test_fmai_rejects_non_square_dimension():
    rng = Rng(7)
    basis = [Mat.identity(F, 3), Mat.from_rows(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])]
    basis.append(basis[1] * basis[1])
    A = AlgebraInput(F, basis)  # dimension 3 is not a perfect square
    with RunReport() as rep:
        assert fmai_solve(A, _mmti(F), rng) is None
    assert rep.failed_gate == "dimension-square"
