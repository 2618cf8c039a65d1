"""Matrix algebra isomorphism: left multiplication, commutants, the
constrained tensor, and the full solver."""

import pytest

from trimmeq.errors import InputError, NotClosed
from trimmeq.field import Fp, Rng
from trimmeq.fmai import (
    AlgebraInput,
    build_constrained_tensor,
    commutant_basis,
    fmai_solve,
    left_mult_matrices,
)
from trimmeq.linalg import Mat, kron, random_invertible
from trimmeq.oracles import QuadraticDetOracle, mmti_oracle
from trimmeq.report import RunReport
from trimmeq.trimm import TrimmShape, entry_offset, trimm_explicit

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


def _conjugated_algebra(rng):
    K = random_invertible(F, 4, rng)
    Kinv = K.inverse()
    emb = []
    for a in range(2):
        for b in range(2):
            E = Mat.zeros(F, 2, 2)
            E.rows[a][b] = 1
            emb.append(Kinv * kron(Mat.identity(F, 2), E) * K)
    R = random_invertible(F, 4, rng)
    basis = []
    for i in range(4):
        M = Mat.zeros(F, 4, 4)
        for j in range(4):
            if R.rows[i][j]:
                M = M + emb[j].scale(R.rows[i][j])
        basis.append(M)
    return AlgebraInput(F, basis), K


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


def test_constrained_tensor_identity_naming_is_trimm():
    basis = []
    for i in range(2):
        for j in range(2):
            E = Mat.zeros(F, 2, 2)
            E.rows[j][i] = 1
            basis.append(E)
    A = AlgebraInput(F, basis)
    Ls = left_mult_matrices(A)
    Ns = commutant_basis([L.transpose() for L in Ls])
    tensor, dim = build_constrained_tensor(Ls, Ns, 2)
    assert dim == 1
    target = trimm_explicit(F, TrimmShape(2, 4))
    e0 = next(iter(target.terms))
    c = F.div(tensor.terms[e0], target.terms[e0])
    assert tensor.terms == {e: F.mul(c, v) for e, v in target.terms.items()}


def test_constrained_tensor_planted_k():
    """For a conjugated algebra the solution is the K-composed trace tensor."""
    rng = Rng(4)
    A, K = _conjugated_algebra(rng)
    Ls = left_mult_matrices(A)
    Ns = commutant_basis([L.transpose() for L in Ls])
    tensor, dim = build_constrained_tensor(Ls, Ns, 2)
    assert dim == 1
    # expected: alpha * Tr-IMM((K^T)^{-1} x0, K x1, (K^T)^{-1} x2, K x3)
    # up to the basis renaming absorbed in K; verify by the Lie property:
    # every generator encoded by the L and N families annihilates it.
    from trimmeq.lie import _certify_element
    from trimmeq.poly import ExplicitBlackbox

    f4 = ExplicitBlackbox(tensor)
    n = 16
    for idx, L in enumerate(Ls):
        for (k, first_swapped) in [(0, False), (2, False)]:
            E = _operator_matrix(L, k, first_swapped)
            assert _certify_element(f4, E, 10, rng), (idx, k)
    for idx, N in enumerate(Ns):
        for (k, first_swapped) in [(1, True), (3, True)]:
            E = _operator_matrix(N, k, first_swapped)
            assert _certify_element(f4, E, 10, rng), (idx, k)


def _operator_matrix(Wm, k, first_swapped):
    """The n x n Lie-algebra element encoded by one symmetry identity."""
    w, W = 2, 4
    n = 16
    E = Mat.zeros(F, n, n)
    k2 = (k + 1) % 4

    def _swap_pair(t, w):
        return entry_offset(w, 1, *divmod(t, w))

    def pos(blk, pair):
        return blk * W + (pair if blk % 2 == 0 else _swap_pair(pair, w))

    Wt = Wm.transpose()
    for u in range(W):
        for v in range(W):
            if not first_swapped:
                if Wt.rows[u][v]:
                    E.rows[pos(k, u)][pos(k, v)] = (
                        E.rows[pos(k, u)][pos(k, v)] + Wt.rows[u][v]
                    ) % F.p
                if Wm.rows[u][v]:
                    E.rows[pos(k2, _swap_pair(u, w))][pos(k2, _swap_pair(v, w))] = (
                        E.rows[pos(k2, _swap_pair(u, w))][pos(k2, _swap_pair(v, w))] - Wm.rows[u][v]
                    ) % F.p
            else:
                if Wt.rows[u][v]:
                    E.rows[pos(k, _swap_pair(u, w))][pos(k, _swap_pair(v, w))] = (
                        E.rows[pos(k, _swap_pair(u, w))][pos(k, _swap_pair(v, w))] + Wt.rows[u][v]
                    ) % F.p
                if Wm.rows[u][v]:
                    E.rows[pos(k2, u)][pos(k2, v)] = (
                        E.rows[pos(k2, u)][pos(k2, v)] - Wm.rows[u][v]
                    ) % F.p
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


def test_fmai_rejects_non_square_dimension():
    rng = Rng(7)
    basis = [Mat.identity(F, 3), Mat.from_rows(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])]
    basis.append(basis[1] * basis[1])
    A = AlgebraInput(F, basis)  # dimension 3 is not a perfect square
    with RunReport() as rep:
        assert fmai_solve(A, _mmti(F), rng) is None
    assert rep.failed_gate == "dimension-square"
