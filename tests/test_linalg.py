"""Dense exact linear algebra: elimination, charpoly, Kronecker products."""

import numpy as np
import pytest

from trimmeq.errors import InputError, ShapeMismatch, Singular
from trimmeq.field import Fp, Rng
from trimmeq.linalg import (
    Mat,
    assemble_block_diagonal,
    in_span,
    kron,
    poly_at_matrix,
    random_invertible,
    same_span,
)

F = Fp()
FS = Fp(10007)  # exercises the small-prime kernel lane
FP = Fp((1 << 89) - 1)  # exercises the object-dtype (Python int) kernel lane


@pytest.fixture(params=[F, FS, FP], ids=["m61", "small", "py"])
def field(request):
    return request.param


def test_rank_nullspace_identity_and_zero(field):
    eye = Mat.identity(field, 3)
    assert eye.rank() == 3 and eye.nullspace() == []
    zero = Mat.zeros(field, 2, 3)
    assert zero.rank() == 0 and len(zero.nullspace()) == 3


def test_nullspace_planted_rank(field):
    rng = Rng(1)
    A = Mat.random(field, 6, 4, rng)
    B = Mat.random(field, 4, 6, rng)
    M = A * B
    basis = M.nullspace()
    assert M.rank() == 4
    assert len(basis) == 2
    for v in basis:
        assert M.matvec(v) == [0] * 6


def test_solve_identity_and_inconsistent(field):
    eye = Mat.identity(field, 3)
    assert eye.solve([5, 6, 7]) == [5, 6, 7]
    zero = Mat.zeros(field, 2, 2)
    assert zero.solve([1, 0]) is None


def test_solve_multiply_back(field):
    rng = Rng(2)
    A = random_invertible(field, 5, rng)
    b = rng.vector(field, 5)
    x = A.solve(b)
    assert A.matvec(x) == b


def test_solve_rejects_wrong_rhs_length(field):
    A = Mat.from_rows(field, [[1, 2], [3, 4]])
    for b in ([1], [1, 2, 3]):
        with pytest.raises(ShapeMismatch):
            A.solve(b)


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", None, True, np.float64(4)])
def test_from_rows_rejects_non_integer_entries(field, bad):
    with pytest.raises(InputError):
        Mat.from_rows(field, [[1, 2], [bad, 4]])


def test_from_rows_reduces_integers(field):
    p = field.p
    M = Mat.from_rows(field, [[-1, p], [np.int64(-2), 2 * p - 3]])
    assert M.rows == [[p - 1, 0], [p - 2, p - 3]]


def test_zero_by_zero_matrix(field):
    E = Mat(field, [])
    assert E.det() == 1
    assert E.inverse() == E
    assert E.solve([]) == []


def test_inverse_trivial_and_diag():
    f = Fp(7)
    assert Mat.identity(f, 3).inverse() == Mat.identity(f, 3)
    d = Mat.from_rows(f, [[2, 0], [0, 3]])
    assert d.inverse() == Mat.from_rows(f, [[4, 0], [0, 5]])
    with pytest.raises(Singular):
        Mat.zeros(f, 2, 2).inverse()


def test_random_invertible_many_seeds(field):
    for seed in range(20):
        M = random_invertible(field, 8 if field is F else 4, Rng(seed))
        assert M.det() != 0


def _charpoly_cofactor(field, M):
    """Brute-force characteristic polynomial via cofactor determinants of
    the polynomial matrix tI - M (coefficients as univariate lists)."""
    from trimm_helpers import uni_scale
    from trimmeq.poly import uni_mul, uni_sub, uni_trim

    n = M.nrows

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = []
        for j in range(len(rows)):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = uni_mul(field, rows[0][j], det(minor))
            if j % 2:
                term = uni_scale(field, term, field.p - 1)
            total = uni_sub(field, total, uni_scale(field, term, field.p - 1))
        return total

    rows = [
        [
            uni_trim([(-M.rows[i][j]) % field.p, 1 if i == j else 0])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return det(rows)


def test_charpoly_trivial_cases(field):
    eye = Mat.identity(field, 2)
    # (t - 1)^2 = 1 - 2t + t^2
    assert eye.charpoly() == [1, field.p - 2, 1]
    d = Mat.from_rows(field, [[1, 0], [0, 2]])
    assert d.charpoly() == [2, field.p - 3, 1]


def test_charpoly_against_cofactor_oracle():
    rng = Rng(12)
    for _ in range(3):
        M = Mat.random(F, 4, 4, rng)
        assert M.charpoly() == _charpoly_cofactor(F, M)


def test_charpoly_conjugation_invariant():
    rng = Rng(13)
    for _ in range(10):
        M = Mat.random(F, 6, 6, rng)
        P = random_invertible(F, 6, rng)
        assert (P * M * P.inverse()).charpoly() == M.charpoly()


def test_kron_block_diagonal_and_identity(field):
    X = Mat.from_rows(field, [[1, 2], [3, 4]])
    K = kron(Mat.identity(field, 2), X)
    assert K.block(0, 0, 2, 2) == X
    assert K.block(2, 2, 2, 2) == X
    assert K.block(0, 2, 2, 2).is_zero()
    assert kron(X, Mat.identity(field, 1)) == X


def test_kron_mixed_product(field):
    rng = Rng(21)
    for _ in range(20):
        A, B, C, D = (Mat.random(field, 2, 2, rng) for _ in range(4))
        assert kron(A, B) * kron(C, D) == kron(A * C, B * D)


def test_extract_assemble_inverse():
    rng = Rng(5)
    blocks = [Mat.random(F, 3, 3, rng) for _ in range(3)]
    M = assemble_block_diagonal(blocks)
    for k, b in enumerate(blocks):
        assert M.block(3 * k, 3 * k, 3, 3) == b


def test_rank_plus_nullity(field):
    rng = Rng(30)
    for _ in range(10):
        M = Mat.random(field, 5, 7, rng)
        assert M.rank() + len(M.nullspace()) == 7


def test_span_accumulator_matches_in_span():
    rng = Rng(40)
    vecs = [rng.vector(F, 6) for _ in range(4)]
    for _ in range(10):
        c = [rng.scalar(F) for _ in range(4)]
        comb = [sum(ci * vi[t] for ci, vi in zip(c, vecs)) % F.p for t in range(6)]
        assert in_span(F, vecs, comb)
    w = rng.vector(F, 6)
    assert not in_span(F, vecs, w)


def test_same_span_permuted_basis():
    rng = Rng(41)
    vecs = [rng.vector(F, 5) for _ in range(3)]
    mixed = [
        [sum(r * v[t] for r, v in zip(row, vecs)) % F.p for t in range(5)]
        for row in random_invertible(F, 3, rng).rows
    ]
    assert same_span(F, vecs, mixed)
    assert not same_span(F, vecs, [rng.vector(F, 5) for _ in range(3)])


def test_span_tests_on_dependent_and_empty_sets(field):
    """Equal-length spanning sets of different rank differ; an empty basis
    spans only zero."""
    rng = Rng(42)
    v, u = rng.vector(field, 5), rng.vector(field, 5)
    two_v = [2 * x % field.p for x in v]
    assert not same_span(field, [v, two_v], [v, u])
    assert not same_span(field, [v, u], [v, two_v])
    assert same_span(field, [v, two_v], [two_v, v])
    assert in_span(field, [v, two_v], [3 * x % field.p for x in v])
    assert not in_span(field, [v, two_v], u)
    assert same_span(field, [], [])
    assert not same_span(field, [], [v])
    assert in_span(field, [], [0] * 5)
    assert not in_span(field, [], v)


def test_poly_at_matrix_matches_powers(field):
    rng = Rng(43)
    M = Mat.random(field, 4, 4, rng)
    coeffs = [rng.scalar(field) for _ in range(4)]
    want = Mat.zeros(field, 4, 4)
    power = Mat.identity(field, 4)
    for c in coeffs:
        want = want + power.scale(c)
        power = power * M
    assert poly_at_matrix(coeffs, M) == want
    assert poly_at_matrix([], M) == Mat.zeros(field, 4, 4)
