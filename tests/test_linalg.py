"""Dense exact linear algebra: elimination, charpoly, Kronecker products."""

import numpy as np
import pytest
from elimination_reference import _py_det
from hypothesis import given, settings
from hypothesis import strategies as st
from interp_reference import deriv_weights, newton_interp

from trimmeq import linalg
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
    vandermonde,
    vandermonde_inverse,
)
from trimmeq.poly import LinMat

F = Fp()
FS = Fp(10007)  # exercises the small-prime kernel lane
FP = Fp((1 << 89) - 1)  # exercises the object-dtype (Python int) kernel lane


@pytest.fixture(params=[F, FS, FP], ids=["m61", "small", "py"])
def field(request):
    return request.param


def test_rank_nullspace_identity_and_zero(field):
    eye = Mat.identity(field, 3)
    assert eye.rank() == 3 and len(eye.nullspace()) == 0
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


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", None, True, np.float64(4)])
def test_from_rows_rejects_non_integer_entries(field, bad):
    with pytest.raises(InputError):
        Mat.from_rows(field, [[1, 2], [bad, 4]])


def test_from_rows_reduces_integers(field):
    p = field.p
    M = Mat.from_rows(field, [[-1, p], [np.int64(-2), 2 * p - 3]])
    assert M.rows.tolist() == [[p - 1, 0], [p - 2, p - 3]]


def test_from_rows_reduces_once(field, monkeypatch):
    """from_rows checks and reduces its rows in one pass: the constructor
    takes the residue array as it is."""
    calls = []

    def spy(p, rows):
        calls.append(p)
        return reduced(p, rows)

    reduced = linalg._reduced_rows
    monkeypatch.setattr(linalg, "_reduced_rows", spy)
    M = Mat.from_rows(field, [[-1, 2], [3, field.p]])
    assert calls == [field.p]
    assert M.rows.tolist() == [[field.p - 1, 2], [3, 0]] and M.rows.dtype == field.kernel.dtype


def test_list_rows_are_reduced_like_from_rows(field):
    """Rows given as lists are checked and reduced; residue arrays are taken as they are."""
    p = field.p
    assert Mat(field, [[p]]).is_zero()
    assert Mat(field, [[p]]) == Mat.zeros(field, 1, 1)
    assert Mat(field, [[-1, 2 * p + 3]]).rows.tolist() == [[p - 1, 3]]
    assert Mat(field, [[-1, 2]]) == Mat.from_rows(field, [[-1, 2]])
    with pytest.raises(InputError):
        Mat(field, [[1, 2.5]])
    with pytest.raises(ShapeMismatch):
        Mat(field, [[1, 2], [3]])
    R = field.kernel.asarray([[1, 2], [3, 4]])
    assert Mat(field, R).rows is R


def test_zero_by_zero_matrix(field):
    E = Mat.zeros(field, 0, 0)
    assert E.det() == 1
    assert E.inverse() == E


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

    entries = M.rows.tolist()
    rows = [
        [
            uni_trim([(-entries[i][j]) % field.p, 1 if i == j else 0])
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


def test_charpoly_against_cofactor_oracle(field):
    rng = Rng(12)
    for _ in range(3):
        M = Mat.random(field, 4, 4, rng)
        assert M.charpoly() == _charpoly_cofactor(field, M)


def test_vandermonde_inverse(field):
    """V^-1 V = I on the nodes 0..D and on random nodes, for D = 0..8; a
    repeated node is Singular; and the inverse agrees exactly with the
    divided differences (charpoly) and the Lagrange derivative weights
    (blackbox gradients) it replaced."""
    rng = Rng(14)
    k = field.kernel
    for D in range(9):
        drawn = []
        while len(drawn) <= D:  # distinct random nodes
            x = rng.scalar(field)
            drawn += [x] if x not in drawn else []
        for xs in (list(range(D + 1)), drawn):
            V = vandermonde(field, xs)
            assert V.rows.shape == (D + 1, D + 1)
            assert V.inverse() * V == Mat.identity(field, D + 1)
            ys = [rng.scalar(field) for _ in range(D + 1)]
            coeffs = k.gemm(V.inverse().rows, k.asarray(ys)[:, None])[:, 0].tolist()
            assert coeffs == newton_interp(field.p, xs, ys)
        if D:
            assert vandermonde(field, range(D + 1)).inverse().rows[1].tolist() == \
                deriv_weights(field, D)
            with pytest.raises(Singular):
                vandermonde(field, list(range(D)) + [D - 1]).inverse()
    for n in range(7):
        M = Mat.random(field, n, n, rng)
        stack = k.sub(np.arange(n + 1)[:, None, None] * np.eye(n, dtype=np.int64), M.rows)
        assert M.charpoly() == newton_interp(field.p, list(range(n + 1)),
                                             k.det_many(stack).tolist())


def test_charpoly_reads_one_cached_vandermonde_inverse(field):
    """The inverse on the nodes 0..n is computed once per (p, n): repeated
    charpolys read the same read-only array and give the same
    coefficients, and an equal field shares it."""
    rng = Rng(15)
    M = Mat.random(field, 5, 5, rng)
    first = M.charpoly()
    inv = vandermonde_inverse(field, 5)
    assert [M.charpoly() for _ in range(3)] == [first] * 3
    assert vandermonde_inverse(Fp(field.p), 5) is inv
    assert inv.tolist() == vandermonde(field, range(6)).inverse().rows.tolist()
    with pytest.raises(ValueError):
        inv[0, 0] = 0
    assert M.charpoly() == first


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
        assert in_span(F, F.kernel.asarray(vecs), F.kernel.asarray(comb))
    w = rng.vector(F, 6)
    assert not in_span(F, F.kernel.asarray(vecs), F.kernel.asarray(w))


def test_same_span_permuted_basis():
    rng = Rng(41)
    vecs = [rng.vector(F, 5) for _ in range(3)]
    mixed = [
        [sum(r * v[t] for r, v in zip(row, vecs)) % F.p for t in range(5)]
        for row in random_invertible(F, 3, rng).rows.tolist()
    ]
    k = F.kernel
    assert same_span(F, k.asarray(vecs), k.asarray(mixed))
    assert not same_span(F, k.asarray(vecs), k.asarray([rng.vector(F, 5) for _ in range(3)]))


def test_span_tests_on_dependent_and_empty_sets(field):
    """Equal-length spanning sets of different rank differ; an empty basis
    spans only zero."""
    rng = Rng(42)
    k = field.kernel
    v, u = rng.vector(field, 5), rng.vector(field, 5)
    two_v = [2 * x % field.p for x in v]
    none = k.zeros((0, 5))
    assert not same_span(field, k.asarray([v, two_v]), k.asarray([v, u]))
    assert not same_span(field, k.asarray([v, u]), k.asarray([v, two_v]))
    assert same_span(field, k.asarray([v, two_v]), k.asarray([two_v, v]))
    assert in_span(field, k.asarray([v, two_v]), k.asarray([3 * x % field.p for x in v]))
    assert not in_span(field, k.asarray([v, two_v]), k.asarray(u))
    assert same_span(field, none, none)
    assert not same_span(field, none, k.asarray([v]))
    assert in_span(field, none, k.zeros(5))
    assert not in_span(field, none, k.asarray(v))


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


@pytest.mark.parametrize("op", [
    pytest.param(lambda f: Mat.from_rows(f, [[1, 2]]) + Mat.from_rows(f, [[1]]), id="add"),
    pytest.param(lambda f: Mat.identity(f, 2) - Mat.from_rows(f, [[1, 0]]), id="sub"),
    pytest.param(lambda f: Mat.from_rows(f, [[2, 0, 0], [0, 3, 0]]).trace(), id="trace"),
    pytest.param(lambda f: Mat.zeros(f, 2, 2).set_block(0, 1, Mat.from_rows(f, [[5, 6]])),
                 id="set-block-past-edge"),
    pytest.param(lambda f: Mat.zeros(f, 2, 2).block(1, 1, 2, 2), id="block-past-edge"),
    pytest.param(lambda f: Mat.zeros(f, 2, 2).block(0, 0, 1, 3), id="block-past-right-edge"),
])
def test_shape_mismatches_raise(field, op):
    """Mismatched shapes raise instead of truncating, broadcasting or growing
    a ragged row."""
    with pytest.raises(ShapeMismatch):
        op(field)


# ---------------------------------------------------------------------------
# the array operations against plain Python ints
# ---------------------------------------------------------------------------

def _residues(p):
    return st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1))


def _matrix(p, r, c):
    return st.lists(st.lists(_residues(p), min_size=c, max_size=c), min_size=r, max_size=r)


def _ref_mul(p, A, B):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


# hypothesis runs many inputs per call, so the lanes are parameters, not the fixture
lanes = pytest.mark.parametrize("field", [F, FS, FP], ids=["m61", "small", "py"])


@lanes
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_mat_ops_match_python_ints(field, data):
    p = field.p
    r, c, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    A, B = data.draw(_matrix(p, r, c)), data.draw(_matrix(p, r, c))
    C = data.draw(_matrix(p, c, m))
    v, s = data.draw(_matrix(p, 1, c))[0], data.draw(_residues(p))
    MA, MB, MC = (Mat.from_rows(field, X) for X in (A, B, C))
    pairs = [list(zip(ra, rb)) for ra, rb in zip(A, B)]
    assert (MA + MB).rows.tolist() == [[(x + y) % p for x, y in row] for row in pairs]
    assert (MA - MB).rows.tolist() == [[(x - y) % p for x, y in row] for row in pairs]
    assert (-MA).rows.tolist() == [[-x % p for x in row] for row in A]
    assert MA.scale(s).rows.tolist() == [[x * s % p for x in row] for row in A]
    assert (MA * MC).rows.tolist() == _ref_mul(p, A, C)
    assert MA.matvec(v) == [sum(a * b for a, b in zip(row, v)) % p for row in A]
    assert MA.transpose().rows.tolist() == [list(col) for col in zip(*A)]
    assert kron(MA, MC).rows.tolist() == [[a * b % p for a in ra for b in rc]
                                          for ra in A for rc in C]
    i0, j0 = data.draw(st.integers(0, r - 1)), data.draw(st.integers(0, c - 1))
    h, w = data.draw(st.integers(1, r - i0)), data.draw(st.integers(1, c - j0))
    assert MA.block(i0, j0, h, w).rows.tolist() == [row[j0 : j0 + w] for row in A[i0 : i0 + h]]


@lanes
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_square_ops_match_python_ints(field, data):
    p = field.p
    n = data.draw(st.integers(1, 4))
    A = data.draw(_matrix(p, n, n))
    M = Mat.from_rows(field, A)
    if _py_det(p, A):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert _ref_mul(p, A, M.inverse().rows.tolist()) == eye
    else:
        with pytest.raises(Singular):
            M.inverse()
    cp = M.charpoly()
    assert len(cp) == n + 1 and cp[-1] == 1
    for t in range(p - n - 1, p):  # det(tI - A) at n + 1 points fixes the polynomial
        tI_A = [[((t if i == j else 0) - A[i][j]) % p for j in range(n)] for i in range(n)]
        assert sum(c * pow(t, e, p) for e, c in enumerate(cp)) % p == _py_det(p, tI_A)


@lanes
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_linmat_ops_match_python_ints(field, data):
    p = field.p
    r, c, n, m = (data.draw(st.integers(1, 3)) for _ in range(4))
    X = [data.draw(_matrix(p, c, n)) for _ in range(r)]  # X[i][j]: the form of entry (i, j)
    Ml, Mr = data.draw(_matrix(p, m, r)), data.draw(_matrix(p, c, m))
    pt = data.draw(_matrix(p, 1, n))[0]
    L = LinMat(field, r, c, n, X)
    assert L.left_mul(Mat.from_rows(field, Ml)).coeffs.tolist() == [
        [[sum(Ml[i][u] * X[u][j][t] for u in range(r)) % p for t in range(n)] for j in range(c)]
        for i in range(m)]
    assert L.right_mul(Mat.from_rows(field, Mr)).coeffs.tolist() == [
        [[sum(X[i][u][t] * Mr[u][j] for u in range(c)) % p for t in range(n)] for j in range(m)]
        for i in range(r)]
    assert L.eval(pt).rows.tolist() == [
        [sum(a * b for a, b in zip(form, pt)) % p for form in row] for row in X]
