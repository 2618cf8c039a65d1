"""The vectorized kernels agree with plain big-int arithmetic."""

import random

import numpy as np
import pytest
from elimination_reference import _py_det, _py_forward, _py_nullspace, _py_rref
from hypothesis import given, settings
from hypothesis import strategies as st

from trimmeq import modarith
from trimmeq.field import Fp
from trimmeq.modarith import M61, get_kernel

K61 = get_kernel(M61)
K_SMALL = get_kernel(10007)
P89 = (1 << 89) - 1
LANES = [M61, 10007, P89]  # limb-split int64, % on int64, % on Python ints


@given(st.lists(st.tuples(st.integers(0, M61 - 1), st.integers(0, M61 - 1)), min_size=1, max_size=100))
@settings(max_examples=200, deadline=None)
def test_m61_mul_matches_bigint(pairs):
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    got = K61.mul(a, b)
    for i, (x, y) in enumerate(pairs):
        assert int(got[i]) == x * y % M61


@given(st.lists(st.tuples(st.integers(0, M61 - 1), st.integers(0, M61 - 1)), min_size=1, max_size=100))
@settings(max_examples=100, deadline=None)
def test_m61_add_sub_match_bigint(pairs):
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    s = K61.add(a, b)
    d = K61.sub(a, b)
    for i, (x, y) in enumerate(pairs):
        assert int(s[i]) == (x + y) % M61
        assert int(d[i]) == (x - y) % M61


def test_m61_mul_boundary_values():
    vals = [0, 1, 2, M61 - 1, M61 - 2, (1 << 31) - 1, 1 << 31, (1 << 60) + 12345]
    a = np.array(vals, dtype=np.int64)
    for y in vals:
        got = K61.mul(a, np.int64(y))
        for i, x in enumerate(vals):
            assert int(got[i]) == x * y % M61


def _random_rows(seed, m, n, p):
    gen = np.random.default_rng(seed)
    return gen.integers(0, p, size=(m, n), dtype=np.int64)


def test_kernel_nullspace_matches_python_reference():
    for kern, p in [(K61, M61), (K_SMALL, 10007)]:
        field = Fp(p)
        for seed in range(5):
            M = _random_rows(seed, 7, 10, p)
            fast = [[int(x) for x in v] for v in kern.nullspace(M)]
            ref = _py_nullspace(p, [[int(x) for x in r] for r in M])
            assert fast == ref
            for v in fast:
                prod = [sum(int(M[i][j]) * v[j] for j in range(10)) % p for i in range(7)]
                assert prod == [0] * 7


def test_kernel_rref_matches_python_reference():
    for kern, p in [(K61, M61), (K_SMALL, 10007)]:
        for seed in range(5):
            M = _random_rows(100 + seed, 6, 9, p)
            R, piv = kern.rref(M)
            R2, piv2 = _py_rref(p, [[int(x) for x in r] for r in M])
            assert piv == piv2
            assert [[int(x) for x in r] for r in R] == R2


def test_kernel_rref_rank_deficient():
    p = M61
    gen = np.random.default_rng(0)
    A = gen.integers(0, p, size=(6, 3), dtype=np.int64)
    B = gen.integers(0, p, size=(3, 6), dtype=np.int64)
    M = np.zeros((6, 6), dtype=np.int64)
    for i in range(6):
        for j in range(6):
            M[i, j] = sum(int(A[i, t]) * int(B[t, j]) for t in range(3)) % p
    assert K61.rank(M) == 3
    basis = K61.nullspace(M)
    assert len(basis) == 3


def test_kernel_det_and_matmul():
    p = M61
    field = Fp(p)
    gen = np.random.default_rng(7)
    A = gen.integers(0, p, size=(5, 5), dtype=np.int64)
    B = gen.integers(0, p, size=(5, 5), dtype=np.int64)
    C = K61.matmul(A, B)
    for i in range(5):
        for j in range(5):
            assert int(C[i, j]) == sum(int(A[i, t]) * int(B[t, j]) for t in range(5)) % p
    dA = K61.det(A)
    dB = K61.det(B)
    assert K61.det(C.astype(np.int64)) == dA * dB % p
    assert K61.det(np.eye(4, dtype=np.int64)) == 1


def _lists(M):
    return [[int(x) for x in r] for r in M]


@given(
    st.sampled_from(LANES),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=120, deadline=None)
def test_every_lane_matches_python_reference(p, m, n, inner, rnd):
    """nullspace, rref, rank, det and matmul of each lane against the
    pure-Python elimination, on random and rank-deficient (m x inner) .
    (inner x n) inputs."""
    kern = get_kernel(p)

    def draw(r, c):
        return [[rnd.randrange(p) for _ in range(c)] for _ in range(r)]

    if inner:
        A, B = draw(m, inner), draw(inner, n)
        rows = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]
        assert _lists(kern.matmul(kern.asarray(A), kern.asarray(B))) == rows
    else:
        rows = draw(m, n)
    M = kern.asarray(rows)
    assert M.dtype == kern.dtype

    R, piv = kern.rref(M)
    assert (_lists(R), piv) == _py_rref(p, rows)
    assert [[int(x) for x in v] for v in kern.nullspace(M)] == _py_nullspace(p, rows)
    assert kern.rank(M) == len(_py_forward(p, [list(r) for r in rows]))
    sq = [(r * m)[:m] for r in rows]
    assert kern.det(kern.asarray(sq)) == _py_det(p, sq)
    assert _lists(M) == rows  # inputs are left untouched


def _product(p, A, B):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


@given(
    st.sampled_from(LANES),
    st.integers(0, 3),
    st.sampled_from([0, 1, 2047, 2048, 2049, 4097]),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_gemm_matches_bigint(p, m, k, n, rnd):
    """Exact across the 2048-term chunk boundary, with entries p - 1 where
    every limb is full, and for empty m, k or n."""
    kern = get_kernel(p)

    def draw(r, c):
        return [[p - 1 if rnd.random() < 0.5 else rnd.randrange(p) for _ in range(c)]
                for _ in range(r)]

    A, B = draw(m, k), draw(k, n)
    C = kern.gemm(kern.asarray(A).reshape(m, k), kern.asarray(B).reshape(k, n))
    assert C.shape == (m, n) and C.dtype == kern.dtype
    assert _lists(C) == [[sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(n)]
                         for i in range(m)]


@pytest.mark.parametrize("p", LANES)
def test_split_gemm_matches_bigint(monkeypatch, p):
    """Products split into blocks of rows and columns, as large ones are."""
    monkeypatch.setattr(modarith, "_BLOCK_CELLS", 1 << 6)
    kern = get_kernel(p)
    rnd = random.Random(p)
    for m, k, n in [(9, 5, 3), (2, 40, 11), (17, 2049, 2)]:
        A = [[rnd.randrange(p) for _ in range(k)] for _ in range(m)]
        B = [[rnd.randrange(p) for _ in range(n)] for _ in range(k)]
        assert _lists(kern.gemm(kern.asarray(A), kern.asarray(B))) == _product(p, A, B)


@pytest.mark.parametrize("p", LANES)
def test_batched_matmul_matches_each_product(p):
    kern = get_kernel(p)
    rnd = random.Random(p)
    for r, k, c in [(3, 3, 3), (2, 2049, 1), (1, 4, 5)]:
        A = [[[rnd.randrange(p) for _ in range(4)] for _ in range(k)] for _ in range(r)]
        B = [[[rnd.randrange(p) for _ in range(4)] for _ in range(c)] for _ in range(k)]
        C = kern.batched_matmul(kern.asarray(A), kern.asarray(B))
        for b in range(4):
            Ab = [[x[b] for x in row] for row in A]
            Bb = [[x[b] for x in row] for row in B]
            assert _lists(C[:, :, b]) == _product(p, Ab, Bb)


def _system(p, n, layout, rnd):
    """Rows of one test system with n columns around the base width."""
    def draw(r, c):
        return [[rnd.randrange(p) for _ in range(c)] for _ in range(r)]

    if layout == "tall":
        return draw(2 * n + 3, n)
    if layout == "wide":
        return draw(n, 2 * n + 1)
    if layout == "deficient":
        return _product(p, draw(n + 2, n // 2), draw(n // 2, n + 1))
    rows = draw(n, n)  # zero columns, including the first and the last
    for r in rows:
        r[0] = r[n // 2] = r[n - 1] = 0
    return rows


@pytest.mark.parametrize("layout", ["tall", "wide", "deficient", "zero-columns"])
@pytest.mark.parametrize("n", [15, 16, 17, 33])
@pytest.mark.parametrize("p", LANES)
def test_recursive_elimination_matches_reference(monkeypatch, p, n, layout):
    """Shapes around the 16-column base width, where the recursion splits:
    the same unit echelon form and pivots as one-pivot-at-a-time
    elimination, hence the same rank, RREF, kernel basis and det.  The
    cell thresholds are lowered so that these small systems take the
    recursive path and split their products, as large ones do."""
    monkeypatch.setattr(modarith, "_BASE_CELLS", 0)
    monkeypatch.setattr(modarith, "_BLOCK_CELLS", 1 << 8)
    kern = get_kernel(p)
    rows = _system(p, n, layout, random.Random(f"{p}-{n}-{layout}"))
    M = kern.asarray(rows)
    forward = [list(r) for r in rows]
    pivots = _py_forward(p, forward)
    U, piv = kern._factor(M)
    assert (_lists(U), piv) == (forward[: len(pivots)], pivots)
    assert kern.rank(M) == len(pivots) and kern.pivots(M) == pivots
    R, piv = kern.rref(M)
    assert (_lists(R), piv) == _py_rref(p, rows)
    assert [[int(x) for x in v] for v in kern.nullspace(M)] == _py_nullspace(p, rows)
    s = min(len(rows), len(rows[0]))
    sq = [r[:s] for r in rows[:s]]
    assert kern.det(kern.asarray(sq)) == _py_det(p, sq)
    assert _lists(M) == rows


@pytest.mark.parametrize("p", LANES)
def test_det_many_matches_reference(p):
    """A stack that mixes invertible matrices, ones that need row swaps,
    and singular ones (repeated row, zero column, low rank)."""
    kern = get_kernel(p)
    rnd = random.Random(p)
    for n in (1, 2, 9, 17):
        stack = []
        for i in range(12):
            M = [[rnd.randrange(p) for _ in range(n)] for _ in range(n)]
            if i % 4 == 1:
                M[0] = [0] * (n - 1) + [1]  # the first pivot needs a swap
            elif i % 4 == 2 and n > 1:
                M[n - 1] = list(M[0])
            elif i % 4 == 3:
                for r in M:
                    r[n // 2] = 0
            stack.append(M)
        stack.append(_product(p, [[rnd.randrange(p)] for _ in range(n)],
                              [[rnd.randrange(p) for _ in range(n)]]))
        got = kern.det_many(kern.asarray(stack))
        assert [int(x) for x in got] == [_py_det(p, M) for M in stack]
    assert kern.det_many(kern.zeros((3, 0, 0))).tolist() == [1, 1, 1]
