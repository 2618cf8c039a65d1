"""The vectorized kernels agree with plain big-int arithmetic."""

import random

import numpy as np
import pytest
from elimination_reference import _py_det, _py_forward, _py_nullspace, _py_rref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trimmeq import lie, modarith
from trimmeq.field import Fp, Rng
from trimmeq.modarith import M61, get_kernel
from trimmeq.trimm import TrimmShape, plant_instance

K61 = get_kernel(M61)
K_SMALL = get_kernel(10007)
P89 = (1 << 89) - 1
LANES = [M61, 10007, P89]  # limb-split int64, % on int64, % on Python ints


M61_RESIDUES = st.one_of(st.integers(0, M61 - 1), st.sampled_from([0, 1, M61 - 2, M61 - 1]))


@given(st.lists(st.tuples(M61_RESIDUES, M61_RESIDUES), min_size=1, max_size=100))
@settings(max_examples=200, deadline=None)
def test_m61_mul_matches_bigint(pairs):
    a = np.array([x for x, _ in pairs], dtype=np.int64)
    b = np.array([y for _, y in pairs], dtype=np.int64)
    got = K61.mul(a, b)
    for i, (x, y) in enumerate(pairs):
        assert int(got[i]) == x * y % M61
    # a column against a row broadcasts past the Python-int cut-off; p - 1 is
    # the largest operand, and inputs are left as they were
    row = np.append(b[:8], [M61 - 1, 1, 0])
    outer = K61.mul(a[:, None], row[None, :])
    assert outer.dtype == np.int64 and outer.shape == (len(a), len(row))
    for i, x in enumerate(a.tolist()):
        assert outer[i].tolist() == [x * y % M61 for y in row.tolist()]
    assert a.tolist() == [x for x, _ in pairs]
    top = K61.mul(a, np.int64(M61 - 1))
    assert top.tolist() == [x * (M61 - 1) % M61 for x, _ in pairs]


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


@pytest.mark.parametrize("p", LANES)
def test_mul_pow2_matches_mul(p):
    """The multiply by 2^s (a rotation of the 61 bits on M61) against mul by
    pow(2, s, p), at the edges of the residues and at random ones."""
    kern = get_kernel(p)
    rnd = random.Random(p)
    vals = [0, 1, p - 1, (1 << 60) % p] + [rnd.randrange(p) for _ in range(200)]
    a = kern.asarray(vals)
    for s in list(range(0, 64)) + [122, 1000]:
        got = kern.mul_pow2(a, s)
        assert got.dtype == kern.dtype
        assert _lists([got]) == _lists([kern.mul(a, pow(2, s, p))])
        assert _lists([got]) == [[x * pow(2, s, p) % p for x in vals]]


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
    st.integers(0, (1 << 64) - 1),
)
@settings(max_examples=60, deadline=None)
def test_gemm_matches_bigint(p, m, k, n, seed):
    """Exact across the 2048-term chunk boundary, with entries p - 1 where
    every limb is full, and for empty m, k or n.  The entries come from a
    seeded ``random.Random``: up to 2 * 3 * 4097 of them would overrun
    Hypothesis's entropy buffer."""
    kern = get_kernel(p)
    rnd = random.Random(seed)

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
def test_gemm_multiplies_each_matrix_of_a_stack(p):
    """(4, r, k) x (4, k, c) stacks multiply matrix by matrix, and a 2-D
    operand multiplies every matrix of a stack."""
    kern = get_kernel(p)
    rnd = random.Random(p)

    def draw(*shape):
        return [draw(*shape[1:]) for _ in range(shape[0])] if len(shape) > 1 else [
            rnd.randrange(p) for _ in range(shape[0])]

    for r, k, c in [(3, 3, 3), (2, 2049, 1), (1, 4, 5)]:
        A, B = draw(4, r, k), draw(4, k, c)
        C = kern.gemm(kern.asarray(A), kern.asarray(B))
        assert C.shape == (4, r, c)
        for b in range(4):
            assert _lists(C[b]) == _product(p, A[b], B[b])
    M, S = draw(3, 4), draw(5, 4, 2)
    C = kern.gemm(kern.asarray(M), kern.asarray(S))
    assert [_lists(Cb) for Cb in C] == [_product(p, M, Sb) for Sb in S]


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
    size thresholds are lowered so that these small systems take the
    recursive path, tall ones in panels, and split their products, as
    large ones do."""
    monkeypatch.setattr(modarith, "_TALL_ROWS", modarith._BASE_WIDTH)
    monkeypatch.setattr(modarith, "_SHORT_WIDTH", modarith._BASE_WIDTH)
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


def _first_panel(n):
    """Width of the first panel that the recursion cuts from n columns."""
    while n > modarith._BASE_WIDTH:
        n //= 2
    return n


def _tall_system(p, n, layout, rnd):
    """Rows of a system with n columns and more than ``_TALL_ROWS`` rows below
    every panel: generic, rank-deficient, with zero columns, or with a zero
    leading minor in the first panel's top block (its first pivot, one
    mid-panel, or its last), which first-nonzero pivoting meets with a swap."""
    m = modarith._TALL_ROWS + n + 8

    def draw(r, c):
        return [[rnd.randrange(p) for _ in range(c)] for _ in range(r)]

    if layout == "deficient":
        return _product(p, draw(m, n // 2), draw(n // 2, n))
    rows = draw(m, n)
    if layout == "zero-columns":
        for r in rows:
            r[0] = r[n // 2] = r[n - 1] = 0
    elif layout != "generic":
        b = _first_panel(n)
        j = {"minor-first": 0, "minor-mid": b // 2, "minor-last": b - 1}[layout]
        if j == 0:
            rows[0][0] = 0
        else:  # row j agrees with row 0 on the first j + 1 columns
            rows[j][: j + 1] = rows[0][: j + 1]
    return rows


@pytest.mark.parametrize("layout", ["generic", "deficient", "zero-columns",
                                    "minor-first", "minor-mid", "minor-last"])
@pytest.mark.parametrize("n", [15, 16, 17, 33])
@pytest.mark.parametrize("p", LANES)
def test_panel_elimination_matches_reference(p, n, layout):
    """Tall systems, eliminated a panel at a time at the real thresholds:
    the same unit echelon form and pivots as one-pivot-at-a-time
    elimination, hence the same RREF and kernel basis, whether the panel's
    top block factors without pivoting or falls back to the column step."""
    kern = get_kernel(p)
    rows = _tall_system(p, n, layout, random.Random(f"{p}-{n}-{layout}"))
    M = kern.asarray(rows)
    forward = [list(r) for r in rows]
    pivots = _py_forward(p, forward)
    U, piv = kern._factor(M)
    assert (_lists(U), piv) == (forward[: len(pivots)], pivots)
    assert kern.pivots(M) == pivots
    R, piv = kern.rref(M)
    assert (_lists(R), piv) == _py_rref(p, rows)
    assert [[int(x) for x in v] for v in kern.nullspace(M)] == _py_nullspace(p, rows)
    assert _lists(M) == rows


def _leading_minors_nonzero(p, block) -> bool:
    """Every leading principal minor of the square block is nonzero: LU
    without pivoting on Python ints meets no zero pivot."""
    A = [list(r) for r in block]
    for j in range(len(A)):
        if not A[j][j]:
            return False
        inv = pow(A[j][j], -1, p)
        for i in range(j + 1, len(A)):
            f = A[i][j] * inv % p
            A[i] = [(x - f * y) % p for x, y in zip(A[i], A[j])]
    return True


def _spy_column_steps(monkeypatch):
    """Calls of ``_column_step`` on a tall system whose panel, the first
    16 columns of the block, has a top block with no zero leading minor:
    the calls that the panel step should have taken."""
    bad = []
    column_step = modarith._KernelBase._column_step

    def spy(self, R, r, c0, c1, piv):
        b = min(c1 - c0, modarith._BASE_WIDTH)
        if len(R) - r > modarith._TALL_ROWS and _leading_minors_nonzero(
                self.p, R[r : r + b, c0 : c0 + b].tolist()):
            bad.append((R.shape, r, c0, c1))
        return column_step(self, R, r, c0, c1, piv)

    monkeypatch.setattr(modarith._KernelBase, "_column_step", spy)
    return bad


def test_tall_panels_skip_the_column_step(monkeypatch):
    """A generic tall M61 system, and the stage-1 Lie systems of a planted
    Tr-IMM_{3,3} instance, never take the per-pivot column step on a panel
    whose top block factors without pivoting."""
    bad = _spy_column_steps(monkeypatch)
    K61.nullspace(_random_rows(3, 383, 351, M61))
    assert bad == []
    systems = []
    nullspace_rows = lie.nullspace_rows

    def record(field, rows):
        systems.append(rows.shape)
        return nullspace_rows(field, rows)

    monkeypatch.setattr(lie, "nullspace_rows", record)
    rng = Rng(5)
    lie.lie_algebra_basis(plant_instance(Fp(), TrimmShape(3, 3), rng, mode="full").f, rng)
    assert systems[:2] == [(383, 351), (410, 378)]  # stage 1, then stage 2
    assert bad == []


@pytest.mark.parametrize("k", [682, 683, 1364, 1365])
@pytest.mark.parametrize("p", LANES)
def test_gemm_reduces_once_across_the_chunk_step(p, k):
    """Around the M61 chunk step of 2048 // 3 = 682 terms, with every entry
    p - 1, so that every limb sum is as large as it gets, and with random
    entries: 2-D operands and a stack against a 2-D operand."""
    kern = get_kernel(p)
    rnd = random.Random(f"{p}-{k}")
    full = [[p - 1] * k for _ in range(3)]
    mixed = [[rnd.choice([p - 1, rnd.randrange(p)]) for _ in range(k)] for _ in range(3)]
    for A in (full, mixed):
        B = [list(c) for c in zip(*A[:2])]  # k x 2
        C = kern.gemm(kern.asarray(A), kern.asarray(B))
        assert _lists(C) == _product(p, A, B)
        S = kern.gemm(kern.asarray([A, A[::-1]]), kern.asarray(B))
        assert [_lists(Sb) for Sb in S] == [_product(p, A, B), _product(p, A[::-1], B)]


@pytest.mark.parametrize("p", LANES)
def test_det_many_matches_reference(p):
    """A stack that mixes invertible matrices, ones that need row swaps,
    and singular ones (repeated row, zero column, low rank), with at most
    and more than 64 cells."""
    kern = get_kernel(p)
    rnd = random.Random(p)
    # 4 x 4 and 2 x 2 stacks of 64 and 80 cells sit on either side of the
    # bound up to which the stack is eliminated on Python ints
    for n, count in ((1, 12), (2, 12), (9, 12), (17, 12), (4, 3), (4, 4), (2, 15), (2, 19)):
        stack = []
        for i in range(count):
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


@pytest.mark.parametrize("width", [1, 2, 7, 15, 16, 17, 30, 33])
@pytest.mark.parametrize("n", [9, 16, 17, 40, 129])
@pytest.mark.parametrize("p", LANES)
def test_tall_thin_back_solve_matches_reference(p, n, width):
    """T^-1 B for a unit upper triangular T and a B on either side of the
    width from which the 16-row base applies the triangle's inverse by GEMM,
    for one base and for triangles that the solve halves into GEMMs: the
    right half of the reference RREF of [T | B]."""
    kern = get_kernel(p)
    rnd = random.Random(f"{p}-{n}-{width}")
    T = [[1 if i == j else rnd.randrange(p) if j > i else 0 for j in range(n)] for i in range(n)]
    B = [[rnd.randrange(p) for _ in range(width)] for _ in range(n)]
    for i in rnd.sample(range(n), n // 4):  # zero rows and a zero column above the diagonal
        B[i] = [0] * width
        for r in range(i):
            T[r][i] = 0
    X = kern.asarray(B)
    kern._solve_unit_upper(kern.asarray(T), X)
    R, piv = _py_rref(p, [t + b for t, b in zip(T, B)])
    assert piv == list(range(n))
    assert _lists(X) == [r[n:] for r in R]


@given(st.sampled_from(LANES),
       st.lists(st.one_of(st.sampled_from([0, 1, -1]), st.integers(0, 1 << 90)), max_size=40))
@settings(max_examples=150, deadline=None)
@example(p=M61, raw=[])
@example(p=10007, raw=[5])
@example(p=P89, raw=[0, 1, -1, 0])
def test_inv_many_matches_pow(p, raw):
    """``inv_many`` against one ``pow`` per entry: zeros stay zero, on every
    lane, for single entries and the empty vector too."""
    k = get_kernel(p)
    xs = [x % p for x in raw]
    got = k.inv_many(k.asarray(xs))
    assert got.dtype == k.dtype and got.shape == (len(xs),)
    assert got.tolist() == [pow(x, -1, p) if x else 0 for x in xs]


SMALL_SHAPES = [(1, 64), (64, 1), (8, 8), (4, 16), (16, 4), (5, 13)]


def _small_system(p, m, n, layout, rnd):
    """Rows of an m x n system: generic, with zero columns, of rank 1, or
    with a first pivot that needs a row swap."""
    rows = [[rnd.randrange(p) for _ in range(n)] for _ in range(m)]
    if layout == "zero-columns":
        for r in rows:
            r[0] = r[n // 2] = 0
    elif layout == "deficient":
        rows = _product(p, [[rnd.randrange(p)] for _ in range(m)], rows[:1])
    elif layout == "swap-first":
        rows[0][0] = 0
    return rows


def _eliminations(kern, M):
    R, piv = kern.rref(M)
    return _lists(R), piv, kern.pivots(M), kern.rank(M), _lists(kern.nullspace(M))


@pytest.mark.parametrize("layout", ["generic", "zero-columns", "deficient", "swap-first"])
@pytest.mark.parametrize("shape", SMALL_SHAPES)
@pytest.mark.parametrize("p", LANES)
def test_small_elimination_matches_reference(monkeypatch, p, shape, layout):
    """Systems of at most 64 cells are reduced on Python ints, without the
    recursive elimination, and larger ones (5 x 13) by it: the same RREF,
    pivots, rank and kernel basis as the reference, and as the recursive
    elimination when the bound is lowered to 0."""
    kern = get_kernel(p)
    rows = _small_system(p, *shape, layout, random.Random(f"{p}-{shape}-{layout}"))
    M = kern.asarray(rows)
    R, piv = _py_rref(p, rows)
    want = (R, piv, piv, len(piv), _py_nullspace(p, rows))
    factored = []
    factor_columns = modarith._KernelBase._factor_columns

    def spy(self, *args):
        factored.append(args[0].shape)
        return factor_columns(self, *args)

    monkeypatch.setattr(modarith._KernelBase, "_factor_columns", spy)
    assert _eliminations(kern, M) == want
    assert bool(factored) == (M.size > modarith._SMALL_MUL)
    monkeypatch.setattr(modarith, "_SMALL_MUL", 0)
    assert _eliminations(kern, M) == want
    assert _lists(M) == rows


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
@pytest.mark.parametrize("p", LANES)
def test_small_elimination_of_empty_shapes(monkeypatch, p, shape):
    """Empty systems: a zero RREF, no pivots, and the unit vectors of every
    column as the kernel basis, with or without the Python-int path."""
    kern = get_kernel(p)
    M = kern.zeros(shape)
    for bound in (modarith._SMALL_MUL, 0):
        monkeypatch.setattr(modarith, "_SMALL_MUL", bound)
        R, piv = kern.rref(M)
        assert R.shape == shape and piv == [] and kern.rank(M) == 0
        N = kern.nullspace(M)
        assert N.shape == (shape[1],) * 2 and _lists(N) == _lists(np.eye(shape[1], dtype=int))


@pytest.mark.parametrize("p", LANES)
def test_inv_many_calls_pow_once(monkeypatch, p):
    """One ``pow`` per batch, whatever the batch: all zeros, mixed, 1,000
    entries; and one per triangle inverse."""
    calls = []

    def spy(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(modarith, "pow", spy, raising=False)
    kern = get_kernel(p)
    rnd = random.Random(p)
    for xs in ([0] * 5, [0, 3, 0, p - 1, 1, 0], [rnd.randrange(p) for _ in range(1000)]):
        calls.clear()
        got = kern.inv_many(kern.asarray(xs))
        assert got.tolist() == [pow(x, -1, p) if x else 0 for x in xs]
        assert len(calls) == 1
    calls.clear()
    U = [[rnd.randrange(1, p) if j >= i else 0 for j in range(16)] for i in range(16)]
    X = modarith._upper_inverse(U, p)
    assert _product(p, U, X) == [[int(i == j) for j in range(16)] for i in range(16)]
    assert len(calls) == 1
