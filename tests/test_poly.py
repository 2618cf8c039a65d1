"""Univariate and multivariate polynomial machinery, blackboxes, PIT."""

import random

import factor_reference
import numpy as np
import pytest
from gradient_reference import gradient_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from trimmeq import modarith, poly
from trimmeq.errors import ArityMismatch, NotAPerfectPower, SizeBound
from trimmeq.field import Fp, Rng
from trimmeq.linalg import Mat, random_invertible
from trimmeq.poly import (
    Blackbox,
    ComposedBlackbox,
    ExplicitBlackbox,
    LinMat,
    MPoly,
    RestrictionBlackbox,
    det_linear_matrix,
    factor_univariate,
    matches_power,
    mp_div_exact,
    pit_equal,
    squarefree_test,
    uni_divmod,
    uni_gcd,
    uni_mul,
    uni_trim,
    wth_root,
)
from trimmeq.trimm import TrimmShape, trimm_blackbox, trimm_explicit

F = Fp()


# ---------------------------------------------------------------------------
# univariate layer
# ---------------------------------------------------------------------------

def test_divmod_and_gcd():
    f7 = Fp(7)
    q, r = uni_divmod(f7, [1, 0, 1], [1, 1])  # (t^2+1) / (t+1)
    assert q == [6, 1] and r == [2]
    g = uni_gcd(f7, uni_mul(f7, [1, 1], [2, 1]), uni_mul(f7, [1, 1], [3, 1]))
    assert g == [1, 1]


def test_squarefree():
    # (t-1)^2 is not square-free; t(t-1) is
    assert not squarefree_test(F, [1, F.p - 2, 1])
    assert squarefree_test(F, [0, F.p - 1, 1])


def test_factor_small_cases():
    f7 = Fp(7)
    rng = Rng(2)
    fs = factor_univariate(f7, [6, 0, 1], rng)  # t^2 - 1 = (t-1)(t+1)
    assert sorted(f for f, _ in fs) == [[1, 1], [6, 1]]
    fs = factor_univariate(f7, [1, 0, 1], rng)  # t^2 + 1 irreducible mod 7
    assert fs == [([1, 0, 1], 1)]


def test_factor_planted_multiset():
    rng = Rng(3)
    planted = []
    # distinct random monic irreducibles of degree <= 4
    while len(planted) < 5:
        deg = 1 + rng.randrange(4)
        cand = [rng.scalar(F) for _ in range(deg)] + [1]
        fs = factor_univariate(F, cand, rng)
        if len(fs) == 1 and fs[0][1] == 1 and fs[0][0] not in planted:
            planted.append(fs[0][0])
    prod = [1]
    mult = {}
    for i, f in enumerate(planted):
        m = 1 + (i % 2)
        mult[tuple(f)] = m
        for _ in range(m):
            prod = uni_mul(F, prod, f)
    got = factor_univariate(F, prod, rng)
    assert {tuple(f): m for f, m in got} == mult


def test_factor_remultiplies():
    rng = Rng(4)
    for _ in range(5):
        q = [rng.scalar(F) for _ in range(6)] + [1]
        back = [1]
        for f, m in factor_univariate(F, q, rng):
            for _ in range(m):
                back = uni_mul(F, back, f)
        assert back == q


def _irreducible(field, deg, rnd):
    """A random monic irreducible of the given degree, by rejection."""
    while True:
        c = [rnd.randrange(field.p) for _ in range(deg)] + [1]
        fs = factor_reference.factor_univariate(field, c, Rng(0))
        if fs == [(c, 1)]:
            return c


@given(
    st.sampled_from([7, 10007, (1 << 61) - 1, (1 << 89) - 1]),
    st.lists(st.tuples(st.integers(1, 5), st.integers(1, 3)), min_size=1, max_size=5),
    st.integers(1, (1 << 61) - 2),
    st.integers(0, (1 << 64) - 1),
)
@settings(max_examples=40, deadline=None)
def test_factor_matches_square_and_multiply_reference(p, parts, scale, seed):
    """Products of irreducibles of mixed degree and multiplicity, over small
    primes, a prime above 2^31 and 2^61 - 1: the same factors in the same
    order as plain square-and-multiply Cantor-Zassenhaus, and the same
    next draw from the Rng, so that every intermediate split agreed.  The
    irreducibles are drawn by rejection from a seeded ``random.Random``, whose
    unbounded draws could overrun Hypothesis's entropy buffer."""
    field = Fp(p)
    rnd = random.Random(seed)
    q, drawn = [scale % p or 1], []
    for deg, mult in parts:
        f = _irreducible(field, deg, rnd)
        while f in drawn:  # distinct factors keep every multiplicity below p
            f = _irreducible(field, deg, rnd)
        drawn.append(f)
        for _ in range(mult):
            q = uni_mul(field, q, f)
    seed = rnd.randrange(1 << 30)
    mine, ref = Rng(seed), Rng(seed)
    assert factor_univariate(field, q, mine) == factor_reference.factor_univariate(field, q, ref)
    assert mine.scalar(field) == ref.scalar(field)


def test_modular_power_matches_square_and_multiply():
    """The windowed power modulo a fixed f, and the Frobenius map, against
    square-and-multiply on schoolbook products."""
    rnd = random.Random(2)
    for p in (7, 10007, (1 << 61) - 1, (1 << 89) - 1):
        field = Fp(p)
        for n in (1, 2, 9, 27):
            f = [rnd.randrange(p) for _ in range(n)] + [1]
            ring, frob = poly._Modulus(field, f), poly._Frobenius(field, f)
            a = uni_trim([rnd.randrange(p) for _ in range(n)])
            for e in list(range(1, 40)) + [p, (p - 1) // 2, rnd.randrange(p**3)]:
                assert ring.pow(a, e) == factor_reference.uni_pow_mod(field, a, e, f)
            assert frob(a) == factor_reference.uni_pow_mod(field, a, p, f)
            assert ring.pow([], 5) == []


def test_uni_mul_matches_schoolbook():
    rnd = random.Random(1)
    for p in (7, 10007, (1 << 61) - 1, (1 << 89) - 1):
        field = Fp(p)
        for la, lb in [(1, 1), (1, 30), (27, 27), (40, 3)]:
            a = [rnd.randrange(-p, 2 * p) for _ in range(la)]
            b = [rnd.randrange(p) for _ in range(lb)]
            assert uni_mul(field, a, b) == factor_reference.uni_mul(field, a, b)
    assert uni_mul(F, [], [1, 2]) == []
    assert uni_mul(Fp(7), [2, 1], [5]) == [3, 5]


# ---------------------------------------------------------------------------
# multivariate layer
# ---------------------------------------------------------------------------

def test_mp_div_exact_roundtrip():
    rng = Rng(5)
    n = 3
    a = MPoly(F, n, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 2): 5})
    b = MPoly(F, n, {(1, 1, 0): 3, (0, 0, 1): 7})
    assert mp_div_exact(a * b, b) == a
    with pytest.raises(ArithmeticError):
        mp_div_exact(MPoly(F, n, {(1, 0, 0): 1}), MPoly(F, n, {(0, 1, 0): 1}))


def test_det_linear_matrix_diagonal():
    Y = LinMat(F, 2, 2, 2)
    Y.coeffs[0][0][0] = 1
    Y.coeffs[1][1][1] = 1
    assert det_linear_matrix(Y) == MPoly(F, 2, {(1, 1): 1})


def test_det_linear_matrix_block_diagonal_square():
    # I_2 (x) X for symbolic 2x2 X: det = (x0 x3 - x1 x2)^2
    X = LinMat.symbolic(F, 2)
    Y = LinMat(F, 4, 4, 4)
    for a in range(2):
        for i in range(2):
            for j in range(2):
                Y.coeffs[2 * a + i][2 * a + j] = list(X.coeffs[i][j])
    det2 = MPoly(F, 4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): F.p - 1})
    assert det_linear_matrix(Y) == det2 * det2


def test_det_linear_matrix_matches_evaluation():
    rng = Rng(6)
    Y = LinMat(F, 4, 4, 4)
    for i in range(4):
        for j in range(4):
            Y.coeffs[i][j] = rng.vector(F, 4)
    P = det_linear_matrix(Y)
    for _ in range(50):
        a = rng.vector(F, 4)
        assert P.eval(a) == Y.eval(a).det()


def test_det_size_bound():
    with pytest.raises(SizeBound):
        det_linear_matrix(LinMat(F, 10, 10, 2))


def test_wth_root_trivial():
    # (x + y)^2
    P = MPoly(F, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    assert wth_root(P, 2) == MPoly(F, 2, {(1, 0): 1, (0, 1): 1})


def test_wth_root_det_square():
    det2 = MPoly(F, 4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): F.p - 1})
    r = wth_root(det2 * det2, 2)
    # normalized to leading grlex coefficient 1; must be proportional
    e0 = next(iter(det2.terms))
    c = F.div(r.terms[e0], det2.terms[e0])
    assert r.terms == {e: F.mul(c, v) for e, v in det2.terms.items()}


def test_wth_root_planted_compositions():
    rng = Rng(7)
    det2 = det_linear_matrix(LinMat.symbolic(F, 2))
    for _ in range(20):
        C = random_invertible(F, 4, rng)
        g = det2.compose_linear(C)
        P = (g * g).scale(rng.nonzero_scalar(F))
        r = wth_root(P, 2, rng=rng)
        # r^2 proportional to P at random points
        a = rng.vector(F, 4)
        while r.eval(a) == 0:
            a = rng.vector(F, 4)
        c = F.div(P.eval(a), F.pow(r.eval(a), 2))
        for _ in range(100):
            b = rng.vector(F, 4)
            assert P.eval(b) == F.mul(c, F.pow(r.eval(b), 2))


def test_wth_root_rejects_non_power():
    P = MPoly(F, 2, {(2, 0): 1, (0, 1): 1})
    with pytest.raises(NotAPerfectPower):
        wth_root(P, 2)



class _ScriptedRng:
    """Hands out fixed points in order, in place of Rng.vector draws."""

    def __init__(self, points):
        self.points = iter(points)

    def vector(self, field, n):
        return next(self.points)


def test_matches_power_needs_every_trial_point():
    """x0*x1 agrees with c * x0^2 at a single point where x0 != 0; when every
    other draw has x0 == 0 (both sides vanish) that one point must not be
    enough."""
    g = MPoly.var(F, 2, 0)
    P = g * MPoly.var(F, 2, 1)
    points = [[3, 5]] + [[0, t] for t in range(1, 40)]
    assert not matches_power(P.eval, g, 2, 5, _ScriptedRng(points))
    square = g * g
    assert matches_power(square.eval, g, 2, 5, _ScriptedRng(points[:1] + [[t, 1] for t in range(1, 5)]))

# ---------------------------------------------------------------------------
# blackboxes
# ---------------------------------------------------------------------------

def test_bb_eval_trimm_all_ones():
    bb = trimm_blackbox(F, TrimmShape(2, 3))
    assert bb.eval([1] * 12) == 8
    assert bb.eval([1, 0, 0, 1] * 3) == 2  # every layer the identity
    with pytest.raises(ArityMismatch):
        bb.eval([1] * 11)


def test_zero_blackbox():
    z = ExplicitBlackbox(MPoly.zero(F, 3))
    assert z.eval([1, 2, 3]) == 0


def test_eval_reads_a_batch_of_one():
    """A blackbox that defines only ``eval_many`` answers ``eval`` with its
    value at the point, coordinates reduced mod p first, and raises
    ArityMismatch on a point of the wrong length."""
    base = trimm_blackbox(F, TrimmShape(2, 3))

    class BatchOnly(Blackbox):
        def eval_many(self, pts):
            return base.eval_many(pts)

    bb = BatchOnly(F, 12, 3)
    rng = Rng(12)
    for _ in range(5):
        a = rng.vector(F, 12)
        want = int(base.eval_many(F.kernel.asarray([a]))[0])
        assert bb.eval(a) == want
        assert bb.eval([x + F.p * c for x, c in zip(a, range(-6, 6))]) == want
        assert bb.eval([x + F.p ** 3 for x in a]) == want
    with pytest.raises(ArityMismatch):
        bb.eval([1] * 11)


def test_verification_lane_runs_without_the_kernels(monkeypatch):
    """``ExplicitBlackbox.eval`` and ``ComposedBlackbox.eval`` over the trace
    product answer on Python ints: with the kernel's GEMM, stacked
    determinants and both lanes' products patched to raise, they still
    agree with the batched lane at every point."""
    rng = Rng(13)
    sh = TrimmShape(2, 3)
    explicit = ExplicitBlackbox(trimm_explicit(F, sh))
    composed = ComposedBlackbox(trimm_blackbox(F, sh), random_invertible(F, 12, rng))
    pts = [rng.vector(F, 12) for _ in range(5)]
    want = [bb.eval_many(F.kernel.asarray(pts)).tolist() for bb in (explicit, composed)]

    def refuse(*args):
        raise AssertionError("a kernel ran on the verification lane")

    for cls, name in [(modarith._KernelBase, "gemm"), (modarith._KernelBase, "det_many"),
                      (modarith.M61Kernel, "mul"), (modarith.SmallKernel, "mul")]:
        monkeypatch.setattr(cls, name, refuse)
    assert [[bb.eval(a) for a in pts] for bb in (explicit, composed)] == want


@given(
    st.sampled_from([(1 << 61) - 1, 10007, (1 << 89) - 1]),
    st.sampled_from(["zero", "constant", "sparse"]),
    st.integers(1, 6),
    st.sampled_from([0, 1, 64, 65, 300]),
    st.integers(0, (1 << 64) - 1),
)
@settings(max_examples=60, deadline=None)
def test_explicit_eval_many_matches_scalar_eval(p, kind, n, batch, seed):
    """The exponent-table lane against ``MPoly.eval`` at every point, and
    ``gradient_many`` against each ``deriv(i).eval``: the zero polynomial,
    constants (0 to p - 1) and up to 40 terms with exponents up to 5, on
    batches on both sides of the M61 lane's 64-product switch."""
    field = Fp(p)
    rnd = random.Random(seed)
    if kind == "zero":
        f = MPoly.zero(field, n)
    elif kind == "constant":
        f = MPoly.constant(field, n, rnd.choice([1, p - 1, rnd.randrange(p)]))
    else:
        f = MPoly(field, n)
        for _ in range(rnd.randint(1, 40)):
            f.add_term(tuple(rnd.randint(0, 5) for _ in range(n)), rnd.randrange(p))
    bb = ExplicitBlackbox(f)
    rows = [[rnd.choice([0, 1, p - 1, rnd.randrange(p)]) for _ in range(n)] for _ in range(batch)]
    pts = field.kernel.asarray(rows).reshape(batch, n)
    for _ in range(2):  # the second call reads the tables the first one built
        vals = bb.eval_many(pts)
        assert vals.shape == (batch,) and vals.dtype == field.kernel.dtype
        assert vals.tolist() == [f.eval(q) for q in rows]
        grads = bb.gradient_many(pts)
        assert grads.shape == (batch, n)
        assert grads.tolist() == [[f.deriv(i).eval(q) for i in range(n)] for q in rows]


def _sparse_poly(field, n, kind, rnd):
    """The zero polynomial, a constant, or up to 30 terms with exponents up
    to 4 over a random subset of the variables, so that some occur in no term."""
    p = field.p
    if kind == "zero":
        return MPoly.zero(field, n)
    if kind == "constant":
        return MPoly.constant(field, n, rnd.choice([1, p - 1, rnd.randrange(p)]))
    used = rnd.sample(range(n), rnd.randint(1, n))
    f = MPoly(field, n)
    for _ in range(rnd.randint(1, 30)):
        e = [0] * n
        for i in used:
            e[i] = rnd.choice([0, 0, 1, 2, 3, 4])
        f.add_term(tuple(e), rnd.choice([1, p - 1, rnd.randrange(p)]))
    return f


@given(
    st.sampled_from([(1 << 61) - 1, 10007, (1 << 89) - 1]),
    st.sampled_from(["zero", "constant", "sparse", "sparse"]),
    st.integers(1, 12),
    st.sampled_from([0, 1, 50]),
    st.integers(0, (1 << 64) - 1),
)
@settings(max_examples=80, deadline=None)
def test_gradient_matches_the_per_partial_reference(p, kind, n, batch, seed):
    """One pass over every partial against one ``eval_many`` per partial, on
    the M61, int64 and object lanes."""
    field = Fp(p)
    rnd = random.Random(seed)
    f = _sparse_poly(field, n, kind, rnd)
    rows = [[rnd.choice([0, 1, p - 1, rnd.randrange(p)]) for _ in range(n)] for _ in range(batch)]
    pts = field.kernel.asarray(rows).reshape(batch, n)
    grads = ExplicitBlackbox(f).gradient_many(pts)
    want = gradient_reference(f, pts)
    assert grads.shape == (batch, n) and grads.dtype == field.kernel.dtype
    assert grads.tolist() == want.tolist()


@pytest.mark.parametrize("cells", [1, 50, 1000])
def test_gradient_reads_a_large_batch_in_chunks_of_the_table(monkeypatch, cells):
    """With the table bound patched low, a batch is read in chunks of
    max(1, cells // monomials) points, and the gradients are unchanged."""
    f = trimm_explicit(F, TrimmShape(2, 3))
    monomials = 3 * 8  # each of the 8 terms gives 3 distinct partial monomials
    pts = Rng(14).array(F, (70, 12))
    want = gradient_reference(f, pts).tolist()
    passes = []
    real = poly._apply_steps
    monkeypatch.setattr(poly, "_apply_steps", lambda *args: passes.append(args) or real(*args))
    monkeypatch.setattr(poly, "_GRADIENT_CELLS", cells)
    assert ExplicitBlackbox(f).gradient_many(pts).tolist() == want
    chunk = max(1, cells // monomials)
    assert len(passes) == -(-70 // chunk)
    assert all(len(V) == monomials for _, V, _, _ in passes)


def test_composed_blackbox_matches_explicit_composition():
    rng = Rng(8)
    sh = TrimmShape(2, 3)
    e = trimm_explicit(F, sh)
    A = random_invertible(F, 12, rng)
    composed = ComposedBlackbox(ExplicitBlackbox(e), A)
    explicit = ExplicitBlackbox(e.compose_linear(A))
    for _ in range(50):
        a = rng.vector(F, 12)
        assert composed.eval(a) == explicit.eval(a)


def test_partial_derivative_simple():
    # f = x0 x1: df/dx0 at (5, 3) is 3; constants differentiate to zero
    # (the generic line-interpolation gradient, not the symbolic override)
    f = ExplicitBlackbox(MPoly(F, 2, {(1, 1): 1}))
    assert Blackbox.gradient_many(f, F.kernel.asarray([[5, 3]]))[0][0] == 3
    c = ExplicitBlackbox(MPoly.constant(F, 2, 9))
    assert Blackbox.gradient_many(c, F.kernel.asarray([[4, 4]]))[0][0] == 0


def test_partial_derivative_matches_symbolic():
    rng = Rng(9)
    sh = TrimmShape(2, 3)
    e = trimm_explicit(F, sh)
    bb = trimm_blackbox(F, sh)
    for _ in range(20):
        a = rng.vector(F, 12)
        i = rng.randrange(12)
        grad = Blackbox.gradient_many(bb, F.kernel.asarray([a]))
        assert grad[0][i] == e.deriv(i).eval(a)


def test_gradient_many_matches_generic_path():
    rng = Rng(10)
    sh = TrimmShape(2, 4)
    bb = trimm_blackbox(F, sh)
    pts = rng.array(F, (4, 16))
    fast = bb.gradient_many(pts)
    generic = Blackbox.gradient_many(bb, pts)
    assert (fast == generic).all()


def test_restriction_blackbox():
    sh = TrimmShape(2, 3)
    bb = trimm_blackbox(F, sh)
    template = list(range(12))
    free = [4, 5, 6, 7]
    r = RestrictionBlackbox(bb, template, free)
    point = [9, 8, 7, 6]
    full = list(template)
    for v, x in zip(free, point):
        full[v] = x
    assert r.eval(point) == bb.eval(full)


def test_pit_equal_basic():
    rng = Rng(11)
    sh = TrimmShape(2, 4)
    e = ExplicitBlackbox(trimm_explicit(F, sh))
    bb = trimm_blackbox(F, sh)
    assert pit_equal(e, bb, 100, rng)
    x = ExplicitBlackbox(MPoly.var(F, 2, 0))
    x1 = ExplicitBlackbox(MPoly(F, 2, {(1, 0): 1, (0, 0): 1}))
    assert not pit_equal(x, x1, 1, rng)


def test_pit_composed_vs_explicit_composition():
    rng = Rng(12)
    sh = TrimmShape(2, 4)
    e = trimm_explicit(F, sh)
    A = random_invertible(F, 16, rng)
    assert pit_equal(
        ComposedBlackbox(ExplicitBlackbox(e), A),
        ExplicitBlackbox(e.compose_linear(A)),
        100,
        rng,
    )
