"""Lie algebra bases, closures, random elements, invariant subspaces."""

from trimmeq.field import Fp, Rng
from trimmeq.lie import (
    LieBasis,
    closure,
    irreducible_invariant_subspaces,
    is_invariant,
    lie_algebra_basis,
    random_element,
)
from trimmeq.linalg import Mat, random_invertible, same_span
from trimmeq.poly import ComposedBlackbox, ExplicitBlackbox, MPoly, squarefree_test
from trimmeq.trimm import TrimmShape, plant_instance, trimm_blackbox, trimm_explicit

F = Fp()


def test_single_variable_polynomial_dims_agree():
    # f = x0 in two variables: sampled and exact modes agree on the span
    poly = MPoly.var(F, 2, 0)
    rng = Rng(1)
    exact = lie_algebra_basis(ExplicitBlackbox(poly), rng, mode="exact")
    sampled = lie_algebra_basis(ExplicitBlackbox(poly), rng, mode="sampled")
    assert exact.dim == sampled.dim
    assert exact.same_span_as(sampled)


def test_trimm_23_dimension_is_11():
    rng = Rng(2)
    exact = lie_algebra_basis(ExplicitBlackbox(trimm_explicit(F, TrimmShape(2, 3))), rng, mode="exact")
    assert exact.dim == 11


def test_conjugation_covariance():
    """Basis of f(A.x) equals A^{-1} (basis of f) A as a span."""
    rng = Rng(3)
    sh = TrimmShape(2, 3)
    bb = trimm_blackbox(F, sh)
    base = lie_algebra_basis(bb, rng)
    A = random_invertible(F, 12, rng)
    conj = lie_algebra_basis(ComposedBlackbox(bb, A), rng)
    Ainv = A.inverse()
    expected = [(Ainv * E * A).flatten() for E in base.basis]
    assert same_span(F, expected, [E.flatten() for E in conj.basis])


def test_random_element_single_basis_and_determinism():
    eye = Mat.identity(F, 3)
    L = LieBasis(F, 3, [eye])
    r1 = random_element(L, Rng(5))
    r2 = random_element(L, Rng(5))
    assert r1 == r2
    c = r1.rows[0][0]
    assert r1 == eye.scale(c)


def test_random_element_charpoly_squarefree_rate():
    rng = Rng(6)
    L = lie_algebra_basis(ExplicitBlackbox(trimm_explicit(F, TrimmShape(2, 3))), rng, mode="exact")
    good = sum(
        squarefree_test(F, random_element(L, rng).charpoly()) for _ in range(100)
    )
    assert good >= 95


def test_closure_trivial_cases():
    zero = LieBasis(F, 2, [Mat.zeros(F, 2, 2)])
    c = closure([3, 0], zero)
    assert c.dim == 1
    nil = LieBasis(F, 2, [Mat.from_rows(F, [[0, 1], [0, 0]])])
    c = closure([0, 1], nil)
    assert c.dim == 2  # M.(0,1) = e_1, so the closure is all of F^2


def test_closure_of_block_vector_is_coordinate_block():
    rng = Rng(7)
    sh = TrimmShape(2, 3)
    L = lie_algebra_basis(trimm_blackbox(F, sh), rng)
    for k in range(3):
        v = [0] * 12
        v[4 * k + rng.randrange(4)] = 1
        space = closure(v, L)
        assert space.dim == 4
        for b in space.basis:
            assert all(x == 0 for t, x in enumerate(b) if t // 4 != k)


def test_invariant_subspaces_planted():
    rng = Rng(8)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, rng, mode="full")
    spaces = irreducible_invariant_subspaces(inst.f, rng, expected_count=3)
    assert spaces is not None
    assert len(spaces) == 3 and all(s.dim == 4 for s in spaces)
    for s in spaces:
        blocks = set()
        for v in s.basis:
            av = inst.A.matvec(v)
            blocks.update(t // 4 for t, x in enumerate(av) if x)
        assert len(blocks) == 1
    # pairwise distinct and direct sum = F^12
    for i in range(3):
        for j in range(i + 1, 3):
            assert not spaces[i].same_as(spaces[j])
    from trimmeq.linalg import rank_rows

    assert rank_rows(F, [v for s in spaces for v in s.basis]) == 12


def test_invariant_subspaces_verified_invariant():
    rng = Rng(9)
    sh = TrimmShape(2, 3)
    bb = trimm_blackbox(F, sh)
    L = lie_algebra_basis(bb, rng)
    spaces = irreducible_invariant_subspaces(bb, rng, expected_count=3)
    assert spaces is not None
    for s in spaces:
        assert is_invariant(s, L)


def test_invariant_subspaces_seed_independent_spans():
    rng1, rng2 = Rng(10), Rng(11)
    sh = TrimmShape(2, 3)
    inst = plant_instance(F, sh, Rng(12), mode="full")
    s1 = irreducible_invariant_subspaces(inst.f, rng1, expected_count=3)
    s2 = irreducible_invariant_subspaces(inst.f, rng2, expected_count=3)
    matched = 0
    for a in s1:
        matched += any(a.same_as(b) for b in s2)
    assert matched == 3


def test_random_cubic_rejected():
    rng = Rng(13)
    rejects = 0
    for seed in range(10):
        r = Rng(1300 + seed)
        poly = MPoly.zero(F, 12)
        for i in range(12):
            for j in range(i, 12):
                for k in range(j, 12):
                    e = [0] * 12
                    e[i] += 1
                    e[j] += 1
                    e[k] += 1
                    poly.add_term(tuple(e), r.scalar(F))
        out = irreducible_invariant_subspaces(ExplicitBlackbox(poly), r, expected_count=3)
        rejects += out is None
    assert rejects >= 9
