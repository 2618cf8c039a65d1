"""Lie algebra bases, closures, random elements, invariant subspaces."""

import numpy as np
import pytest
from closure_reference import closure_reference

from trimmeq.field import Fp, Rng
from trimmeq.lie import (
    InvariantSubspace,
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
    expected = np.array([(Ainv * E * A).flatten() for E in base.basis])
    assert same_span(F, expected, conj.flat())


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


LANES = [F, Fp(10007), Fp((1 << 89) - 1)]


@pytest.mark.parametrize("w", [2, 3])
@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_closure_matches_per_vector_reference(w, mode):
    """The same basis, vector for vector, as the per-vector span-growth loop,
    from random, coordinate and block-aligned start vectors."""
    rng = Rng(20 + w)
    sh = TrimmShape(w, 3)
    f = ExplicitBlackbox(trimm_explicit(F, sh)) if mode == "exact" else trimm_blackbox(F, sh)
    L = lie_algebra_basis(f, rng, mode=mode)
    n = L.n
    starts = [rng.vector(F, n), [1] + [0] * (n - 1), [0] * (n - 1) + [7]]
    starts.append([x if t // (w * w) == 1 else 0 for t, x in enumerate(rng.vector(F, n))])
    for v in starts:
        assert np.array_equal(closure(v, L).basis, closure_reference(v, L).basis)


@pytest.mark.parametrize("field", LANES, ids=["m61", "small", "py"])
def test_closure_matches_reference_on_degenerate_bases(field):
    z = Mat.zeros(field, 3, 3)
    nil = Mat.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    rot = Mat.from_rows(field, [[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    cases = [
        (LieBasis(field, 3, [z, rot]), [1, 2, 0]),  # a zero basis element
        (LieBasis(field, 3, [nil]), [0, 0, 1]),  # nilpotent: climbs to F^3
        (LieBasis(field, 3, [nil, nil.scale(3)]), [0, 4, 5]),  # dependent elements
        (LieBasis(field, 3, [nil, rot]), [5, 0, 0]),
        (LieBasis(field, 3, [z, nil]), [2, 0, 0]),  # already invariant
        (LieBasis(field, 3, [rot]), [0, 0, 1]),  # an eigenvector
        (LieBasis(field, 3, [z]), [0, 0, 0]),
    ]
    for L, v in cases:
        got = closure(v, L)
        assert np.array_equal(got.basis, closure_reference(v, L).basis)
        assert is_invariant(got, L)
    assert closure([2, 0, 0], LieBasis(field, 3, [z, nil])).basis.tolist() == [[2, 0, 0]]
    assert closure([0, 0, 1], LieBasis(field, 3, [rot])).basis.tolist() == [[0, 0, 1]]


def test_is_invariant_rejects_a_subspace_that_is_not():
    nil = LieBasis(F, 2, [Mat.from_rows(F, [[0, 1], [0, 0]])])
    assert not is_invariant(InvariantSubspace(F, [[0, 1]]), nil)
    assert is_invariant(InvariantSubspace(F, [[1, 0]]), nil)
    sh = TrimmShape(2, 3)
    L = lie_algebra_basis(ExplicitBlackbox(trimm_explicit(F, sh)), Rng(24), mode="exact")
    block = closure([1] + [0] * 11, L)
    assert is_invariant(block, L)
    assert not is_invariant(InvariantSubspace(F, block.basis[:2]), L)
    spill = [0] * 12
    spill[4] = 1  # a vector of the second block
    assert not is_invariant(InvariantSubspace(F, np.vstack([block.basis, spill])), L)


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

    assert rank_rows(F, np.concatenate([s.basis for s in spaces])) == 12


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
