"""Lie algebra bases, closures, random elements, invariant subspaces."""

from itertools import combinations_with_replacement
from math import comb

import numpy as np
import pytest
import subspace_reference
from closure_reference import closure_reference

from trimmeq.errors import CertificationFailed
from trimmeq.field import Fp, Rng
from trimmeq.lie import (
    InvariantSubspace,
    LieBasis,
    _blocks,
    _certify_basis,
    _restricted_charpoly,
    closure,
    irreducible_invariant_subspaces,
    is_invariant,
    lie_algebra_basis,
    lie_algebra_basis_exact,
    random_element,
)
from trimmeq.linalg import Mat, in_span, random_invertible, rank_rows, same_span
from trimmeq.poly import (ComposedBlackbox, ExplicitBlackbox, MPoly, factor_univariate,
                          squarefree_test, uni_divmod)
from trimmeq.report import RunReport
from trimmeq.trimm import TrimmShape, plant_instance, trimm_blackbox, trimm_explicit

F = Fp()


def test_single_variable_polynomial_dims_agree():
    # f = x0 in two variables: sampled and exact modes agree on the span
    poly = MPoly.var(F, 2, 0)
    rng = Rng(1)
    exact = lie_algebra_basis_exact(poly)
    sampled = lie_algebra_basis(ExplicitBlackbox(poly), rng)
    assert exact.dim == sampled.dim
    assert exact.same_span_as(sampled)


def test_trimm_23_dimension_is_11():
    exact = lie_algebra_basis_exact(trimm_explicit(F, TrimmShape(2, 3)))
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
    L = lie_algebra_basis_exact(trimm_explicit(F, TrimmShape(2, 3)))
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
    if mode == "exact":
        L = lie_algebra_basis_exact(trimm_explicit(F, sh))
    else:
        L = lie_algebra_basis(trimm_blackbox(F, sh), rng)
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
    L = lie_algebra_basis_exact(trimm_explicit(F, sh))
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


def _dedup_cases():
    """(Lie basis, vectors): a reducible Tr-IMM_{2,3} algebra with vectors in
    and across its blocks, an algebra that is reducible but not a direct sum
    (a nilpotent plus the identity), and the irreducible gl_3."""
    rng = Rng(14)
    L = lie_algebra_basis(trimm_blackbox(F, TrimmShape(2, 3)), rng)
    vecs = []
    for k in range(3):
        for _ in range(2):
            v = [0] * 12
            v[4 * k + rng.randrange(4)] = rng.nonzero_scalar(F)
            vecs.append(v)
    vecs += [rng.vector(F, 12), vecs[0], vecs[2]]
    yield L, vecs
    eye = Mat.identity(F, 3)
    nil = Mat.from_rows(F, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    yield LieBasis(F, 3, [eye, nil]), [[1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0], [0, 3, 4]]
    units = [Mat.from_rows(F, [[int(r == i and c == j) for c in range(3)] for r in range(3)])
             for i in range(3) for j in range(3)]
    yield LieBasis(F, 3, units), [[1, 0, 0], [0, 1, 0], rng.vector(F, 3)]


@pytest.mark.parametrize("case", range(3))
def test_dedup_by_membership_matches_span_equality(case):
    """closure(v) lies in a kept closure s iff v does, since s is invariant,
    and equals s iff the dims also agree: the membership test of the
    reference search (v == v[piv] times the RREF of s), against comparing
    the spans; a closure's basis is independent, so v lies in s iff
    appending it keeps the rank at s.dim."""
    L, vecs = list(_dedup_cases())[case]
    spaces = [closure(v, L) for v in vecs]
    equal = 0
    for v, a in zip(vecs, spaces):
        for s in spaces:
            u = F.kernel.asarray(v)
            inside = subspace_reference.in_space(F, s, u)
            assert inside == (rank_rows(F, np.vstack([s.basis, u])) == s.dim)
            assert inside == (rank_rows(F, np.vstack([s.basis, a.basis])) == s.dim)
            by_span = a.same_as(s)
            assert by_span == (a.dim == s.dim and in_span(F, s.basis, np.array(v)))
            assert by_span == (a.dim == s.dim
                               and rank_rows(F, np.vstack([s.basis, np.array(v)])) == s.dim)
            equal += by_span
    assert equal > len(vecs)  # some distinct vectors share a closure


def _zeroed_trimm(shape, rng):
    """Tr-IMM with one coefficient deleted, drawn from rng as criterion 3 draws it."""
    terms = dict(trimm_explicit(F, shape).terms)
    del terms[sorted(terms)[rng.randrange(len(terms))]]
    return ExplicitBlackbox(MPoly(F, shape.n, terms))


_SUBSPACE_CASES = {  # name: (blackbox, expected count)
    "trimm23": lambda: (trimm_blackbox(F, TrimmShape(2, 3)), 3),
    "trimm24": lambda: (trimm_blackbox(F, TrimmShape(2, 4)), 4),
    "trimm33": lambda: (trimm_blackbox(F, TrimmShape(3, 3)), 3),
    "zeroed23": lambda: (_zeroed_trimm(TrimmShape(2, 3), Rng(51)), 3),
    "zeroed33": lambda: (_zeroed_trimm(TrimmShape(3, 3), Rng(52)), 3),
    "planted33": lambda: (plant_instance(F, TrimmShape(3, 3), Rng(53), mode="full").f, 3),
}


def _square_free_element(L, rng, tries=5):
    """A random element of L with a square-free characteristic polynomial, or None."""
    for _ in range(tries):
        R = random_element(L, rng)
        if squarefree_test(F, R.charpoly()):
            return R
    return None


@pytest.mark.parametrize("case", list(_SUBSPACE_CASES) + ["algebra0", "algebra1", "algebra2"])
def test_divisibility_matches_kernel_membership(case):
    """Once chi(R) is square-free, p_i divides chi(R|S) exactly when the first
    kernel vector of p_i(R) lies in S, for every factor p_i and every space S
    that the membership loop keeps: on Tr-IMMs, zeroed Tr-IMMs, a planted
    Tr-IMM_{3,3} and the reducible algebras of the dedup test.  The nilpotent
    algebra has no square-free element, so its search stops at the gate."""
    rng = Rng(54)
    if case.startswith("algebra"):
        L = list(_dedup_cases())[int(case[-1])][0]
    else:
        L = lie_algebra_basis(_SUBSPACE_CASES[case]()[0], rng)
    R = _square_free_element(L, rng)
    if case == "algebra1":
        assert R is None
        return
    factors = factor_univariate(F, R.charpoly(), rng)
    nulls, spaces = subspace_reference.membership_loop(L, R, factors)
    chis = [_restricted_charpoly(F, s, R) for s in spaces]
    covered = 0
    for (p_i, _), v in zip(factors, nulls):
        for s, chi in zip(spaces, chis):
            divides = not uni_divmod(F, chi, p_i)[1]
            assert divides == subspace_reference.in_space(F, s, v)
            covered += divides
    assert covered >= len(factors)


def _report(run):
    with RunReport(0) as report:
        out = run()
    return out, {k: v for k, v in report.to_dict().items() if k != "wall_time_s"}


@pytest.mark.parametrize("seed", [61, 62])
@pytest.mark.parametrize("case", list(_SUBSPACE_CASES))
def test_subspaces_and_report_match_the_membership_reference(case, seed):
    """The returned bases, in order, and the run report equal the
    reference's, from the same seed."""
    f, count = _SUBSPACE_CASES[case]()
    out, report = _report(lambda: irreducible_invariant_subspaces(f, Rng(seed), count))
    ref, ref_report = _report(
        lambda: subspace_reference.irreducible_invariant_subspaces(f, Rng(seed), count))
    assert report == ref_report
    assert (out is None) == (ref is None)
    if out is not None:
        assert [s.basis.tolist() for s in out] == [s.basis.tolist() for s in ref]
    assert (out is None) == case.startswith("zeroed")


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_planted_33_runs_one_kernel_and_one_closure_per_space(monkeypatch):
    """Every factor after the first of a block is covered by that block's
    closure: three kernels of p_i(R) and three closures for three blocks."""
    import trimmeq.lie as lie

    kernels = _count_calls(monkeypatch, lie, "poly_at_matrix")
    closures = _count_calls(monkeypatch, lie, "closure")
    f, count = _SUBSPACE_CASES["planted33"]()
    assert irreducible_invariant_subspaces(f, Rng(63), count) is not None
    assert len(kernels) == 3 and len(closures) == 3


@pytest.mark.parametrize("seed", [None, 3200, 3201, 3202])
def test_zeroed_negative_stops_at_the_surplus_space(monkeypatch, seed):
    """A zeroed Tr-IMM_{3,3} (seed None) and criterion 3's zeroed Tr-IMM_{2,3}
    reject at the count gate after at most expected_count + 1 closures."""
    import trimmeq.lie as lie

    closures = _count_calls(monkeypatch, lie, "closure")
    if seed is None:
        (f, count), rng = _SUBSPACE_CASES["zeroed33"](), Rng(64)
    else:  # criterion 3 draws its zeroed coefficient and its solver stream from one rng
        rng = Rng(seed)
        f, count = _zeroed_trimm(TrimmShape(2, 3), rng), 3
    out, report = _report(lambda: irreducible_invariant_subspaces(f, rng, count))
    assert out is None
    assert report["failed_gate"] == "invariant-subspaces:subspace-count"
    assert len(closures) <= count + 1


def test_empty_kernel_of_an_uncovered_factor_rejects(monkeypatch):
    """With the kernel of the second uncovered factor patched empty, the run
    rejects at the factor-nullspace gate."""
    import trimmeq.lie as lie

    kernels = _count_calls(monkeypatch, lie, "poly_at_matrix")
    real = Mat.nullspace

    def nullspace(M):
        null = real(M)
        return null[:0] if len(kernels) == 2 else null

    monkeypatch.setattr(Mat, "nullspace", nullspace)
    f = plant_instance(F, TrimmShape(2, 3), Rng(65), mode="full").f
    out, report = _report(lambda: irreducible_invariant_subspaces(f, Rng(66), 3))
    assert out is None and len(kernels) == 2
    assert report["failed_gate"] == "invariant-subspaces:factor-nullspace"


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


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_batched_certification_rejects_one_perturbed_element(shape):
    """The Lie basis is certified in one batch: every element passes, and a
    basis with one element moved off the algebra fails, wherever it sits."""
    sh = TrimmShape(*shape)
    f = plant_instance(F, sh, Rng(21), mode="full").f
    L = lie_algebra_basis(f, Rng(22))
    assert _certify_basis(f, L.basis, 20, Rng(23))
    for pos in (0, L.dim // 2, L.dim - 1):
        bad = list(L.basis)
        E = bad[pos].rows.copy()
        E[0, -1] = F.add(int(E[0, -1]), 1)
        bad[pos] = Mat(F, E)
        assert not _certify_basis(f, bad, 20, Rng(23))
        assert not _certify_basis(f, [bad[pos]], 20, Rng(23))


@pytest.mark.parametrize("n, d, count", [(12, 3, 2), (16, 4, 4), (27, 3, 2), (64, 4, 7),
                                         (10, 2, 1), (75, 3, 3)])
def test_blocks_partition_by_the_monomial_count(n, d, count):
    """The most near-equal blocks whose smallest size r has C(r + d, d) >= n r."""
    blocks = _blocks(n, d)
    assert len(blocks) == count
    assert [i for J in blocks for i in J] == list(range(n))
    assert max(map(len, blocks)) - min(map(len, blocks)) <= 1
    r = min(map(len, blocks))
    assert count == 1 or comb(r + d, d) >= n * r
    r = n // (count + 1)
    assert comb(r + d, d) < n * r


def _zeroed_trimm_33():
    terms = dict(trimm_explicit(F, TrimmShape(3, 3)).terms)
    del terms[sorted(terms)[5]]
    return MPoly(F, 27, terms)


def _random_poly(n, degrees, count, rng):
    """count random terms of each degree in degrees, in n variables."""
    poly = MPoly.zero(F, n)
    for deg in degrees:
        for _ in range(count):
            e = [0] * n
            for _ in range(deg):
                e[rng.randrange(n)] += 1
            poly.add_term(tuple(e), rng.nonzero_scalar(F))
    return poly


def _explicit_cases():
    rng = Rng(31)
    yield "trimm23", trimm_explicit(F, TrimmShape(2, 3))
    yield "trimm24", trimm_explicit(F, TrimmShape(2, 4))
    yield "trimm33", trimm_explicit(F, TrimmShape(3, 3))
    yield "zeroed33", _zeroed_trimm_33()
    yield "quadratic", _random_poly(10, [2], 12, rng)  # one block
    yield "nonhomogeneous", _random_poly(9, [3, 2, 1], 4, rng)
    dense = MPoly.zero(F, 8)
    for mono in combinations_with_replacement(range(8), 3):
        dense.add_term(tuple(mono.count(i) for i in range(8)), rng.scalar(F))
    yield "dense", dense


@pytest.mark.parametrize("case", range(7), ids=[name for name, _ in _explicit_cases()])
def test_block_sampled_span_equals_exact(case):
    """Two-stage block sampling finds the span of coefficient matching, on
    Tr-IMMs, a zeroed Tr-IMM, a quadratic (one block), a non-homogeneous
    cubic and a dense cubic with no Lie algebra."""
    name, poly = list(_explicit_cases())[case]
    exact = lie_algebra_basis_exact(poly)
    sampled = lie_algebra_basis(ExplicitBlackbox(poly), Rng(32 + case))
    assert sampled.dim == exact.dim
    assert exact.same_span_as(sampled)
    if name == "quadratic":
        assert len(_blocks(poly.n, ExplicitBlackbox(poly).degree)) == 1
    if name == "dense":
        assert exact.dim == 0


def _record_row_counts(monkeypatch, fails):
    """Patch lie's nullspace_rows to record each system's row count, and
    _certify_basis to fail the first ``fails`` calls."""
    import trimmeq.lie as lie

    seen, calls = [], []
    real_null, real_cert = lie.nullspace_rows, lie._certify_basis
    monkeypatch.setattr(lie, "nullspace_rows",
                        lambda field, rows: seen.append(len(rows)) or real_null(field, rows))

    def certify(*args):
        calls.append(args)
        return len(calls) > fails and real_cert(*args)

    monkeypatch.setattr(lie, "_certify_basis", certify)
    return seen, calls


def test_failed_certification_retries_once_with_doubled_rows(monkeypatch):
    sh = TrimmShape(2, 3)
    f = trimm_blackbox(F, sh)
    seen, calls = _record_row_counts(monkeypatch, fails=1)
    L = lie_algebra_basis(f, Rng(41))
    assert len(calls) == 2 and L.dim == 11
    assert len(seen) == 6  # two blocks and the combined stage, per attempt
    first, second = seen[:3], seen[3:]
    assert first[:2] == [12 * 6 + 32] * 2
    assert second == [2 * m for m in first]


def test_certification_failing_twice_raises(monkeypatch):
    seen, calls = _record_row_counts(monkeypatch, fails=2)
    with pytest.raises(CertificationFailed):
        lie_algebra_basis(trimm_blackbox(F, TrimmShape(2, 3)), Rng(42))
    assert len(calls) == 2 and len(seen) == 6
