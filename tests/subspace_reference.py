"""The invariant-subspace search by kernel membership: the reference that
:func:`trimmeq.lie.irreducible_invariant_subspaces` is tested against.

For every factor p_i of the characteristic polynomial of R, the reference
computes p_i(R), its kernel and the first kernel vector v, and closes v
unless v lies in a kept space, tested by v == v[piv] times the space's RREF.
It runs every factor and counts the spaces after the loop.  The library
tests a factor by divisibility instead, skips the kernel of a covered
factor and stops at the first surplus space; its spaces, in order, and its
run report must be the reference's.
"""

from trimmeq.errors import CertificationFailed
from trimmeq.lie import _SUBSPACE_RETRIES, closure, is_invariant, lie_algebra_basis, random_element
from trimmeq.linalg import poly_at_matrix, rref_rows
from trimmeq.poly import factor_univariate, squarefree_test
from trimmeq.report import reject


def membership_loop(L, R, factors):
    """(first kernel vector of p_i(R) for every factor, kept spaces), or
    None when a factor's kernel is empty."""
    field = L.field
    k = field.kernel
    nulls, spaces, echelons = [], [], []
    for p_i, _ in factors:
        null = poly_at_matrix(p_i, R).nullspace()
        if not len(null):
            return None
        v = null[0]
        nulls.append(v)
        if not any((k.gemm(v[None, piv], E)[0] == v).all() for E, piv in echelons):
            spaces.append(closure(v, L))
            echelons.append(rref_rows(field, spaces[-1].basis))
    return nulls, spaces


def in_space(field, space, v) -> bool:
    """v lies in the span of the closure ``space``: v == v[piv] times its RREF."""
    E, piv = rref_rows(field, space.basis)
    return bool((field.kernel.gemm(v[None, piv], E)[0] == v).all())


def irreducible_invariant_subspaces(f, rng, expected_count: int):
    """The search with one kernel and one membership test per factor, drawing
    from ``rng`` as the library does."""
    field = f.field
    gate = "square-free"
    for _ in range(_SUBSPACE_RETRIES):
        try:
            L = lie_algebra_basis(f, rng, f.n - 1)
        except CertificationFailed:
            gate = "certification"
            continue
        if L is None or L.dim != f.n - 1:
            return reject("invariant-subspaces:lie-dimension")
        R = random_element(L, rng)
        q = R.charpoly()
        if squarefree_test(field, q):
            break
        gate = "square-free"
    else:
        return reject(f"invariant-subspaces:{gate}")
    found = membership_loop(L, R, factor_univariate(field, q, rng))
    if found is None:
        return reject("invariant-subspaces:factor-nullspace")
    spaces = found[1]
    if len(spaces) != expected_count:
        return reject("invariant-subspaces:subspace-count")
    if len({s.dim for s in spaces}) != 1:
        return reject("invariant-subspaces:subspace-dims")
    if not all(is_invariant(s, L) for s in spaces):
        return reject("invariant-subspaces:invariance")
    return spaces
