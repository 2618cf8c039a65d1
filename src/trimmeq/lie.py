"""Lie algebra of a polynomial and its irreducible invariant subspaces.

The Lie algebra of f is the space of matrices E with
sum_{i,j} E[i][j] * x_j * df/dx_i == 0.  A basis is found by sampling
that identity at random points (blackbox access, ``lie_algebra_basis``) or
by exact coefficient matching (explicit polynomials,
``lie_algebra_basis_exact``).  Sampling never builds the n^2-unknown system:
over a random invertible U, with X = E U, the identity at points a = U c
with c supported on a block J of coordinates involves only the n |J|
unknowns X[:, J].  So one small elimination per block (``_blocks`` picks
the most blocks whose identity has as many monomials as unknowns) narrows
each X[:, J] to a nullspace N_J, and one elimination over the coordinates
in the N_J, at general points, gives the algebra.  Every row is a sampled
instance of the identity, so the span always contains the algebra, and the
identity test of every element (``_certify_basis``) decides that it holds
no more.  On top of it sit random
elements, vector closures, and the invariant-subspace search that drives
the reduction to tensor isomorphism.  Closures and invariance checks run on
the field's kernel: one GEMM maps a set of vectors through the stacked
basis, and one elimination keeps the images that grow the span.

The search splits F^n by a random element R whose characteristic
polynomial q is square-free.  Then F^n is the direct sum of the kernels
ker p_i(R) over the irreducible factors p_i of q, each a simple
F[R]-module, and an R-invariant subspace S is the sum of the kernels it
meets, so it holds ker p_i(R) exactly when p_i divides chi(R|S), the
characteristic polynomial of R on S.  Every kept closure is L-invariant,
hence R-invariant, so a factor's kernel is tested against it by one
division, and only a factor that no kept space covers pays for the kernel
of p_i(R) and a closure.  The test runs against each space's chi rather
than against a running quotient of q, since two closures may share
kernels.  A space past the expected count rejects at once: no later
factor can bring the count back.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import CertificationFailed
from .field import Fp, Rng
from .linalg import (Mat, in_span, nullspace_rows, poly_at_matrix, random_invertible, rref_rows,
                     same_span)
from .poly import Blackbox, MPoly, factor_univariate, squarefree_test, uni_divmod
from .report import reject

_CERTIFY_TRIALS = 20  # identity-test points per element of a sampled basis
_SUBSPACE_RETRIES = 3  # runs of the invariant-subspace search up to its square-free gate


class LieBasis:
    """Basis F_1..F_a of the Lie algebra of some polynomial."""

    __slots__ = ("field", "n", "basis")

    def __init__(self, field: Fp, n: int, basis: list[Mat]):
        self.field = field
        self.n = n
        self.basis = basis

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, M: Mat) -> bool:
        return in_span(self.field, self.flat(), M.flatten())

    def stack(self) -> np.ndarray:
        """The basis as one (a, n, n) residue array."""
        return self.field.kernel.asarray([F.rows for F in self.basis]).reshape(-1, self.n, self.n)

    def flat(self) -> np.ndarray:
        """The basis as the rows of one (a, n^2) residue array."""
        return self.stack().reshape(self.dim, self.n * self.n)

    def same_span_as(self, other: "LieBasis") -> bool:
        return same_span(self.field, self.flat(), other.flat())


class InvariantSubspace:
    """Subspace closed under every element of a Lie basis, spanned by the
    rows of one residue array."""

    __slots__ = ("field", "basis")

    def __init__(self, field: Fp, basis):
        self.field = field
        self.basis = np.asarray(basis, dtype=field.kernel.dtype)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def same_as(self, other: "InvariantSubspace") -> bool:
        return same_span(self.field, self.basis, other.basis)


def _blocks(n: int, d: int) -> list[range]:
    """Near-equal blocks of range(n): the largest count b whose smallest
    block size r = n // b has C(r + d, d) >= n r, so that a block's identity,
    of degree <= d in r variables, has as many monomials as unknowns; b = 1
    when no count does."""
    b = next((b for b in range(n, 1, -1) if comb(n // b + d, d) >= n * (n // b)), 1)
    return [range(n * i // b, n * (i + 1) // b) for i in range(b)]


def _kron_rows(k, g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Row t is g_t (x) c_t: the coefficients of grad(a_t)^T X c_t over the
    unknowns X[i][j], flattened as i * c.shape[1] + j."""
    return k.mul(g[:, :, None], c[:, None, :]).reshape(len(g), -1)


def _certify_basis(f: Blackbox, basis: list[Mat], trials: int, rng: Rng) -> bool:
    """PIT of the Lie polynomial of every element of the basis against zero,
    each at its own ``trials`` fresh points, drawn element by element: one
    ``gradient_many`` reads every point, one GEMM forms every E a, and one
    more every grad(a) . E a."""
    if not basis:
        return True
    k = f.field.kernel
    n = f.n
    pts = np.concatenate([rng.array(f.field, (trials, n)) for _ in basis])
    grads = f.gradient_many(pts)
    E = k.asarray([M.rows for M in basis]).reshape(-1, n, n)
    Ea = k.gemm(pts.reshape(-1, trials, n), E.transpose(0, 2, 1)).reshape(-1, n)  # rows: E a
    return not np.any(k.gemm(grads[:, None, :], Ea[:, :, None]))  # grad(a) . E a


def lie_algebra_basis(f: Blackbox, rng: Rng) -> LieBasis:
    """Basis of the Lie algebra of f, sampled in two stages over a random
    invertible U.

    With X = E U the identity reads grad_f(U c)^T X c == 0 in c.  Stage 1,
    for each block J of ``_blocks(n, f.degree)``: at n |J| + 32 points
    a = U_J c, with c supported on J, only the n |J| unknowns X[:, J] occur;
    the nullspace N_J of those rows holds every X[:, J] of the algebra.
    Stage 2: at s + 32 general points a = U c, s = sum_J dim N_J, the rows
    over the coordinates Y_J of X[:, J] = Y_J N_J; their nullspace gives X,
    and E = X U^-1.  Every row is a sampled instance of the identity, so the
    span always contains the Lie algebra, and by Schwartz-Zippel each stage
    is complete w.h.p.  The basis is then certified by PIT at
    ``_CERTIFY_TRIALS`` fresh points per element, every element at once
    (``_certify_basis``); retry once with a new U and twice the rows in
    every stage, then raise CertificationFailed.  W.h.p. the span is that of
    ``lie_algebra_basis_exact``.
    """
    n = f.n
    field = f.field
    k = field.kernel
    blocks = _blocks(n, f.degree)
    for scale in (1, 2):
        U = random_invertible(field, n, rng)
        nulls = []
        for J in blocks:
            c = rng.array(field, (scale * (n * len(J) + 32), len(J)))
            g = f.gradient_many(k.gemm(c, U.rows[:, J].T))
            nulls.append(nullspace_rows(field, _kron_rows(k, g, c)))
        s = sum(len(N) for N in nulls)
        c = rng.array(field, (scale * (s + 32), n))
        g = f.gradient_many(k.gemm(c, U.rows.T))
        Y = nullspace_rows(field, np.concatenate(
            [k.gemm(_kron_rows(k, g, c[:, J]), N.T) for J, N in zip(blocks, nulls)], axis=1))
        X = k.zeros((len(Y), n, n))
        cols = np.cumsum([0] + [len(N) for N in nulls])
        for J, N, y0, y1 in zip(blocks, nulls, cols, cols[1:]):
            X[:, :, J] = k.gemm(Y[:, y0:y1], N).reshape(len(Y), n, len(J))
        basis = [Mat(field, E) for E in k.gemm(X, U.inverse().rows)]
        if _certify_basis(f, basis, _CERTIFY_TRIALS, rng):
            return LieBasis(field, n, basis)
    raise CertificationFailed("sampled Lie basis failed identity certification")


def lie_algebra_basis_exact(f: MPoly) -> LieBasis:
    """Basis of the Lie algebra of an explicit polynomial, by coefficient
    matching: one constraint row per monomial of sum E[i][j] x_j df/dx_i."""
    field = f.field
    n = f.n
    p = field.p
    rows: dict[tuple, list[int]] = {}
    for e, c in f.terms.items():
        for i in range(n):
            if not e[i]:
                continue
            dc = c * e[i] % p
            for j in range(n):
                mu = list(e)
                mu[i] -= 1
                mu[j] += 1
                key = tuple(mu)
                row = rows.get(key)
                if row is None:
                    row = rows[key] = [0] * (n * n)
                row[i * n + j] = (row[i * n + j] + dc) % p
    system = field.kernel.asarray(list(rows.values())).reshape(len(rows), n * n)
    return LieBasis(field, n, [Mat(field, v.reshape(n, n)) for v in nullspace_rows(field, system)])


def random_element(L: LieBasis, rng: Rng) -> Mat:
    """Uniform random combination of the basis (coefficients from all of F_p)."""
    field = L.field
    out = Mat.zeros(field, L.n, L.n)
    for F in L.basis:
        out = out + F.scale(rng.scalar(field))
    return out


def _images(k, S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """F_j v_i for every row v_i of V and every F_j of the (a, n, n) stack S,
    as rows ordered by i, then j: one GEMM."""
    return k.gemm(S, V.T).transpose(2, 0, 1).reshape(-1, S.shape[-1])


def closure(v: np.ndarray, L: LieBasis) -> InvariantSubspace:
    """Smallest L-invariant subspace containing v.  Each round maps the whole
    frontier through the basis at once and keeps, in order, the images that
    grow the span: the pivot columns past the current basis."""
    k = L.field.kernel
    S = L.stack()
    basis = k.asarray([v])
    frontier = basis
    while len(frontier):
        cand = _images(k, S, frontier)
        r = len(basis)
        piv = k.pivots(np.concatenate([basis, cand]).T)
        frontier = cand[[c - r for c in piv if c >= r]]
        basis = np.concatenate([basis, frontier])
    return InvariantSubspace(L.field, basis)


def is_invariant(space: InvariantSubspace, L: LieBasis) -> bool:
    """The images of the basis under L stay in its span: rank([B; images]) == rank(B)."""
    k = L.field.kernel
    B = space.basis
    return k.rank(np.concatenate([B, _images(k, L.stack(), B)])) == k.rank(B)


def _restricted_charpoly(field: Fp, space: InvariantSubspace, R: Mat) -> list[int]:
    """chi(R|S), the characteristic polynomial of R on an R-invariant S.  With
    E the RREF of S's basis and piv its pivot columns, row j of E R^T is
    R e_j = sum_l C[j, l] e_l, and E[:, piv] = I reads C = (E R^T)[:, piv] off;
    C is the transpose of the matrix of R|S in the basis E."""
    E, piv = rref_rows(field, space.basis)
    return Mat(field, field.kernel.gemm(E, R.rows.T)[:, piv]).charpoly()


def irreducible_invariant_subspaces(f: Blackbox, rng: Rng, expected_count: int):
    """The irreducible invariant subspaces of the Lie algebra of f, or None.

    Basis, random element R, characteristic polynomial q, square-free gate,
    factors p_i of q, then one closure per factor whose kernel no kept space
    holds.  A kept space S, an L-closure and so R-invariant, holds all of the
    simple F[R]-module ker p_i(R) or none of it, and holds it exactly when
    p_i divides chi(R|S) (``_restricted_charpoly``); closures may overlap, so
    p_i is tested against each kept space's chi, not against a running
    quotient of q.  An uncovered factor's kernel vector v spans a new space,
    closure(v): when expected_count spaces are already kept, that surplus
    space rejects at once, since no later factor can lower the count.
    Rejects unless exactly expected_count distinct spaces of equal
    dimension come out.  Up to the square-free gate the procedure retries
    (``_SUBSPACE_RETRIES`` runs in all) on square-free or certification
    failures, since its guarantees are only with high probability; the
    structural checks after it reject at once.
    """
    field = f.field
    gate = "square-free"
    for _ in range(_SUBSPACE_RETRIES):
        try:
            L = lie_algebra_basis(f, rng)
        except CertificationFailed:
            gate = "certification"
            continue
        if L.dim == 0:
            return reject("invariant-subspaces:empty-basis")
        R = random_element(L, rng)
        q = R.charpoly()
        if squarefree_test(field, q):
            break
        gate = "square-free"
    else:
        return reject(f"invariant-subspaces:{gate}")
    spaces: list[InvariantSubspace] = []
    chis: list[list[int]] = []  # chi(R|S) of each kept space S
    for p_i, _ in factor_univariate(field, q, rng):
        if any(not uni_divmod(field, chi, p_i)[1] for chi in chis):
            continue  # ker p_i(R) lies in a kept space
        null = poly_at_matrix(p_i, R).nullspace()
        if not len(null):
            return reject("invariant-subspaces:factor-nullspace")
        if len(spaces) == expected_count:
            return reject("invariant-subspaces:subspace-count")
        spaces.append(closure(null[0], L))
        chis.append(_restricted_charpoly(field, spaces[-1], R))
    if len(spaces) != expected_count:
        return reject("invariant-subspaces:subspace-count")
    dims = {s.dim for s in spaces}
    if len(dims) != 1:
        return reject("invariant-subspaces:subspace-dims")
    if not all(is_invariant(s, L) for s in spaces):
        return reject("invariant-subspaces:invariance")
    return spaces
