"""Lie algebra of a polynomial and its irreducible invariant subspaces.

The Lie algebra of f is the space of matrices E with
sum_{i,j} E[i][j] * x_j * df/dx_i == 0.  A basis is found either by
sampling that identity at random points (blackbox access) or by exact
coefficient matching (explicit polynomials).  On top of it sit random
elements, vector closures, and the invariant-subspace search that drives
the reduction to tensor isomorphism.  Closures and invariance checks run on
the field's kernel: one GEMM maps a set of vectors through the stacked
basis, and one elimination keeps the images that grow the span.
"""

from __future__ import annotations

import numpy as np

from .errors import CertificationFailed
from .field import Fp, Rng
from .linalg import (
    Mat,
    in_span,
    nullspace_rows,
    poly_at_matrix,
    same_span,
)
from .poly import Blackbox, ExplicitBlackbox, factor_univariate, squarefree_test
from .report import reject


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
        return self.stack().reshape(self.dim, -1)

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


def _lie_rows_sampled(f: Blackbox, m: int, rng: Rng):
    """m rows of the sampled constraint system over the n^2 unknowns E[i][j].

    Row for point a is the flattened outer product grad_f(a) (x) a, since
    sum_ij E_ij a_j d_i f(a) = grad(a)^T E a.
    """
    field = f.field
    n = f.n
    pts = rng.array(field, (m, n))
    grads = f.gradient_many(pts)
    rows = field.kernel.mul(grads[:, :, None], pts[:, None, :]).reshape(m, n * n)
    return rows, pts


def _certify_element(f: Blackbox, E: Mat, trials: int, rng: Rng) -> bool:
    """PIT of the Lie polynomial of E against zero at fresh points."""
    k = f.field.kernel
    pts = rng.array(f.field, (trials, f.n))
    grads = f.gradient_many(pts)
    Ea = k.matmul(pts, E.rows.T)  # rows: E.a
    return not np.any(k.gemm(grads[:, None, :], Ea[:, :, None]))  # grad(a) . E a


def lie_algebra_basis(
    f: Blackbox,
    rng: Rng,
    mode: str = "sampled",
    certify_trials: int = 20,
) -> LieBasis:
    """Basis of the Lie algebra of f.

    sampled: build an (n^2 + 32)-row random constraint system, take its
    nullspace, then certify every basis element by PIT at fresh points;
    raises CertificationFailed if any element fails (the caller may retry
    with more rows).  exact: coefficient matching on an explicit
    polynomial; both return the same span w.h.p.
    """
    n = f.n
    field = f.field
    if mode == "exact":
        if not isinstance(f, ExplicitBlackbox):
            raise TypeError("exact mode needs an ExplicitBlackbox")
        return _lie_basis_exact(f)
    m = n * n + 32
    attempt_rows = m
    for _ in range(2):
        rows, _ = _lie_rows_sampled(f, attempt_rows, rng)
        basis = [Mat(field, v.reshape(n, n)) for v in nullspace_rows(field, rows)]
        if all(_certify_element(f, E, certify_trials, rng) for E in basis):
            return LieBasis(field, n, basis)
        attempt_rows *= 2
    raise CertificationFailed("sampled Lie basis failed identity certification")


def _lie_basis_exact(f: ExplicitBlackbox) -> LieBasis:
    field = f.field
    n = f.n
    p = field.p
    rows: dict[tuple, list[int]] = {}
    for e, c in f.poly.terms.items():
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


def irreducible_invariant_subspaces(
    f: Blackbox,
    rng: Rng,
    expected_count: int | None = None,
    retries: int = 3,
):
    """The irreducible invariant subspaces of the Lie algebra of f, or None.

    Basis, random element, characteristic polynomial, square-free gate,
    factor, null spaces of the factors at the element, closures of one
    vector each, dedup.  Rejects unless exactly d distinct spaces of equal
    dimension come out (d = expected_count, default the polynomial degree).
    Up to the square-free gate the procedure retries on square-free or
    certification failures, since its guarantees are only with high
    probability; the structural checks after it reject at once.
    """
    d = expected_count if expected_count is not None else f.degree
    field = f.field
    gate = "square-free"
    for _ in range(retries):
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
    factors = factor_univariate(field, q, rng)
    spaces: list[InvariantSubspace] = []
    for p_i, _ in factors:
        N = poly_at_matrix(p_i, R)
        null = N.nullspace()
        if not len(null):
            return reject("invariant-subspaces:factor-nullspace")
        space = closure(null[0], L)
        if not any(space.same_as(s) for s in spaces):
            spaces.append(space)
    if len(spaces) != d:
        return reject("invariant-subspaces:subspace-count")
    dims = {s.dim for s in spaces}
    if len(dims) != 1:
        return reject("invariant-subspaces:subspace-dims")
    if not all(is_invariant(s, L) for s in spaces):
        return reject("invariant-subspaces:invariance")
    return spaces
