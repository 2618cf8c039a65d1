"""The benchmark's workloads: seeded instance generation, the timed solver
call, and an independent check of every answer.

Every function takes the imported ``trimmeq`` package as ``tq`` so that
set-up can be repeated on a fresh import.  Inputs depend only on the
workload seed; each instance also carries its own solver seed, so a
repeated solve of one instance returns the same witness.

Why these workloads (measured on the seed commit, 2 cores):

* ``trimm-w2`` -- Tr-IMM_{2,4} with the genuine quadratic DET oracle.  Its
  systems are small (288 x 256 Lie nullspace), so Python-level factoring,
  span tests, ABP reconstruction and the oracle dominate; a big-matrix
  kernel change should show no change here.  Negatives are criterion 3's
  families and stop early in ``lie``.
* ``trimm-w3-planted`` -- Tr-IMM_{3,3} with the planted DET oracle: kernel
  bound (761 x 729 Lie nullspace, ~1,800 scalar 9 x 9 determinants in the
  layer roots).  Its negatives (Tr-IMM_{3,3} with one coefficient deleted)
  run the same 761 x 729 nullspace and stop at ``subspace-count``.
* ``fmai-w2`` -- planted conjugated full matrix algebras at w = 2: one tall
  3584 x 256 nullspace plus sparse explicit-polynomial evaluation; the only
  workload that runs ``tensor`` and ``fmai``.  Negatives are scaled
  diagonal (commutative) algebras, rejected at the MMTI oracle.
"""

from __future__ import annotations

# Points of the independent identity check; each wrong witness survives
# a point with probability at most deg/p < 2^-58.
CHECK_POINTS = 16


class Instance:
    """One input: ``solve()`` is the timed call.  For a positive,
    ``check(result)`` is the independent verdict on a returned witness; a
    negative is answered correctly only by None."""

    __slots__ = ("family", "positive", "solve", "check", "key")

    def __init__(self, family, positive, solve, check, key):
        self.family = family
        self.positive = positive
        self.solve = solve
        self.check = check
        self.key = key


def _trimm_check(tq, f, shape, check_seed):
    """f == Tr-IMM(A x) on the scalar eval path, not the batched kernel the
    solver used.  The identity forces A to be invertible, since f is a
    planted Tr-IMM of full rank."""

    def check(result) -> bool:
        w, A = result
        if w != shape.w or A.nrows != shape.n or A.ncols != shape.n:
            return False
        g = tq.ComposedBlackbox(tq.trimm_blackbox(f.field, shape), A)
        rng = tq.Rng(check_seed)
        for _ in range(CHECK_POINTS):
            pt = rng.vector(f.field, shape.n)
            if f.eval(pt) != g.eval(pt):
                return False
        return True

    return check


def _trimm_key(result):
    if result is None:
        return None
    w, A = result
    return (w, tuple(tuple(r) for r in A.rows))


def trimm_positive(tq, field, shape, rng, provider_for, solver_seed, check_seed):
    inst = tq.plant_instance(field, shape, rng, mode="full")
    provider = provider_for(inst)
    d = shape.d

    def solve():
        return tq.trace_equivalence(inst.f, d, provider, tq.Rng(solver_seed))

    return Instance("pos", True, solve,
                    _trimm_check(tq, inst.f, shape, check_seed), _trimm_key)


def _trimm_negative(tq, family, f, d, provider, solver_seed):
    def solve():
        return tq.trace_equivalence(f, d, provider, tq.Rng(solver_seed))

    return Instance(family, False, solve, None, _trimm_key)


def dense_cubic(tq, field, n, rng):
    """A random dense cubic in n variables (criterion 3's first family)."""
    out = tq.MPoly.zero(field, n)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                e = [0] * n
                e[i] += 1
                e[j] += 1
                e[k] += 1
                out.add_term(tuple(e), rng.scalar(field))
    return out


def zeroed_trimm(tq, field, shape, rng):
    """Tr-IMM_{w,d} with one coefficient deleted (criterion 3's second)."""
    base = tq.trimm_explicit(field, shape)
    terms = dict(base.terms)
    del terms[sorted(terms)[rng.randrange(len(terms))]]
    return tq.MPoly(field, shape.n, terms)


def planted_algebra(tq, field, w, rng):
    """A randomized basis of K^{-1} (I_w (x) M_w) K inside M_{w^2}."""
    K = tq.random_invertible(field, w * w, rng)
    Kinv = K.inverse()
    emb = []
    for a in range(w):
        for b in range(w):
            E = tq.Mat.zeros(field, w, w)
            E.rows[a][b] = 1
            emb.append(Kinv * tq.kron(tq.Mat.identity(field, w), E) * K)
    R = tq.random_invertible(field, w * w, rng)
    basis = []
    for i in range(w * w):
        M = tq.Mat.zeros(field, w * w, w * w)
        for j in range(w * w):
            if R.rows[i][j]:
                M = M + emb[j].scale(R.rows[i][j])
        basis.append(M)
    return tq.AlgebraInput(field, basis)


def diagonal_algebra(tq, field, m, rng):
    """Randomly scaled diagonal matrix units: a commutative algebra of
    dimension m, which passes the commutant gate and is rejected later."""
    basis = []
    for i in range(m):
        E = tq.Mat.zeros(field, m, m)
        E.rows[i][i] = rng.nonzero_scalar(field)
        basis.append(E)
    return tq.AlgebraInput(field, basis)


def _fmai_check(tq, A):
    """verify_isomorphism against freshly computed left multiplications."""

    def check(iso) -> bool:
        if iso.w * iso.w != A.dim:
            return False
        return tq.fmai.verify_isomorphism(A, tq.left_mult_matrices(A), iso)

    return check


def _fmai_key(iso):
    if iso is None:
        return None
    return tuple(sorted((k, tuple(tuple(r) for r in M.rows)) for k, M in iso.images.items()))


def _fmai_instance(tq, family, positive, A, mmti, solver_seed):
    def solve():
        return tq.fmai_solve(A, mmti, tq.Rng(solver_seed))

    check = _fmai_check(tq, A) if positive else None
    return Instance(family, positive, solve, check, _fmai_key)


class Workload:
    """A named instance generator.

    ``pattern`` is one round of instance families; the timed loop runs whole
    rounds so the positive/negative mix of every run is the same.
    ``min_round_s`` sizes the pre-generated pool: it is about a fifth of a
    round's time on the seed commit, so the pool lasts through a five-fold
    speed-up.  A pool that still runs out is reused from the start, and the
    run reports it.  ``trace_rounds`` is the fixed number of rounds
    of the traced run, and ``dets_per_tid`` = d - 2 is the DET-oracle count
    of each certifying tensor_iso_to_det.
    """

    def __init__(self, name, pattern, min_round_s, trace_rounds, dets_per_tid, build):
        self.name = name
        self.pattern = pattern
        self.min_round_s = min_round_s
        self.trace_rounds = trace_rounds
        self.dets_per_tid = dets_per_tid
        self._build = build

    def instances(self, tq, seed: int, rounds: int) -> list[Instance]:
        """rounds x pattern instances, generated from the seed alone."""
        field = tq.Fp()
        master = tq.Rng(seed)
        make = self._build(tq, field)
        out = []
        for _ in range(rounds):
            for family in self.pattern:
                rng = master.child()
                solver_seed = master.randrange(1 << 62)
                check_seed = master.randrange(1 << 62)
                out.append(make(family, rng, solver_seed, check_seed))
        return out


def _build_trimm_w2(tq, field):
    oracle = tq.QuadraticDetOracle(field)
    provider = lambda w: oracle if w == 2 else None  # noqa: E731
    pos_shape = tq.TrimmShape(2, 4)
    neg_shape = tq.TrimmShape(2, 3)

    def make(family, rng, solver_seed, check_seed):
        if family == "pos":
            return trimm_positive(tq, field, pos_shape, rng, lambda inst: provider,
                                  solver_seed, check_seed)
        if family == "cubic":
            f = tq.ExplicitBlackbox(dense_cubic(tq, field, neg_shape.n, rng))
        else:
            f = tq.ExplicitBlackbox(zeroed_trimm(tq, field, neg_shape, rng))
        return _trimm_negative(tq, family, f, neg_shape.d, provider, solver_seed)

    return make


def _build_trimm_w3(tq, field):
    shape = tq.TrimmShape(3, 3)

    def planted_provider(inst):
        oracle = tq.PlantedDetOracle(field, shape, inst.A)
        return lambda w: oracle if w == shape.w else None

    def make(family, rng, solver_seed, check_seed):
        if family == "pos":
            return trimm_positive(tq, field, shape, rng, planted_provider,
                                  solver_seed, check_seed)
        # No secret exists for a negative, so no DET oracle is offered: the
        # rejection must come from the structural gates.
        f = tq.ExplicitBlackbox(zeroed_trimm(tq, field, shape, rng))
        return _trimm_negative(tq, family, f, shape.d, lambda w: None, solver_seed)

    return make


def _build_fmai_w2(tq, field):
    oracle = tq.QuadraticDetOracle(field)
    mmti = lambda h, w, rng: tq.mmti_oracle(h, w, oracle, rng)  # noqa: E731

    def make(family, rng, solver_seed, check_seed):
        if family == "pos":
            return _fmai_instance(tq, family, True, planted_algebra(tq, field, 2, rng),
                                  mmti, solver_seed)
        return _fmai_instance(tq, family, False, diagonal_algebra(tq, field, 4, rng),
                              mmti, solver_seed)

    return make


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "trimm-w2",
            # Twice as many zeroed negatives as cubics keeps the rejection
            # median inside one family's time range.
            ("pos", "zeroed", "pos", "cubic", "pos", "zeroed"),
            min_round_s=0.6, trace_rounds=2, dets_per_tid=2, build=_build_trimm_w2,
        ),
        Workload(
            "trimm-w3-planted",
            ("pos", "zeroed"),
            min_round_s=2.5, trace_rounds=1, dets_per_tid=1, build=_build_trimm_w3,
        ),
        Workload(
            "fmai-w2",
            ("pos", "diag"),
            min_round_s=1.2, trace_rounds=1, dets_per_tid=1, build=_build_fmai_w2,
        ),
    ]
}
