"""The acceptance suite: one callable per criterion, shared by the test
suite and the command-line selftest.

Each criterion returns a CriterionResult with pass/fail, a human-readable
detail string, and its wall time.  Thresholds, seed counts, and time
budgets are pinned here and nowhere else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .abp import evaldim, reconstruct_abp
from .field import Fp, Rng
from .fmai import AlgebraInput, build_constrained_tensor, commutant_basis, fmai_solve, left_mult_matrices
from .lie import (
    irreducible_invariant_subspaces,
    lie_algebra_basis,
    random_element,
)
from .linalg import Mat, kron, random_invertible
from .oracles import PlantedDetOracle, QuadraticDetOracle, mmti_oracle
from .poly import (
    ExplicitBlackbox,
    LinMat,
    MPoly,
    det_linear_matrix,
    pit_equal,
    squarefree_test,
)
from .reduction import intertwiner_space, trace_equivalence
from .report import RunReport
from .tensor import degree_d_to_3
from .trimm import (
    TrimmShape,
    lie_generator,
    plant_instance,
    trimm_blackbox,
    trimm_explicit,
    verify_witness,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.name}): {self.detail} [{self.elapsed:.1f}s]"


def _timed(number, name, fn):
    t0 = time.monotonic()
    passed, detail = fn()
    return CriterionResult(number, name, passed, detail, time.monotonic() - t0)


def criterion_1(field: Fp | None = None) -> CriterionResult:
    """End-to-end pipeline, genuine oracle: (2,3) and (2,4), 20 seeds each,
    >= 18/20 certified witnesses, total under 120 s."""
    field = field or Fp()

    def run():
        t0 = time.monotonic()
        counts = {}
        for (w, d) in [(2, 3), (2, 4)]:
            ok = 0
            for seed in range(20):
                rng = Rng(1000 * d + seed)
                inst = plant_instance(field, TrimmShape(w, d), rng, mode="full")
                res = trace_equivalence(
                    inst.f, d, lambda ww: QuadraticDetOracle(field) if ww == 2 else None, rng
                )
                if res is not None and verify_witness(inst.f, TrimmShape(w, d), res[1], 100, rng):
                    ok += 1
            counts[(w, d)] = ok
        elapsed = time.monotonic() - t0
        passed = all(v >= 18 for v in counts.values()) and elapsed < 120.0
        return passed, f"certified {counts}, {elapsed:.1f}s (budget 120s)"

    return _timed(1, "end-to-end genuine oracle", run)


def criterion_2(field: Fp | None = None) -> CriterionResult:
    """End-to-end pipeline, planted oracle: (3,3) and (2,6), 10 seeds each,
    >= 9/10 certified, total under 300 s."""
    field = field or Fp()

    def run():
        t0 = time.monotonic()
        counts = {}
        for (w, d) in [(3, 3), (2, 6)]:
            sh = TrimmShape(w, d)
            ok = 0
            for seed in range(10):
                rng = Rng(2000 * d + 10 * w + seed)
                inst = plant_instance(field, sh, rng, mode="full")
                provider = lambda ww, inst=inst, sh=sh: (
                    PlantedDetOracle(field, sh, inst.A) if ww == sh.w else None
                )
                res = trace_equivalence(inst.f, d, provider, rng)
                if res is not None and verify_witness(inst.f, sh, res[1], 100, rng):
                    ok += 1
            counts[(w, d)] = ok
        elapsed = time.monotonic() - t0
        passed = all(v >= 9 for v in counts.values()) and elapsed < 300.0
        return passed, f"certified {counts}, {elapsed:.1f}s (budget 300s)"

    return _timed(2, "end-to-end planted oracle", run)


def _random_dense_cubic(field: Fp, n: int, rng: Rng) -> MPoly:
    out = MPoly.zero(field, n)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                e = [0] * n
                e[i] += 1
                e[j] += 1
                e[k] += 1
                out.add_term(tuple(e), rng.scalar(field))
    return out


def criterion_3(field: Fp | None = None) -> CriterionResult:
    """Negative controls reach 'No': random dense cubic in 12 variables and
    Tr-IMM_{2,3} with one coefficient zeroed, >= 19/20 seeds each."""
    field = field or Fp()

    def run():
        sh = TrimmShape(2, 3)
        provider = lambda ww: QuadraticDetOracle(field) if ww == 2 else None
        rejects_cubic = 0
        for seed in range(20):
            rng = Rng(3100 + seed)
            f = ExplicitBlackbox(_random_dense_cubic(field, 12, rng))
            if trace_equivalence(f, 3, provider, rng) is None:
                rejects_cubic += 1
        rejects_zeroed = 0
        base = trimm_explicit(field, sh)
        for seed in range(20):
            rng = Rng(3200 + seed)
            terms = dict(base.terms)
            kill = sorted(terms)[rng.randrange(len(terms))]
            del terms[kill]
            f = ExplicitBlackbox(MPoly(field, 12, terms))
            if trace_equivalence(f, 3, provider, rng) is None:
                rejects_zeroed += 1
        passed = rejects_cubic >= 19 and rejects_zeroed >= 19
        return passed, f"rejected cubic {rejects_cubic}/20, zeroed {rejects_zeroed}/20"

    return _timed(3, "negative controls", run)


def criterion_4(field: Fp | None = None) -> CriterionResult:
    """Evaluation dimension: w^2 on adjacent block pairs, w^4 on
    non-adjacent, for Tr-IMM_{2,4} and Tr-IMM_{3,3}, 10/10 seeds."""
    field = field or Fp()

    def run():
        all_ok = True
        for (w, d) in [(2, 4), (3, 3)]:
            sh = TrimmShape(w, d)
            bb = trimm_blackbox(field, sh)
            m = w ** 4 + 16
            for seed in range(10):
                rng = Rng(4000 + 10 * d + seed)
                for r in range(d):
                    for rp in range(r + 1, d):
                        adjacent = (rp - r) % d in (1, d - 1)
                        want = w * w if adjacent else w ** 4
                        got = evaldim(bb, sh.block_vars(r) + sh.block_vars(rp), m, rng)
                        if got != want:
                            all_ok = False
        return all_ok, "all pair signatures exact on (2,4) and (3,3), 10 seeds"

    return _timed(4, "evaluation dimension", run)


def criterion_5(field: Fp | None = None) -> CriterionResult:
    """Lie algebra of Tr-IMM_{2,3}: sampled span == exact span, contains
    all d*w^2 generators, every element block-diagonal, dims equal."""
    field = field or Fp()

    def run():
        sh = TrimmShape(2, 3)
        rng = Rng(50)
        exact = lie_algebra_basis(ExplicitBlackbox(trimm_explicit(field, sh)), rng, mode="exact")
        sampled = lie_algebra_basis(trimm_blackbox(field, sh), rng, mode="sampled")
        ok = sampled.dim == exact.dim and sampled.same_span_as(exact)
        for k in range(3):
            for u in range(2):
                for v in range(2):
                    E = Mat.zeros(field, 2, 2)
                    E.rows[u, v] = 1
                    ok = ok and sampled.contains(lie_generator(sh, k, E))
        block = np.arange(12) // 4
        off_diagonal = block[:, None] != block[None, :]
        ok = ok and not sampled.stack()[:, off_diagonal].any()
        return ok, f"dim sampled={sampled.dim} exact={exact.dim}, generators contained, block-diagonal"

    return _timed(5, "Lie algebra structure", run)


def criterion_6(field: Fp | None = None) -> CriterionResult:
    """>= 95/100 random Lie-algebra elements of Tr-IMM_{2,3} have a
    square-free characteristic polynomial."""
    field = field or Fp()

    def run():
        sh = TrimmShape(2, 3)
        rng = Rng(60)
        L = lie_algebra_basis(ExplicitBlackbox(trimm_explicit(field, sh)), rng, mode="exact")
        good = 0
        for _ in range(100):
            R = random_element(L, rng)
            if squarefree_test(field, R.charpoly()):
                good += 1
        return good >= 95, f"square-free {good}/100"

    return _timed(6, "square-free characteristic polynomials", run)


def criterion_7(field: Fp | None = None) -> CriterionResult:
    """Invariant-subspace search on planted (2,3): 3 subspaces of dim 4
    with single-block support under A, 20/20 seeds."""
    field = field or Fp()

    def run():
        sh = TrimmShape(2, 3)
        ok = 0
        for seed in range(20):
            rng = Rng(700 + seed)
            inst = plant_instance(field, sh, rng, mode="full")
            spaces = irreducible_invariant_subspaces(inst.f, rng, expected_count=3)
            if spaces is None:
                continue
            if len(spaces) != 3 or any(s.dim != 4 for s in spaces):
                continue
            good = True
            for s in spaces:
                blocks = set()
                for v in s.basis:
                    av = inst.A.matvec(v)
                    blocks.update(t // 4 for t, x in enumerate(av) if x)
                if len(blocks) != 1:
                    good = False
            ok += good
        return ok == 20, f"recovered {ok}/20"

    return _timed(7, "invariant subspaces on planted input", run)


def criterion_8(field: Fp | None = None) -> CriterionResult:
    """ABP reconstruction on planted block-mode (2,5): certified at 200
    points, 10/10 seeds."""
    field = field or Fp()

    def run():
        sh = TrimmShape(2, 5)
        ok = 0
        for seed in range(10):
            rng = Rng(800 + seed)
            inst = plant_instance(field, sh, rng, mode="block")
            blocks = [sh.block_vars(k) for k in range(5)]
            try:
                abp = reconstruct_abp(inst.f, blocks, 4, rng)
            except Exception:
                continue
            if pit_equal(inst.f, abp.as_blackbox(), 200, rng):
                ok += 1
        return ok == 10, f"certified {ok}/10 at 200 points"

    return _timed(8, "ABP reconstruction", run)


def criterion_9(field: Fp | None = None) -> CriterionResult:
    """Quadratic DET oracle: 50 planted compositions answered with verified
    X', 20 rank-deficient quadratics rejected."""
    field = field or Fp()

    def run():
        det2 = LinMat.symbolic(field, 2)
        target = det_linear_matrix(det2)
        oracle = QuadraticDetOracle(field)
        rng = Rng(90)
        good = 0
        for _ in range(50):
            B = random_invertible(field, 4, rng)
            g = target.compose_linear(B)
            Xp = oracle(g, rng)
            if Xp is None:
                continue
            if pit_equal(
                ExplicitBlackbox(det_linear_matrix(Xp)), ExplicitBlackbox(g), 50, rng
            ):
                good += 1
        rejected = 0
        for _ in range(20):
            # rank <= 3 Gram: a quadratic in only 3 of the 4 variables
            q = MPoly.zero(field, 4)
            for i in range(3):
                for j in range(i, 3):
                    e = [0] * 4
                    e[i] += 1
                    e[j] += 1
                    q.add_term(tuple(e), rng.scalar(field))
            if q.is_zero():
                q.add_term((2, 0, 0, 0), 1)
            if oracle(q, rng) is None:
                rejected += 1
        return good == 50 and rejected == 20, f"answered {good}/50, rejected {rejected}/20"

    return _timed(9, "quadratic determinant oracle", run)


def criterion_10(field: Fp | None = None) -> CriterionResult:
    """Intertwiner structure for Z = I_2 (x) X, X symbolic: the plain
    branch has a 4-dimensional M (x) I solution space; the mixed branch is
    zero."""
    field = field or Fp()

    def run():
        w = 2
        Z = LinMat.symbolic(field, w).identity_kron(w)
        plain = intertwiner_space(Z, Z)
        ok = len(plain) == 4
        for (T, S) in plain:
            if T != S:
                ok = False
            for a in range(w):
                for b in range(w):
                    blk = T.block(a * w, b * w, w, w)
                    m = blk.rows[0, 0]
                    want = Mat.identity(field, w).scale(m)
                    if blk != want:
                        ok = False
        mixed = intertwiner_space(Z, Z.transpose())
        ok = ok and len(mixed) == 0
        return ok, f"plain dim {len(plain)} with M(x)I structure, mixed dim {len(mixed)}"

    return _timed(10, "intertwiner solution structure", run)


def criterion_11(field: Fp | None = None) -> CriterionResult:
    """Degree reduction: planted (2,4) and (2,6) certified 10/10;
    random 4-tensors rejected 10/10."""
    field = field or Fp()

    def run():
        det = QuadraticDetOracle(field)
        mmti = lambda h, w, rng: mmti_oracle(h, w, det, rng)
        counts = {}
        for (w, d) in [(2, 4), (2, 6)]:
            sh = TrimmShape(w, d)
            ok = 0
            for seed in range(10):
                rng = Rng(5000 * d + seed)
                inst = plant_instance(field, sh, rng, mode="block")
                Bs = degree_d_to_3(inst.f, w, d, mmti, rng)
                if Bs is not None and verify_witness(inst.f, sh, Bs, 100, rng):
                    ok += 1
            counts[(w, d)] = ok
        rejected = 0
        for seed in range(10):
            rng = Rng(5900 + seed)
            n = 16
            t = MPoly.zero(field, n)
            for p0 in range(4):
                for q in range(4):
                    for r in range(4):
                        for s in range(4):
                            e = [0] * n
                            e[p0] = e[4 + q] = e[8 + r] = e[12 + s] = 1
                            t.add_term(tuple(e), rng.scalar(field))
            if degree_d_to_3(ExplicitBlackbox(t), 2, 4, mmti, rng) is None:
                rejected += 1
        passed = all(v == 10 for v in counts.values()) and rejected == 10
        return passed, f"certified {counts}, rejected random {rejected}/10"

    return _timed(11, "degree reduction", run)


def _planted_full_algebra(field: Fp, w: int, rng: Rng):
    """Randomized basis of K^{-1} (I_w (x) M_w) K inside M_{w^2}."""
    K = random_invertible(field, w * w, rng)
    Kinv = K.inverse()
    emb = []
    for a in range(w):
        for b in range(w):
            E = Mat.zeros(field, w, w)
            E.rows[a, b] = 1
            emb.append(Kinv * kron(Mat.identity(field, w), E) * K)
    R = random_invertible(field, w * w, rng)
    basis = []
    for i in range(w * w):
        M = Mat.zeros(field, w * w, w * w)
        for j in range(w * w):
            if R.rows[i, j]:
                M = M + emb[j].scale(R.rows[i, j])
        basis.append(M)
    return AlgebraInput(field, basis)


def criterion_12(field: Fp | None = None) -> CriterionResult:
    """Algebra isomorphism end-to-end: planted conjugated algebras solved
    >= 9/10 with verified isomorphisms; the commutative diagonal algebra of
    dimension 4 rejected 10/10.

    The diagonal algebra cannot trip the commutant-dimension gate: its
    left-multiplication images are the diagonal matrix units, whose
    commutant is the diagonal algebra itself -- dimension exactly w^2 --
    so rejection necessarily happens at a later stage (the test suite has
    a separate commutant-gate control that genuinely fires).
    """
    field = field or Fp()

    def run():
        det = QuadraticDetOracle(field)
        mmti = lambda h, w, rng: mmti_oracle(h, w, det, rng)
        ok = 0
        for seed in range(10):
            rng = Rng(1200 + seed)
            A = _planted_full_algebra(field, 2, rng)
            if fmai_solve(A, mmti, rng) is not None:
                ok += 1
        diag_rejected = 0
        gates = set()
        for seed in range(10):
            rng = Rng(1290 + seed)
            basis = []
            for i in range(4):
                E = Mat.zeros(field, 4, 4)
                E.rows[i, i] = 1
                basis.append(E)
            with RunReport() as rep:
                res = fmai_solve(AlgebraInput(field, basis), mmti, rng)
            if res is None:
                diag_rejected += 1
                gates.add(rep.failed_gate)
        return ok >= 9 and diag_rejected == 10, (
            f"solved {ok}/10, diagonal rejected {diag_rejected}/10 (at {sorted(gates)})"
        )

    return _timed(12, "algebra isomorphism end-to-end", run)


def criterion_13(field: Fp | None = None) -> CriterionResult:
    """The constrained-tensor system at w = 2 with identity conjugation:
    kernel dimension exactly 1, solution proportional to Tr-IMM_{2,4}."""
    field = field or Fp()

    def run():
        basis = []
        for i in range(2):
            for j in range(2):
                E = Mat.zeros(field, 2, 2)
                E.rows[j, i] = 1  # element named (i,j) is the (j,i) unit
                basis.append(E)
        A = AlgebraInput(field, basis)
        Ls = left_mult_matrices(A)
        Ns = commutant_basis([L.transpose() for L in Ls])
        if len(Ns) != 4:
            return False, f"commutant dim {len(Ns)} != 4"
        tensor, dim = build_constrained_tensor(Ls, Ns, 2)
        target = trimm_explicit(field, TrimmShape(2, 4))
        e0 = next(iter(target.terms))
        if e0 not in tensor.terms:
            return False, "solution support mismatch"
        c = field.div(tensor.terms[e0], target.terms[e0])
        prop = tensor.terms == {e: field.mul(c, v) for e, v in target.terms.items()}
        return dim == 1 and prop, f"kernel dim {dim}, proportional={prop}"

    return _timed(13, "Lie-algebra characterization tensor", run)


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
    criterion_13,
]


def run_all(field: Fp | None = None, numbers=None, jobs: int = 1):
    """Run the acceptance criteria (all or a subset); returns results."""
    field = field or Fp()
    todo = [
        fn for i, fn in enumerate(ALL_CRITERIA, start=1) if numbers is None or i in numbers
    ]
    if jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            return pool.map(_run_one, [(fn.__name__, field.p) for fn in todo])
    return [fn(field) for fn in todo]


def _run_one(args):
    name, p = args
    fn = globals()[name]
    return fn(Fp(p))
