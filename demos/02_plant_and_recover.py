"""Plant a hidden change of basis and recover it end to end.

We hide the trace polynomial behind a random invertible transformation A
(only blackbox access survives), then run the full pipeline: invariant
subspaces of the Lie algebra, evaluation-dimension block ordering, ABP
reconstruction, determinant-oracle queries on the middle layers, and
intertwiner alignment.  The recovered witness is a possibly different
matrix A' with f = Tr-IMM(A'.x) exactly -- witnesses are unique only up to
the symmetry group -- and is certified by randomized identity testing.
"""

from trimmeq import (
    Fp,
    Rng,
    QuadraticDetOracle,
    TrimmShape,
    plant_instance,
    trace_equivalence,
    verify_witness,
)
from trimmeq.report import RunReport

field = Fp()
shape = TrimmShape(2, 4)
rng = Rng(7)

inst = plant_instance(field, shape, rng, mode="full")
print(f"planted instance: n={shape.n}, secret A is {shape.n}x{shape.n}")

with RunReport(seed=7) as report:
    result = trace_equivalence(
        inst.f,
        shape.d,
        lambda w: QuadraticDetOracle(field) if w == 2 else None,
        rng,
    )

assert result is not None, f"pipeline failed at gate {report.failed_gate}"
w, A = result
print(f"recovered width w={w} in {report.wall_time:.2f}s")
print("gates passed:", " -> ".join(report.gates_passed))
print("witness equals the planted secret:", A == inst.A)
print("witness certified by 200-trial identity test:",
      verify_witness(inst.f, shape, A, 200, rng))

# Negative control: damage one value of the witness and watch it fail.
bad = A.copy()
bad.rows[0][0] = (bad.rows[0][0] + 1) % field.p
print("perturbed witness rejected:", not verify_witness(inst.f, shape, bad, 50, rng))
