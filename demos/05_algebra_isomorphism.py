"""From an abstract matrix algebra to an explicit isomorphism with M_w.

A subalgebra of M_4 isomorphic to the full 2x2 matrix algebra is handed
over by a scrambled basis.  The solver converts the multiplication table
into left-multiplication matrices, takes the commutant of their
transposes, forces a 4-tensor to admit both symmetry families, reduces the
degree-4 tensor problem to a single degree-3 oracle call, and finally
conjugates the left-multiplication action into I (x) F form to read off
the isomorphism images.
"""

from trimmeq import (
    AlgebraInput,
    Fp,
    Mat,
    QuadraticDetOracle,
    Rng,
    fmai_solve,
    kron,
    mmti_oracle,
    random_invertible,
)
from trimmeq.report import RunReport

field = Fp()
rng = Rng(31337)

# plant: A = K^{-1} (I_2 (x) M_2) K with a randomized basis
K = random_invertible(field, 4, rng)
Kinv = K.inverse()
embedded = []
for a in range(2):
    for b in range(2):
        E = Mat.zeros(field, 2, 2)
        E.rows[a][b] = 1
        embedded.append(Kinv * kron(Mat.identity(field, 2), E) * K)
R = random_invertible(field, 4, rng)
basis = []
for i in range(4):
    M = Mat.zeros(field, 4, 4)
    for j in range(4):
        if R.rows[i][j]:
            M = M + embedded[j].scale(R.rows[i][j])
    basis.append(M)

algebra = AlgebraInput(field, basis)
print(f"input: a {algebra.dim}-dimensional algebra inside M_{algebra.m}")

det = QuadraticDetOracle(field)
mmti = lambda h, w, r: mmti_oracle(h, w, det, r)
with RunReport() as report:
    iso = fmai_solve(algebra, mmti, rng)
assert iso is not None, f"failed at gate {report.failed_gate}"
print("gates passed:", " -> ".join(report.gates_passed))
print(f"\nisomorphism found onto M_{iso.w}; images of the renamed basis:")
for i in range(2):
    for j in range(2):
        print(f"   phi(E_{i+1}{j+1}) = {iso.images[(i, j)].rows.tolist()}")

# multiplicativity spot check: phi(x y) = phi(x) phi(y) on a random pair
x, y = basis[1], basis[2]
from trimmeq.fmai import left_mult_matrices

Ls = left_mult_matrices(algebra)
lhs = iso.images[(0, 1)] * iso.images[(1, 0)]
print("\nspot check: phi(E_12) phi(E_21) has trace", lhs.trace())

# a commutative algebra is rejected with a gate name
diag = AlgebraInput(field, [
    Mat.from_rows(field, [[1 if r == c == i else 0 for c in range(4)] for r in range(4)])
    for i in range(4)
])
with RunReport() as report:
    assert fmai_solve(diag, mmti, rng) is None
print("diagonal commutative algebra rejected at gate:", report.failed_gate)
