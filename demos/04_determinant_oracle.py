"""The constructive determinant-equivalence oracle for 2x2 determinants.

Over an odd prime field, a quadratic in four variables is equivalent to
the 2x2 determinant x0 x3 - x1 x2 exactly when its Gram matrix has full
rank and the right discriminant square class.
The oracle diagonalizes the form by congruence, canonicalizes, compares
discriminants, and returns an explicit 2x2 matrix of linear forms whose
determinant reproduces the query -- verified by identity testing before
it is handed back.
"""

from trimmeq import (
    ExplicitBlackbox,
    Fp,
    LinMat,
    MPoly,
    QuadraticDetOracle,
    Rng,
    det_linear_matrix,
    pit_equal,
    random_invertible,
)

field = Fp()
rng = Rng(123)
oracle = QuadraticDetOracle(field)

det2 = det_linear_matrix(LinMat.symbolic(field, 2))
print("the target form x0 x3 - x1 x2 answered with the identity labeling:")
X = oracle(det2, rng)
for i in range(2):
    print("   ", X.coeffs[i].tolist())

print("\nhidden composition round trip:")
B = random_invertible(field, 4, rng)
query = det2.compose_linear(B)
X = oracle(query, rng)
assert X is not None
print("   oracle answered; det(X') == query per 100-trial identity test:",
      pit_equal(ExplicitBlackbox(det_linear_matrix(X)), ExplicitBlackbox(query), 100, rng))

print("\nrank-deficient forms are rejected:")
for g, label in [
    (MPoly(field, 4, {(2, 0, 0, 0): 1}), "x0^2 (rank 1)"),
    (MPoly(field, 4, {(1, 1, 0, 0): 1}), "x0 x1 (rank 2)"),
]:
    print(f"   {label}: ", oracle(g, rng))

print("\ndiscriminant class mismatch is rejected too:")
nonsquare = next(a for a in range(2, 50) if not field.is_square(a))
twisted = MPoly(
    field, 4,
    {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): nonsquare},
)
print("   x0^2 + x1^2 + x2^2 + nu x3^2 for a non-square nu:", oracle(twisted, rng))
