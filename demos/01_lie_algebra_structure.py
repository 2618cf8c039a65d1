"""Walk through the Lie algebra of the trace polynomial.

The trace of a product of d symbolic w x w matrices has a surprisingly
rigid infinitesimal symmetry algebra: every element is block-diagonal with
respect to the d variable blocks, the whole algebra is spanned by d
two-block generator families, and its only irreducible invariant subspaces
are the coordinate blocks themselves.  This script computes everything
explicitly for (w, d) = (2, 3).
"""

from trimmeq import (
    Fp,
    Mat,
    Rng,
    TrimmShape,
    lie_algebra_basis,
    lie_algebra_basis_exact,
    lie_generator,
    closure,
    random_element,
    squarefree_test,
    trimm_blackbox,
    trimm_explicit,
)

field = Fp()
shape = TrimmShape(2, 3)
rng = Rng(2024)

print(f"working over F_p with p = {field.p}")
print(f"shape: w={shape.w}, d={shape.d}, n={shape.n} variables\n")

# The polynomial itself, both as a blackbox and as an explicit expansion.
bb = trimm_blackbox(field, shape)
explicit = trimm_explicit(field, shape)
print(f"explicit expansion has {len(explicit.terms)} monomials (= w^d paths)")
print("value at the all-ones point:", bb.eval([1] * shape.n), "(= w^d)\n")

# Basis of the Lie algebra from blackbox samples, then exactly.
sampled = lie_algebra_basis(bb, rng)
exact = lie_algebra_basis_exact(explicit)
print(f"Lie algebra dimension: sampled={sampled.dim}, exact={exact.dim}")
print("spans agree:", sampled.same_span_as(exact))
print("(dimension d*w^2 - 1: the d generator families overlap in one relation)\n")

# Every generator family member lies in the computed span.
M = Mat.from_rows(field, [[3, 1], [4, 1]])
gen = lie_generator(shape, 1, M)
print("a layer-1 generator is contained in the basis span:", sampled.contains(gen))

# Block-diagonality of a random element, and its characteristic polynomial.
R = random_element(sampled, rng)
w2 = shape.w ** 2
blockdiag = all(
    R.rows[i][j] == 0
    for i in range(shape.n)
    for j in range(shape.n)
    if i // w2 != j // w2
)
print("random element block-diagonal:", blockdiag)
print("characteristic polynomial square-free:", squarefree_test(field, R.charpoly()))

# Closures of coordinate vectors recover the variable blocks.
for k in range(shape.d):
    v = [0] * shape.n
    v[k * w2] = 1
    space = closure(v, sampled)
    print(f"closure of e_{{{k * w2}}} has dimension {space.dim} (= w^2)")
