"""Evaluation dimension, block ordering, and branching-program layers.

For a tensor built from a matrix product, fixing two variable blocks and
spanning the partial evaluations distinguishes cyclically adjacent blocks
(span dimension w^2) from non-adjacent ones (w^4).  That signature alone
recovers the cyclic order of a shuffled tensor.  Afterwards we reconstruct
the width-w^2 branching program layer by layer and check it reproduces the
tensor exactly: the branching program is itself a blackbox, so the identity
test reads it like any other.
"""

from trimmeq import (
    ComposedBlackbox,
    Fp,
    Mat,
    Rng,
    TrimmShape,
    evaldim,
    order_blocks,
    pit_equal,
    reconstruct_abp,
    trimm_blackbox,
)

field = Fp()
shape = TrimmShape(2, 5)
rng = Rng(99)
bb = trimm_blackbox(field, shape)
m = shape.w ** 4 + 16

print("pairwise evaluation dimensions for the unshuffled (2,5) tensor:")
for r in range(shape.d):
    row = []
    for rp in range(shape.d):
        if r == rp:
            row.append("  .")
        else:
            e = evaldim(bb, shape.block_vars(r) + shape.block_vars(rp), m, rng)
            row.append(f"{e:3d}")
    print("   ", " ".join(row))
print("(4 marks adjacent blocks, 16 non-adjacent)\n")

# Shuffle the blocks by a hidden permutation and recover the cyclic order.
sigma = [3, 1, 4, 0, 2]
P = Mat.zeros(field, shape.n, shape.n)
for k in range(shape.d):
    for s in range(4):
        P.rows[sigma[k] * 4 + s][k * 4 + s] = 1
shuffled = ComposedBlackbox(bb, P)
ordering = order_blocks(shuffled, shape, rng)
print("hidden shuffle:", sigma)
print("recovered chain tau:", ordering.tau)
chain = [sigma[t] for t in ordering.tau]
print("which visits the original blocks in order:", chain, "(a rotation or reflection)\n")

# Reconstruct the branching program of the unshuffled tensor.
abp = reconstruct_abp(bb, [shape.block_vars(k) for k in range(shape.d)], 4, rng)
print(f"reconstructed ABP: width {abp.width}, {abp.degree} layers")
print("layer shapes:", [(L.nrows, L.ncols) for L in abp.layers])
print("identity test against the tensor (200 points):",
      pit_equal(bb, abp, 200, rng))
