"""Exact prime-field toolkit for equivalence testing of the trace of
iterated matrix multiplication, its reduction to determinant equivalence,
and full-matrix-algebra isomorphism via tensor isomorphism."""

from .field import DEFAULT_PRIME, Fp, Rng
from .linalg import (
    Mat,
    assemble_block_diagonal,
    kron,
    random_invertible,
)
from .poly import (
    Blackbox,
    ComposedBlackbox,
    ExplicitBlackbox,
    LinMat,
    MPoly,
    RestrictionBlackbox,
    det_linear_matrix,
    factor_univariate,
    pit_equal,
    squarefree_test,
    wth_root,
)
from .trimm import (
    PlantedInstance,
    TrimmShape,
    lie_generator,
    plant_instance,
    trimm_blackbox,
    trimm_explicit,
    var_index,
    verify_witness,
)
from .lie import (
    InvariantSubspace,
    LieBasis,
    closure,
    irreducible_invariant_subspaces,
    lie_algebra_basis,
    lie_algebra_basis_exact,
    random_element,
)
from .abp import SetMultABP, evaldim, reconstruct_abp
from .oracles import PlantedDetOracle, QuadraticDetOracle, mmti_oracle
from .reduction import (
    OrderingReport,
    factor_kron,
    intertwiner_space,
    order_blocks,
    solve_intertwiner,
    tensor_iso_to_det,
    trace_equivalence,
    trace_to_tensor_iso,
)
from .tensor import degree_d_to_3, unit_points
from .fmai import (
    AlgebraInput,
    AlgebraIso,
    build_constrained_tensor,
    commutant_basis,
    fmai_solve,
    left_mult_matrices,
)

__version__ = "0.1.0"
