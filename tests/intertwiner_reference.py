"""Intertwiners by coefficient matching: the reference that
:func:`trimmeq.reduction.intertwiner_space` is tested against.

Every variable v gives the W^2 equations Z_v S - T Y_v = 0 in the 2 W^2
unknowns of (T, S), and one elimination of all n W^2 rows yields the pairs
with T.Y(x) = Z(x).S identically, whatever Y(a) and Z(a) are.
"""

import numpy as np

from trimmeq.linalg import Mat, nullspace_rows, sylvester_rows
from trimmeq.poly import LinMat


def intertwiner_space_by_coefficients(Y: LinMat, Z: LinMat) -> list[tuple[Mat, Mat]]:
    """Basis of the space of pairs (T, S) with T.Y(x) = Z(x).S identically."""
    field = Y.field
    W = Y.nrows
    Yv, Zv = Y.coeffs.transpose(2, 0, 1), Z.coeffs.transpose(2, 0, 1)  # (n, W, W)
    zero = field.kernel.zeros(Yv.shape)
    rows = np.concatenate([sylvester_rows(field, zero, Yv), sylvester_rows(field, Zv, zero)],
                          axis=-1).reshape(-1, 2 * W * W)
    rows = rows[rows.any(axis=1)]
    if not len(rows):  # Y = Z = 0: no equation, and no intertwiner is offered
        return []
    return [(Mat(field, v[: W * W].reshape(W, W)), Mat(field, v[W * W :].reshape(W, W)))
            for v in nullspace_rows(field, rows)]
