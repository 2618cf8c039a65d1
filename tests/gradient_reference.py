"""Gradients of an explicit polynomial one partial at a time: the reference
that :meth:`trimmeq.poly.ExplicitBlackbox.gradient_many` is tested against.

Each partial df/dx_i is built with ``MPoly.deriv`` and read by its own
``eval_many``, one pass over its exponent table per variable; the library
reads every partial in one pass, and the values must agree exactly.
"""

from trimmeq.poly import ExplicitBlackbox


def gradient_reference(poly, pts):
    """(B, n) gradients at the rows of pts, column i from df/dx_i's own pass."""
    out = poly.field.kernel.zeros((len(pts), poly.n))
    for i in range(poly.n):
        out[:, i] = ExplicitBlackbox(poly.deriv(i)).eval_many(pts)
    return out
