"""Pure-Python Gaussian elimination over F_p: the reference that the
vectorized kernels in :mod:`trimmeq.modarith` are tested against.

Rows are lists of canonical ints; pivoting is first-nonzero, as in the
kernels, so echelon forms and kernel bases must agree exactly.
"""


def _py_forward(p: int, rows: list[list[int]]):
    """In-place forward elimination; returns pivot column list."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        if r == m:
            break
        pr = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        prow = rows[r]
        for i in range(r + 1, m):
            f = rows[i][c]
            if f:
                ri = rows[i]
                rows[i] = [(x - f * y) % p for x, y in zip(ri, prow)]
        pivots.append(c)
        r += 1
    return pivots


def _py_rref(p: int, rows: list[list[int]]):
    rows = [list(r) for r in rows]
    pivots = _py_forward(p, rows)
    for i in range(len(pivots) - 1, 0, -1):
        c = pivots[i]
        prow = rows[i]
        for j in range(i):
            f = rows[j][c]
            if f:
                rj = rows[j]
                rows[j] = [(x - f * y) % p for x, y in zip(rj, prow)]
    return rows, pivots


def _py_nullspace(p: int, rows: list[list[int]]):
    if not rows:
        return []
    n = len(rows[0])
    R, pivots = _py_rref(p, rows)
    pivset = set(pivots)
    free = [c for c in range(n) if c not in pivset]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for i, c in enumerate(pivots):
            v[c] = -R[i][fc] % p
        basis.append(v)
    return basis


def _py_det(p: int, rows: list[list[int]]) -> int:
    rows = [list(r) for r in rows]
    n = len(rows)
    d = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = -d % p
        piv = rows[c][c]
        d = d * piv % p
        inv = pow(piv, p - 2, p)
        prow = [x * inv % p for x in rows[c]]
        rows[c] = prow
        for i in range(c + 1, n):
            f = rows[i][c]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], prow)]
    return d
