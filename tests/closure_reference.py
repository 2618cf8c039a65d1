"""The per-vector closure over an incrementally reduced row basis: the
reference that :func:`trimmeq.lie.closure` is tested against.

Every image F.u of a frontier vector u is reduced against the rows kept so
far and kept if anything is left, one vector at a time; the kernel closure
must keep the same images in the same order.
"""

from trimmeq.lie import InvariantSubspace, LieBasis


class SpanAccumulator:
    """Incrementally maintained reduced row basis of a growing span."""

    __slots__ = ("field", "n", "rows", "pivots")

    def __init__(self, field, n: int):
        self.field = field
        self.n = n
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _reduce(self, v):
        p = self.field.p
        v = [x % p for x in v]
        for row, c in zip(self.rows, self.pivots):
            f = v[c]
            if f:
                v = [(x - f * y) % p for x, y in zip(v, row)]
        return v

    def contains(self, v) -> bool:
        return not any(self._reduce(v))

    def add(self, v) -> bool:
        """Insert v; returns True iff the span grew."""
        p = self.field.p
        r = self._reduce(v)
        c = next((i for i, x in enumerate(r) if x), None)
        if c is None:
            return False
        inv = pow(r[c], p - 2, p)
        r = [x * inv % p for x in r]
        # keep stored rows fully reduced against the new pivot
        for t, row in enumerate(self.rows):
            f = row[c]
            if f:
                self.rows[t] = [(x - f * y) % p for x, y in zip(row, r)]
        self.rows.append(r)
        self.pivots.append(c)
        return True


def closure_reference(v: list[int], L: LieBasis) -> InvariantSubspace:
    """Smallest L-invariant subspace containing v (span-growth to fixpoint)."""
    field = L.field
    acc = SpanAccumulator(field, L.n)
    acc.add(v)
    basis = [list(v)]
    frontier = [list(v)]
    while frontier:
        new_frontier = []
        for u in frontier:
            for F in L.basis:
                cand = F.matvec(u)
                if acc.add(cand):
                    basis.append(cand)
                    new_frontier.append(cand)
        frontier = new_frontier
    return InvariantSubspace(field, basis)
