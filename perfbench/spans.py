"""Span tracer for the traced run, installed from outside the package.

Every function listed in ``SPEC`` is replaced by a wrapper that records a
span (name, start, end, span id, parent id, instance id) while the tracer
is on and calls straight through while it is off.  Module-level functions
are rebound in every ``trimmeq`` namespace that bound them by name (for
example ``reduction`` imports ``reconstruct_abp`` and ``pit_equal``
directly); methods are replaced on the class that defines them, so
subclasses and every instance see the wrapper.

Spans stay in memory until the run writes them out.  ``layer_metrics``
turns them into the per-layer metrics, ``query_structure_errors`` checks
the paper's DET-oracle query count, and ``COUNT_STATS`` names the metrics
that must repeat exactly between two traced passes.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time


def _nbytes(M):
    return int(M.shape[0]) * int(M.shape[1]) * 8


def _macs(args, kwargs):
    _, A, B = args
    return {"macs": int(A.shape[0]) * int(A.shape[1]) * int(B.shape[1])}


def _elim(args, kwargs):
    return {"bytes": _nbytes(args[1])}


def _nullspace(args, kwargs):
    m, n = args[1].shape
    return {"cells": int(m) * int(n) * int(min(m, n)), "bytes": _nbytes(args[1])}


def _rows(args, kwargs):
    rows = args[1]
    return {"rows": int(rows.shape[0]) if hasattr(rows, "shape") else len(rows)}


def _one_point(args, kwargs):
    return {"points": 1}


def _batch_points(args, kwargs):
    return {"points": len(args[1])}


def _pit_trials(args, kwargs):
    return {"trials": int(kwargs["trials"] if "trials" in kwargs else args[2])}


def _answered(result):
    return result is not None


def _passed(result):
    return bool(result)


# (span name, module, attribute or Class.method, counter, outcome).
# A span name may cover several functions: nested spans of one name fold
# into the outermost (a batched gradient that calls eval_many counts its
# points once).
SPEC = [
    ("modarith.mul", "modarith", "M61Kernel.mul", None, None),
    ("modarith.mul", "modarith", "SmallKernel.mul", None, None),
    ("modarith.matmul", "modarith", "_KernelBase.matmul", _macs, None),
    ("modarith.nullspace", "modarith", "_KernelBase.nullspace", _nullspace, None),
    ("modarith.rref", "modarith", "_KernelBase.rref", _elim, None),
    ("modarith.rank", "modarith", "_KernelBase.rank", _elim, None),
    ("modarith.det", "modarith", "_KernelBase.det", _elim, None),
    ("linalg.nullspace_rows", "linalg", "nullspace_rows", _rows, None),
    ("linalg.rank_rows", "linalg", "rank_rows", None, None),
    ("linalg.in_span", "linalg", "in_span", None, None),
    ("linalg.Mat.det", "linalg", "Mat.det", None, None),
    ("linalg.Mat.inverse", "linalg", "Mat.inverse", None, None),
    ("linalg.Mat.mul", "linalg", "Mat.__mul__", None, None),
    ("linalg.Mat.matvec", "linalg", "Mat.matvec", None, None),
    ("linalg.Mat.charpoly", "linalg", "Mat.charpoly", None, None),
    ("poly.factor_univariate", "poly", "factor_univariate", None, None),
    ("poly.det_linear_matrix", "poly", "det_linear_matrix", None, None),
    ("poly.wth_root", "poly", "wth_root", None, None),
    ("poly.pit_equal", "poly", "pit_equal", _pit_trials, _passed),
    ("poly.LinMat.eval", "poly", "LinMat.eval", None, None),
    ("poly.explicit", "poly", "ExplicitBlackbox.eval", _one_point, None),
    ("poly.explicit", "poly", "ExplicitBlackbox.eval_many", _batch_points, None),
    ("poly.explicit", "poly", "ExplicitBlackbox.gradient_many", _batch_points, None),
    ("trimm.eval", "trimm", "TraceProductBlackbox.eval", _one_point, None),
    ("trimm.eval", "trimm", "TraceProductBlackbox.eval_many", _batch_points, None),
    ("trimm.grad", "trimm", "TraceProductBlackbox.gradient", _one_point, None),
    ("trimm.grad", "trimm", "TraceProductBlackbox.gradient_many", _batch_points, None),
    ("lie.irreducible_invariant_subspaces", "lie", "irreducible_invariant_subspaces", None, None),
    ("lie.lie_algebra_basis", "lie", "lie_algebra_basis", None, None),
    ("lie.closure", "lie", "closure", None, None),
    ("lie.is_invariant", "lie", "is_invariant", None, None),
    ("abp.evaldim", "abp", "evaldim", None, None),
    ("abp.reconstruct_abp", "abp", "reconstruct_abp", None, None),
    ("oracles.det", "oracles", "QuadraticDetOracle.__call__", None, _answered),
    ("oracles.det", "oracles", "PlantedDetOracle.__call__", None, _answered),
    ("oracles.mmti_oracle", "oracles", "mmti_oracle", None, None),
    ("reduction.trace_to_tensor_iso", "reduction", "trace_to_tensor_iso", None, None),
    ("reduction.order_blocks", "reduction", "order_blocks", None, None),
    ("reduction.tensor_iso_to_det", "reduction", "tensor_iso_to_det", None, _answered),
    ("reduction.layer_det_root", "reduction", "_layer_det_root", None, None),
    ("reduction.intertwiner_space", "reduction", "intertwiner_space", None, None),
    ("reduction.factor_kron", "reduction", "factor_kron", None, None),
    ("tensor.degree_d_to_3", "tensor", "degree_d_to_3", None, None),
    ("fmai.left_mult_matrices", "fmai", "left_mult_matrices", None, None),
    ("fmai.commutant_basis", "fmai", "commutant_basis", None, None),
    ("fmai.build_constrained_tensor", "fmai", "build_constrained_tensor", None, None),
    ("fmai.verify_isomorphism", "fmai", "verify_isomorphism", None, None),
]

# Per-layer metrics read straight off one span name: (span name, stats).
# Derived metrics are added in layer_metrics.
DIRECT = [
    ("modarith.mul", ("calls", "self_s")),
    ("modarith.matmul", ("calls", "s", "macs")),
    ("modarith.nullspace", ("calls", "s", "cells")),
    ("modarith.rref", ("calls", "s")),
    ("modarith.rank", ("calls", "s")),
    ("modarith.det", ("calls", "s")),
    ("linalg.nullspace_rows", ("calls", "s")),
    ("linalg.rank_rows", ("calls", "s")),
    ("linalg.in_span", ("calls", "s")),
    ("linalg.Mat.det", ("calls", "s")),
    ("linalg.Mat.inverse", ("calls", "s")),
    ("linalg.Mat.mul", ("calls", "s")),
    ("linalg.Mat.matvec", ("calls", "s")),
    ("linalg.Mat.charpoly", ("s",)),
    ("poly.factor_univariate", ("s",)),
    ("poly.det_linear_matrix", ("calls", "s")),
    ("poly.wth_root", ("calls", "s")),
    ("poly.pit_equal", ("calls", "trials", "pass_frac", "s")),
    ("poly.LinMat.eval", ("calls", "s")),
    ("poly.explicit", ("points", "s")),
    ("trimm.eval", ("points", "s")),
    ("trimm.grad", ("points", "s")),
    ("lie.irreducible_invariant_subspaces", ("calls", "s")),
    ("lie.lie_algebra_basis", ("calls", "s")),
    ("lie.closure", ("s",)),
    ("lie.is_invariant", ("s",)),
    ("abp.evaldim", ("calls", "s")),
    ("abp.reconstruct_abp", ("calls", "s")),
    ("oracles.det", ("calls", "s", "answered_frac")),
    ("oracles.mmti_oracle", ("calls", "s")),
    ("reduction.trace_to_tensor_iso", ("s",)),
    ("reduction.order_blocks", ("s",)),
    ("reduction.tensor_iso_to_det", ("calls", "s")),
    ("reduction.layer_det_root", ("calls", "s")),
    ("reduction.intertwiner_space", ("calls", "s")),
    ("reduction.factor_kron", ("s",)),
    ("tensor.degree_d_to_3", ("calls", "s", "self_s")),
    ("fmai.left_mult_matrices", ("s",)),
    ("fmai.commutant_basis", ("s",)),
    ("fmai.build_constrained_tensor", ("s",)),
    ("fmai.verify_isomorphism", ("s",)),
]

# Modules whose summed self time is reported as <module>.self_s.
SELF_MODULES = ("linalg", "poly", "reduction", "fmai")

UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "macs": "count", "cells": "count",
    "points": "count", "trials": "count", "rows": "count", "attempts": "count",
    "retries": "count", "pass_frac": "ratio", "answered_frac": "ratio",
    "elim_bytes": "bytes", "overhead_frac": "ratio",
}

# Stats that count work rather than time; they must repeat exactly.
COUNT_STATS = ("calls", "points", "macs", "cells", "trials", "retries", "attempts",
               "rows", "elim_bytes")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for key, stats in DIRECT:
        out.extend((f"{key}.{st}", UNITS[st]) for st in stats)
    out.append(("modarith.elim_bytes", UNITS["elim_bytes"]))
    out.extend((f"{mod}.self_s", "s") for mod in SELF_MODULES)
    out.append(("lie.retries", UNITS["retries"]))
    out.append(("abp.reconstruct_abp.attempts", UNITS["attempts"]))
    out.append(("fmai.build_constrained_tensor.rows", UNITS["rows"]))
    out.append(("trace.overhead_frac", UNITS["overhead_frac"]))
    return out


class Span:
    __slots__ = ("name", "start", "end", "sid", "parent", "instance", "outer",
                 "self_s", "counts", "ok", "child_s")

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "id": self.sid, "parent": self.parent, "instance": self.instance}


class Tracer:
    """Collects spans while ``on``; ``instance`` tags every span of one solve."""

    def __init__(self):
        self.on = False
        self.instance = -1
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._open: dict[str, int] = {}
        self._next_id = 0

    def open(self, name: str, counts) -> Span:
        sp = Span()
        self._next_id += 1
        sp.name = name
        sp.sid = self._next_id
        sp.parent = self._stack[-1].sid if self._stack else 0
        sp.instance = self.instance
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        sp.outer = depth == 0
        sp.counts = counts
        sp.ok = None
        sp.child_s = 0.0
        self._stack.append(sp)
        sp.start = time.perf_counter()
        return sp

    def close(self, sp: Span):
        sp.end = time.perf_counter()
        self._stack.pop()
        self._open[sp.name] -= 1
        dur = sp.end - sp.start
        sp.self_s = dur - sp.child_s
        if self._stack:
            self._stack[-1].child_s += dur
        self.spans.append(sp)

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _wrapper(tracer: Tracer, name: str, fn, counter, outcome):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        sp = tracer.open(name, counter(args, kwargs) if counter else None)
        try:
            result = fn(*args, **kwargs)
            if outcome is not None:
                sp.ok = outcome(result)
            return result
        finally:
            tracer.close(sp)

    return traced


def install(tracer: Tracer, tq):
    """Wrap every SPEC entry of the imported package ``tq``."""
    namespaces = [m for n, m in sys.modules.items()
                  if m is not None and (n == tq.__name__ or n.startswith(tq.__name__ + "."))]
    for name, modname, attr, counter, outcome in SPEC:
        module = getattr(tq, modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, _wrapper(tracer, name, fn, counter, outcome))
            continue
        fn = getattr(module, attr)
        wrapped = _wrapper(tracer, name, fn, counter, outcome)
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is fn:
                    setattr(ns, key, wrapped)


def _aggregate(spans: list[Span]) -> dict:
    """Per span name: outermost calls, inclusive and self time, summed
    counters and outcomes.  A span nested in one of the same name adds
    only its self time."""
    agg: dict[str, dict] = {}
    for sp in spans:
        a = agg.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0, "judged": 0})
        a["self_s"] += sp.self_s
        if not sp.outer:
            continue
        a["calls"] += 1
        a["s"] += sp.end - sp.start
        if sp.counts:
            for k, v in sp.counts.items():
                a[k] = a.get(k, 0) + v
        if sp.ok is not None:
            a["judged"] += 1
            a["ok"] += sp.ok
    return agg


def _children_of(spans: list[Span], parent_name: str, child_name: str) -> list[Span]:
    parents = {sp.sid for sp in spans if sp.name == parent_name}
    return [sp for sp in spans if sp.name == child_name and sp.parent in parents]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metric values (names as in metric_names, less the
    overhead, which needs an untraced pass)."""
    agg = _aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "ok": 0, "judged": 0}
    out: dict[str, float] = {}
    for key, stats in DIRECT:
        a = agg.get(key, empty)
        for st in stats:
            if st in ("pass_frac", "answered_frac"):
                out[f"{key}.{st}"] = a["ok"] / a["judged"] if a["judged"] else 0.0
            else:
                out[f"{key}.{st}"] = a.get(st, 0)
    out["modarith.elim_bytes"] = sum(
        agg.get(k, empty).get("bytes", 0)
        for k in ("modarith.rref", "modarith.rank", "modarith.det", "modarith.nullspace")
    )
    for mod in SELF_MODULES:
        out[f"{mod}.self_s"] = sum(a["self_s"] for k, a in agg.items()
                                   if k.split(".")[0] == mod)
    out["lie.retries"] = (agg.get("lie.lie_algebra_basis", empty)["calls"]
                          - agg.get("lie.irreducible_invariant_subspaces", empty)["calls"])
    out["abp.reconstruct_abp.attempts"] = len(
        _children_of(spans, "abp.reconstruct_abp", "poly.pit_equal"))
    out["fmai.build_constrained_tensor.rows"] = sum(
        sp.counts["rows"]
        for sp in _children_of(spans, "fmai.build_constrained_tensor", "linalg.nullspace_rows"))
    return out


def is_count(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1] in COUNT_STATS


def query_structure_errors(spans: list[Span], per_tid: int, certified: set[int]) -> list[str]:
    """The paper's query structure: every certifying tensor_iso_to_det makes
    exactly ``per_tid`` (= d - 2) DET-oracle calls, and a certified
    instance's DET calls are exactly ``per_tid`` per certifying call."""
    by_id = {sp.sid: sp for sp in spans}

    def enclosing_tid(sp):
        p = by_id.get(sp.parent)
        while p is not None and p.name != "reduction.tensor_iso_to_det":
            p = by_id.get(p.parent)
        return p

    det_under: dict[int, int] = {}
    det_by_inst: dict[int, int] = {}
    errors = []
    for sp in spans:
        if sp.name != "oracles.det":
            continue
        det_by_inst[sp.instance] = det_by_inst.get(sp.instance, 0) + 1
        tid = enclosing_tid(sp)
        if tid is None:
            errors.append(f"instance {sp.instance}: DET-oracle call outside tensor_iso_to_det")
            continue
        det_under[tid.sid] = det_under.get(tid.sid, 0) + 1
    certifying: dict[int, int] = {}
    for sp in spans:
        if sp.name == "reduction.tensor_iso_to_det" and sp.ok:
            certifying[sp.instance] = certifying.get(sp.instance, 0) + 1
            got = det_under.get(sp.sid, 0)
            if got != per_tid:
                errors.append(f"instance {sp.instance}: certifying tensor_iso_to_det made "
                              f"{got} DET-oracle calls, expected {per_tid}")
    for inst in sorted(certified):
        want = per_tid * certifying.get(inst, 0)
        if want == 0 or det_by_inst.get(inst, 0) != want:
            errors.append(f"instance {inst}: {det_by_inst.get(inst, 0)} DET-oracle calls on a "
                          f"certified solve, expected {want}")
    return errors


def write_spans(path, spans: list[Span]):
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps(sp.to_json()))
            fh.write("\n")
