"""Every function the benchmark's span tracer hooks exists in the package.

The tracer (``perfbench/spans.py``) wraps its ``SPEC`` entries by name, so a
renamed or deleted function would otherwise surface only when the traced
benchmark runs.
"""

import importlib.util
import inspect
from pathlib import Path

import trimmeq

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spec():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPEC


def test_every_spec_entry_resolves():
    entries = _spec()
    assert entries
    missing = []
    for _, modname, attr, _, _ in entries:
        module = getattr(trimmeq, modname, None)
        if module is None:
            missing.append(f"{modname} (module)")
        elif "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                missing.append(f"{modname}.{attr}")
        elif not callable(getattr(module, attr, None)):
            missing.append(f"{modname}.{attr}")
    assert not missing, f"hooked but not defined: {missing}"


def _positional(fn):
    params = inspect.signature(fn).parameters.values()
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params)
    return [p.name for p in params]


def test_hooked_kernel_signatures_match_the_tracer():
    """The tracer's counters unpack the kernel's arguments by position:
    ``_, A, B = args`` for ``matmul`` and ``args[1].shape`` for the four
    eliminations, so those signatures must stay (self, A, B) and (self, M)."""
    from trimmeq.modarith import _KernelBase

    assert _positional(_KernelBase.matmul) == ["self", "A", "B"]
    for name in ("nullspace", "rref", "rank", "det"):
        assert _positional(getattr(_KernelBase, name)) == ["self", "M"], name


def test_hooked_blackbox_signatures_match_the_tracer():
    """``_one_point`` counts one point per call of ``ExplicitBlackbox.eval``
    and ``_batch_points`` reads ``len(args[1])`` from ``eval_many`` and
    ``gradient_many``: the point, resp. the batch, is the first argument
    after self."""
    from trimmeq.poly import ExplicitBlackbox

    assert _positional(ExplicitBlackbox.eval) == ["self", "point"]
    for name in ("eval_many", "gradient_many"):
        assert _positional(getattr(ExplicitBlackbox, name)) == ["self", "pts"], name
