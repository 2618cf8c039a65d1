"""Every function the benchmark's span tracer hooks exists in the package.

The tracer (``perfbench/spans.py``) wraps its ``SPEC`` entries by name, so a
renamed or deleted function would otherwise surface only when the traced
benchmark runs.
"""

import importlib.util
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
