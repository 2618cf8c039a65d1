"""Same outputs: a committed revision against the working tree, instance by instance.

    python3 tools/same_outputs.py --rev HEAD

Exports ``--rev`` and copies the working tree into fresh directories as
``tools/bench_pairs.py`` does, then, in one fresh process per tree, imports
``trimmeq`` from the tree's ``src/`` and the workloads from its
``perfbench/workloads.py``, and solves, under a ``RunReport``, the
instances of every workload at seeds 1-3 (the ``trace_rounds`` rounds that
a traced benchmark run solves).  Each instance's result key, gates passed,
failed gate and identity-test trials are compared in order; every
differing instance is printed, one line per differing field, and the exit
status is 1.  The exit status is 0 when every instance matches.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import copy_worktree, export  # noqa: E402

SEEDS = (1, 2, 3)
FIELDS = ("key", "gates_passed", "failed_gate", "pit_trials")


def solve_all(tree: str) -> list[dict]:
    """One record per instance of every workload of ``tree`` at SEEDS, in
    this process, which must not have imported ``trimmeq`` before."""
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import trimmeq as tq
    import workloads
    from trimmeq.report import RunReport

    if not os.path.abspath(tq.__file__).startswith(os.path.join(tree, "src") + os.sep):
        raise ImportError(f"trimmeq imported from {tq.__file__}, not from {tree}")
    out = []
    for name, workload in sorted(workloads.WORKLOADS.items()):
        for seed in SEEDS:
            for i, inst in enumerate(workload.instances(tq, seed, workload.trace_rounds)):
                with RunReport(seed) as report:
                    try:
                        key = json.dumps(inst.key(inst.solve()), default=int)
                    except Exception as exc:  # a raising solve is an output too
                        key = f"raised {type(exc).__name__}: {exc}"
                out.append({"workload": name, "seed": seed, "index": i, "family": inst.family,
                            "key": key, "gates_passed": report.gates_passed,
                            "failed_gate": report.failed_gate, "pit_trials": report.pit_trials})
    return out


def _short(value, width: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= width else text[: width - 3] + "..."


def differences(base: list[dict], tree: list[dict]) -> list[str]:
    """One line per differing field of every instance, in order, or [] when
    the two record lists agree.  Past an instance out of place the rest is
    not compared, since the records no longer pair up."""
    out = []
    for b, t in zip(base, tree):
        where = f"{b['workload']} seed {b['seed']} instance {b['index']} ({b['family']})"
        if (b["workload"], b["seed"], b["index"]) != (t["workload"], t["seed"], t["index"]):
            return out + [f"{where}: the working tree has {t['workload']} seed {t['seed']} "
                          f"instance {t['index']} in its place"]
        out += [f"{where}: {field} {_short(b[field])} (base) != {_short(t[field])} "
                "(working tree)" for field in FIELDS if b[field] != t[field]]
    if len(base) != len(tree):
        out.append(f"{len(base)} instances (base) != {len(tree)} (working tree)")
    return out


def records_in_fresh_process(tree: str) -> list[dict]:
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(solve_all, (tree,))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="the committed revision to compare against")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        base, tree = os.path.join(tmp, "base"), os.path.join(tmp, "tree")
        export(args.rev, base)
        copy_worktree(tree)
        records = {side: records_in_fresh_process(path) for side, path in
                   (("base", base), ("tree", tree))}
    diffs = differences(records["base"], records["tree"])
    if diffs:
        print(f"outputs differ on {len(diffs)} fields:")
        print("\n".join(diffs))
        return 1
    counts = {}
    for r in records["tree"]:
        counts[r["workload"]] = counts.get(r["workload"], 0) + 1
    print(f"same outputs on {len(records['tree'])} instances, {args.rev} (base) against the "
          f"working tree: " + ", ".join(f"{name} {n}" for name, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
