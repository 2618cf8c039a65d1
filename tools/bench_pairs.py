"""Alternating benchmark pairs: a committed revision against the working tree.

    python3 tools/bench_pairs.py --rev HEAD --workload trimm-w3-planted --pairs 10 --seed 501

Exports ``--rev`` with ``git archive`` into a temporary directory, and
copies the working tree's tracked and unignored files, as they are on disk,
into another, so that both sides run from fresh directories alike.  It then
runs ``perfbench/run.py --trace 0`` of each side in its own copy for the
``run_seconds`` of BENCHMARK.json, one fresh process per run: pair i uses
seed ``--seed`` + i, and the side that runs first alternates from pair to
pair.  For every end-to-end metric of BENCHMARK.json it prints each side's
median and interquartile range, the number of pairs the working tree won
(ties count for neither), and the median's relative change against the
metric's bound.  A metric is marked "unresolved" when the base's
interquartile range exceeds the bound times the base's median, unless every
working-tree run reads better than every base run: its spread is then too
wide to show a change within the bound.  Under the table it prints the line
count of ``src/trimmeq`` on each side.  The same figures, with every pair's
values, go to ``BENCH_<short hash of --rev>.json`` at the root of the
checkout, one entry per workload: a later run on another workload adds its
entry, and a run on the same workload replaces it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export(rev: str, dest: str) -> None:
    """The committed files of ``rev`` under ``dest``, through ``git archive``."""
    os.makedirs(dest)
    git = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        raise subprocess.CalledProcessError(git.returncode, "git archive")


def copy_worktree(dest: str) -> None:
    """The working tree's tracked and unignored files, as they are on disk,
    under ``dest``; a tracked file deleted from the disk is left out."""
    names = subprocess.run(["git", "-C", ROOT, "ls-files", "-z", "--cached", "--others",
                            "--exclude-standard"], check=True, capture_output=True).stdout
    for name in filter(None, names.decode().split("\0")):
        src = os.path.join(ROOT, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one benchmark run in ``tree``, or None when it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or result is None or not result.get("correct"):
        sys.stderr.write(f"run failed in {tree} (seed {seed}, exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}\n")
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def src_lines(tree: str) -> int:
    """Lines of the Python files of ``src/trimmeq`` in ``tree``, as ``wc -l`` counts them."""
    pkg = os.path.join(tree, "src", "trimmeq")
    total = 0
    for name in os.listdir(pkg):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                total += fh.read().count(b"\n")
    return total


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the working
    tree won (ties count for neither), the median's relative change, the
    metric's bound and whether the base's spread leaves it unresolved;
    printed as a table and returned."""
    print(f"{'metric':<18} {'base p50':>11} {'base IQR':>10} {'tree p50':>11} {'tree IQR':>10} "
          f"{'change':>8} {'bound':>6} {'won':>7}")
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = [(b[name], t[name]) for b, t in runs if name in b and name in t]
        if not pairs:
            continue
        base, tree = [b for b, _ in pairs], [t for _, t in pairs]
        bq, tq = quartiles(base), quartiles(tree)
        won = sum((t < b) if lower else (t > b) for b, t in pairs)
        change = (tq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        all_better = max(tree) < min(base) if lower else min(tree) > max(base)
        unresolved = bq[2] - bq[0] > spec["bound"] * abs(bq[1]) and not all_better
        print(f"{name:<18} {bq[1]:>11.4g} {bq[2] - bq[0]:>10.3g} {tq[1]:>11.4g} "
              f"{tq[2] - tq[0]:>10.3g} {change:>+8.1%} {spec['bound']:>6.2f} {won:>3}/{len(pairs)}"
              + ("  unresolved" if unresolved else ""))
        out[name] = {
            "better": spec["better"], "bound": spec["bound"], "change": change,
            "won": won, "pairs": len(pairs), "unresolved": unresolved,
            "base": {"median": bq[1], "q1": bq[0], "q3": bq[2], "iqr": bq[2] - bq[0], "runs": base},
            "tree": {"median": tq[1], "q1": tq[0], "q3": tq[2], "iqr": tq[2] - tq[0], "runs": tree},
        }
    return out


def record(rev: str, workload: str, entry: dict) -> str:
    """Write ``entry`` under ``workload`` in BENCH_<short hash of rev>.json at
    the root of the checkout, keeping the other workloads' entries; returns
    the path."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev], check=True,
                            capture_output=True, text=True).stdout.strip()
    path = os.path.join(ROOT, f"BENCH_{commit}.json")
    doc = {"base": commit, "workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["workloads"][workload] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="the committed revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"base": os.path.join(tmp, "base"), "tree": os.path.join(tmp, "tree")}
        export(args.rev, sides["base"])
        copy_worktree(sides["tree"])
        lines = {side: src_lines(tree) for side, tree in sides.items()}
        runs = []
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "tree") if i % 2 == 0 else ("tree", "base")
            got = {side: run_once(sides[side], args.workload, seed, seconds) for side in order}
            if got["base"] is None or got["tree"] is None:
                continue
            runs.append((got["base"], got["tree"]))
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): solve_s_p50 "
                  f"{got['base'].get('solve_s_p50', float('nan')):.4g} -> "
                  f"{got['tree'].get('solve_s_p50', float('nan')):.4g}", flush=True)
    print(f"{args.workload}: {len(runs)} complete pairs of {args.pairs}, "
          f"{args.rev} (base) against the working tree")
    stats = summarize(runs, metrics) if runs else {}
    print(f"src/trimmeq lines: {lines['base']} ({args.rev}) -> {lines['tree']} (working tree)")
    entry = {"seeds": [args.seed, args.seed + args.pairs - 1], "pairs": args.pairs,
             "complete_pairs": len(runs), "run_seconds": seconds,
             "src_lines": {"base": lines["base"], "tree": lines["tree"]}, "metrics": stats}
    print(f"wrote {record(args.rev, args.workload, entry)}")
    return 0 if len(runs) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
