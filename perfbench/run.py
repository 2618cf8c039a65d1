"""The trimmeq benchmark: one workload, one process, one closed-loop caller.

    python3 perfbench/run.py --workload trimm-w2 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed or built).  Inputs are generated from
``--seed`` before the first timed call, and the next instance starts only
after the previous one returned.  Every answer is checked independently
(see workloads.py); the run exits 1 when any check fails.

``--trace 0`` makes one untimed warm-up solve, then times whole rounds of
instances for ``--seconds`` and prints the end-to-end metrics.  ``--trace 1``
runs a fixed set of instances four times -- untraced, traced, traced,
untraced -- and prints the per-layer metrics of the first traced pass.  It also asserts that tracing does not
change any witness, that every count repeats exactly between the two
traced passes, and the paper's DET-oracle query structure; its spans go
to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 25

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads(nproc: int) -> None:
    """Cap BLAS/OpenMP pools at nproc; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)


def fresh_import():
    """Import trimmeq from the checkout's src/, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "trimmeq" or n.startswith("trimmeq.")]:
        del sys.modules[name]
    tq = importlib.import_module("trimmeq")
    if not os.path.abspath(tq.__file__).startswith(SRC + os.sep):
        raise ImportError(f"trimmeq imported from {tq.__file__}, not from {SRC}")
    return tq


def run_instance(inst, tracer=None) -> dict:
    """One timed call plus its independent check (outside the timing)."""
    if tracer is not None:
        tracer.on = True
    t0 = time.perf_counter()
    error = None
    try:
        result = inst.solve()
    except Exception as exc:  # a raising solve is a failed instance, not a crash
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.on = False
    if error is not None:
        verdict = "failed"
    elif inst.positive:
        verdict = "uncertified" if result is None else (
            "certified" if inst.check(result) else "failed")
    else:
        verdict = "rejected" if result is None else "failed"
    if verdict == "failed":
        print(f"FAILED {inst.family}: {error or 'wrong answer'}", file=sys.stderr)
    return {"family": inst.family, "positive": inst.positive, "s": elapsed,
            "verdict": verdict, "key": None if error else inst.key(result)}


def end_to_end(records: list[dict], setup_s: float) -> tuple[dict, dict]:
    """(gated metrics, extra figures shown only in the human-readable lines)."""
    pos = [r for r in records if r["positive"]]
    neg = [r for r in records if not r["positive"]]
    solve_s = [r["s"] for r in pos if r["verdict"] != "failed"]
    reject_s = [r["s"] for r in neg if r["verdict"] == "rejected"]
    done = [r for r in records if r["verdict"] != "failed"]
    busy = sum(r["s"] for r in records)
    failed = sum(r["verdict"] == "failed" for r in records)
    m = {"setup_s": (setup_s, "s")}
    if solve_s:
        m["solve_s_p50"] = (statistics.median(solve_s), "s")
    if reject_s:
        m["reject_s_p50"] = (statistics.median(reject_s), "s")
    if done:
        m["instances_per_s"] = (len(done) / busy, "1/s")
    if pos:
        m["certified_frac"] = (sum(r["verdict"] == "certified" for r in pos) / len(pos), "ratio")
    if neg:
        m["rejected_frac"] = (sum(r["verdict"] == "rejected" for r in neg) / len(neg), "ratio")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    extra = {"failed_frac": (failed / len(records), "ratio"),
             "solve_s_n": (len(solve_s), "count"), "reject_s_n": (len(reject_s), "count"),
             "timed_s": (busy, "s")}
    return m, extra


def warm_up(workload, tq, seed: int) -> float:
    """Untimed solve of a fresh copy of the first round's last instance (a
    negative on every workload), so that the first timed solve does not pay
    the process's one-time warm-up.  The copy shares no object with the pool,
    so no instance starts with warm caches."""
    t0 = time.perf_counter()
    workload.instances(tq, seed, 1)[-1].solve()
    return time.perf_counter() - t0


def traced_run(workload, tq, seed: int, out_path: str):
    """Untraced, traced, traced and untraced passes over the same instances.

    The symmetric order makes a linear drift of the machine's speed cancel
    from ``trace.overhead_frac``, which compares the mean time of the two
    traced passes with that of the two untraced ones.  An untimed warm-up
    solve comes first.
    """
    import spans as sp

    tracer = sp.Tracer()
    sp.install(tracer, tq)
    warm_up(workload, tq, seed)
    passes = []
    for traced in (False, True, True, False):
        insts = workload.instances(tq, seed, workload.trace_rounds)
        recs = []
        for i, inst in enumerate(insts):
            tracer.instance = i
            recs.append(run_instance(inst, tracer if traced else None))
        passes.append((recs, tracer.take()))
    (plain, _), (first, spans1), (second, spans2), (plain2, _) = passes
    errors = []
    for recs, label in ((first, "traced"), (second, "second traced"),
                        (plain2, "second untraced")):
        if [r["key"] for r in recs] != [r["key"] for r in plain]:
            errors.append(f"{label} pass returned different witnesses than the first untraced pass")
    m1 = sp.layer_metrics(spans1)
    m2 = sp.layer_metrics(spans2)
    for name in m1:
        if sp.is_count(name) and m1[name] != m2[name]:
            errors.append(f"count {name} differs between traced passes: {m1[name]} vs {m2[name]}")
    for spans, recs in ((spans1, first), (spans2, second)):
        certified = {i for i, r in enumerate(recs) if r["verdict"] == "certified"}
        errors.extend(sp.query_structure_errors(spans, workload.dets_per_tid, certified))
    untraced_s = sum(r["s"] for r in plain + plain2)
    traced_s = sum(r["s"] for r in first + second)
    m1["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    metrics = {name: (m1[name], unit) for name, unit in sp.metric_names()}
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    sp.write_spans(out_path, spans1)
    records = plain + first + second + plain2
    return metrics, records, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "trimmeq", "__init__.py")):
        print(f"perfbench: no trimmeq sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    cap_threads(nproc)
    loadavg = os.getloadavg()
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        rounds = workload.trace_rounds
    else:
        rounds = max(1, math.ceil(args.seconds / workload.min_round_s))

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tq = fresh_import()
        pool = workload.instances(tq, args.seed, rounds)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    import numpy

    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "nproc": nproc, "cpu_count": os.cpu_count(),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "prime": tq.DEFAULT_PRIME, "blas_threads": nproc,
           "loadavg_start": list(loadavg), "setup_s_all": setup_times}
    print("env " + json.dumps(env))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, records, errors = traced_run(
            workload, tq, args.seed, os.path.join(OUT_DIR, f"spans-{tag}.jsonl.gz"))
        extra = {}
    else:
        warmup_s = warm_up(workload, tq, args.seed)
        records = []
        start = time.perf_counter()
        i = 0
        while True:
            for _ in workload.pattern:
                records.append(run_instance(pool[i % len(pool)]))
                i += 1
            if time.perf_counter() - start >= args.seconds:
                break
        metrics, extra = end_to_end(records, setup_s)
        reused = max(0, len(records) - len(pool))
        extra["pool_reused"] = (reused, "count")
        extra["warmup_s"] = (warmup_s, "s")
        if reused:
            print(f"perfbench: the pool of {len(pool)} instances ran out; {reused} solves "
                  f"reused an instance; lower min_round_s of {args.workload} in workloads.py",
                  file=sys.stderr)
        errors = []
    failed = sum(r["verdict"] == "failed" for r in records)
    correct = failed == 0 and not errors
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<44} {value:>16.6g} {unit}")

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "errors": errors,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                   "records": [{k: v for k, v in r.items() if k != "key"} for r in records]},
                  fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
