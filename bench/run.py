"""Benchmark of unitcat: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {train,prep,eval} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; unitcat is imported from its
``src/``. The inputs are generated from the seed into
``.bench_work/<workload>-<seed>/`` under the checkout, which is removed
again at the end except for the context and span files.

With --trace 0 the last stdout line carries the end-to-end metrics:
run_s (median wall time of an iteration), setup_s (median, over fresh
interpreters, of importing unitcat and validating the workload's config)
and peak_rss_mb (peak resident memory of the processes that ran the
iterations, each read after its first iteration). The iterations run in WORKERS fresh processes, one after
another. With --trace 1 it carries the per-layer metrics of a separate
traced pass in one process. The line before it is a context block: machine,
versions, BLAS threads, filesystem, inputs digest and a calibration time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import CheckError, check_eval_tree
from inputs import WORKLOADS, generate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170.0
# How fast an iteration runs depends on its process: in one prep run, the
# system time per iteration (the allocator's page faults) settled at 0.10 s
# in one process and at 0.45 s in another, and the wall time followed it.
# Splitting the iterations over fresh processes puts several of these
# states into each median.
WORKERS = 3
SETUP_PROBES = 20


def filesystem(path: Path) -> str:
    out = subprocess.run(
        ["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True, timeout=10
    )
    return out.stdout.strip() or "unknown"


def git_commit() -> str | None:
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
    )
    return out.stdout.strip() if out.returncode == 0 else None


def blas_info() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def merge(results: list[dict]) -> dict:
    """One result from the workers' results, in the order they ran. Every
    worker must write the output tree the first one wrote."""
    res = dict(results[-1])
    for key in ("warmup_s", "run_s_samples", "setup_s_samples", "sys_s_samples", "errors"):
        res[key] = [x for r in results for x in r[key]]
    res["attempted"] = sum(r["attempted"] for r in results)
    res["failed"] = sum(r["failed"] for r in results)
    digests = [r["digest"] for r in results if r["digest"] is not None]
    for r in results:
        if r["digest"] is not None and r["digest"] != digests[0]:
            res["failed"] += r["attempted"] - r["failed"]
            res["errors"].append("a worker's output tree differs from the first worker's")
    res["errors"] = res["errors"][:3]
    res["calibration"] = [r["calibration"] for r in results]
    res["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
    return res


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()
    if not (SRC / "unitcat" / "__init__.py").is_file():
        print(f"run.py: no unitcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{wl.name}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = generate(wl, work, args.seed)
        plan = {
            "config": str(inputs.config_path.relative_to(work)),
            "placed": str(inputs.placed.relative_to(work)) if inputs.placed else None,
            "kws_args": inputs.kws_args,
            "sizes": inputs.sizes,
        }
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

        workers = 1 if args.trace else WORKERS
        results = []
        for i in range(workers):
            for name in ("out", "trash"):
                shutil.rmtree(work / name, ignore_errors=True)
            share = (RUN_LIMIT_S - (time.monotonic() - started)) / (workers - i)
            probes = 0 if args.trace else SETUP_PROBES // workers + (i < SETUP_PROBES % workers)
            subprocess.run(
                [
                    sys.executable, str(BENCH_DIR / "worker.py"),
                    "--workload", wl.name, "--seconds", str(args.seconds / workers),
                    "--trace", str(args.trace), "--src", str(SRC),
                    "--setup-probes", str(probes), "--deadline-s", str(share - 20.0 / workers),
                    "--result", f"result{i}.json",
                ],
                cwd=work, timeout=share, check=True, stdout=subprocess.DEVNULL,
            )
            results.append(json.loads((work / f"result{i}.json").read_text(encoding="utf-8")))
        res = merge(results)
        if wl.kws and res["checked_tree"] is not None:
            try:
                check_eval_tree(work / res["checked_tree"], work / "inputs", inputs.sizes["utterances"])
            except CheckError as exc:
                # every iteration that passed the worker's checks wrote this
                # tree byte for byte; the others failed already
                res["failed"] = res["attempted"]
                res["errors"].append(f"eval outputs: {exc}")
    finally:
        for name in ("inputs", "out", "trash"):
            shutil.rmtree(work / name, ignore_errors=True)
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    if args.trace and res["layers"] and sorted(res["layers"]) != sorted(m["name"] for m in per_layer):
        res["trace_problems"].append("traced metrics differ from BENCHMARK.json's per_layer")
        res["trace_ok"] = False

    context = {
        "workload": wl.name,
        "seed": args.seed,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": res["blas_threads"],
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "filesystem": filesystem(work),
        "git_commit": git_commit(),
        "inputs_sha256": inputs.digest,
        "sizes": inputs.sizes,
        "calibration": res["calibration"],
        "warmup_s": res["warmup_s"],
        "run_s_samples": res["run_s_samples"],
        "setup_s_samples": res["setup_s_samples"],
        "sys_s_samples": res["sys_s_samples"],
        "errors": res["errors"],
    }
    if args.trace:
        context["traced_s_samples"] = res["traced_s_samples"]
        context["trace_problems"] = res["trace_problems"]
    (work / "context.json").write_text(json.dumps(context, indent=1), encoding="utf-8")
    print(json.dumps({"context": context}))

    correct = res["failed"] == 0 and bool(res["run_s_samples"])
    if args.trace:
        correct = correct and res["trace_ok"]
        metrics = {m["name"]: {"value": res["layers"].get(m["name"], 0.0), "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {
            "run_s": {"value": statistics.median(res["run_s_samples"] or [0.0]), "unit": "s"},
            "setup_s": {"value": statistics.median(res["setup_s_samples"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
