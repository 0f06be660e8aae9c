"""The measured process: runs one workload's iterations and checks them,
and between iterations times unitcat's set-up in fresh interpreters.

Started by run.py in the workload's working tree, after the inputs exist,
so that its peak resident memory is unitcat's and not the generator's:
once for a traced pass, several times one after another for an untraced
one. Writes the result file it is given (and spans.json for a traced
pass) into the tree.

An iteration is the workload's ``run_pipeline`` call, plus the
``kws-eval`` call through ``cli.main`` for eval. Resetting the output
directory and checking the outputs are not timed. With --trace 1,
traced and untraced iterations alternate: the untraced ones give the
baseline for the tracing overhead, the traced ones run one
``run_pipeline(cfg, (stage,))`` per stage inside a span.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from inputs import WORKLOADS, tree_digest
from tracer import Tracer, layer_metrics

TRASH = Path("trash")
# the machine's speed drifts over tens of seconds, so the set-up probes are
# spread over the first iterations rather than run back to back
PROBES_PER_ITERATION = 4
# OpenBLAS threads spin for a while after a GEMM; on 2 CPUs a probe started
# at once competed with them and read 10-30% slower than one started after
# this pause
BLAS_IDLE_S = 0.3

# per-layer metrics that count work rather than time it: two traced passes
# over the same inputs must give identical values
COUNT_METRICS = frozenset(
    m["name"]
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
    if m["unit"] in ("count", "bytes", "GFLOP")
)

# a fresh interpreter pays this before `unitcat run` reaches its first stage
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import unitcat
from unitcat.config import validate_config
with open(sys.argv[2], encoding="utf-8") as fh:
    validate_config(fh.read())
elapsed = time.perf_counter() - t0
if not unitcat.__file__.startswith(sys.argv[1]):
    sys.exit(f"unitcat imported from {unitcat.__file__}")
print(elapsed)
"""

# per-layer metrics that must be non-zero on a workload that exercises the
# layer; every workload also exercises config and its stages' spans
EXERCISED = {
    "train": ("tdnn.loss_and_grads.calls", "tdnn.train_step.gflop", "tdnn.train_step.s"),
    "prep": (
        "features.compute_fbank.calls", "features.sliding_mean_normalize.ms_per_kframe",
        "features.spec_augment.ms_per_kframe", "synthesis.synthesize_corpus.s",
        "synthesis.render.calls", "synthesis.augment_corpus.copies",
        "segmentation.extract_segments.ms_per_utt", "segmentation.save_library.s",
        "segmentation.load_library.s", "audio.load_wav.calls", "audio.save_wav.calls",
        "audio.read_wav.calls", "audio.write_wav.calls", "archive.bytes_written",
    ),
    "eval": (
        "tdnn.forward.calls", "tdnn.load_params.s", "archive.bytes_written",
        "archive.read_archive.mb_per_s", "scoring.score_trials.trials_per_s",
        "scoring.format_scores.s", "scoring.parse_scores.s", "scoring.compute_det_metrics.s",
        "scoring.format_roc.s", "scoring.roc_svg.s", "kws.utterance_confidence.frames_per_s",
        "kws.load_posteriors.s", "kws.kws_roc.s", "cli.kws_eval.s",
    ),
}


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if not found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def calibrate() -> dict[str, float]:
    """A fixed kernel of the benchmark's own: float64 GEMMs and a pure
    Python loop. Its time shows machine drift apart from unitcat changes."""
    a = np.random.Generator(np.random.PCG64(0)).standard_normal((384, 384))
    t0 = time.perf_counter()
    for _ in range(100):
        a @ a
    t1 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += (i * i) & 7
    t2 = time.perf_counter()
    return {"gemm_s": t1 - t0, "python_s": t2 - t1}


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


class Runner:
    def __init__(self, workload: str, plan: dict, src: str):
        import unitcat.cli
        import unitcat.config
        from unitcat.pipeline import run_pipeline

        self.wl = WORKLOADS[workload]
        self.plan = plan
        self.src = src
        self.cli_main = unitcat.cli.main
        self.run_pipeline = run_pipeline
        self.config_text = Path(plan["config"]).read_text(encoding="utf-8")
        # looked up on the module at each call, so a traced pass sees the wrapper
        self.config_module = unitcat.config
        self.cfg = unitcat.config.validate_config(self.config_text)
        self.out = Path(self.cfg.out_dir)
        self.digest: str | None = None
        self.resets = 0
        self.passed: int | None = None  # self.resets when check() last passed
        self.sys_s: list[float] = []
        TRASH.mkdir()

    def reset(self) -> None:
        """Move the last output tree aside and place the workload's inputs.
        Trees are deleted only after the measured pass: on ext4, freeing
        blocks between iterations made each iteration's system time grow
        (0.24 s to 1.26 s of system time in six prep iterations)."""
        if self.out.exists():
            self.out.rename(TRASH / str(self.resets))
        self.resets += 1
        if self.plan["placed"]:
            shutil.copytree(self.plan["placed"], self.out)

    def setup_times(self, n: int) -> list[float]:
        """n times the seconds from before `import unitcat` until
        validate_config returns, each in a fresh interpreter."""
        time.sleep(BLAS_IDLE_S)
        times = []
        for _ in range(n):
            out = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, self.src, self.plan["config"]],
                capture_output=True, text=True, timeout=60, check=True,
            )
            times.append(float(out.stdout.split()[-1]))
        return times

    def iterate(self, tracer: Tracer | None) -> tuple[float, str, int]:
        """One timed iteration: (seconds, report text, kws-eval exit code).
        Its system CPU time goes to sys_s, where a slower filesystem shows."""
        rc = 0
        sink = io.StringIO()
        sys0 = os.times().system
        with contextlib.redirect_stdout(sink):
            t0 = time.perf_counter()
            if tracer is None:
                report = self.run_pipeline(self.cfg, self.wl.stages)
                if self.wl.kws:
                    rc = self.cli_main(self.plan["kws_args"])
            else:
                report = "".join(
                    tracer.call(f"pipeline.{stage}", self.run_pipeline, self.cfg, (stage,))
                    for stage in self.wl.stages
                )
                if self.wl.kws:
                    rc = tracer.call("cli.kws_eval", self.cli_main, self.plan["kws_args"])
            elapsed = time.perf_counter() - t0
        self.sys_s.append(os.times().system - sys0)
        return elapsed, report, rc

    def check(self, report: str, rc: int) -> None:
        """The checks that hold little memory, so they do not raise the
        peak RSS read from this process. The eval workload's score and
        DET checks run in run.py on checked_tree; the digest check here
        makes them hold for every iteration that passed it."""
        checks.check_stages(report, self.wl.stages)
        if self.wl.name == "train":
            checks.check_train(report)
        elif self.wl.name == "prep":
            checks.check_prep(report, self.out, self.plan["sizes"])
        else:
            checks.check_kws(rc, self.out / "kws" / "roc.tsv")
        # traced passes write report.txt once per stage; the rest must match
        digest = tree_digest(self.out, skip=("report.txt",))
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise checks.CheckError("output tree differs from the first iteration's")
        self.passed = self.resets

    def checked_tree(self) -> Path | None:
        """The last output tree that passed check(); reset() has moved it
        to TRASH unless it is the last tree written."""
        if self.passed is None:
            return None
        return self.out if self.passed == self.resets else TRASH / str(self.passed)


def measure(runner: Runner, seconds: float, trace: bool, probes: int, deadline: float) -> dict:
    """Iterate until `seconds` of timed iterations (failed ones included)
    and the minimum counts are reached, or the deadline comes near. The
    first iteration warms caches and is checked but not timed. An untraced
    pass also times `probes` set-ups.

    Peak RSS is read after the first iteration: what one `unitcat run`
    costs. Later iterations in the same process fragment the heap, and the
    peak went on growing by a different amount in each process (eval: by
    14 to 17 MB over five iterations)."""
    samples: dict[str, list[float]] = {"warmup": [], "untraced": [], "traced": [], "setup": []}
    per_iter: list[dict[str, float]] = []
    attempted = failed = 0
    spent = 0.0
    tracer = Tracer() if trace else None
    errors: list[str] = []
    min_attempts = 5 if trace else 3

    last_wall = 0.0
    while (attempted < min_attempts or spent < seconds) and time.monotonic() + last_wall < deadline:
        wall0 = time.monotonic()
        kind = "warmup" if not attempted else "traced" if trace and attempted % 2 == 0 else "untraced"
        runner.reset()
        attempted += 1
        t0 = time.perf_counter()
        try:
            if kind == "traced":
                first_span = len(tracer.spans)
                tracer.install()
                try:
                    runner.config_module.validate_config(runner.config_text)
                    elapsed, report, rc = runner.iterate(tracer)
                finally:
                    tracer.uninstall()
                    counts, wrapper_s = tracer.take_counts()
                totals = tracer.totals(first_span)
                m = layer_metrics(totals, counts)
                m["_wrapper_s"] = wrapper_s
                m["_stage_sum"] = sum(
                    v for k, v in totals.items() if k.startswith("pipeline.") or k == "cli.kws_eval"
                )
            else:
                elapsed, report, rc = runner.iterate(None)
            runner.check(report, rc)
        except Exception:
            failed += 1
            elapsed = time.perf_counter() - t0
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
        else:
            samples[kind].append(elapsed)
            if kind == "traced":
                per_iter.append(m)
        if kind == "warmup":
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            spent += elapsed
        if kind != "warmup" and len(samples["setup"]) < probes:
            batch = min(PROBES_PER_ITERATION, probes - len(samples["setup"]))
            samples["setup"] += runner.setup_times(batch)
        last_wall = time.monotonic() - wall0
    if len(samples["setup"]) < probes:
        samples["setup"] += runner.setup_times(probes - len(samples["setup"]))

    result = {
        "attempted": attempted,
        "failed": failed,
        "warmup_s": samples["warmup"],
        "run_s_samples": samples["untraced"],
        "setup_s_samples": samples["setup"],
        "sys_s_samples": runner.sys_s,
        "errors": errors[:3],
        "checked_tree": None if runner.checked_tree() is None else str(runner.checked_tree()),
        "digest": runner.digest,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        result["traced_s_samples"] = samples["traced"]
        result.update(trace_metrics(runner.wl.name, samples["untraced"], per_iter))
        tracer.dump(Path("spans.json"))
    return result


def trace_metrics(workload: str, untraced: list[float], per_iter: list[dict]) -> dict:
    """Medians over the traced iterations and the sanity checks of the
    trace. trace.overhead_s is the wrappers' own time, measured apart from
    the spans; trace.stage_sum_gap_s is how far the stage spans' sum lies
    from the untraced run_s, which the overhead and the spread of the two
    must explain. A per-stage split that cost more than the whole run
    would show there."""
    problems = []
    if len(per_iter) < 2 or not untraced:
        problems.append("fewer than two traced iterations or no untraced one")
        return {"trace_ok": False, "trace_problems": problems, "layers": {}}
    differ = sorted(k for k in COUNT_METRICS if any(m[k] != per_iter[0][k] for m in per_iter))
    if differ:
        problems.append(f"count metrics differ between traced passes: {differ}")
    layers = {
        k: per_iter[0][k] if k in COUNT_METRICS else statistics.median(m[k] for m in per_iter)
        for k in per_iter[0]
        if not k.startswith("_")
    }
    stage_sums = [m["_stage_sum"] for m in per_iter]
    layers["trace.overhead_s"] = statistics.median(m["_wrapper_s"] for m in per_iter)
    layers["trace.stage_sum_gap_s"] = statistics.median(stage_sums) - statistics.median(untraced)
    slack = layers["trace.overhead_s"] + iqr(untraced) + iqr(stage_sums)
    if abs(layers["trace.stage_sum_gap_s"]) > slack:
        problems.append(
            f"stage spans sum to {layers['trace.stage_sum_gap_s']:+.4f} s off the untraced run_s, "
            f"more than the overhead plus the IQRs, {slack:.4f} s"
        )
    stages = tuple(f"pipeline.{s}.s" for s in WORKLOADS[workload].stages)
    for name in ("config.validate_config.ms",) + stages + EXERCISED[workload]:
        if not layers.get(name):
            problems.append(f"{name} is zero on a workload that exercises it")
    return {"trace_ok": not problems, "trace_problems": problems, "layers": layers}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--setup-probes", type=int, required=True)
    p.add_argument("--deadline-s", type=float, required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args()
    start = time.monotonic()
    sys.path.insert(0, args.src)
    import unitcat

    if not Path(unitcat.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        raise SystemExit(f"unitcat imported from {unitcat.__file__}, not {args.src}")
    plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    runner = Runner(args.workload, plan, args.src)
    result = measure(runner, args.seconds, bool(args.trace), args.setup_probes, start + args.deadline_s)
    # after the pass, so that its arrays stay out of the peak RSS
    result["calibration"] = calibrate()
    result["blas_threads"] = blas_threads()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
