"""Per-layer tracing of unitcat from outside its source.

``Tracer.install`` replaces public functions of unitcat's modules with
wrappers that record a span (name, start, end, parent) and a few counters
per call. A function is reachable under every name that a unitcat module
bound it to (``from .features import compute_fbank`` copies the name into
``unitcat.pipeline``), so every such binding is patched, and
``Tracer.uninstall`` puts every one of them back. Spans stay in memory;
``dump`` writes them once a pass ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span


def _tdnn_forward_flop(params, frames: int) -> int:
    """2 x multiply-adds of the forward GEMMs, computed from the shapes."""
    from unitcat.tdnn import FRAME_LAYERS

    total = 0
    for name, offsets, _ in FRAME_LAYERS:
        frames -= max(offsets) - min(offsets)
        out_dim, in_dim = params.tensors[f"{name}.W"].shape
        total += 2 * frames * in_dim * out_dim
    total += 2 * params.tensors["segment6.W"].size + 2 * params.tensors["projection.W"].size
    return total


def _train_step_counts(args, kwargs, result):
    params, batch = args[0], args[1]
    # forward plus the weight- and input-gradient GEMMs of the backward pass
    return {"flop": 3 * sum(_tdnn_forward_flop(params, len(f)) for f, _ in batch)}


def _forward_counts(args, kwargs, result):
    return {"flop": _tdnn_forward_flop(args[0], len(args[1]))}


def _fbank_counts(args, kwargs, result):
    return {"audio_s": args[0].num_samples / args[0].sample_rate}


def _frames_in(args, kwargs, result):
    return {"frames": len(args[0])}


def _augment_counts(args, kwargs, result):
    records, rows = result
    return {"copies": len(records), "clipped": sum(r.clipped for r in rows)}


def _wav_bytes_out(args, kwargs, result):
    return {"bytes": result.samples.nbytes}


def _wav_bytes_in(args, kwargs, result):
    return {"bytes": args[1].samples.nbytes}


def _archive_add_counts(args, kwargs, result):
    return {"bytes": 4 * np.asarray(args[2]).size}


def _archive_read_counts(args, kwargs, result):
    return {"bytes": sum(r.nbytes for recs in result.values() for r in recs)}


def _score_counts(args, kwargs, result):
    return {"trials": len(args[0])}


def _confidence_counts(args, kwargs, result):
    return {"frames": args[0].num_frames}


# (module, attribute, counters); the span name is "<module>.<attribute>"
# without the package prefix. A dotted attribute names a method.
LAYERS = (
    ("tdnn", "train_step", _train_step_counts),
    ("tdnn", "loss_and_grads", None),
    ("tdnn", "forward", _forward_counts),
    ("tdnn", "load_params", None),
    ("features", "compute_fbank", _fbank_counts),
    ("features", "sliding_mean_normalize", _frames_in),
    ("features", "spec_augment", _frames_in),
    ("synthesis", "synthesize_corpus", None),
    ("synthesis", "render", None),
    ("synthesis", "augment_corpus", _augment_counts),
    ("segmentation", "extract_segments", None),
    ("segmentation", "save_library", None),
    ("segmentation", "load_library", None),
    ("audio", "load_wav", _wav_bytes_out),
    ("audio", "save_wav", _wav_bytes_in),
    ("audio", "read_wav", None),
    ("audio", "write_wav", None),
    ("archive", "ArchiveWriter.add", _archive_add_counts),
    ("archive", "ArchiveWriter.close", None),
    ("archive", "read_archive", _archive_read_counts),
    ("scoring", "score_trials", _score_counts),
    ("scoring", "format_scores", None),
    ("scoring", "parse_scores", None),
    ("scoring", "compute_det_metrics", None),
    ("scoring", "format_roc", None),
    ("scoring", "roc_svg", None),
    ("kws", "utterance_confidence", _confidence_counts),
    ("kws", "load_posteriors", None),
    ("kws", "kws_roc", None),
    ("config", "validate_config", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.wrapper_s = 0.0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span of its own."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counters=None):
        """fn, recording a span and counting calls plus the counters'
        values under "<name>.<key>". The wrapper's own time outside the
        span goes to wrapper_s, the tracing overhead it adds to its caller."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            idx = len(self.spans)
            result = self.call(name, fn, *args, **kwargs)
            self.counts[name + ".calls"] += 1
            if counters is not None:
                for key, value in counters(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            span = self.spans[idx]
            self.wrapper_s += time.perf_counter() - t0 - (span.end - span.start)
            return result

        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every LAYERS function in loaded unitcat modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "unitcat" or n.startswith("unitcat."))
        ]
        for module_name, attr, counters in LAYERS:
            owner = sys.modules[f"unitcat.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self.wrap(name, vars(cls)[meth], counters))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, target, key: str, value) -> None:
        # vars() gives a class's raw function, not a bound or static wrapper
        self._patches.append((target, key, vars(target)[key]))
        setattr(target, key, value)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # --- results -----------------------------------------------------------

    def take_counts(self) -> tuple[Counter, float]:
        """Counters and wrapper_s since the last call, which starts them
        again at zero."""
        counts, self.counts = self.counts, Counter()
        wrapper_s, self.wrapper_s = self.wrapper_s, 0.0
        return counts, wrapper_s

    def totals(self, first_span: int = 0) -> dict[str, float]:
        """Summed span durations by name, from span index first_span on."""
        out: dict[str, float] = {}
        for s in self.spans[first_span:]:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start)
        return out

    def dump(self, path: Path) -> None:
        """Spans with their self time (duration minus child spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        rows = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self_s": (s.end - s.start) - child[i],
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows), encoding="utf-8")


STAGES = ("segment", "synth", "augment", "featurize", "train", "extract", "score", "eval")

def layer_metrics(t: dict[str, float], c: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced iteration from its span totals t
    and counters c (trace.* are added by the caller)."""

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {f"pipeline.{s}.s": t.get(f"pipeline.{s}", 0.0) for s in STAGES}
    train_s = t.get("tdnn.train_step", 0.0)
    fwd_s = t.get("tdnn.forward", 0.0)
    fbank_s = t.get("features.compute_fbank", 0.0)
    write_s = t.get("archive.ArchiveWriter.add", 0.0) + t.get("archive.ArchiveWriter.close", 0.0)
    m.update({
        "tdnn.train_step.s": train_s,
        "tdnn.loss_and_grads.ms_per_utt": per(
            1e3 * t.get("tdnn.loss_and_grads", 0.0), c["tdnn.loss_and_grads.calls"]
        ),
        "tdnn.loss_and_grads.calls": c["tdnn.loss_and_grads.calls"],
        "tdnn.train_step.gflop": c["tdnn.train_step.flop"] / 1e9,
        "tdnn.train_step.gflops": per(c["tdnn.train_step.flop"] / 1e9, train_s),
        "tdnn.forward.ms_per_utt": per(1e3 * fwd_s, c["tdnn.forward.calls"]),
        "tdnn.forward.calls": c["tdnn.forward.calls"],
        "tdnn.forward.gflops": per(c["tdnn.forward.flop"] / 1e9, fwd_s),
        "tdnn.load_params.s": t.get("tdnn.load_params", 0.0),
        "features.compute_fbank.x_realtime": per(c["features.compute_fbank.audio_s"], fbank_s),
        "features.compute_fbank.calls": c["features.compute_fbank.calls"],
        "features.sliding_mean_normalize.ms_per_kframe": per(
            1e6 * t.get("features.sliding_mean_normalize", 0.0),
            c["features.sliding_mean_normalize.frames"],
        ),
        "features.spec_augment.ms_per_kframe": per(
            1e6 * t.get("features.spec_augment", 0.0), c["features.spec_augment.frames"]
        ),
        "synthesis.synthesize_corpus.s": t.get("synthesis.synthesize_corpus", 0.0),
        "synthesis.render.calls": c["synthesis.render.calls"],
        "synthesis.augment_corpus.s": t.get("synthesis.augment_corpus", 0.0),
        "synthesis.augment_corpus.copies": c["synthesis.augment_corpus.copies"],
        "synthesis.clipped_samples": c["synthesis.augment_corpus.clipped"],
        "segmentation.extract_segments.ms_per_utt": per(
            1e3 * t.get("segmentation.extract_segments", 0.0),
            c["segmentation.extract_segments.calls"],
        ),
        "segmentation.save_library.s": t.get("segmentation.save_library", 0.0),
        "segmentation.load_library.s": t.get("segmentation.load_library", 0.0),
        "audio.load_wav.calls": c["audio.load_wav.calls"],
        "audio.save_wav.calls": c["audio.save_wav.calls"],
        "audio.read_wav.calls": c["audio.read_wav.calls"],
        "audio.write_wav.calls": c["audio.write_wav.calls"],
        "audio.load_wav.mb_per_s": per(c["audio.load_wav.bytes"] / 1e6, t.get("audio.load_wav", 0.0)),
        "audio.save_wav.mb_per_s": per(c["audio.save_wav.bytes"] / 1e6, t.get("audio.save_wav", 0.0)),
        "archive.bytes_written": c["archive.ArchiveWriter.add.bytes"],
        "archive.write.mb_per_s": per(c["archive.ArchiveWriter.add.bytes"] / 1e6, write_s),
        "archive.read_archive.mb_per_s": per(
            c["archive.read_archive.bytes"] / 1e6, t.get("archive.read_archive", 0.0)
        ),
        "scoring.score_trials.trials_per_s": per(
            c["scoring.score_trials.trials"], t.get("scoring.score_trials", 0.0)
        ),
        "kws.utterance_confidence.frames_per_s": per(
            c["kws.utterance_confidence.frames"], t.get("kws.utterance_confidence", 0.0)
        ),
        "cli.kws_eval.s": t.get("cli.kws_eval", 0.0),
        "config.validate_config.ms": 1e3 * t.get("config.validate_config", 0.0),
    })
    for name in ("format_scores", "parse_scores", "compute_det_metrics", "format_roc", "roc_svg"):
        m[f"scoring.{name}.s"] = t.get(f"scoring.{name}", 0.0)
    for name in ("load_posteriors", "kws_roc"):
        m[f"kws.{name}.s"] = t.get(f"kws.{name}", 0.0)
    return m
