"""Command-line front end for every pipeline stage.

Exit codes: 0 success, 1 usage error, 2 input/config validation error,
3 runtime failure (missing artifacts, I/O).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import (PipelineConfig, parse_float, parse_int, parse_positive_int, parse_snr_list,
                     parse_units, validate_config)
from .features import SpecAugmentParams
from .kws import (DEFAULT_SEARCH_WINDOW, DEFAULT_SMOOTH_WINDOW, KeywordSpec, frr_at_far, kws_roc,
                  load_labels, load_posteriors, utterance_confidence)
from .pipeline import (
    PipelineError,
    augment_audio,
    evaluate_scores,
    extract_embeddings,
    featurize_corpus,
    parse_stages,
    run_pipeline,
    score_embeddings,
    segment_corpus,
    synthesize_libraries,
    train_model,
)
from .scoring import format_roc, parse_roc, roc_svg
from .toydata import DEFAULT_UNITS, default_speaker_specs, make_toy_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _arg(parse):
    """A config parser as an argparse type: its refusal is a usage error
    (exit 1) that keeps its message."""

    def convert(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def build_parser() -> _Parser:
    """Flags that mirror a config key default to PipelineConfig's value."""
    default = {f.name: f.default for f in fields(PipelineConfig)}
    parser = _Parser(prog="unitcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-toy", parents=[], help="generate a synthetic fixture corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--speakers", type=_arg(parse_positive_int), default=5)
    p.add_argument("--units", type=_arg(parse_units), default=DEFAULT_UNITS)
    p.add_argument("--uncovered", default="", help="comma list of speakers missing a unit")

    p = sub.add_parser("segment", help="build per-speaker unit libraries")
    p.add_argument("--manifest", required=True)
    p.add_argument("--ali", required=True)
    p.add_argument("--units", type=_arg(parse_units), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--audio-root", default=None)
    p.add_argument("--silence", type=_arg(parse_units), default=default["silence_labels"])

    p = sub.add_parser("synth", help="synthesize utterances from unit libraries")
    p.add_argument("--libdir", required=True)
    p.add_argument("--transcript", type=_arg(parse_units), required=True)
    p.add_argument("--seed", type=_arg(parse_int), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--noise-dir", default=default["noise_dir"])
    p.add_argument("--snr-list", type=_arg(parse_snr_list), default=default["snr_list"],
                   help="comma-separated SNRs in dB; join a list that starts with a negative "
                   "SNR with =, as in --snr-list=-5,0")
    p.add_argument("--rir-dir", default=default["rir_dir"])

    p = sub.add_parser("featurize", help="extract normalized fbank features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="archive base path (.bin/.tsv)")
    p.add_argument("--audio-root", default=None)
    p.add_argument("--ali", default=None, help="alignments for VAD filtering")
    p.add_argument("--silence", type=_arg(parse_units), default=default["silence_labels"],
                   help="alignment units that --ali treats as non-speech")
    p.add_argument("--specaug", action="store_true", help="also write a masked 'train' archive")
    p.add_argument("--seed", type=_arg(parse_int), default=0)

    p = sub.add_parser("train-toy", help="smoke-train the embedding network")
    p.add_argument("--features", required=True, help="feature archive base path")
    p.add_argument("--manifest", required=True, help="manifest providing speaker labels")
    p.add_argument("--out", required=True, help="parameter file to write")
    p.add_argument("--steps", type=_arg(parse_int), default=default["train_steps"])
    p.add_argument("--lr", type=_arg(parse_float), default=default["learn_rate"])
    p.add_argument("--seed", type=_arg(parse_int), default=0)

    p = sub.add_parser("extract", help="extract embeddings with trained parameters")
    p.add_argument("--params", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True, help="embedding archive base path")

    p = sub.add_parser("score", help="score trials against an embedding archive")
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="compute EER and minDCF from a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--p-target", type=_arg(parse_float), default=default["p_target"])
    p.add_argument("--c-miss", type=_arg(parse_float), default=default["c_miss"])
    p.add_argument("--c-fa", type=_arg(parse_float), default=default["c_fa"])
    p.add_argument("--roc", default=None, help="write the sweep as TSV here")

    p = sub.add_parser("plot-roc", help="render a sweep TSV as SVG")
    p.add_argument("--roc", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="DET")

    p = sub.add_parser("kws-eval", help="keyword confidence ROC over posterior archives")
    p.add_argument("--pos", required=True, help="positive posterior archive base")
    p.add_argument("--neg", required=True, help="negative posterior archive base")
    p.add_argument("--labels", required=True)
    p.add_argument("--keyword", type=_arg(parse_units), required=True)
    p.add_argument("--smooth", type=_arg(parse_int), default=DEFAULT_SMOOTH_WINDOW)
    p.add_argument("--search", type=_arg(parse_int), default=DEFAULT_SEARCH_WINDOW)
    p.add_argument("--exclude-first", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run pipeline stages from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", default=None, help="comma list, or 'none' to only validate")
    p.add_argument("--seed", type=_arg(parse_int), default=None, help="override the config seed")

    return parser


# --- command handlers -----------------------------------------------------


def _cmd_make_toy(args) -> list[str]:
    uncovered = tuple(s for s in args.uncovered.split(",") if s)
    specs = default_speaker_specs(args.speakers, args.units, uncovered)
    corpus = make_toy_corpus(args.out, specs, args.units)
    lines = []
    for spec in corpus.specs:
        counts = " ".join(f"{u}:{spec.unit_counts.get(u, 0)}" for u in corpus.units)
        lines.append(f"{spec.speaker_id}: {counts}")
    lines.append(f"wrote {len(corpus.records)} utterances to {corpus.root}")
    return lines


def _audio_root(args) -> Path:
    return Path(args.audio_root) if args.audio_root else Path(args.manifest).parent


def _cmd_segment(args) -> list[str]:
    return segment_corpus(
        Path(args.manifest),
        Path(args.ali),
        _audio_root(args),
        args.units,
        frozenset(args.silence),
        Path(args.out),
    )


def _cmd_synth(args) -> list[str]:
    out = Path(args.out)
    lines = synthesize_libraries(Path(args.libdir), args.transcript, args.seed, out)
    if args.noise_dir or args.rir_dir:
        lines += augment_audio(
            out / "manifest.tsv",
            out,
            out / "augmented",
            args.seed,
            args.noise_dir,
            args.snr_list,
            args.rir_dir,
        )
    return lines


def _cmd_featurize(args) -> list[str]:
    specaug = SpecAugmentParams() if args.specaug else None
    sources = [(Path(args.manifest), _audio_root(args))]
    ali = Path(args.ali) if args.ali else None
    return featurize_corpus(
        sources, Path(args.out), specaug, args.seed, ali, frozenset(args.silence)
    )


def _cmd_train_toy(args) -> list[str]:
    features, manifest, out = Path(args.features), Path(args.manifest), Path(args.out)
    return train_model(features, [manifest], out, args.steps, args.lr, args.seed)


def _cmd_extract(args) -> list[str]:
    return extract_embeddings(Path(args.params), Path(args.features), Path(args.out))


def _cmd_score(args) -> list[str]:
    return score_embeddings(Path(args.trials), Path(args.embeddings), Path(args.out))


def _cmd_eval(args) -> list[str]:
    roc = Path(args.roc) if args.roc else None
    return evaluate_scores(Path(args.scores), args.p_target, args.c_miss, args.c_fa, roc)[1]


def _cmd_plot_roc(args) -> list[str]:
    with open(args.roc, encoding="utf-8") as lines:
        roc = parse_roc(lines)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(roc_svg(roc, args.title), encoding="utf-8")
    return [f"wrote {out}"]


def _cmd_kws_eval(args) -> list[str]:
    labels = load_labels(args.labels)
    spec = KeywordSpec.from_labels(args.keyword, labels, args.smooth, args.search)
    positives = [
        utterance_confidence(stream, spec, args.exclude_first)
        for stream in load_posteriors(args.pos, args.labels).values()
    ]
    negatives = [
        utterance_confidence(stream, spec, args.exclude_first)
        for stream in load_posteriors(args.neg, args.labels).values()
    ]
    roc = kws_roc(positives, negatives)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(format_roc(roc), encoding="utf-8")
    return [
        f"frr_at_far_{far_target:g} = {frr_at_far(roc, far_target):.6f}"
        for far_target in (0.01, 0.001)
    ]


def _cmd_run(args) -> list[str]:
    cfg = validate_config(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg.seed = args.seed
    stages = parse_stages(args.stages)
    return run_pipeline(cfg, stages).splitlines()


_HANDLERS = {
    "make-toy": _cmd_make_toy,
    "segment": _cmd_segment,
    "synth": _cmd_synth,
    "featurize": _cmd_featurize,
    "train-toy": _cmd_train_toy,
    "extract": _cmd_extract,
    "score": _cmd_score,
    "eval": _cmd_eval,
    "plot-roc": _cmd_plot_roc,
    "kws-eval": _cmd_kws_eval,
    "run": _cmd_run,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        lines = _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"unitcat: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (PipelineError, OSError) as exc:
        print(f"unitcat: runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # anything unexpected is still a runtime failure
        print(f"unitcat: runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("\n".join(lines))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
