import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

from unitcat.archive import read_archive, write_archive
from unitcat.cli import build_parser, main
from unitcat.config import PipelineConfig
from unitcat.kws import DEFAULT_SEARCH_WINDOW, DEFAULT_SMOOTH_WINDOW, save_labels
from unitcat.tdnn import TdnnConfig, init_tdnn, load_params, save_params


def run_cli(*argv):
    return main(list(argv))


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("segment")  # missing required arguments
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 1
    for argv in (
        ("run", "--config", "x.cfg", "--workers", "2"),
        ("synth", "--libdir", "x", "--transcript", "ni", "--seed", "1", "--out", "y",
         "--workers", "2"),
    ):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 1


def test_snr_list_argument_parsing():
    args = build_parser().parse_args(
        ["synth", "--libdir", "x", "--transcript", "ni", "--seed", "1",
         "--out", "y", "--snr-list", "0,5,10"]
    )
    assert args.snr_list == (0.0, 5.0, 10.0)


def test_snr_list_starting_with_a_negative_snr_parses_when_joined_with_equals():
    args = build_parser().parse_args(
        ["synth", "--libdir", "x", "--transcript", "ni", "--seed", "1",
         "--out", "y", "--snr-list=-5,0"]
    )
    assert args.snr_list == (-5.0, 0.0)


# each subcommand with its required arguments -> {flag's dest: the config field it mirrors}
CONFIG_FLAGS = {
    ("segment", "--manifest", "m", "--ali", "a", "--units", "ni", "--out", "o"): {
        "silence": "silence_labels",
    },
    ("featurize", "--manifest", "m", "--out", "o"): {"silence": "silence_labels"},
    ("synth", "--libdir", "l", "--transcript", "ni", "--seed", "1", "--out", "o"): {
        "noise_dir": "noise_dir", "snr_list": "snr_list", "rir_dir": "rir_dir",
    },
    ("train-toy", "--features", "f", "--manifest", "m", "--out", "o"): {
        "steps": "train_steps", "lr": "learn_rate",
    },
    ("eval", "--scores", "s"): {"p_target": "p_target", "c_miss": "c_miss", "c_fa": "c_fa"},
}


def test_flags_that_mirror_config_keys_take_pipeline_config_defaults(monkeypatch):
    # each default must be read from PipelineConfig, not written again as a literal
    settings = {f.name: f for f in fields(PipelineConfig)}
    marks = {name: object() for flags in CONFIG_FLAGS.values() for name in flags.values()}
    for name, mark in marks.items():
        monkeypatch.setattr(settings[name], "default", mark)
    for argv, flags in CONFIG_FLAGS.items():
        args = build_parser().parse_args(list(argv))
        for dest, name in flags.items():
            assert getattr(args, dest) is marks[name], dest


def test_kws_eval_flags_take_the_kws_defaults():
    args = build_parser().parse_args(
        ["kws-eval", "--pos", "p", "--neg", "n", "--labels", "l", "--keyword", "ni", "--out", "o"]
    )
    assert (args.smooth, args.search) == (DEFAULT_SMOOTH_WINDOW, DEFAULT_SEARCH_WINDOW)


@pytest.mark.parametrize(
    "raw, refusal",
    [("0,nan", "SNR nan is not finite"), ("-inf", "SNR -inf is not finite"),
     ("5,5.0", "SNR 5 is listed twice"), ("0,x", "could not convert string to float: 'x'")],
)
def test_snr_list_flag_refusals_are_usage_errors_with_the_config_message(raw, refusal, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--libdir", "l", "--transcript", "ni", "--seed", "1", "--out", "o",
                f"--snr-list={raw}")
    assert exc.value.code == 1
    assert f"argument --snr-list: {refusal}" in capsys.readouterr().err


def test_unit_list_flag_refusal_is_a_usage_error_with_the_config_message(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("synth", "--libdir", "l", "--transcript", " ", "--seed", "1", "--out", "o")
    assert exc.value.code == 1
    assert "argument --transcript: expected at least one unit" in capsys.readouterr().err


# each command with its required arguments, then a numeric flag
NUMBER_FLAGS = [
    (("synth", "--libdir", "l", "--transcript", "ni", "--out", "o"), "--seed"),
    (("featurize", "--manifest", "m", "--out", "o"), "--seed"),
    (("train-toy", "--features", "f", "--manifest", "m", "--out", "o"), "--seed"),
    (("train-toy", "--features", "f", "--manifest", "m", "--out", "o"), "--steps"),
    (("train-toy", "--features", "f", "--manifest", "m", "--out", "o"), "--lr"),
    (("eval", "--scores", "s"), "--p-target"),
    (("eval", "--scores", "s"), "--c-miss"),
    (("eval", "--scores", "s"), "--c-fa"),
    (("kws-eval", "--pos", "p", "--neg", "n", "--labels", "l", "--keyword", "ni", "--out", "o"),
     "--smooth"),
    (("kws-eval", "--pos", "p", "--neg", "n", "--labels", "l", "--keyword", "ni", "--out", "o"),
     "--search"),
    (("run", "--config", "c"), "--seed"),
]


@pytest.mark.parametrize("raw", ["1_0", "\u0661"])
@pytest.mark.parametrize("argv, flag", NUMBER_FLAGS)
def test_numeric_flags_refuse_what_the_config_refuses_as_usage_errors(argv, flag, raw, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, flag, raw)
    assert exc.value.code == 1
    assert f"argument {flag}: expected a number in ASCII digits" in capsys.readouterr().err


def test_run_refuses_a_repeated_snr_naming_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[paths]\ncorpus_dir = c\nout_dir = o\n[synthesis]\ntranscript = ni\nseed = 1\n"
        "[augment]\nsnr_list = 5, 5.0\n"
    )
    assert run_cli("run", "--config", str(cfg)) == 2
    assert "line 8: bad value for augment.snr_list: SNR 5 is listed twice" in (
        capsys.readouterr().err
    )


def test_validation_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[paths]\ncorpus_dir = /c\nwarp = 9\n")
    assert run_cli("run", "--config", str(bad)) == 2
    assert "validation error" in capsys.readouterr().err


def test_runtime_error_exits_3(tmp_path, capsys):
    missing = tmp_path / "nope" / "scores.txt"
    assert run_cli("eval", "--scores", str(missing)) == 3
    assert "runtime error" in capsys.readouterr().err


def test_synth_on_empty_libdir_exits_3(tmp_path, capsys):
    empty = tmp_path / "libs"
    empty.mkdir()
    code = run_cli(
        "synth", "--libdir", str(empty), "--transcript", "ni hao",
        "--seed", "1", "--out", str(tmp_path / "out"),
    )
    assert code == 3
    assert "no unit libraries" in capsys.readouterr().err


def test_eval_worked_example(tmp_path, capsys):
    scores = tmp_path / "scores.txt"
    rows = [
        ("e1", "t1", 0.9, "target"),
        ("e2", "t2", 0.7, "target"),
        ("e3", "t3", 0.6, "target"),
        ("e4", "t4", 0.2, "target"),
        ("e5", "t5", 0.8, "nontarget"),
        ("e6", "t6", 0.3, "nontarget"),
        ("e7", "t7", 0.1, "nontarget"),
        ("e8", "t8", 0.05, "nontarget"),
    ]
    scores.write_text("".join(f"{a} {b} {s} {lab}\n" for a, b, s, lab in rows))
    roc = tmp_path / "roc.tsv"
    assert run_cli("eval", "--scores", str(scores), "--roc", str(roc)) == 0
    out = capsys.readouterr().out
    assert "eer_percent = 25.0000" in out
    assert "min_dcf = 0.750000" in out
    assert "dcf_threshold = 0.900000" in out
    assert roc.read_text().startswith("threshold\tfar\tfrr\n")

    svg = tmp_path / "roc.svg"
    assert run_cli("plot-roc", "--roc", str(roc), "--out", str(svg), "--title", "toy") == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")


@pytest.mark.parametrize("flag, value", [("--c-miss", "nan"), ("--c-fa", "inf")])
def test_eval_refuses_a_non_finite_cost_and_prints_no_metrics(tmp_path, capsys, flag, value):
    scores = tmp_path / "scores.txt"
    scores.write_text("e1 t1 0.9 target\ne2 t2 0.1 nontarget\n")
    roc = tmp_path / "roc.tsv"
    assert run_cli("eval", "--scores", str(scores), "--roc", str(roc), flag, value) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "costs must be finite and positive" in captured.err
    assert not roc.exists()


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """make-toy -> segment -> synth -> featurize, shared by the happy-path tests."""
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus"
    assert main(["make-toy", "--out", str(corpus), "--speakers", "2"]) == 0

    libs = base / "libs"
    code = main(
        ["segment", "--manifest", str(corpus / "manifest.tsv"),
         "--ali", str(corpus / "ali.ctm"), "--units", "ni hao mi ya",
         "--out", str(libs)]
    )
    assert code == 0

    synth = base / "synth"
    code = main(
        ["synth", "--libdir", str(libs), "--transcript", "ni hao mi ya",
         "--seed", "7", "--out", str(synth)]
    )
    assert code == 0

    feats = base / "feats" / "features"
    code = main(
        ["featurize", "--manifest", str(synth / "manifest.tsv"),
         "--out", str(feats)]
    )
    assert code == 0
    return base, corpus, libs, synth, feats


def test_make_toy_prints_counts(cli_workspace, capsys):
    base, corpus, _, _, _ = cli_workspace
    assert (corpus / "manifest.tsv").is_file()
    assert (corpus / "ali.ctm").is_file()
    assert (corpus / "trials.tsv").is_file()


def test_segment_outputs_libraries(cli_workspace):
    _, _, libs, _, _ = cli_workspace
    assert (libs / "spk0" / "segments.tsv").is_file()
    assert (libs / "spk1" / "segments.tsv").is_file()


def test_synth_outputs(cli_workspace):
    _, _, _, synth, _ = cli_workspace
    manifest = (synth / "manifest.tsv").read_text().splitlines()
    assert len(manifest) == 9  # max counts 5 + 4
    assert (synth / "plans.tsv").is_file()


def test_full_cli_chain_to_metrics(cli_workspace, capsys, tmp_path):
    base, corpus, _, synth, feats = cli_workspace
    params = tmp_path / "params.bin"
    code = run_cli(
        "train-toy", "--features", str(feats), "--manifest", str(synth / "manifest.tsv"),
        "--out", str(params), "--steps", "25", "--lr", "0.05", "--seed", "3",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "classes: 2" in out
    assert load_params(params).config.num_classes == 2

    emb = tmp_path / "emb" / "embeddings"
    assert run_cli("extract", "--params", str(params), "--features", str(feats), "--out", str(emb)) == 0

    scores = tmp_path / "scores.txt"
    code = run_cli(
        "score", "--trials", str(corpus / "trials.tsv"),
        "--embeddings", str(emb), "--out", str(scores),
    )
    assert code == 0
    assert len(scores.read_text().splitlines()) == 3

    assert run_cli("eval", "--scores", str(scores)) == 0
    out = capsys.readouterr().out
    assert "eer_percent" in out
    assert "min_dcf" in out


@pytest.mark.parametrize("speakers", ["0", "-2"])
def test_make_toy_refuses_fewer_than_one_speaker_as_a_usage_error(tmp_path, capsys, speakers):
    with pytest.raises(SystemExit) as exc:
        run_cli("make-toy", "--out", str(tmp_path / "toy"), "--speakers", speakers)
    assert exc.value.code == 1
    assert "--speakers: expected an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "toy").exists()


def test_make_toy_refuses_uncovered_speakers_it_does_not_generate(tmp_path, capsys):
    code = run_cli(
        "make-toy", "--out", str(tmp_path / "toy"), "--speakers", "2",
        "--uncovered", "spk1,spk9",
    )
    assert code == 2
    assert "uncovered speakers spk9 are not among the 2" in capsys.readouterr().err
    assert not (tmp_path / "toy").exists()


def _manifest_stage(command, corpus, manifest, out):
    """argv of segment or featurize over manifest, audio and alignments of corpus."""
    argv = [command, "--manifest", str(manifest), "--audio-root", str(corpus), "--out", str(out)]
    if command == "segment":
        argv += ["--ali", str(corpus / "ali.ctm"), "--units", "ni hao mi ya"]
    return argv


@pytest.mark.parametrize("command", ["segment", "featurize"])
@pytest.mark.parametrize("channel", ["-1", "1_0", "\u0661"])
def test_manifest_channel_that_is_not_ascii_digits_exits_2_naming_the_line(
    cli_workspace, tmp_path, capsys, command, channel
):
    _, corpus, _, _, _ = cli_workspace
    first, second = (corpus / "manifest.tsv").read_text().splitlines()[:2]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{first}\t0\n{second}\t{channel}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(*_manifest_stage(command, corpus, manifest, out)) == 2
    err = capsys.readouterr().err
    assert f"{manifest}: line 2: channel index {channel!r}" in err
    assert not out.exists() and not out.with_suffix(".tsv").exists()


@pytest.mark.parametrize("command", ["segment", "featurize"])
@pytest.mark.parametrize("stereo, channel, fragment", [
    (False, "1", "channel index 1 is out of range for the 1 channel(s) of"),
    (True, "2", "channel index 2 is out of range for the 2 channel(s) of"),
    (True, "", "has 2 channels and the manifest gives no channel index"),
])
def test_manifest_channel_outside_the_file_exits_2_naming_utterance_and_file(
    cli_workspace, tmp_path, capsys, command, stereo, channel, fragment
):
    from unitcat.audio import Waveform, load_wav, save_wav

    _, corpus, _, _, _ = cli_workspace
    utt, speaker, text, audio = (corpus / "manifest.tsv").read_text().splitlines()[0].split("\t")
    if stereo:
        samples = load_wav(corpus / audio).samples
        audio = str(tmp_path / "stereo.wav")
        save_wav(audio, Waveform(np.vstack([samples, samples]), 16000))
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{utt}\t{speaker}\t{text}\t{audio}\t{channel}\n", encoding="utf-8")
    assert run_cli(*_manifest_stage(command, corpus, manifest, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert f"utterance {utt!r}" in err and fragment in err
    assert ("stereo.wav" if stereo else audio) in err


def test_featurize_with_vad_drops_silence_frames(cli_workspace, tmp_path):
    _, corpus, _, _, _ = cli_workspace
    plain = tmp_path / "plain"
    vad = tmp_path / "vad"
    argv = ["featurize", "--manifest", str(corpus / "manifest.tsv")]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--out", str(vad), "--ali", str(corpus / "ali.ctm")]) == 0

    def rows(base):
        return sum(
            int(line.split("\t")[2])
            for line in base.with_suffix(".tsv").read_text().splitlines()
        )

    assert 0 < rows(vad) < rows(plain)


def test_featurize_refuses_utterances_without_alignments(cli_workspace, tmp_path, capsys):
    _, corpus, _, _, _ = cli_workspace
    ali = tmp_path / "ali.ctm"
    lines = (corpus / "ali.ctm").read_text().splitlines(keepends=True)
    ali.write_text("".join(line for line in lines if not line.startswith("spk1-src-001 ")))
    out = tmp_path / "vad"
    code = run_cli(
        "featurize", "--manifest", str(corpus / "manifest.tsv"), "--out", str(out),
        "--ali", str(ali),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "no alignment entries" in err and "spk1-src-001" in err
    assert not out.with_suffix(".tsv").exists()
    assert not out.with_suffix(".bin").exists()



def test_featurize_refuses_utterances_aligned_only_to_silence(cli_workspace, tmp_path, capsys):
    _, corpus, _, _, _ = cli_workspace
    ali = tmp_path / "ali.ctm"
    lines = []
    for line in (corpus / "ali.ctm").read_text().splitlines(keepends=True):
        fields = line.split()
        if fields[0] == "spk1-src-001":
            line = " ".join(fields[:-1] + ["sil"]) + "\n"
        lines.append(line)
    ali.write_text("".join(lines))
    out = tmp_path / "vad"
    code = run_cli(
        "featurize", "--manifest", str(corpus / "manifest.tsv"), "--out", str(out),
        "--ali", str(ali),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "no alignment entries outside the silence labels" in err
    assert "spk1-src-001" in err
    assert not out.with_suffix(".tsv").exists()
    assert not out.with_suffix(".bin").exists()


def test_featurize_refuses_utterances_aligned_past_their_audio(cli_workspace, tmp_path, capsys):
    _, corpus, _, _, _ = cli_workspace
    ali = tmp_path / "ali.ctm"
    lines = []
    for line in (corpus / "ali.ctm").read_text().splitlines(keepends=True):
        utt, channel, start, duration, unit = line.split()
        if utt == "spk1-src-001" and unit != "sil":
            line = f"{utt} {channel} {float(start) + 100:.2f} {duration} {unit}\n"
        lines.append(line)
    ali.write_text("".join(lines))
    code = run_cli(
        "featurize", "--manifest", str(corpus / "manifest.tsv"), "--out", str(tmp_path / "vad"),
        "--ali", str(ali),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "'spk1-src-001'" in err and "non-silence alignment entry" in err


def test_featurize_silence_flag_sets_the_labels_vad_drops(cli_workspace, tmp_path, capsys):
    _, corpus, _, _, _ = cli_workspace
    ali = tmp_path / "ali.ctm"
    lines = []
    for line in (corpus / "ali.ctm").read_text().splitlines(keepends=True):
        fields = line.split()
        lines.append(" ".join(fields[:-1] + ["sp" if fields[-1] == "sil" else fields[-1]]) + "\n")
    ali.write_text("".join(lines))
    assert "sp" in ali.read_text().split() and "sil" not in ali.read_text().split()
    argv = ["featurize", "--manifest", str(corpus / "manifest.tsv")]
    assert run_cli(*argv, "--out", str(tmp_path / "sil"), "--ali", str(corpus / "ali.ctm")) == 0
    assert run_cli(*argv, "--out", str(tmp_path / "sp"), "--ali", str(ali), "--silence", "sp") == 0
    for suffix in (".tsv", ".bin"):
        sil = (tmp_path / "sil").with_suffix(suffix).read_bytes()
        assert sil == (tmp_path / "sp").with_suffix(suffix).read_bytes(), suffix
    capsys.readouterr()

    out = tmp_path / "all"
    assert run_cli(*argv, "--out", str(out), "--ali", str(ali), "--silence", "sp ni hao mi ya") == 2
    assert "outside the silence labels (hao, mi, ni, sp, ya)" in capsys.readouterr().err
    assert not out.with_suffix(".tsv").exists()


def test_extract_names_records_too_short_to_embed(cli_workspace, tmp_path, capsys):
    _, _, _, synth, feats = cli_workspace
    params = tmp_path / "params.bin"
    assert run_cli(
        "train-toy", "--features", str(feats), "--manifest", str(synth / "manifest.tsv"),
        "--out", str(params), "--steps", "1",
    ) == 0
    records = read_archive(feats)
    ids = list(records)
    short = tmp_path / "short"
    write_archive(
        short,
        [(utt, np.zeros((0, 40), np.float32) if utt == ids[-1] else recs[0])
         for utt, recs in records.items()],
    )
    out = tmp_path / "emb"
    code = run_cli(
        "extract", "--params", str(params), "--features", str(short), "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{ids[-1]} (0x40)" in err and "at least 15 frames" in err
    assert not out.with_suffix(".tsv").exists()

def test_extract_names_non_finite_records_and_exits_2(tmp_path, capsys):
    feats = np.random.default_rng(8).standard_normal((30, 40)).astype(np.float32)
    bad = feats.copy()
    bad[0, 0] = np.nan
    write_archive(tmp_path / "feats", [("ok", feats), ("broken", bad)])
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 1))
    out = tmp_path / "emb"
    code = run_cli(
        "extract", "--params", str(tmp_path / "params.bin"),
        "--features", str(tmp_path / "feats"), "--out", str(out),
    )
    assert code == 2
    assert "non-finite values: broken" in capsys.readouterr().err
    assert not out.with_suffix(".tsv").exists()


def test_train_toy_with_zero_steps_exits_2(cli_workspace, tmp_path, capsys):
    _, _, _, synth, feats = cli_workspace
    params = tmp_path / "params.bin"
    code = run_cli(
        "train-toy", "--features", str(feats), "--manifest", str(synth / "manifest.tsv"),
        "--out", str(params), "--steps", "0",
    )
    assert code == 2
    assert "steps must be >= 1" in capsys.readouterr().err
    assert not params.exists()


def test_train_toy_names_utterances_too_short_to_train_on(cli_workspace, tmp_path, capsys):
    _, _, _, synth, feats = cli_workspace
    records = read_archive(feats)
    ids = list(records)
    short = tmp_path / "short"
    write_archive(
        short,
        [(utt, np.zeros((0, 40), np.float32) if utt == ids[1] else recs[0])
         for utt, recs in records.items()],
    )
    code = run_cli(
        "train-toy", "--features", str(short), "--manifest", str(synth / "manifest.tsv"),
        "--out", str(tmp_path / "params.bin"), "--steps", "1",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{ids[1]} (0x40)" in err and "at least 15 frames" in err


@pytest.mark.parametrize("fault", ["nan", "wide"])
def test_train_toy_names_records_it_cannot_train_on_before_training(
    cli_workspace, tmp_path, capsys, fault
):
    _, _, _, synth, feats = cli_workspace
    records = read_archive(feats)
    ids = list(records)
    bad = records[ids[1]][0].copy()
    if fault == "nan":
        bad[2, 3] = np.nan
    else:
        bad = np.hstack([bad, bad[:, :1]])
    broken = tmp_path / "broken"
    write_archive(
        broken, [(utt, bad if utt == ids[1] else recs[0]) for utt, recs in records.items()]
    )
    params = tmp_path / "params.bin"
    code = run_cli(
        "train-toy", "--features", str(broken), "--manifest", str(synth / "manifest.tsv"),
        "--out", str(params), "--steps", "1",
    )
    assert code == 2
    err = capsys.readouterr().err
    if fault == "nan":
        assert f"1 feature records hold non-finite values: {ids[1]}" in err
    else:
        assert f"{ids[1]} ({len(bad)}x41)" in err and "15 frames of 40 features" in err
    assert not params.exists()


def test_synth_with_augmentation(cli_workspace, tmp_path, capsys):
    _, _, libs, _, _ = cli_workspace
    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    from unitcat.audio import Waveform, save_wav

    rng = np.random.default_rng(0)
    save_wav(
        noise_dir / "n.wav",
        Waveform(rng.integers(-1500, 1500, size=6000, dtype=np.int16), 16000),
    )
    out = tmp_path / "synth"
    code = run_cli(
        "synth", "--libdir", str(libs), "--transcript", "ni hao mi ya",
        "--seed", "7", "--out", str(out),
        "--noise-dir", str(noise_dir), "--snr-list", "0,10",
    )
    assert code == 0
    assert "augmented copies: 18" in capsys.readouterr().out
    report = (out / "augmented" / "augment_report.tsv").read_text().splitlines()
    assert len(report) == 18


def test_synth_with_empty_noise_dir_exits_3(cli_workspace, tmp_path, capsys):
    _, _, libs, _, _ = cli_workspace
    empty = tmp_path / "noise"
    empty.mkdir()
    code = run_cli(
        "synth", "--libdir", str(libs), "--transcript", "ni hao mi ya",
        "--seed", "7", "--out", str(tmp_path / "synth"),
        "--noise-dir", str(empty), "--snr-list", "0",
    )
    assert code == 3
    assert "no .wav files under noise_dir" in capsys.readouterr().err


def test_run_with_empty_rir_dir_exits_3_before_augmenting(cli_workspace, tmp_path, capsys):
    _, corpus, _, _, _ = cli_workspace
    empty = tmp_path / "rirs"
    empty.mkdir()
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"[paths]\ncorpus_dir = {corpus}\nout_dir = {out}\nrir_dir = {empty}\n"
        "[synthesis]\ntranscript = ni hao mi ya\nseed = 7\n"
    )
    assert run_cli("run", "--config", str(cfg), "--stages", "segment,synth,augment") == 3
    assert f"no .wav files under rir_dir {empty}" in capsys.readouterr().err
    assert not (out / "augmented" / "manifest.tsv").exists()


def _run_config(path, corpus, out, noise_dir=None):
    """A run config over corpus; with noise_dir, one noisy copy per SNR 0 and 5."""
    noise = f"noise_dir = {noise_dir}\n" if noise_dir else ""
    path.write_text(
        f"[paths]\ncorpus_dir = {corpus}\nout_dir = {out}\n{noise}"
        "[synthesis]\ntranscript = ni hao mi\nseed = 7\n"
        + ("[augment]\nsnr_list = 0, 5\n" if noise_dir else "")
        + "[train]\nsteps = 1\n"
    )
    return str(path)


def test_run_stages_without_noise_ignore_an_earlier_runs_noisy_copies(tmp_path, capsys):
    from unitcat.audio import Waveform, save_wav

    corpus = tmp_path / "corpus"
    assert run_cli("make-toy", "--out", str(corpus)) == 0
    rng = np.random.default_rng(5)
    save_wav(
        tmp_path / "noise" / "hum.wav",
        Waveform(rng.integers(-1500, 1500, size=6000, dtype=np.int16), 16000),
    )
    out = tmp_path / "out"
    noisy = _run_config(tmp_path / "noisy.cfg", corpus, out, tmp_path / "noise")
    assert run_cli("run", "--config", noisy, "--stages", "segment,synth,augment") == 0
    synthesized = len((out / "synth" / "manifest.tsv").read_text().splitlines())
    copies = len((out / "augmented" / "manifest.tsv").read_text().splitlines())
    assert copies == 2 * synthesized
    capsys.readouterr()

    clean = _run_config(tmp_path / "clean.cfg", corpus, out)
    assert run_cli("run", "--config", clean, "--stages", "featurize,train") == 0
    report = capsys.readouterr().out
    # featurize and train each report the synthesized utterances alone
    assert synthesized == 18
    assert report.count("utterances: 18\n") == 2, report


def test_run_stages_that_augment_refuse_a_missing_augmented_manifest_exit_3(
    cli_workspace, tmp_path, capsys
):
    _, corpus, _, _, _ = cli_workspace
    (tmp_path / "noise").mkdir()
    out = tmp_path / "out"
    noisy = _run_config(tmp_path / "noisy.cfg", corpus, out, tmp_path / "noise")
    assert run_cli("run", "--config", noisy, "--stages", "segment,synth") == 0
    capsys.readouterr()
    for stages in ("featurize", "train"):
        assert run_cli("run", "--config", noisy, "--stages", stages) == 3
        err = capsys.readouterr().err
        assert f"missing augmented manifest: {out / 'augmented' / 'manifest.tsv'}" in err
    assert not (out / "features").exists()


def test_segment_refuses_an_utterance_without_alignment_entries_exit_2(
    cli_workspace, tmp_path, capsys
):
    _, corpus, _, _, _ = cli_workspace
    utt = (corpus / "manifest.tsv").read_text().split("\t", 1)[0]
    ali = tmp_path / "ali.ctm"
    ali.write_text("".join(
        line for line in (corpus / "ali.ctm").read_text().splitlines(keepends=True)
        if line.split()[0] != utt
    ))
    out = tmp_path / "libs"
    code = run_cli(
        "segment", "--manifest", str(corpus / "manifest.tsv"), "--ali", str(ali),
        "--units", "ni hao mi ya", "--out", str(out),
    )
    assert code == 2
    assert f"no alignment entries for utterance {utt!r}" in capsys.readouterr().err
    assert not out.exists()


def test_train_toy_refuses_feature_ids_missing_from_the_manifest_exit_2(
    cli_workspace, tmp_path, capsys
):
    _, _, _, synth, feats = cli_workspace
    first, *rest = (synth / "manifest.tsv").read_text().splitlines(keepends=True)
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("".join(rest))
    params = tmp_path / "params.bin"
    code = run_cli(
        "train-toy", "--features", str(feats), "--manifest", str(manifest),
        "--out", str(params), "--steps", "1",
    )
    assert code == 2
    assert f"feature ids missing from the manifests: {first.split()[0]}" in (
        capsys.readouterr().err
    )
    assert not params.exists()


def test_featurize_specaug_refuses_an_archive_named_train(cli_workspace, tmp_path, capsys):
    _, _, _, synth, _ = cli_workspace
    code = run_cli(
        "featurize", "--manifest", str(synth / "manifest.tsv"),
        "--out", str(tmp_path / "train"), "--specaug",
    )
    assert code == 2
    assert "masked archive" in capsys.readouterr().err


def test_featurize_refused_midway_leaves_existing_archives_unchanged(
    cli_workspace, tmp_path, capsys
):
    _, corpus, _, _, feats = cli_workspace
    # an earlier run's plain and masked archives sit where this run writes
    before = {}
    for name in ("features", "train"):
        for suffix in (".bin", ".tsv"):
            path = tmp_path / f"{name}{suffix}"
            path.write_bytes(feats.with_suffix(suffix).read_bytes())
            before[path] = path.read_bytes()
    # the second utterance names a channel its mono file lacks
    first, second = (corpus / "manifest.tsv").read_text().splitlines()[:2]
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{first}\n{second}\t3\n", encoding="utf-8")
    code = run_cli(
        "featurize", "--manifest", str(manifest), "--audio-root", str(corpus),
        "--out", str(tmp_path / "features"), "--specaug",
    )
    for path, data in before.items():
        assert path.read_bytes() == data, path
    assert code == 2
    assert "channel index 3 is out of range" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["manifest.tsv", *(p.name for p in before)]
    )


@pytest.mark.parametrize("window", ["-3", "0"])
def test_featurize_bad_cmn_window_leaves_existing_archives_unchanged(
    cli_workspace, tmp_path, capsys, window
):
    _, _, _, synth, feats = cli_workspace
    # an earlier run's plain and masked archives sit where this run writes
    before = {}
    for name in ("features", "train"):
        for suffix in (".bin", ".tsv"):
            path = tmp_path / f"{name}{suffix}"
            path.write_bytes(feats.with_suffix(suffix).read_bytes())
            before[path] = path.read_bytes()
    # the CMN window is a recipe constant, so the flag itself is a usage error
    with pytest.raises(SystemExit) as exc:
        run_cli(
            "featurize", "--manifest", str(synth / "manifest.tsv"),
            "--out", str(tmp_path / "features"), "--specaug", "--cmn-window", window,
        )
    for path, data in before.items():
        assert path.read_bytes() == data, path
    assert exc.value.code == 1
    assert "unrecognized arguments: --cmn-window" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in before)


@pytest.mark.parametrize(
    "flag", ["--cmn-window", "--freq-mask-width", "--num-freq-masks", "--time-mask-width",
             "--num-time-masks"]
)
def test_featurize_has_no_flag_for_a_recipe_constant(flag):
    with pytest.raises(SystemExit) as exc:
        run_cli("featurize", "--manifest", "m", "--out", "o", flag, "5")
    assert exc.value.code == 1


def test_cli_stages_match_run_byte_for_byte(tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["make-toy", "--out", str(corpus), "--speakers", "2"]) == 0
    out = tmp_path / "out"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 5\n"
        "[features]\n"
        "spec_augment = true\n"
        "[train]\n"
        "steps = 3\n"
        "learn_rate = 0.05\n"
    )
    assert run_cli("run", "--config", str(cfg)) == 0

    cli = tmp_path / "cli"
    manifest = str(out / "synth" / "manifest.tsv")
    steps = [
        ("synth", "--libdir", str(out / "libraries"), "--transcript", "ni hao mi ya",
         "--seed", "5", "--out", str(cli / "synth")),
        ("featurize", "--manifest", manifest, "--out", str(cli / "features" / "features"),
         "--specaug", "--seed", "5"),
        ("train-toy", "--features", str(cli / "features" / "train"), "--manifest", manifest,
         "--out", str(cli / "model" / "params.bin"), "--steps", "3", "--lr", "0.05",
         "--seed", "5"),
        ("extract", "--params", str(cli / "model" / "params.bin"),
         "--features", str(cli / "features" / "features"),
         "--out", str(cli / "embeddings" / "embeddings")),
        ("score", "--trials", str(corpus / "trials.tsv"),
         "--embeddings", str(cli / "embeddings" / "embeddings"),
         "--out", str(cli / "scores" / "scores.txt")),
    ]
    for argv in steps:
        assert run_cli(*argv) == 0, argv

    compared = 0
    for stage in ("synth", "features", "model", "embeddings", "scores"):
        run_files = sorted(p for p in (out / stage).rglob("*") if p.is_file())
        cli_files = sorted(p for p in (cli / stage).rglob("*") if p.is_file())
        assert [p.relative_to(out) for p in run_files] == [
            p.relative_to(cli) for p in cli_files
        ]
        for a, b in zip(run_files, cli_files):
            assert a.read_bytes() == b.read_bytes(), a.relative_to(out)
            compared += 1
    assert compared > 15  # 9 synthesized WAVs and every stage's artifacts


def test_kws_eval_command(tmp_path, capsys):
    labels = ("sil", "ni", "hao")
    save_labels(tmp_path / "labels.txt", labels)

    def stream(peaks):
        probs = np.full((30, 3), 0.05)
        for frame, col, value in peaks:
            probs[frame, col] = value
        probs[:, 0] = 1.0 - probs[:, 1:].sum(axis=1)
        return probs.astype(np.float32)

    pos = [
        (f"p{i}", stream([(5 + i, 1, 0.9), (20 + i, 2, 0.85)])) for i in range(3)
    ]
    neg = [(f"n{i}", stream([])) for i in range(3)]
    write_archive(tmp_path / "pos", pos)
    write_archive(tmp_path / "neg", neg)

    out = tmp_path / "kws_roc.tsv"
    code = run_cli(
        "kws-eval", "--pos", str(tmp_path / "pos"), "--neg", str(tmp_path / "neg"),
        "--labels", str(tmp_path / "labels.txt"), "--keyword", "ni hao",
        "--smooth", "3", "--search", "30", "--out", str(out),
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "frr_at_far_0.01 = 0.000000" in printed
    assert "frr_at_far_0.001 = 0.000000" in printed
    assert out.read_text().startswith("threshold\tfar\tfrr\n")


def test_run_command_validate_only(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        "[synthesis]\n"
        "transcript = ni hao\n"
        "seed = 1\n"
    )
    assert run_cli("run", "--config", str(cfg), "--stages", "none") == 0
    assert "config valid" in capsys.readouterr().out


def test_run_refuses_zero_training_steps_before_any_stage(tmp_path, capsys):
    out_dir = tmp_path / "out"
    model = out_dir / "model" / "params.bin"
    model.parent.mkdir(parents=True)
    model.write_bytes(b"earlier model")
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        "[paths]\n"
        f"corpus_dir = {tmp_path / 'corpus'}\n"
        f"out_dir = {out_dir}\n"
        "[synthesis]\n"
        "transcript = ni hao\n"
        "seed = 1\n"
        "[train]\n"
        "steps = 0\n"
    )
    assert run_cli("run", "--config", str(cfg), "--stages", "train") == 2
    assert "train.steps" in capsys.readouterr().err
    assert model.read_bytes() == b"earlier model"


def test_run_command_executes_stages(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["make-toy", "--out", str(corpus), "--speakers", "2"]) == 0
    out_dir = tmp_path / "out"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out_dir}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 5\n"
    )
    assert run_cli("run", "--config", str(cfg), "--stages", "segment,synth") == 0
    printed = capsys.readouterr().out
    assert "[segment]" in printed
    assert "[synth]" in printed
    wav = out_dir / "synth" / "wav" / "spk0-synth-000.wav"
    first = wav.read_bytes()
    # same stage, same seed: byte-stable
    assert run_cli("run", "--config", str(cfg), "--stages", "synth") == 0
    assert wav.read_bytes() == first
    # the seed override changes the synthesized audio
    assert run_cli("run", "--config", str(cfg), "--stages", "synth", "--seed", "99") == 0
    assert wav.read_bytes() != first


def test_plot_roc_names_a_malformed_line(tmp_path, capsys):
    roc = tmp_path / "roc.tsv"
    roc.write_text("threshold\tfar\tfrr\n0.9\t0\t0.5\n0.8\t0.25\tnone\n")
    svg = tmp_path / "roc.svg"
    assert run_cli("plot-roc", "--roc", str(roc), "--out", str(svg)) == 2
    assert "roc line 3" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize(
    "key", ["cmn_window", "freq_mask_width", "num_freq_masks", "time_mask_width", "num_time_masks"]
)
def test_run_refuses_a_removed_feature_key_before_the_first_stage(tmp_path, capsys, key):
    out_dir = tmp_path / "out"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        f"[paths]\ncorpus_dir = {tmp_path / 'corpus'}\nout_dir = {out_dir}\n"
        "[synthesis]\ntranscript = ni hao mi ya\nseed = 5\n"
        f"[features]\nspec_augment = true\n{key} = 1\n"
    )
    assert run_cli("run", "--config", str(cfg)) == 2
    assert f"line 9: unknown key features.{key}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "section, setting", [("augment", "snr_list = 0, nan"), ("metrics", "p_target = 1.5")]
)
def test_run_refuses_bad_values_before_the_first_stage(tmp_path, capsys, section, setting):
    corpus = tmp_path / "corpus"
    assert main(["make-toy", "--out", str(corpus), "--speakers", "2"]) == 0
    out_dir = tmp_path / "out"
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out_dir}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 5\n"
        "[train]\n"
        "steps = 1\n"
        f"[{section}]\n"
        f"{setting}\n"
    )
    assert run_cli("run", "--config", str(cfg)) == 2
    key = setting.split(" = ")[0]
    assert f"line 10: bad value for {section}.{key}" in capsys.readouterr().err
    assert not (out_dir / "libraries").exists()
