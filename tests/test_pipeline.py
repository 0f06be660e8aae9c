import numpy as np
import pytest

from unitcat.audio import save_wav, Waveform
from unitcat.archive import read_archive, write_archive
from unitcat.config import ConfigError, validate_config
from unitcat.pipeline import (
    STAGES,
    PipelineError,
    extract_embeddings,
    parse_stages,
    run_pipeline,
)
from unitcat.tdnn import TdnnConfig, init_tdnn, save_params
from unitcat.toydata import default_speaker_specs, make_toy_corpus


def _config(corpus_dir, out_dir):
    return validate_config(
        "[paths]\n"
        f"corpus_dir = {corpus_dir}\n"
        f"out_dir = {out_dir}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 2024\n"
        "[train]\n"
        "steps = 25\n"
        "learn_rate = 0.05\n"
    )


def _tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("pipe")
    corpus = base / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(3, uncovered_speakers=("spk2",)))
    out = base / "out"
    cfg = _config(corpus, out)
    report = run_pipeline(cfg, STAGES)
    return cfg, out, report


def test_parse_stages():
    assert parse_stages(None) == STAGES
    assert parse_stages("") == ()
    assert parse_stages("none") == ()
    # canonical pipeline order regardless of how they are listed
    assert parse_stages("synth,segment") == ("segment", "synth")
    assert parse_stages(" eval , score ") == ("score", "eval")
    with pytest.raises(ConfigError, match="warp"):
        parse_stages("segment,warp")


def test_no_stages_only_validates(tmp_path):
    cfg = _config(tmp_path / "nope", tmp_path / "out")
    text = run_pipeline(cfg, ())
    assert text == "config valid; no stages requested\n"
    assert not (tmp_path / "out").exists()


def test_report_structure(full_run):
    _, out, report = full_run
    for stage in STAGES:
        assert f"[{stage}]" in report
    assert (out / "report.txt").read_text() == report
    assert "spk0: ni:3 hao:2 mi:5 ya:1 covered=yes max_count=5" in report
    assert "spk2: ni:0" in report
    assert "covered=no" in report
    assert "skipped spk2: missing ni" in report
    assert "nothing configured, skipped" in report  # augment had no noise/rir
    assert "eer_percent" in report


def test_artifact_tree(full_run):
    _, out, _ = full_run
    assert (out / "libraries" / "spk0" / "segments.tsv").is_file()
    assert (out / "synth" / "manifest.tsv").is_file()
    assert (out / "synth" / "plans.tsv").is_file()
    assert (out / "synth" / "skips.tsv").read_text() == "spk2\tni\n"
    assert (out / "features" / "features.bin").is_file()
    assert (out / "model" / "params.bin").is_file()
    assert (out / "embeddings" / "embeddings.tsv").is_file()
    assert (out / "scores" / "scores.txt").is_file()
    assert (out / "eval" / "metrics.txt").is_file()
    assert (out / "eval" / "roc.tsv").is_file()
    assert (out / "eval" / "roc.svg").is_file()


def test_synth_counts_follow_library_maxima(full_run):
    _, out, _ = full_run
    manifest = (out / "synth" / "manifest.tsv").read_text().splitlines()
    per_speaker = {}
    for line in manifest:
        spk = line.split("\t")[1]
        per_speaker[spk] = per_speaker.get(spk, 0) + 1
    assert per_speaker == {"spk0": 5, "spk1": 4}


def test_features_cover_all_synthesized(full_run):
    _, out, _ = full_run
    feats = read_archive(out / "features" / "features")
    manifest = (out / "synth" / "manifest.tsv").read_text().splitlines()
    ids = {line.split("\t")[0] for line in manifest}
    assert set(feats) == ids
    for records in feats.values():
        assert records[0].shape[1] == 40


def test_embeddings_are_256_dim(full_run):
    _, out, _ = full_run
    embeddings = read_archive(out / "embeddings" / "embeddings")
    assert len(embeddings) == 9
    for records in embeddings.values():
        assert records[0].shape == (1, 256)


def test_training_reduced_loss(full_run):
    _, _, report = full_run
    lines = dict(
        line.split(": ") for line in report.splitlines() if ": " in line and "_loss" in line
    )
    assert float(lines["final_loss"]) < float(lines["first_loss"])


def test_rerun_is_idempotent(full_run):
    cfg, out, report = full_run
    before = _tree_bytes(out)
    report2 = run_pipeline(cfg, STAGES)
    assert report2 == report
    assert _tree_bytes(out) == before


def test_missing_stage_inputs_fail_with_path(tmp_path):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    cfg = _config(corpus, tmp_path / "out")
    with pytest.raises(PipelineError, match="library"):
        run_pipeline(cfg, ("synth",))
    with pytest.raises(PipelineError, match="feature archive"):
        run_pipeline(cfg, ("train",))
    with pytest.raises(PipelineError, match="score file"):
        run_pipeline(cfg, ("eval",))


def test_missing_corpus_manifest(tmp_path):
    cfg = _config(tmp_path / "ghost", tmp_path / "out")
    with pytest.raises(PipelineError, match="manifest"):
        run_pipeline(cfg, ("segment",))


def test_single_speaker_training_rejected(tmp_path):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(1))
    cfg = _config(corpus, tmp_path / "out")
    with pytest.raises(PipelineError, match="2 speakers"):
        run_pipeline(cfg, ("segment", "synth", "featurize", "train"))


def test_augment_stage_requires_noise_files(tmp_path):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    empty = tmp_path / "noises"
    empty.mkdir()
    cfg = validate_config(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {tmp_path / 'out'}\n"
        f"noise_dir = {empty}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 2024\n"
        "[augment]\n"
        "snr_list = 5\n"
    )
    with pytest.raises(PipelineError, match="no .wav files"):
        run_pipeline(cfg, ("segment", "synth", "augment"))


def test_augmented_copies_flow_into_features(tmp_path):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    noise_dir = tmp_path / "noises"
    noise_dir.mkdir()
    rng = np.random.default_rng(1)
    save_wav(
        noise_dir / "babble.wav",
        Waveform(rng.integers(-2000, 2000, size=8000, dtype=np.int16), 16000),
    )
    out = tmp_path / "out"
    cfg = validate_config(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out}\n"
        f"noise_dir = {noise_dir}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 11\n"
        "[augment]\n"
        "snr_list = 0, 10\n"
    )
    report = run_pipeline(cfg, ("segment", "synth", "augment", "featurize"))
    # 9 clean utterances, two SNR copies each
    assert "augmented copies: 18" in report
    feats = read_archive(out / "features" / "features")
    assert len(feats) == 9 + 18
    assert any(utt.endswith("-noise10") for utt in feats)


def test_spec_augment_creates_separate_training_archive(tmp_path):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    out = tmp_path / "out"
    cfg = validate_config(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 11\n"
        "[features]\n"
        "spec_augment = true\n"
    )
    report = run_pipeline(cfg, ("segment", "synth", "featurize"))
    assert "masking: on" in report
    plain = read_archive(out / "features" / "features")
    masked = read_archive(out / "features" / "train")
    assert set(plain) == set(masked)
    changed = sum(
        int(not np.array_equal(plain[u][0], masked[u][0])) for u in plain
    )
    assert changed > 0


def test_rerun_without_noise_drops_the_old_noisy_copies(tmp_path):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    noise_dir = tmp_path / "noises"
    noise_dir.mkdir()
    rng = np.random.default_rng(1)
    save_wav(
        noise_dir / "babble.wav",
        Waveform(rng.integers(-2000, 2000, size=8000, dtype=np.int16), 16000),
    )
    out = tmp_path / "out"
    base = (
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out}\n"
        "{noise}"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 11\n"
        "[augment]\n"
        "snr_list = 0\n"
    )
    stages = ("segment", "synth", "augment", "featurize")
    noisy = run_pipeline(validate_config(base.format(noise=f"noise_dir = {noise_dir}\n")), stages)
    assert "synthesized: 9" in noisy
    assert "utterances: 18" in noisy

    clean = run_pipeline(validate_config(base.format(noise="")), stages)
    assert "nothing configured, skipped" in clean
    assert "utterances: 9" in clean
    assert not (out / "augmented").exists()
    assert len(read_archive(out / "features" / "features")) == 9


def test_extract_embeds_every_record_of_an_id(tmp_path):
    feats = np.random.default_rng(3).standard_normal((3, 30, 40)).astype(np.float32)
    write_archive(tmp_path / "feats", [("a", feats[0]), ("a", feats[1]), ("b", feats[2])])
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))
    lines = extract_embeddings(tmp_path / "params.bin", tmp_path / "feats", tmp_path / "emb")
    assert lines == ["embeddings: 3"]
    embeddings = read_archive(tmp_path / "emb")
    assert [len(embeddings["a"]), len(embeddings["b"])] == [2, 1]
    assert not np.array_equal(embeddings["a"][0], embeddings["a"][1])


def test_extract_checks_every_record_before_embedding_any(tmp_path):
    rng = np.random.default_rng(4)
    write_archive(
        tmp_path / "feats",
        [("a", rng.standard_normal((30, 40)).astype(np.float32)),
         ("b", rng.standard_normal((30, 24)).astype(np.float32)),
         ("c", rng.standard_normal((14, 40)).astype(np.float32))],
    )
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))
    with pytest.raises(ValueError, match=r"2 differ: b \(30x24\), c \(14x40\)"):
        extract_embeddings(tmp_path / "params.bin", tmp_path / "feats", tmp_path / "emb")
    assert not (tmp_path / "emb.tsv").exists()
