import dataclasses
import tracemalloc

import numpy as np
import pytest

from unitcat import pipeline
from unitcat.audio import save_wav, Waveform
from unitcat.archive import read_archive, write_archive
from unitcat.config import ConfigError, validate_config
from unitcat.corpus import UtteranceRecord, load_manifest, save_manifest
from unitcat.rng import derive_seed
from unitcat.features import SpecAugmentParams
from unitcat.scoring import parse_scores
from unitcat.pipeline import (
    STAGES,
    PipelineError,
    extract_embeddings,
    parse_stages,
    run_pipeline,
)
from unitcat.tdnn import TdnnConfig, init_tdnn, load_params, save_params
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


@pytest.fixture(scope="module")
def augmented_run(tmp_path_factory):
    """The prep stages of a toy run with a noise file, two SNRs and an RIR."""
    base = tmp_path_factory.mktemp("aug")
    corpus = base / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    rng = np.random.default_rng(1)
    save_wav(
        base / "noises" / "babble.wav",
        Waveform(rng.integers(-2000, 2000, size=8000, dtype=np.int16), 16000),
    )
    rir = np.zeros(400, dtype=np.int16)
    rir[0], rir[120] = 20000, 6000
    save_wav(base / "rirs" / "room.wav", Waveform(rir, 16000))
    out = base / "out"
    cfg = validate_config(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out}\n"
        f"noise_dir = {base / 'noises'}\n"
        f"rir_dir = {base / 'rirs'}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 11\n"
        "[augment]\n"
        "snr_list = 0, 10\n"
    )
    run_pipeline(cfg, ("segment", "synth", "augment", "featurize"))
    return cfg, out


def test_run_writes_one_wav_per_library_and_per_augmented_utterance(augmented_run):
    _, out = augmented_run
    libs = out / "libraries"
    speakers = sorted(p.name for p in libs.iterdir())
    assert speakers == ["spk0", "spk1"]
    wavs = sorted(p.relative_to(libs).as_posix() for p in libs.rglob("*.wav"))
    assert wavs == [f"{spk}/segments.wav" for spk in speakers]
    assert not any((libs / spk / "wav").exists() for spk in speakers)

    synth_ids = [r.utterance_id for r in load_manifest(out / "synth" / "manifest.tsv")]
    augmented = out / "augmented"
    wavs = sorted(p.relative_to(augmented).as_posix() for p in augmented.rglob("*.wav"))
    assert wavs == sorted(f"wav/{utt}.wav" for utt in synth_ids)
    records = load_manifest(augmented / "manifest.tsv")
    assert [(r.audio_path, r.channel_index) for r in records] == [
        (f"wav/{utt}.wav", channel) for utt in synth_ids for channel in range(3)
    ]


def test_featurize_reads_each_audio_file_once(augmented_run, monkeypatch, tmp_path):
    cfg, out = augmented_run
    loaded = []
    real_load_wav = pipeline.load_wav

    def counting_load_wav(path):
        loaded.append(path)
        return real_load_wav(path)

    monkeypatch.setattr(pipeline, "load_wav", counting_load_wav)
    sources = pipeline._corpus_sources(cfg, out)
    lines = pipeline.featurize_corpus(sources, tmp_path / "features", None, 0)
    paths = [root / r.audio_path for manifest, root in sources for r in load_manifest(manifest)]
    assert lines[0] == f"utterances: {len(paths)}" == "utterances: 36"
    # 9 synthesized files, then 9 packed files of three copies each
    assert len(set(paths)) == 18
    assert sorted(loaded) == sorted(set(paths))


def test_packed_copies_featurize_as_one_file_per_copy(augmented_run, tmp_path):
    _, out = augmented_run
    augmented = out / "augmented"
    # the same copies, each written to its own mono file
    split = tmp_path / "split"
    records = []
    for rec in load_manifest(augmented / "manifest.tsv"):
        packed = pipeline.load_wav(augmented / rec.audio_path)
        path = f"wav/{rec.utterance_id}.wav"
        channel = packed.samples[rec.channel_index].copy()
        save_wav(split / path, Waveform(channel, packed.sample_rate))
        records.append(UtteranceRecord(rec.utterance_id, rec.speaker_id, rec.transcript, path))
    save_manifest(split / "manifest.tsv", records)
    specaug = SpecAugmentParams(4, 1, 6, 1)
    for name, root in (("packed", augmented), ("split", split)):
        pipeline.featurize_corpus(
            [(root / "manifest.tsv", root)], tmp_path / name / "feats", specaug, 3
        )
    for archive in ("feats.tsv", "feats.bin", "train.tsv", "train.bin"):
        packed_bytes = (tmp_path / "packed" / archive).read_bytes()
        assert packed_bytes == (tmp_path / "split" / archive).read_bytes()


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


def test_extract_runs_one_forward_pass_over_every_record_in_archive_order(
    tmp_path, monkeypatch
):
    rng = np.random.default_rng(5)
    records = [("b", 31), ("a", 40), ("b", 17), ("c", 60)]
    feats = [rng.standard_normal((t, 40)).astype(np.float32) for _, t in records]
    write_archive(tmp_path / "feats", [(utt, f) for (utt, _), f in zip(records, feats)])
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))
    calls = []
    real_forward = pipeline.forward

    def forward(params, batch, *rest):
        calls.append(batch)
        return real_forward(params, batch, *rest)

    monkeypatch.setattr(pipeline, "forward", forward)
    extract_embeddings(tmp_path / "params.bin", tmp_path / "feats", tmp_path / "emb")
    assert len(calls) == 1
    # archive order: ids by first appearance, each id's records in turn
    assert [np.asarray(f).tolist() for f in calls[0]] == [feats[i].tolist() for i in (0, 2, 1, 3)]
    embeddings = read_archive(tmp_path / "emb")
    assert [(utt, len(recs)) for utt, recs in embeddings.items()] == [("b", 2), ("a", 1), ("c", 1)]


def test_extract_refuses_non_finite_records_naming_them(tmp_path):
    rng = np.random.default_rng(6)
    good = rng.standard_normal((30, 40)).astype(np.float32)
    nan, inf = good.copy(), good.copy()
    nan[3, 7] = np.nan
    inf[29, 0] = -np.inf
    write_archive(tmp_path / "feats", [("a", good), ("b", nan), ("c", good), ("d", inf)])
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))
    with pytest.raises(ValueError, match=r"2 feature records hold non-finite values: b, d"):
        extract_embeddings(tmp_path / "params.bin", tmp_path / "feats", tmp_path / "emb")
    assert not (tmp_path / "emb.tsv").exists()


def test_extract_checks_values_through_one_open_data_file(tmp_path, monkeypatch):
    import builtins

    feats = np.random.default_rng(8).standard_normal((4, 30, 40)).astype(np.float32)
    write_archive(tmp_path / "feats", [(f"u{i}", f) for i, f in enumerate(feats)])
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))
    data = tmp_path / "feats.bin"
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == str(data):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    extract_embeddings(tmp_path / "params.bin", tmp_path / "feats", tmp_path / "emb")
    # one open serves the non-finite check and forward's stacking alike
    assert len(opens) == 1


def test_extract_runs_forward_on_float32_weights(tmp_path, monkeypatch):
    feats = np.random.default_rng(9).standard_normal((30, 40)).astype(np.float32)
    write_archive(tmp_path / "feats", [("a", feats)])
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))
    dtypes = []
    real_forward = pipeline.forward

    def forward(params, batch):
        dtypes.extend(t.dtype for t in params.tensors.values())
        return real_forward(params, batch)

    monkeypatch.setattr(pipeline, "forward", forward)
    extract_embeddings(tmp_path / "params.bin", tmp_path / "feats", tmp_path / "emb")
    assert dtypes and set(dtypes) == {np.dtype(np.float32)}


def test_training_runs_in_float32_and_saves_the_weights_it_trained(tmp_path, monkeypatch):
    rng = np.random.default_rng(10)
    records = [("a1", "spkA"), ("a2", "spkA"), ("b1", "spkB"), ("b2", "spkB")]
    write_archive(
        tmp_path / "feats",
        [(utt, rng.standard_normal((40, 40)).astype(np.float32)) for utt, _ in records],
    )
    save_manifest(
        tmp_path / "manifest.tsv",
        [UtteranceRecord(utt, spk, ("ni",), f"{utt}.wav") for utt, spk in records],
    )
    steps = []
    real_step = pipeline.train_step

    def step(params, batch, lr, aam, work=None):
        trained, loss = real_step(params, batch, lr, aam, work)
        steps.append((params, work, trained))
        return trained, loss

    monkeypatch.setattr(pipeline, "train_step", step)
    pipeline.train_model(
        tmp_path / "feats", [tmp_path / "manifest.tsv"], tmp_path / "params.bin", 3, 0.05, 7
    )
    # the float64 draw, rounded once
    drawn = init_tdnn(TdnnConfig(num_classes=2), derive_seed(7, "init"))
    for name, t in drawn.tensors.items():
        assert np.array_equal(steps[0][0].tensors[name], t.astype(np.float32)), name
    work = steps[0][1]
    assert all(w is work for _, w, _ in steps)
    assert work.buffers and all(buf.dtype == np.float32 for buf in work.buffers)
    trained = steps[-1][2]
    narrow = load_params(tmp_path / "params.bin", np.float32)
    wide = load_params(tmp_path / "params.bin")
    for name, t in trained.tensors.items():
        assert t.dtype == np.float32, name
        assert np.array_equal(narrow.tensors[name], t), name
        assert np.array_equal(wide.tensors[name], t.astype(np.float64)), name


def test_float32_extract_scores_a_trained_toy_as_float64_does(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(3, uncovered_speakers=("spk2",)))
    cfg = dataclasses.replace(_config(corpus, tmp_path / "out"), train_steps=30)
    run_pipeline(cfg, STAGES)
    out = tmp_path / "out"

    def scores_and_metrics():
        with open(out / "scores" / "scores.txt", encoding="utf-8") as lines:
            scores = parse_scores(lines).scores
        return scores, (out / "eval" / "metrics.txt").read_bytes()

    narrow = scores_and_metrics()
    real_load = pipeline.load_params
    monkeypatch.setattr(pipeline, "load_params", lambda path, dtype: real_load(path))
    run_pipeline(cfg, ("extract", "score", "eval"))
    wide = scores_and_metrics()
    assert len(narrow[0]) == len(wide[0]) > 0
    assert np.max(np.abs(narrow[0] - wide[0])) <= 1e-6
    assert narrow[1] == wide[1]


def test_extract_writes_no_archive_when_the_forward_pass_fails(tmp_path, monkeypatch):
    feats = np.random.default_rng(7).standard_normal((30, 40)).astype(np.float32)
    write_archive(tmp_path / "feats", [("a", feats), ("b", feats)])
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))

    def forward(*args):
        raise FloatingPointError("forward failed")

    monkeypatch.setattr(pipeline, "forward", forward)
    with pytest.raises(FloatingPointError):
        extract_embeddings(tmp_path / "params.bin", tmp_path / "feats", tmp_path / "emb")
    assert not (tmp_path / "emb.tsv").exists()
    assert not (tmp_path / "emb.bin").exists()


def test_extract_memory_does_not_grow_with_the_archive(tmp_path):
    save_params(tmp_path / "params.bin", init_tdnn(TdnnConfig(num_classes=2), 5))
    rng = np.random.default_rng(8)

    def archive_and_peak(n):
        base = tmp_path / f"feats{n}"
        write_archive(base, ((f"u{i}", rng.standard_normal((100, 40))) for i in range(n)))
        tracemalloc.start()
        try:
            extract_embeddings(tmp_path / "params.bin", base, tmp_path / f"emb{n}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return base.with_suffix(".bin").stat().st_size, peak

    small_bytes, small_peak = archive_and_peak(100)
    large_bytes, large_peak = archive_and_peak(400)
    assert large_peak - small_peak < 0.5 * (large_bytes - small_bytes), (small_peak, large_peak)


def test_featurize_and_train_each_own_one_workspace_per_call(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    cfg = validate_config(
        f"[paths]\ncorpus_dir = {corpus}\nout_dir = {tmp_path / 'out'}\n"
        "[synthesis]\ntranscript = ni hao mi ya\nseed = 3\n[train]\nsteps = 3\n"
    )
    seen = {"fbank": [], "step": []}
    real_fbank, real_step = pipeline.compute_fbank, pipeline.train_step

    def fbank(w, work=None):
        seen["fbank"].append(work)
        return real_fbank(w, work)

    def step(params, batch, lr, aam, work=None):
        seen["step"].append(work)
        return real_step(params, batch, lr, aam, work)

    monkeypatch.setattr(pipeline, "compute_fbank", fbank)
    monkeypatch.setattr(pipeline, "train_step", step)
    stages = ("segment", "synth", "featurize", "train")
    run_pipeline(cfg, stages)
    first = {key: list(works) for key, works in seen.items()}
    run_pipeline(cfg, stages)
    for key, works in first.items():
        assert len(works) > 1 and works[0] is not None, key
        assert all(w is works[0] for w in works), key
        # a rerun's loop owns a workspace of its own
        assert seen[key][len(works)] is not works[0], key


def test_score_and_eval_hold_few_bytes_per_trial(tmp_path):
    # trials and scores are kept as index and value arrays, and their files
    # are streamed; holding a file's text plus an object per trial and per
    # sweep point costs 300-500 bytes per trial
    rng = np.random.default_rng(5)
    ids = [f"spk{i // 10:02d}-utt{i % 10}" for i in range(300)]
    write_archive(tmp_path / "emb", ((utt_id, rng.standard_normal(256)) for utt_id in ids))
    n = 50_000
    with open(tmp_path / "trials.tsv", "w", encoding="utf-8") as f:
        f.writelines(
            f"{ids[e]} {ids[t]} {'target' if e // 10 == t // 10 else 'nontarget'}\n"
            for e, t in rng.integers(len(ids), size=(n, 2)).tolist()
        )

    def peak_bytes_per_trial(stage, *args):
        tracemalloc.start()
        try:
            stage(*args)
            return tracemalloc.get_traced_memory()[1] / n
        finally:
            tracemalloc.stop()

    scores = tmp_path / "scores.txt"
    score = peak_bytes_per_trial(
        pipeline.score_embeddings, tmp_path / "trials.tsv", tmp_path / "emb", scores
    )
    evaluate = peak_bytes_per_trial(
        pipeline.evaluate_scores, scores, 0.01, 1.0, 1.0, tmp_path / "roc.tsv"
    )
    assert score < 150, score
    assert evaluate < 150, evaluate
