import numpy as np

from unitcat.audio import load_wav
from unitcat.corpus import group_alignments, load_alignment, load_manifest
from unitcat.scoring import load_trials
from unitcat.segmentation import build_library, extract_segments, library_stats
from unitcat.toydata import (
    DEFAULT_UNITS,
    default_speaker_specs,
    make_toy_corpus,
    unit_tone,
)

from feature_classes import make_feature_classes


def test_default_specs_counts_and_uncovered():
    specs = default_speaker_specs(5, uncovered_speakers=("spk2",))
    assert [s.speaker_id for s in specs] == [f"spk{k}" for k in range(5)]
    assert specs[0].unit_counts == {"ni": 3, "hao": 2, "mi": 5, "ya": 1}
    assert specs[0].expected_synth_count() == 5
    assert specs[2].unit_counts["ni"] == 0
    assert not specs[2].covered(DEFAULT_UNITS)
    assert specs[0].covered(DEFAULT_UNITS)
    # distinct voices
    assert len({s.fundamental_hz for s in specs}) == 5


def test_unit_tones_distinct_across_occurrences():
    spec = default_speaker_specs(1)[0]
    a = unit_tone(spec, DEFAULT_UNITS, "ni", 0, 16000)
    b = unit_tone(spec, DEFAULT_UNITS, "ni", 1, 16000)
    assert len(a) == len(b)
    assert not np.array_equal(a, b)


def test_toy_corpus_artifacts_are_consistent(tmp_path):
    specs = default_speaker_specs(3, uncovered_speakers=("spk2",))
    corpus = make_toy_corpus(tmp_path, specs)

    records = load_manifest(corpus.manifest_path)
    assert len(records) > 0
    for rec in records:
        assert (tmp_path / rec.audio_path).is_file()

    groups = group_alignments(load_alignment(corpus.alignment_path))
    assert set(groups) == {r.utterance_id for r in records}

    # alignment entries tile each waveform exactly
    for rec in records:
        w = load_wav(tmp_path / rec.audio_path)
        entries = groups[rec.utterance_id]
        assert entries[0].start == 0.0
        assert round(entries[-1].end * corpus.sample_rate) == w.num_samples
        assert abs(entries[-1].end * corpus.sample_rate - w.num_samples) < 0.01
        non_sil = [e.unit for e in entries if e.unit != "sil"]
        assert tuple(non_sil) == rec.transcript

    trials = load_trials(corpus.trials_path)
    assert trials.is_target.any()
    assert not trials.is_target.all()
    # trials only reference covered speakers (spk0, spk1)
    for utt_id in trials.ids:
        assert not utt_id.startswith("spk2")


def test_toy_corpus_segments_match_declared_counts(tmp_path):
    specs = default_speaker_specs(2)
    corpus = make_toy_corpus(tmp_path, specs)
    groups = group_alignments(load_alignment(corpus.alignment_path))
    for spec in specs:
        segments = []
        for rec in load_manifest(corpus.manifest_path):
            if rec.speaker_id != spec.speaker_id:
                continue
            w = load_wav(tmp_path / rec.audio_path)
            segments.extend(
                extract_segments(w, groups[rec.utterance_id], spec.speaker_id)
            )
        stats = library_stats(build_library(segments, DEFAULT_UNITS), DEFAULT_UNITS)
        assert stats.counts == spec.unit_counts
        assert stats.max_count == spec.expected_synth_count()


def test_make_feature_classes_shapes_and_determinism():
    batch = make_feature_classes(3, per_class=2, num_frames=18, seed=5)
    assert len(batch) == 6
    assert sorted({label for _, label in batch}) == [0, 1, 2]
    for feats, _ in batch:
        assert feats.shape == (18, 40)
    again = make_feature_classes(3, per_class=2, num_frames=18, seed=5)
    for (fa, la), (fb, lb) in zip(batch, again):
        assert la == lb
        assert np.array_equal(fa, fb)
    other = make_feature_classes(3, per_class=2, num_frames=18, seed=6)
    assert not np.array_equal(batch[0][0], other[0][0])


def test_feature_classes_are_separated():
    batch = make_feature_classes(2, per_class=3, num_frames=10, seed=7)
    means = {}
    for feats, label in batch:
        means.setdefault(label, []).append(feats.mean(axis=0))
    center0 = np.mean(means[0], axis=0)
    center1 = np.mean(means[1], axis=0)
    between = float(np.linalg.norm(center0 - center1))
    within = max(
        float(np.linalg.norm(m - np.mean(means[label], axis=0)))
        for label in means
        for m in means[label]
    )
    assert between > 5 * within
