"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print. Every check here re-derives its expectation from
artifacts or from an independent oracle rather than trusting the code
under test.
"""

import math
import time
import wave
from contextlib import contextmanager

import numpy as np

from unitcat.audio import Waveform, save_wav
from unitcat.config import validate_config
from unitcat.features import (
    SpecAugmentParams,
    draw_masks,
    frame_count,
    sliding_mean_normalize,
    spec_augment,
)
from unitcat.kws import KeywordSpec, PosteriorStream, frr_at_far, kws_roc, utterance_confidence
from unitcat.pipeline import STAGES, run_pipeline, segment_corpus
from unitcat.scoring import ScoreSet, compute_eer, compute_min_dcf
from unitcat.segmentation import list_library_speakers, load_library
from unitcat.synthesis import convolve_rir, mix_noise, synthesize_corpus
from unitcat.tdnn import (
    AamParams,
    TdnnConfig,
    average_embeddings,
    forward,
    forward_activations,
    init_tdnn,
    layer_dims,
    loss_and_grads,
    stats_pool,
    train_step,
    transfer_init,
)
from unitcat.toydata import default_speaker_specs, make_toy_corpus

from feature_classes import make_feature_classes

SILENCE = frozenset({"sil", "spn"})


@contextmanager
def criterion(num: int, title: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(f"took {elapsed:.1f}s, budget {budget_s:.0f}s")
    except BaseException:
        print(f"FAIL criterion {num}: {title}")
        raise
    print(f"PASS criterion {num}: {title}")


def _wav_payload(path) -> bytes:
    """Raw sample bytes via the stdlib RIFF reader, independent of unitcat.audio."""
    with wave.open(str(path), "rb") as f:
        assert f.getnchannels() == 1 and f.getsampwidth() == 2
        return f.readframes(f.getnframes())


def _build_toy_libraries(tmp_path, specs):
    corpus = make_toy_corpus(tmp_path / "corpus", specs)
    libdir = tmp_path / "libs"
    segment_corpus(
        corpus.manifest_path, corpus.alignment_path, corpus.root,
        corpus.units, SILENCE, libdir,
    )
    libs = [load_library(libdir / spk) for spk in list_library_speakers(libdir)]
    return corpus, libdir, libs


# --- 1: synthesized bytes equal the planned slices --------------------------


def test_criterion_1_synthesis_bytes(tmp_path):
    with criterion(1, "synthesized audio is the byte-exact concatenation of its plan", 10.0):
        corpus, libdir, libs = _build_toy_libraries(tmp_path, default_speaker_specs(5))
        synth_dir = tmp_path / "synth"
        report = synthesize_corpus(libs, corpus.units, seed=41, out_dir=synth_dir)
        assert report.skipped == []

        speaker_of = {
            line.split("\t")[0]: line.split("\t")[1]
            for line in corpus.manifest_path.read_text().splitlines()
        }
        # segments.tsv row order per unit is the candidate order a plan
        # indexes; each row's slice follows the previous rows' in segments.wav
        candidates: dict[str, dict[str, list[bytes]]] = {}
        for spk in sorted(p.name for p in libdir.iterdir()):
            per_unit: dict[str, list[bytes]] = {}
            with wave.open(str(libdir / spk / "segments.wav"), "rb") as f:
                assert f.getnchannels() == 1 and f.getsampwidth() == 2
                for line in (libdir / spk / "segments.tsv").read_text().splitlines():
                    row_spk, unit, source, start, end = line.split("\t")
                    assert row_spk == spk
                    assert speaker_of[source] == spk  # purity: own recordings only
                    per_unit.setdefault(unit, []).append(f.readframes(int(end) - int(start)))
                assert f.tell() == f.getnframes()
            candidates[spk] = per_unit

        synth_counts: dict[str, int] = {}
        checked = 0
        for line in (synth_dir / "plans.tsv").read_text().splitlines():
            utt_id, speaker, transcript, choices, _seed = line.split("\t")
            synth_counts[speaker] = synth_counts.get(speaker, 0) + 1
            expected = b"".join(
                candidates[speaker][unit][int(pick)]
                for unit, pick in zip(transcript.split(), choices.split())
            )
            assert _wav_payload(synth_dir / "wav" / f"{utt_id}.wav") == expected
            checked += 1

        assert checked == len(report.utterances) > 0
        for spk, per_unit in candidates.items():
            n_i = max(len(per_unit.get(u, [])) for u in corpus.units)
            assert synth_counts.get(spk, 0) == n_i


# --- 2: count rule and uncovered-speaker exclusion ---------------------------


def test_criterion_2_count_rule_and_exclusion(tmp_path):
    with criterion(2, "counts follow the per-speaker maximum; uncovered speakers are skipped"):
        specs = default_speaker_specs(2, uncovered_speakers=("spk1",))
        assert specs[0].unit_counts == {"ni": 3, "hao": 2, "mi": 5, "ya": 1}
        corpus, _, libs = _build_toy_libraries(tmp_path, specs)
        out = tmp_path / "synth"
        report = synthesize_corpus(libs, corpus.units, seed=7, out_dir=out)
        assert report.per_speaker_counts == {"spk0": 5}
        assert sum(1 for s in report.utterances if s.record.speaker_id == "spk0") == 5
        assert all(s.record.speaker_id != "spk1" for s in report.utterances)
        assert report.skipped == [("spk1", ("ni",))]
        assert (out / "skips.tsv").read_text() == "spk1\tni\n"


# --- 3: detection metrics against brute-force oracles ------------------------


def _oracle_rates(grid, targets, nontargets):
    far = (nontargets[None, :] >= grid[:, None]).mean(axis=1)
    frr = (targets[None, :] < grid[:, None]).mean(axis=1)
    return far, frr


def _oracle_eer(targets, nontargets) -> float:
    grid = np.concatenate(
        [[-np.inf], np.unique(np.concatenate([targets, nontargets])), [np.inf]]
    )
    far, frr = _oracle_rates(grid, targets, nontargets)
    d = far - frr
    for k in range(len(grid) - 1):
        if d[k] >= 0 >= d[k + 1]:
            if d[k] == d[k + 1] == 0.0:
                return float(frr[k])
            alpha = d[k] / (d[k] - d[k + 1])
            return float(far[k] + alpha * (far[k + 1] - far[k]))
    raise AssertionError("no crossing")


def _oracle_min_dcf(targets, nontargets, p_target, c_miss=1.0, c_fa=1.0):
    grid = np.concatenate(
        [[-np.inf], np.unique(np.concatenate([targets, nontargets])), [np.inf]]
    )
    far, frr = _oracle_rates(grid, targets, nontargets)
    costs = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
    k = int(np.argmin(costs))  # first minimum: the lowest threshold on ties
    return float(costs[k] / min(c_miss * p_target, c_fa * (1.0 - p_target))), float(grid[k])


def test_criterion_3_metric_oracles():
    with criterion(3, "EER within 1e-9 and minDCF exact on 1000 random score sets", 30.0):
        worked = ScoreSet(
            np.array([0.9, 0.7, 0.6, 0.2, 0.8, 0.3, 0.1, 0.05]),
            np.array([True] * 4 + [False] * 4),
        )
        eer, _ = compute_eer(worked)
        dcf, _ = compute_min_dcf(worked, p_target=0.01)
        assert abs(eer - 0.25) < 1e-12
        assert abs(dcf - 0.75) < 1e-12

        rng = np.random.Generator(np.random.PCG64(2024))
        for _ in range(1000):
            n_target = int(rng.integers(1, 101))
            n_nontarget = int(rng.integers(1, 101))
            decimals = int(rng.integers(0, 3))  # coarse rounding forces ties
            scores = np.round(rng.normal(size=n_target + n_nontarget), decimals)
            labels = np.array([True] * n_target + [False] * n_nontarget)
            s = ScoreSet(scores, labels)

            got_eer, _ = compute_eer(s)
            want_eer = _oracle_eer(scores[labels], scores[~labels])
            assert abs(got_eer - want_eer) < 1e-9

            p_target = float(rng.uniform(0.01, 0.5))
            got_dcf, got_t = compute_min_dcf(s, p_target)
            want_dcf, want_t = _oracle_min_dcf(scores[labels], scores[~labels], p_target)
            assert got_dcf == want_dcf
            assert got_t == want_t


# --- 4: network dimensions, gradients, pooling, transfer ---------------------


def test_criterion_4_network():
    with criterion(4, "layer dims, finite-difference gradients, pooling, transfer"):
        assert layer_dims() == [
            ("frame1", 200, 256),
            ("frame2", 768, 256),
            ("frame3", 768, 256),
            ("frame4", 256, 256),
            ("frame5", 256, 512),
        ]
        params = init_tdnn(TdnnConfig(num_classes=4), seed=5)
        rng = np.random.Generator(np.random.PCG64(99))
        for _ in range(12):
            t = int(rng.integers(15, 201))
            acts = forward_activations(params, rng.standard_normal((t, 40)))
            assert acts["frame1.out"].shape == (t - 4, 256)
            assert acts["frame2.out"].shape == (t - 8, 256)
            assert acts["frame3.out"].shape == (t - 14, 256)
            assert acts["frame4.out"].shape == (t - 14, 256)
            assert acts["frame5.out"].shape == (t - 14, 512)
            assert acts["pooled"].shape == (1024,)
            assert acts["embedding"].shape == (256,)
            assert acts["cosines"].shape == (4,)

        feats = rng.standard_normal((20, 40))
        label, aam, eps = 2, AamParams(), 1e-5
        _, grads = loss_and_grads(params, [(feats, label)], aam)
        worst = 0.0
        for name, tensor in params.tensors.items():
            flat = tensor.reshape(-1)
            for idx in rng.choice(flat.size, size=6, replace=False):
                saved = flat[idx]
                flat[idx] = saved + eps
                up, _ = loss_and_grads(params, [(feats, label)], aam)
                flat[idx] = saved - eps
                down, _ = loss_and_grads(params, [(feats, label)], aam)
                flat[idx] = saved
                fd = (up - down) / (2.0 * eps)
                an = float(grads[name].reshape(-1)[idx])
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
        assert worst < 1e-4

        acts = forward_activations(params, rng.standard_normal((15, 40)))
        assert acts["frame5.out"].shape == (1, 512)
        # one pooled frame: every standard deviation sits on the variance floor
        assert np.allclose(acts["pooled"][512:], 1e-5, rtol=1e-12, atol=0.0)
        h = rng.standard_normal((7, 512))
        assert np.allclose(stats_pool(np.vstack([h, h])), stats_pool(h), rtol=0, atol=1e-12)

        moved = transfer_init(params, new_num_classes=9, seed=3)
        for name, tensor in params.tensors.items():
            if name != "projection.W":
                assert np.array_equal(moved.tensors[name], tensor)
        assert moved.tensors["projection.W"].shape == (256, 9)
        probe = rng.standard_normal((30, 40))
        assert np.array_equal(forward(params, probe)[0], forward(moved, probe)[0])


# --- 5: smoke training separates two toy speakers ----------------------------


def test_criterion_5_smoke_training():
    with criterion(5, "200 training steps halve the loss and give EER 0 on 10 trials", 60.0):
        batch = make_feature_classes(num_classes=2, per_class=5, num_frames=30, seed=11)
        params = init_tdnn(TdnnConfig(num_classes=2), seed=1)
        aam = AamParams()
        losses = []
        for _ in range(200):
            params, loss = train_step(params, batch, lr=0.1, aam=aam)
            losses.append(loss)
        assert losses[-1] <= 0.5 * losses[0], (losses[0], losses[-1])

        embeds: dict[int, list[np.ndarray]] = {0: [], 1: []}
        for feats, speaker in batch:
            embeds[speaker].append(forward(params, feats)[0])
        enroll = {speaker: average_embeddings(vecs[:2]) for speaker, vecs in embeds.items()}
        tests = {speaker: vecs[2:] for speaker, vecs in embeds.items()}

        def cos(a, b):
            return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

        scores, labels = [], []
        pairs = [  # 5 target and 5 nontarget trials
            (0, 0), (0, 0), (0, 0), (1, 1), (1, 1),
            (0, 1), (0, 1), (1, 0), (1, 0), (1, 0),
        ]
        used = {0: 0, 1: 0}
        for test_speaker, enroll_speaker in pairs:
            vec = tests[test_speaker][used[test_speaker] % 3]
            used[test_speaker] += 1
            scores.append(cos(vec, enroll[enroll_speaker]))
            labels.append(test_speaker == enroll_speaker)
        assert len(scores) == 10
        eer, _ = compute_eer(ScoreSet(np.array(scores), np.array(labels)))
        assert eer == 0.0


# --- 6: feature recipe -------------------------------------------------------


def test_criterion_6_feature_recipe():
    with criterion(6, "framing, CMN, masking, and acoustic augmentation hold exactly"):
        rng = np.random.Generator(np.random.PCG64(77))
        for _ in range(300):
            win = int(rng.integers(1, 500))
            shift = int(rng.integers(1, 300))
            n = int(rng.integers(win, win + 5000))  # at least one full window
            count = 0
            while count * shift + win <= n:
                count += 1
            assert frame_count(n, win, shift) == count

        constant = np.full((120, 40), 3.25)
        assert float(np.max(np.abs(sliding_mean_normalize(constant)))) < 1e-6

        feats = rng.standard_normal((60, 40))
        p = SpecAugmentParams(
            max_freq_mask_width=6, num_freq_masks=2,
            max_time_mask_width=10, num_time_masks=2,
        )
        out = spec_augment(feats, p, seed=31)
        freq_masks, time_masks = draw_masks(60, 40, p, seed=31)
        masked = np.zeros(feats.shape, dtype=bool)
        for start, width in freq_masks:
            masked[:, start : start + width] = True
        for start, width in time_masks:
            masked[start : start + width, :] = True
        assert np.array_equal(out[~masked], feats[~masked])
        assert masked.any()
        assert np.all(out[masked] == float(np.mean(feats)))

        speech = Waveform(rng.integers(-8000, 8000, size=16000, dtype=np.int16), 16000)
        noise = Waveform(rng.integers(-6000, 6000, size=9000, dtype=np.int16), 16000)
        s = speech.samples.astype(np.float64)
        for snr in (0.0, 5.0, 15.0):
            mixed = mix_noise(speech, noise, snr_db=snr, seed=13)
            n_hat = mixed.samples.astype(np.float64) - s
            realized = 10.0 * math.log10(float(np.mean(s**2) / np.mean(n_hat**2)))
            assert abs(realized - snr) <= 0.1, (snr, realized)

        echoed = convolve_rir(speech, np.array([1.0]))
        assert np.array_equal(echoed.samples, speech.samples)


# --- 7: keyword confidence ---------------------------------------------------


def test_criterion_7_kws_confidence():
    with criterion(7, "hand-computed confidence, monotonicity, and a monotone sweep"):
        labels = ("sil", "ni", "hao")
        probs = np.full((12, 3), 0.05)
        probs[3, 1] = 0.6
        probs[8, 2] = 0.5
        probs[:, 0] = 1.0 - probs[:, 1:].sum(axis=1)
        spec = KeywordSpec.from_labels(
            ("ni", "hao"), labels, smooth_window=1, search_window=12
        )
        conf = utterance_confidence(PosteriorStream(probs, labels), spec)
        assert abs(conf - math.sqrt(0.30)) < 1e-9

        rng = np.random.Generator(np.random.PCG64(5))
        spec = KeywordSpec.from_labels(("ni", "hao"), labels, smooth_window=3, search_window=8)
        for _ in range(1000):
            raw = rng.uniform(0.0, 0.15, size=(20, 2))
            base = np.column_stack([1.0 - raw.sum(axis=1), raw])
            before = utterance_confidence(PosteriorStream(base, labels), spec)
            bumped = raw.copy()
            bumped[int(rng.integers(0, 20)), int(rng.integers(0, 2))] += 0.3
            boosted = np.column_stack([1.0 - bumped.sum(axis=1), bumped])
            after = utterance_confidence(PosteriorStream(boosted, labels), spec)
            assert after >= before - 1e-12

        roc = kws_roc([0.9, 0.8, 0.7, 0.7], [0.4, 0.3, 0.3, 0.1])
        thresholds, fars, frrs = (column.tolist() for column in roc)
        assert thresholds == sorted(thresholds)
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))
        assert frr_at_far(roc, 0.01) == 0.0


# --- 8: determinism for a fixed seed -----------------------------------------


def _tree_bytes(root) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "same seed, two runs into two directories: byte-identical trees"):
        corpus_dir = tmp_path / "corpus"
        make_toy_corpus(corpus_dir, default_speaker_specs(3, uncovered_speakers=("spk2",)))
        noise_dir = tmp_path / "noise"
        noise_dir.mkdir()
        rng = np.random.default_rng(17)
        save_wav(
            noise_dir / "babble.wav",
            Waveform(rng.integers(-2000, 2000, size=8000, dtype=np.int16), 16000),
        )

        trees = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"out_{tag}"
            cfg = validate_config(
                "[paths]\n"
                f"corpus_dir = {corpus_dir}\n"
                f"out_dir = {out_dir}\n"
                f"noise_dir = {noise_dir}\n"
                "[synthesis]\n"
                "transcript = ni hao mi ya\n"
                "seed = 2024\n"
                "[augment]\n"
                "snr_list = 0, 10\n"
                "[features]\n"
                "spec_augment = true\n"
                "[train]\n"
                "steps = 25\n"
                "learn_rate = 0.05\n"
            )
            run_pipeline(cfg, STAGES)
            trees.append(_tree_bytes(out_dir))

        assert sorted(trees[0]) == sorted(trees[1])
        assert trees[0] == trees[1]
