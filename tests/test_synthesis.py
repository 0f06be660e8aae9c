import numpy as np
import pytest

from unitcat.audio import Waveform, read_wav, write_wav
from unitcat.segmentation import UnitLibrary, UnitSegment, build_library
from unitcat.synthesis import (
    AugmentError,
    CoverageError,
    augment_corpus,
    convolve_rir,
    mix_noise,
    plan_synthesis,
    render,
    synth_utterance_id,
    synthesize_corpus,
    unique_units,
)

TRANSCRIPT = ("ni", "hao", "mi", "ya")


def _segment(speaker, unit, source, start, end, rate=16000, seed=1):
    rng = np.random.default_rng(seed)
    samples = rng.integers(-2000, 2000, size=end - start, dtype=np.int16)
    return UnitSegment(speaker, unit, source, start, end, samples, rate)


def _library(counts, speaker="spk", rate=16000):
    segs = []
    k = 0
    for unit, n in counts.items():
        for _ in range(n):
            segs.append(_segment(speaker, unit, f"s{k}", 0, 64 + k, rate=rate, seed=k))
            k += 1
    return build_library(segs, tuple(counts))


def test_unique_units_keeps_first_occurrence_order():
    assert unique_units(("ni", "hao", "ni", "ya")) == ("ni", "hao", "ya")


def test_synth_utterance_id_format():
    assert synth_utterance_id("spk1", 0) == "spk1-synth-000"
    assert synth_utterance_id("spk1", 42) == "spk1-synth-042"


def test_plan_determinism_and_shape():
    lib = _library({"ni": 3, "hao": 2, "mi": 5, "ya": 1})
    a = plan_synthesis(lib, TRANSCRIPT, 5, seed=99)
    b = plan_synthesis(lib, TRANSCRIPT, 5, seed=99)
    assert a == b
    assert len(a) == 5
    for plan in a:
        assert len(plan.choices) == len(TRANSCRIPT)
        for unit, c in zip(TRANSCRIPT, plan.choices):
            assert 0 <= c < lib.count(unit)


def test_plan_prefix_stability():
    # plan i depends only on (seed, speaker, i), not on the total count
    lib = _library({"ni": 3, "hao": 2, "mi": 5, "ya": 1})
    assert plan_synthesis(lib, TRANSCRIPT, 5, 7)[:2] == plan_synthesis(
        lib, TRANSCRIPT, 2, 7
    )


def test_plan_seed_changes_choices():
    lib = _library({"ni": 9, "hao": 9, "mi": 9, "ya": 9})
    a = plan_synthesis(lib, TRANSCRIPT, 4, seed=1)
    b = plan_synthesis(lib, TRANSCRIPT, 4, seed=2)
    assert [p.choices for p in a] != [p.choices for p in b]


def test_single_candidate_always_chosen():
    lib = _library({"ni": 1, "hao": 1, "mi": 1, "ya": 1})
    for plan in plan_synthesis(lib, TRANSCRIPT, 6, seed=3):
        assert plan.choices == (0, 0, 0, 0)


def test_plan_missing_unit_raises_naming_it():
    lib = _library({"ni": 3, "mi": 5, "ya": 1})
    with pytest.raises(CoverageError, match="'hao'"):
        plan_synthesis(lib, TRANSCRIPT, 5, seed=0)


def test_plan_choice_distribution_uniform():
    # 10^4 one-slot plans over 5 candidates; chi-square df=4 at p=0.001
    lib = _library({"mi": 5})
    plans = plan_synthesis(lib, ("mi",), 10_000, seed=2024)
    counts = np.bincount([p.choices[0] for p in plans], minlength=5)
    expected = 10_000 / 5
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < 18.467


def test_render_concatenates_verbatim():
    lib = _library({"ni": 2, "hao": 1})
    plans = plan_synthesis(lib, ("ni", "hao", "ni"), 1, seed=5)
    w = render(plans[0], lib)
    want = np.concatenate(
        [
            lib.table[u][c].samples
            for u, c in zip(plans[0].transcript, plans[0].choices)
        ]
    )
    assert np.array_equal(w.samples[0], want)
    assert w.sample_rate == 16000


def test_render_single_unit_is_identity():
    lib = _library({"ni": 1})
    plans = plan_synthesis(lib, ("ni",), 1, seed=5)
    w = render(plans[0], lib)
    assert np.array_equal(w.samples[0], lib.table["ni"][0].samples)


def test_render_length_worked_example():
    # slices [1600,5120) and [5120,8000): 3520 + 2880 samples; twice = 12800
    segs = [
        _segment("spk", "ni", "src", 1600, 5120),
        _segment("spk", "hao", "src", 5120, 8000),
    ]
    lib = build_library(segs, ("ni", "hao"))
    plans = plan_synthesis(lib, ("ni", "hao", "ni", "hao"), 1, seed=0)
    assert render(plans[0], lib).num_samples == 12800


def test_render_rejects_out_of_range_choice():
    lib = _library({"ni": 2})
    from unitcat.synthesis import SynthesisPlan

    bad = SynthesisPlan("spk", ("ni",), (2,), 0)
    with pytest.raises(CoverageError, match="out of range"):
        render(bad, lib)


def test_synthesize_corpus_counts_and_skips(tmp_path):
    libs = [
        _library({"ni": 3, "hao": 2, "mi": 5, "ya": 1}, speaker="spk0"),
        _library({"ni": 2, "hao": 4, "mi": 1, "ya": 3}, speaker="spk1"),
        _library({"ni": 0, "hao": 1, "mi": 2, "ya": 2}, speaker="spk2"),
    ]
    report = synthesize_corpus(libs, TRANSCRIPT, seed=11, out_dir=tmp_path)
    assert report.per_speaker_counts == {"spk0": 5, "spk1": 4}
    assert report.skipped == [("spk2", ("ni",))]
    ids = [s.record.utterance_id for s in report.utterances]
    assert ids[:5] == [f"spk0-synth-{i:03d}" for i in range(5)]
    assert all(s.record.speaker_id == s.plan.speaker_id for s in report.utterances)

    assert (tmp_path / "manifest.tsv").is_file()
    assert len((tmp_path / "plans.tsv").read_text().splitlines()) == 9
    assert (tmp_path / "skips.tsv").read_text() == "spk2\tni\n"
    for s in report.utterances:
        assert (tmp_path / s.record.audio_path).is_file()


def test_synthesize_corpus_is_reproducible(tmp_path):
    libs = [
        _library({"ni": 3, "hao": 2, "mi": 5, "ya": 1}, speaker="spk0"),
        _library({"ni": 2, "hao": 4, "mi": 1, "ya": 3}, speaker="spk1"),
    ]
    one = synthesize_corpus(libs, TRANSCRIPT, seed=4, out_dir=tmp_path / "w1")
    two = synthesize_corpus(libs, TRANSCRIPT, seed=4, out_dir=tmp_path / "w2")
    assert [s.record.utterance_id for s in one.utterances] == [
        s.record.utterance_id for s in two.utterances
    ]
    for a, b in zip(one.utterances, two.utterances):
        assert write_wav(a.waveform) == write_wav(b.waveform)
    for path in sorted((tmp_path / "w1").rglob("*")):
        other = tmp_path / "w2" / path.relative_to(tmp_path / "w1")
        if path.is_file():
            assert path.read_bytes() == other.read_bytes()


# --- additive noise -----------------------------------------------------------


def _alternating(n, amp, rate=16000):
    samples = np.full(n, amp, dtype=np.int16)
    samples[1::2] = -amp
    return Waveform(samples, rate)


def test_mix_noise_zero_db_equal_power_gain_one():
    speech = _alternating(200, 1000)
    noise = Waveform(np.full(200, 1000, dtype=np.int16), 16000)
    out = mix_noise(speech, noise, snr_db=0.0, seed=1)
    # constant noise: any offset yields the same segment; g = 1 exactly
    assert np.array_equal(out.samples[0], speech.samples[0] + 1000)


def test_mix_noise_realized_snr_within_tenth_db():
    rng = np.random.default_rng(5)
    speech = Waveform(
        (8000 * np.sin(2 * np.pi * 440 * np.arange(16000) / 16000)).astype(np.int16),
        16000,
    )
    noise = Waveform(rng.integers(-6000, 6000, size=9000, dtype=np.int16), 16000)
    for snr in (0.0, 5.0, 15.0):
        out = mix_noise(speech, noise, snr_db=snr, seed=33)
        s = speech.samples[0].astype(np.float64)
        n_hat = out.samples[0].astype(np.float64) - s
        realized = 10 * np.log10(np.mean(s * s) / np.mean(n_hat * n_hat))
        assert abs(realized - snr) <= 0.1


def test_mix_noise_huge_snr_barely_perturbs():
    speech = _alternating(400, 5000)
    noise = _alternating(400, 5000)
    out = mix_noise(speech, noise, snr_db=120.0, seed=2)
    assert int(np.max(np.abs(out.samples[0] - speech.samples[0]))) <= 1


def test_mix_noise_is_seeded_and_wraps():
    rng = np.random.default_rng(9)
    speech = Waveform(rng.integers(-500, 500, size=50, dtype=np.int16), 8000)
    noise = Waveform(rng.integers(-500, 500, size=7, dtype=np.int16), 8000)
    a = mix_noise(speech, noise, 10.0, seed=1)
    b = mix_noise(speech, noise, 10.0, seed=1)
    c = mix_noise(speech, noise, 10.0, seed=2)
    assert np.array_equal(a.samples, b.samples)
    assert a.num_samples == 50
    assert not np.array_equal(a.samples, c.samples)


def test_mix_noise_error_gates():
    speech = _alternating(100, 1000)
    silence = Waveform(np.zeros(100, dtype=np.int16), 16000)
    with pytest.raises(AugmentError, match="noise"):
        mix_noise(speech, silence, 0.0, seed=0)
    with pytest.raises(AugmentError, match="speech"):
        mix_noise(silence, speech, 0.0, seed=0)
    other_rate = Waveform(np.ones(100, dtype=np.int16), 8000)
    with pytest.raises(AugmentError, match="rate"):
        mix_noise(speech, other_rate, 0.0, seed=0)


def test_mix_noise_clips_at_int16():
    speech = _alternating(100, 30000)
    noise = Waveform(np.full(100, 30000, dtype=np.int16), 16000)
    out = mix_noise(speech, noise, 0.0, seed=0)
    assert int(np.max(out.samples)) == 32767


@pytest.mark.parametrize("noise_len", [1, 7, 49, 50, 51, 300])
def test_mix_noise_equals_the_modulo_gather_reference(noise_len):
    """The wrapped noise segment is noise[(offset + i) % len(noise)]."""
    from unitcat.rng import SplitMix64

    rng = np.random.default_rng(noise_len)
    speech = Waveform(rng.integers(-9000, 9000, size=50, dtype=np.int16), 8000)
    noise = Waveform(rng.integers(-9000, 9000, size=noise_len, dtype=np.int16), 8000)
    for seed in range(8):
        s = speech.samples[0].astype(np.float64)
        n_all = noise.samples[0].astype(np.float64)
        offset = SplitMix64(seed).next_below(noise_len)
        n = n_all[(offset + np.arange(len(s))) % noise_len]
        gain = np.sqrt(np.mean(s * s) / (np.mean(n * n) * 10.0 ** (3.0 / 10.0)))
        want = np.clip(np.rint(s + gain * n), -32768, 32767).astype(np.int16)
        assert np.array_equal(mix_noise(speech, noise, 3.0, seed).samples[0], want)


# --- reverberation --------------------------------------------------------------


def test_convolve_rir_unit_impulse_is_identity():
    rng = np.random.default_rng(3)
    w = Waveform(rng.integers(-8000, 8000, size=300, dtype=np.int16), 16000)
    out = convolve_rir(w, np.array([1.0]))
    assert np.array_equal(out.samples, w.samples)
    # peak renormalization makes any scaled impulse an identity too
    out_scaled = convolve_rir(w, np.array([0.25]))
    assert np.array_equal(out_scaled.samples, w.samples)


def test_convolve_rir_two_tap_example():
    w = Waveform(np.array([1000, 0, 0], dtype=np.int16), 16000)
    out = convolve_rir(w, np.array([0.5, 0.25]))
    # conv = [500, 250, 0]; renormalized by 1000/500
    assert out.samples[0].tolist() == [1000, 500, 0]


def test_convolve_rir_truncates_to_input_length():
    w = Waveform(np.array([100, 200, 300, 400], dtype=np.int16), 16000)
    out = convolve_rir(w, np.array([0.0, 1.0]))
    # delayed by one, tail cut, renormalized by 400/300
    assert out.num_samples == 4
    assert out.samples[0].tolist() == [0, 133, 267, 400]


def test_convolve_rir_error_gates():
    w = Waveform(np.array([100, 200], dtype=np.int16), 16000)
    with pytest.raises(AugmentError, match="1-D"):
        convolve_rir(w, np.zeros((2, 2)))
    with pytest.raises(AugmentError, match="1-D"):
        convolve_rir(w, np.zeros(0))
    with pytest.raises(AugmentError, match="zero peak"):
        convolve_rir(w, np.zeros(3))


def _direct_reverb(samples, kernel):
    """convolve_rir's renormalization and rounding over np.convolve."""
    s = samples.astype(np.float64)
    out = np.convolve(s, kernel)[: len(s)]
    out *= np.max(np.abs(s)) / np.max(np.abs(out))
    return np.clip(np.rint(out), -32768, 32767).astype(np.int16)


@pytest.mark.parametrize(
    "speech_len, taps",
    [
        (16000, 2000),  # a second of speech through a 2000-tap room
        (300, 1000),  # kernel longer than the speech
        (1000, 25),  # len(s) + len(k) - 1 == 1024, exactly a power of two
    ],
)
def test_convolve_rir_matches_direct_convolution_within_one_lsb(speech_len, taps):
    rng = np.random.default_rng(speech_len + taps)
    speech = rng.integers(-20000, 20000, size=speech_len, dtype=np.int16)
    decay = np.exp(-np.arange(taps) / (taps / 6))
    rir = np.round(rng.standard_normal(taps) * decay * 6000).astype(np.int16)
    rir[0] = 32767
    kernel = rir.astype(np.float64) / 32768.0
    out = convolve_rir(Waveform(speech, 16000), kernel).samples[0]
    want = _direct_reverb(speech, kernel)
    assert len(out) == speech_len
    assert np.max(np.abs(out.astype(np.int32) - want)) <= 1


def test_convolve_rir_zero_peak_when_the_delay_passes_the_speech():
    # every kept output is exactly zero, so there is no peak to renormalize by
    w = Waveform(np.array([0, 0, 5000], dtype=np.int16), 16000)
    for kernel in ([0.0, 1.0], [0.0, 0.0, 0.0, 0.5, 1.0]):
        with pytest.raises(AugmentError, match="zero peak"):
            convolve_rir(w, np.array(kernel))
    # an FFT product leaves ~1e-11 of round-off here where np.convolve gives 0
    rng = np.random.default_rng(0)
    late = np.zeros(1000, dtype=np.int16)
    late[900:] = rng.integers(-3000, 3000, size=100)
    delayed = np.concatenate([np.zeros(100), rng.standard_normal(1000)])
    with pytest.raises(AugmentError, match="zero peak"):
        convolve_rir(Waveform(late, 16000), delayed)
    silent = Waveform(np.zeros(50, dtype=np.int16), 16000)
    with pytest.raises(AugmentError, match="zero peak"):
        convolve_rir(silent, np.array([1.0, 0.5]))
    # the last sample still reaches the output through a zero-delay tap
    assert convolve_rir(w, np.array([0.5, 1.0])).samples[0].tolist() == [0, 0, 5000]


# --- corpus-level augmentation ---------------------------------------------------


def test_augment_corpus_loads_each_file_once(tmp_path, monkeypatch):
    import unitcat.synthesis as synthesis
    from unitcat.audio import save_wav
    from unitcat.corpus import UtteranceRecord

    rng = np.random.default_rng(1)

    def wav_files(kind, count, size):
        paths = [tmp_path / kind / f"{kind}{i}.wav" for i in range(count)]
        for p in paths:
            save_wav(p, Waveform(rng.integers(-3000, 3000, size=size, dtype=np.int16), 16000))
        return paths

    speech = wav_files("wav", 4, 800)
    records = [
        UtteranceRecord(p.stem, f"spk{i}", ("ni",), f"wav/{p.name}") for i, p in enumerate(speech)
    ]
    noise_paths, rir_paths = wav_files("noise", 3, 500), wav_files("rir", 2, 40)
    loaded = []
    real_load_wav = synthesis.load_wav

    def counting_load_wav(path):
        loaded.append(path)
        return real_load_wav(path)

    monkeypatch.setattr(synthesis, "load_wav", counting_load_wav)
    out, _ = augment_corpus(
        records, tmp_path, tmp_path / "aug", 5, noise_paths, [0.0, 5.0, 10.0], rir_paths
    )
    assert len(out) == 4 * 4
    assert len(loaded) == len(records) + len(noise_paths) + len(rir_paths)
    # without an SNR list the noise files are not in use and are not read
    loaded.clear()
    augment_corpus(records, tmp_path, tmp_path / "aug2", 5, noise_paths, None, rir_paths)
    assert len(loaded) == len(records) + len(rir_paths)


def test_augment_corpus_end_to_end(tmp_path):
    from unitcat.audio import save_wav
    from unitcat.corpus import UtteranceRecord
    from unitcat.rng import derive_seed

    rng = np.random.default_rng(0)
    root = tmp_path / "corpus"
    (root / "wav").mkdir(parents=True)
    records = []
    for i in range(2):
        wav = Waveform(rng.integers(-4000, 4000, size=800, dtype=np.int16), 16000)
        save_wav(root / f"wav/u{i}.wav", wav)
        records.append(UtteranceRecord(f"u{i}", f"spk{i}", ("ni",), f"wav/u{i}.wav"))

    noise_dir = tmp_path / "noise"
    noise_dir.mkdir()
    save_wav(
        noise_dir / "n0.wav",
        Waveform(rng.integers(-3000, 3000, size=500, dtype=np.int16), 16000),
    )
    rir_dir = tmp_path / "rir"
    rir_dir.mkdir()
    rir = np.zeros(40, dtype=np.int16)
    rir[0], rir[8] = 16000, 4000
    save_wav(rir_dir / "r0.wav", Waveform(rir, 16000))

    out_dir = tmp_path / "aug"
    out_records, rows = augment_corpus(
        records,
        root,
        out_dir,
        seed=77,
        noise_paths=[noise_dir / "n0.wav"],
        snr_list=[0.0, 10.0],
        rir_paths=[rir_dir / "r0.wav"],
    )
    ids = [r.utterance_id for r in out_records]
    assert ids == [
        "u0-noise0",
        "u0-noise10",
        "u0-reverb",
        "u1-noise0",
        "u1-noise10",
        "u1-reverb",
    ]
    # one file per source utterance, one channel per copy in id order
    assert [(r.audio_path, r.channel_index) for r in out_records] == [
        (f"wav/u{i}.wav", k) for i in range(2) for k in range(3)
    ]
    assert sorted(p.name for p in (out_dir / "wav").iterdir()) == ["u0.wav", "u1.wav"]
    for name in ("u1.wav", "u0.wav"):
        packed = read_wav((out_dir / "wav" / name).read_bytes())
        assert (packed.channels, packed.num_samples, packed.sample_rate) == (3, 800, 16000)
    # u0's channels hold what the one-copy functions make
    u0 = read_wav((root / "wav/u0.wav").read_bytes())
    noise = read_wav((noise_dir / "n0.wav").read_bytes())
    mix_seed = derive_seed(77, "noise-mix", "u0", str(10.0))
    assert np.array_equal(packed.samples[1], mix_noise(u0, noise, 10.0, mix_seed).mono())
    assert np.array_equal(packed.samples[2], convolve_rir(u0, rir / 32768.0).mono())
    assert [r.kind for r in rows] == ["noise", "noise", "reverb"] * 2
    assert (out_dir / "augment_report.tsv").is_file()
    assert (out_dir / "manifest.tsv").is_file()
    # deterministic re-run
    again, _ = augment_corpus(
        records,
        root,
        tmp_path / "aug2",
        seed=77,
        noise_paths=[noise_dir / "n0.wav"],
        snr_list=[0.0, 10.0],
        rir_paths=[rir_dir / "r0.wav"],
    )
    for a, b in zip(out_records, again):
        assert (out_dir / a.audio_path).read_bytes() == (
            tmp_path / "aug2" / b.audio_path
        ).read_bytes()


@pytest.mark.parametrize("bad", ["stereo", "empty"])
def test_augment_corpus_refuses_an_unpicked_bad_noise_file_before_writing(tmp_path, bad):
    from unitcat.audio import save_wav
    from unitcat.corpus import UtteranceRecord
    from unitcat.rng import SplitMix64, derive_seed

    rng = np.random.default_rng(2)
    speech = Waveform(rng.integers(-3000, 3000, 800, np.int16), 16000)
    save_wav(tmp_path / "wav" / "u0.wav", speech)
    records = [UtteranceRecord("u0", "spk0", ("ni",), "wav/u0.wav")]
    good = tmp_path / "noise" / "good.wav"
    save_wav(good, Waveform(rng.integers(-3000, 3000, 500, np.int16), 16000))
    samples = np.zeros((2, 500) if bad == "stereo" else 0, dtype=np.int16)
    save_wav(tmp_path / "noise" / "bad.wav", Waveform(samples, 16000))
    # order the files so that the one draw picks the good one
    pick = SplitMix64(derive_seed(5, "noise-pick", "u0", str(0.0))).next_below(2)
    noise_paths = [good, tmp_path / "noise" / "bad.wav"][:: 1 if pick == 0 else -1]
    message = "noise must be mono" if bad == "stereo" else "empty noise"
    out_dir = tmp_path / "aug"
    with pytest.raises(AugmentError, match=message):
        augment_corpus(records, tmp_path, out_dir, 5, noise_paths, [0.0])
    assert not out_dir.exists()


@pytest.mark.parametrize("change", ["length", "rate"])
def test_augment_corpus_refuses_copies_that_do_not_fit_one_file(tmp_path, monkeypatch, change):
    import unitcat.synthesis as synthesis
    from unitcat.audio import save_wav
    from unitcat.corpus import UtteranceRecord

    rng = np.random.default_rng(3)
    save_wav(tmp_path / "wav" / "u0.wav", Waveform(rng.integers(-3000, 3000, 800, np.int16), 16000))
    records = [UtteranceRecord("u0", "spk0", ("ni",), "wav/u0.wav")]
    save_wav(tmp_path / "noise.wav", Waveform(rng.integers(-3000, 3000, 500, np.int16), 16000))
    save_wav(tmp_path / "rir.wav", Waveform(np.array([20000, 3000], np.int16), 16000))
    real_convolve = synthesis._convolve_rir_core

    def misfit_convolve(speech, rir):
        wave, clipped = real_convolve(speech, rir)
        if change == "length":
            return Waveform(wave.samples[:, :-1].copy(), wave.sample_rate), clipped
        return Waveform(wave.samples, 8000), clipped

    monkeypatch.setattr(synthesis, "_convolve_rir_core", misfit_convolve)
    out_dir = tmp_path / "aug"
    with pytest.raises(AugmentError, match="'u0': copies differ in"):
        augment_corpus(
            records, tmp_path, out_dir, 5, [tmp_path / "noise.wav"], [0.0], [tmp_path / "rir.wav"]
        )
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "snrs, refusal",
    [([0.0, float("nan")], "SNR nan is not finite"), ([float("-inf")], "SNR -inf is not finite"),
     ([5.0, 5.0000001], "SNR 5 is listed twice")],
)
def test_augment_corpus_refuses_non_finite_and_repeated_snrs_before_writing(
    tmp_path, snrs, refusal
):
    from unitcat.audio import save_wav
    from unitcat.corpus import UtteranceRecord

    rng = np.random.default_rng(4)
    save_wav(tmp_path / "wav" / "u0.wav", Waveform(rng.integers(-3000, 3000, 800, np.int16), 16000))
    save_wav(tmp_path / "noise.wav", Waveform(rng.integers(-3000, 3000, 500, np.int16), 16000))
    records = [UtteranceRecord("u0", "spk0", ("ni",), "wav/u0.wav")]
    out_dir = tmp_path / "aug"
    with pytest.raises(AugmentError, match=refusal):
        augment_corpus(records, tmp_path, out_dir, 5, [tmp_path / "noise.wav"], snrs)
    assert not out_dir.exists()
