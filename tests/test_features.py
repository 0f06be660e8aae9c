import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcat.archive import read_archive
from unitcat.audio import Waveform, save_wav
from unitcat.cli import main
from unitcat.corpus import AlignmentEntry, UtteranceRecord, save_manifest
from unitcat.features import (
    CMN_WINDOW,
    ENERGY_FLOOR,
    MEL_LOW_HZ,
    NUM_FILTERS,
    PRE_EMPHASIS,
    _fbank_tables,
    SpecAugmentParams,
    apply_vad_filter,
    compute_fbank,
    derive_vad,
    draw_masks,
    frame_count,
    frame_sizes,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    sliding_mean_normalize,
    spec_augment,
)
from unitcat.workspace import Workspace


def _tone(n, rate=16000, freq=440.0, amp=8000.0):
    t = np.arange(n) / rate
    return Waveform((amp * np.sin(2 * np.pi * freq * t)).astype(np.int16), rate)


def test_frame_sizes_at_common_rates():
    assert frame_sizes(16000) == (400, 160)
    assert frame_sizes(8000) == (200, 80)


def test_frame_count_one_second_at_16k():
    win, shift = frame_sizes(16000)
    assert frame_count(16000, win, shift) == 98


def test_frame_count_boundaries():
    win, shift = frame_sizes(16000)
    assert frame_count(400, win, shift) == 1
    assert frame_count(559, win, shift) == 1
    assert frame_count(560, win, shift) == 2
    with pytest.raises(ValueError, match="shorter"):
        frame_count(399, win, shift)


@settings(max_examples=100)
@given(st.integers(min_value=400, max_value=100_000))
def test_frame_count_formula_over_random_lengths(n):
    win, shift = frame_sizes(16000)
    t = frame_count(n, win, shift)
    # last frame fits, the next would not
    assert (t - 1) * shift + win <= n
    assert t * shift + win > n


def test_mel_scale_roundtrip():
    f = np.array([20.0, 300.0, 1000.0, 4000.0, 8000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f)
    assert hz_to_mel(0.0) == 0.0
    assert hz_to_mel(1000.0) == pytest.approx(999.9855, abs=1e-3)


def test_mel_filterbank_shape_and_partition():
    fb = mel_filterbank(40, 512, 16000, 20.0, 8000.0)
    assert fb.shape == (40, 257)
    assert np.all(fb >= 0)
    # every filter has support, and interior bins lie under at most two filters
    assert np.all(fb.sum(axis=1) > 0)
    coverage = (fb > 0).sum(axis=0)
    assert coverage.max() <= 2


def test_fbank_shape_and_finiteness():
    f = compute_fbank(_tone(16000))
    assert f.shape == (98, NUM_FILTERS)
    assert np.all(np.isfinite(f))


def test_fbank_all_zero_input_hits_floor():
    w = Waveform(np.zeros(1600, dtype=np.int16), 16000)
    f = compute_fbank(w)
    assert np.allclose(f, np.log(ENERGY_FLOOR))


def test_fbank_amplitude_doubling_adds_log4():
    base = _tone(4800, amp=5000.0)
    loud = Waveform((base.samples[0] * 2).astype(np.int16), 16000)
    fa = compute_fbank(base)
    fb = compute_fbank(loud)
    # power scales by 4 wherever the floor is not active
    active = fa > np.log(ENERGY_FLOOR) + 1e-6
    assert np.allclose(fb[active] - fa[active], np.log(4.0), atol=1e-6)


def test_fbank_tone_peaks_at_matching_filter():
    rate, freq = 16000, 1000.0
    f = compute_fbank(_tone(16000, rate, freq))
    fb = mel_filterbank(NUM_FILTERS, 512, rate, 20.0, rate / 2)
    bin_hz = np.arange(257) * (rate / 512)
    # the filter whose response at 1 kHz is largest should carry the most energy
    want = int(np.argmax(fb[:, int(round(freq / (rate / 512)))]))
    got = int(np.argmax(f.mean(axis=0)))
    assert abs(got - want) <= 1
    assert bin_hz[int(round(freq / (rate / 512)))] == pytest.approx(freq, abs=16)


def _reference_fbank(w):
    """The recipe one frame at a time, each table built afresh."""
    win, shift = frame_sizes(w.sample_rate)
    x = w.mono().astype(np.float64)
    nfft = 1 << (win - 1).bit_length()
    fb = mel_filterbank(NUM_FILTERS, nfft, w.sample_rate, MEL_LOW_HZ, w.sample_rate / 2)
    rows = []
    for t in range(frame_count(len(x), win, shift)):
        frame = x[t * shift : t * shift + win]
        emphasized = frame.copy()
        emphasized[1:] -= PRE_EMPHASIS * frame[:-1]
        emphasized[0] -= PRE_EMPHASIS * frame[0]
        spectrum = np.fft.rfft(emphasized * np.hamming(win), nfft)
        rows.append(spectrum.real**2 + spectrum.imag**2)
    return np.log(np.maximum(np.array(rows) @ fb.T, ENERGY_FLOOR))


@pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100])
def test_fbank_equals_the_per_frame_reference(rate):
    win, shift = frame_sizes(rate)
    rng = np.random.default_rng(rate)
    for n in (win, win + shift - 1, 3 * rate + 17):
        w = Waveform(rng.integers(-32768, 32768, size=n).astype(np.int16), rate)
        assert np.array_equal(compute_fbank(w), _reference_fbank(w))
    silent = Waveform(np.zeros(win + 2 * shift, dtype=np.int16), rate)
    floor = compute_fbank(silent)
    assert np.array_equal(floor, _reference_fbank(silent))
    assert np.all(floor == np.log(ENERGY_FLOOR))


def _random_wave(n, rate, seed):
    rng = np.random.default_rng(seed)
    return Waveform(rng.integers(-32768, 32768, size=n).astype(np.int16), rate)


def test_fbank_with_a_shared_workspace_equals_fresh_calls():
    # rates and lengths change between calls, so the reused buffers are
    # reshaped over the older calls' data
    waves = [
        _random_wave(3 * 16000 + 17, 16000, 1),
        _random_wave(400, 16000, 2),
        _random_wave(8000 + 33, 8000, 3),
        _random_wave(44100 + 5, 44100, 4),
        _random_wave(3 * 16000 + 17, 16000, 5),
        Waveform(np.zeros(16000, dtype=np.int16), 16000),
    ]
    work = Workspace()
    results = []
    for w in waves:
        got = compute_fbank(w, work)
        assert np.array_equal(got, compute_fbank(w))
        assert not any(np.shares_memory(got, buf) for buf in work.buffers)
        results.append(got)
    assert np.array_equal(results[0], compute_fbank(waves[0]))
    assert np.all(results[-1] == np.log(ENERGY_FLOOR))


def test_fbank_workspace_keeps_its_buffers_over_equal_lengths():
    work = Workspace()
    compute_fbank(_random_wave(13840, 16000, 0), work)
    first = work.buffers
    assert first
    for seed in range(1, 4):
        compute_fbank(_random_wave(13840, 16000, seed), work)
        now = work.buffers
        assert len(now) == len(first)
        assert all(np.shares_memory(a, b) for a, b in zip(first, now))


def test_fbank_tables_are_cached_read_only_and_left_unchanged():
    window, fb = _fbank_tables(16000)
    before = window.copy(), fb.copy()
    compute_fbank(_tone(16000))
    compute_fbank(_tone(8000))
    again = _fbank_tables(16000)
    assert again[0] is window and again[1] is fb
    assert np.array_equal(window, before[0]) and np.array_equal(fb, before[1])
    assert np.array_equal(window, np.hamming(400))
    assert np.array_equal(fb, mel_filterbank(NUM_FILTERS, 512, 16000, MEL_LOW_HZ, 8000.0))
    for table in (window, fb):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_fbank_rejects_stereo():
    w = Waveform(np.zeros((2, 1600), dtype=np.int16), 16000)
    with pytest.raises(ValueError, match="mono"):
        compute_fbank(w)


# --- VAD -------------------------------------------------------------------


def _samples_for(num_frames, rate=16000):
    win, shift = frame_sizes(rate)
    return win + (num_frames - 1) * shift


def test_vad_all_silence_is_all_false():
    entries = [AlignmentEntry("u", "sil", 0.0, 1.0)]
    flags = derive_vad(entries, _samples_for(100), 16000)
    assert len(flags) == 100
    assert not flags.any()


def test_vad_frame_centers_against_entry_bounds():
    entries = [AlignmentEntry("u", "ni", 0.0, 0.5)]
    flags = derive_vad(entries, _samples_for(60), 16000)
    # frame 0 center 0.0125 is inside [0, 0.5); frame 49 center 0.5025 is not
    assert bool(flags[0]) is True
    assert bool(flags[48]) is True
    assert bool(flags[49]) is False
    assert not flags[49:].any()


def test_vad_end_exclusive():
    # at 16 kHz frame t's center is sample 160 t + 200, so frame 4's is
    # sample 840, which the entry's end and the grid both give as
    # 840 / 16000 s; an entry ending exactly on a center excludes that frame
    entries = [AlignmentEntry("u", "ni", 0.0, 840 / 16000)]
    flags = derive_vad(entries, _samples_for(8), 16000)
    assert bool(flags[3]) is True
    assert bool(flags[4]) is False


def test_vad_respects_custom_silence_labels():
    entries = [
        AlignmentEntry("u", "ni", 0.0, 0.2),
        AlignmentEntry("u", "hum", 0.2, 0.2),
    ]
    loose = derive_vad(entries, _samples_for(40), 16000, silence_labels={"sil"})
    strict = derive_vad(entries, _samples_for(40), 16000, silence_labels={"sil", "hum"})
    # growing the silence set can only turn frames off
    assert np.all(strict <= loose)
    assert strict.sum() < loose.sum()


def test_vad_frames_past_entries_are_false():
    entries = [AlignmentEntry("u", "ni", 0.0, 0.1)]
    flags = derive_vad(entries, _samples_for(500), 16000)
    assert len(flags) == 500
    assert not flags[20:].any()


def test_vad_rejects_audio_shorter_than_one_window():
    win, _ = frame_sizes(16000)
    assert len(derive_vad([], win, 16000)) == 1
    with pytest.raises(ValueError, match="shorter than one"):
        derive_vad([], win - 1, 16000)


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["ni", "hao", "sil", "spn"]),
            st.floats(min_value=0.0, max_value=2.0),
            st.floats(min_value=0.01, max_value=0.5),
        ),
        max_size=6,
    ),
    st.sampled_from([8000, 11025, 16000, 22050]),
    st.integers(min_value=1, max_value=300),
)
def test_vad_flag_iff_center_inside_speech_entry(raw, rate, num_frames):
    entries = [
        AlignmentEntry("u", unit, round(i * 3.0 + start, 6), round(dur, 6))
        for i, (unit, start, dur) in enumerate(raw)
    ]
    win, shift = frame_sizes(rate)
    flags = derive_vad(entries, _samples_for(num_frames, rate), rate)
    assert len(flags) == num_frames
    for t in range(num_frames):
        c = (t * shift + win / 2) / rate
        expect = any(
            e.start <= c < e.end for e in entries if e.unit not in {"sil", "spn"}
        )
        assert bool(flags[t]) == expect


@pytest.mark.parametrize("rate", [11025, 22050])
def test_featurize_ali_keeps_frames_centered_in_speech(tmp_path, rate):
    # Over 5 s the nominal 10 ms grid drifts from these rates' sample
    # grids (shift 110 and 221 samples) by more than a frame; the speech
    # entry ends at 4.9 s, where the two grids disagree on the last frame.
    rng = np.random.default_rng(rate)
    w = Waveform(rng.integers(-8000, 8000, size=5 * rate).astype(np.int16), rate)
    save_wav(tmp_path / "u.wav", w)
    save_manifest(tmp_path / "m.tsv", [UtteranceRecord("u", "spk", ("ni",), "u.wav")])
    (tmp_path / "a.ctm").write_text("u 1 0 0.3 sil\nu 1 0.3 4.6 ni\nu 1 4.9 0.1 sil\n")
    out = tmp_path / "feats"
    argv = ["featurize", "--manifest", str(tmp_path / "m.tsv"), "--out", str(out)]
    assert main(argv + ["--ali", str(tmp_path / "a.ctm")]) == 0

    win, shift = frame_sizes(rate)
    t = np.arange(frame_count(w.num_samples, win, shift))
    centers = (t * shift + win / 2) / rate
    keep = (centers >= 0.3) & (centers < 0.3 + 4.6)
    (rows,) = read_archive(out)["u"]
    assert len(rows) == keep.sum()
    want = sliding_mean_normalize(compute_fbank(w)[keep]).astype(np.float32)
    assert np.array_equal(rows, want)


def test_vad_filter_selects_rows():
    f = np.arange(12, dtype=np.float64).reshape(4, 3)
    out = apply_vad_filter(f, np.array([True, False, True, False]))
    assert np.array_equal(out, f[[0, 2]])


def test_vad_filter_identity_and_empty():
    f = np.ones((5, 2))
    assert np.array_equal(apply_vad_filter(f, np.ones(5, dtype=bool)), f)
    assert apply_vad_filter(f, np.zeros(5, dtype=bool)).shape == (0, 2)


def test_vad_filter_length_mismatch():
    with pytest.raises(ValueError, match="frames"):
        apply_vad_filter(np.ones((4, 2)), np.ones(3, dtype=bool))


# --- sliding CMN -------------------------------------------------------------


def test_cmn_constant_input_goes_to_zero():
    f = np.full((500, 40), 3.7)
    out = sliding_mean_normalize(f)
    assert np.max(np.abs(out)) < 1e-6


def test_cmn_window_bounds_oracle():
    # frame 0 of a 600-frame matrix averages rows [0, 151); frame 300 averages
    # [150, 451); frame 599 averages [449, 600)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(600, 4))
    out = sliding_mean_normalize(f, window=CMN_WINDOW)
    assert np.allclose(out[0], f[0] - f[0:151].mean(axis=0))
    assert np.allclose(out[300], f[300] - f[150:451].mean(axis=0))
    assert np.allclose(out[599], f[599] - f[449:600].mean(axis=0))


def test_cmn_equals_global_mean_for_short_input():
    # with T <= window//2 + 1 every window spans the whole matrix
    rng = np.random.default_rng(1)
    f = rng.normal(size=(151, 3))
    out = sliding_mean_normalize(f, window=300)
    assert np.allclose(out, f - f.mean(axis=0))


def test_cmn_shrinks_at_edges():
    f = np.zeros((10, 1))
    f[0, 0] = 10.0
    out = sliding_mean_normalize(f, window=4)
    # frame 0 window is rows [0, 3): mean 10/3
    assert out[0, 0] == pytest.approx(10.0 - 10.0 / 3.0)
    # frame 9 window is rows [7, 10): mean 0
    assert out[9, 0] == pytest.approx(0.0)


def test_cmn_empty_and_bad_window():
    out = sliding_mean_normalize(np.zeros((0, 40)))
    assert out.shape == (0, 40)
    with pytest.raises(ValueError, match="window"):
        sliding_mean_normalize(np.zeros((5, 2)), window=0)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=40))
def test_cmn_matches_naive_windowed_mean(t_frames, window):
    rng = np.random.default_rng(t_frames * 1000 + window)
    f = rng.normal(size=(t_frames, 3))
    out = sliding_mean_normalize(f, window=window)
    half = window // 2
    for t in range(t_frames):
        lo, hi = max(0, t - half), min(t_frames, t + half + 1)
        assert np.allclose(out[t], f[t] - f[lo:hi].mean(axis=0))


# --- SpecAugment -------------------------------------------------------------


def test_spec_augment_masks_only_declared_cells():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(120, 40))
    p = SpecAugmentParams()
    seed = 555
    out = spec_augment(f, p, seed)
    freq_masks, time_masks = draw_masks(120, 40, p, seed)
    masked = np.zeros_like(f, dtype=bool)
    for start, width in freq_masks:
        masked[:, start : start + width] = True
    for start, width in time_masks:
        masked[start : start + width, :] = True
    assert np.array_equal(out[~masked], f[~masked])
    value = float(np.mean(f))
    assert np.all(out[masked] == value)


def test_spec_augment_deterministic_per_seed():
    f = np.random.default_rng(3).normal(size=(60, 40))
    p = SpecAugmentParams()
    assert np.array_equal(spec_augment(f, p, 9), spec_augment(f, p, 9))
    seeds = [spec_augment(f, p, s) for s in range(20)]
    assert any(not np.array_equal(seeds[0], s) for s in seeds[1:])


def test_spec_augment_zero_masks_is_identity():
    f = np.random.default_rng(4).normal(size=(30, 40))
    p = SpecAugmentParams(num_freq_masks=0, num_time_masks=0)
    assert np.array_equal(spec_augment(f, p, 1), f)


def test_spec_augment_band_widths_within_limits():
    p = SpecAugmentParams(max_freq_mask_width=8, max_time_mask_width=20)
    for seed in range(200):
        freq_masks, time_masks = draw_masks(100, 40, p, seed)
        for start, width in freq_masks:
            assert 0 <= width <= 8
            assert 0 <= start and start + width <= 40
        for start, width in time_masks:
            assert 0 <= width <= 20
            assert 0 <= start and start + width <= 100
    # the full width range gets exercised
    widths = {
        draw_masks(100, 40, p, s)[0][0][1] for s in range(200)
    }
    assert widths == set(range(9))


def test_spec_augment_short_axis_clamps_width():
    p = SpecAugmentParams(max_time_mask_width=20)
    for seed in range(50):
        _, time_masks = draw_masks(5, 40, p, seed)
        for start, width in time_masks:
            assert width <= 5
            assert start + width <= 5


def test_spec_augment_empty_input():
    f = np.zeros((0, 40))
    out = spec_augment(f, SpecAugmentParams(), 3)
    assert out.shape == (0, 40)


def test_spec_augment_does_not_mutate_input():
    f = np.ones((40, 40))
    snapshot = f.copy()
    spec_augment(f, SpecAugmentParams(), 7)
    assert np.array_equal(f, snapshot)
