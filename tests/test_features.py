import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitcat.audio import Waveform
from unitcat.corpus import VadLabels
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
    draw_masks,
    frame_count,
    frame_sizes,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    sliding_mean_normalize,
    spec_augment,
)


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


# --- VAD filtering -----------------------------------------------------------


def test_vad_filter_selects_rows():
    f = np.arange(12, dtype=np.float64).reshape(4, 3)
    v = VadLabels(np.array([True, False, True, False]), 0.010, 0.025)
    out = apply_vad_filter(f, v)
    assert np.array_equal(out, f[[0, 2]])


def test_vad_filter_identity_and_empty():
    f = np.ones((5, 2))
    keep_all = VadLabels(np.ones(5, dtype=bool), 0.010, 0.025)
    drop_all = VadLabels(np.zeros(5, dtype=bool), 0.010, 0.025)
    assert np.array_equal(apply_vad_filter(f, keep_all), f)
    assert apply_vad_filter(f, drop_all).shape == (0, 2)


def test_vad_filter_length_mismatch():
    with pytest.raises(ValueError, match="frames"):
        apply_vad_filter(np.ones((4, 2)), VadLabels(np.ones(3, dtype=bool), 0.01, 0.025))


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


def test_spec_augment_explicit_mask_value():
    f = np.ones((50, 40))
    p = SpecAugmentParams(mask_value=-5.0)
    out = spec_augment(f, p, 12)
    assert set(np.unique(out)) <= {1.0, -5.0}


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
