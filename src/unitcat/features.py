"""Front-end features: log mel filterbank, VAD filtering, sliding mean
normalization, and time/frequency masking.

Feature matrices are plain float64 arrays of shape (frames, 40) computed
with a 10 ms shift and 25 ms window; files store them as float32.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .audio import Waveform
from .corpus import VadLabels
from .rng import SplitMix64

FRAME_SHIFT_S = 0.010
FRAME_WIDTH_S = 0.025
NUM_FILTERS = 40
PRE_EMPHASIS = 0.97
MEL_LOW_HZ = 20.0
ENERGY_FLOOR = 1e-10
CMN_WINDOW = 300


def frame_sizes(sample_rate: int) -> tuple[int, int]:
    """(window, shift) in samples, rounding time*rate half up."""
    win = int(math.floor(FRAME_WIDTH_S * sample_rate + 0.5))
    shift = int(math.floor(FRAME_SHIFT_S * sample_rate + 0.5))
    return win, shift


def frame_count(num_samples: int, win: int, shift: int) -> int:
    if num_samples < win:
        raise ValueError(
            f"waveform of {num_samples} samples is shorter than one {win}-sample window"
        )
    return 1 + (num_samples - win) // shift


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(
    num_filters: int, nfft: int, sample_rate: int, low_hz: float, high_hz: float
) -> np.ndarray:
    """Triangular filters, rows (num_filters, nfft//2+1), float weights on
    FFT-bin center frequencies, corners equally spaced on the mel scale."""
    bin_hz = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    corners = mel_to_hz(np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), num_filters + 2))
    fb = np.zeros((num_filters, len(bin_hz)))
    for k in range(num_filters):
        left, center, right = corners[k], corners[k + 1], corners[k + 2]
        rising = (bin_hz - left) / (center - left)
        falling = (right - bin_hz) / (right - center)
        fb[k] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


@functools.lru_cache(maxsize=8)
def _fbank_tables(sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """(Hamming window, mel filterbank) for one sample rate, built on first
    use and shared read-only by every later call."""
    win, _ = frame_sizes(sample_rate)
    nfft = 1 << (win - 1).bit_length()
    window = np.hamming(win)
    fb = mel_filterbank(NUM_FILTERS, nfft, sample_rate, MEL_LOW_HZ, sample_rate / 2)
    window.setflags(write=False)
    fb.setflags(write=False)
    return window, fb


def compute_fbank(w: Waveform) -> np.ndarray:
    """Log mel-filterbank energies, one row per frame.

    Per frame: pre-emphasis 0.97 (first sample scaled by 1-0.97), Hamming
    window, power spectrum zero-padded to the next power of two (512 at
    16 kHz), 40 mel filters from 20 Hz to Nyquist, natural log of energies
    floored at 1e-10.
    """
    if w.channels != 1:
        raise ValueError(f"fbank needs mono audio, got {w.channels} channels")
    win, shift = frame_sizes(w.sample_rate)
    x = w.mono().astype(np.float64)
    num_frames = frame_count(len(x), win, shift)
    nfft = 1 << (win - 1).bit_length()
    window, fb = _fbank_tables(w.sample_rate)

    # Emphasize the signal once; inside a frame, sample j > 0 is y[start + j].
    y = x.copy()
    y[1:] -= PRE_EMPHASIS * x[:-1]
    padded = np.zeros((num_frames, nfft))
    frames = np.lib.stride_tricks.sliding_window_view(y, win)[::shift]
    np.multiply(frames, window, out=padded[:, :win])
    # a frame's first sample is emphasized against itself, not its predecessor
    first = x[::shift][:num_frames]
    padded[:, 0] = (first - PRE_EMPHASIS * first) * window[0]
    spectrum = np.fft.rfft(padded, axis=1)
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    return np.log(np.maximum(power @ fb.T, ENERGY_FLOOR))


def apply_vad_filter(f: np.ndarray, v: VadLabels) -> np.ndarray:
    """Keep rows flagged as speech, order preserved."""
    if len(f) != len(v.flags):
        raise ValueError(f"{len(f)} feature frames but {len(v.flags)} VAD flags")
    return f[v.flags]


def sliding_mean_normalize(f: np.ndarray, window: int = CMN_WINDOW) -> np.ndarray:
    """Subtract, per dimension, the mean over a centered window.

    Frame t uses rows [max(0, t-window//2), min(T, t+window//2+1)); the
    window shrinks at the matrix edges.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    num_frames = len(f)
    if num_frames == 0:
        return f.copy()
    half = window // 2
    t = np.arange(num_frames)
    lo = np.maximum(0, t - half)
    hi = np.minimum(num_frames, t + half + 1)
    csum = np.vstack([np.zeros((1, f.shape[1])), np.cumsum(f, axis=0)])
    means = (csum[hi] - csum[lo]) / (hi - lo)[:, None]
    return f - means


@dataclass
class SpecAugmentParams:
    max_freq_mask_width: int = 8
    num_freq_masks: int = 1
    max_time_mask_width: int = 20
    num_time_masks: int = 1
    mask_value: float | None = None  # None: per-utterance mean of the input

    def __post_init__(self) -> None:
        if min(self.max_freq_mask_width, self.num_freq_masks) < 0:
            raise ValueError("frequency mask width and count must be >= 0")
        if min(self.max_time_mask_width, self.num_time_masks) < 0:
            raise ValueError("time mask width and count must be >= 0")


def draw_masks(
    num_frames: int, num_dims: int, p: SpecAugmentParams, seed: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Seed-determined (start, width) bands: frequency masks then time masks.

    Width is uniform on [0, max]; start uniform over positions keeping the
    band inside the axis. Exposed so callers can verify exactly which cells
    a given seed masks.
    """
    rng = SplitMix64(seed)
    freq_masks = []
    for _ in range(p.num_freq_masks):
        width = min(rng.next_below(p.max_freq_mask_width + 1), num_dims)
        start = rng.next_below(num_dims - width + 1) if num_dims else 0
        freq_masks.append((start, width))
    time_masks = []
    for _ in range(p.num_time_masks):
        width = min(rng.next_below(p.max_time_mask_width + 1), num_frames)
        start = rng.next_below(num_frames - width + 1) if num_frames else 0
        time_masks.append((start, width))
    return freq_masks, time_masks


def spec_augment(f: np.ndarray, p: SpecAugmentParams, seed: int) -> np.ndarray:
    """Apply the seed's frequency and time masks; other cells untouched."""
    out = f.copy()
    if f.size == 0:
        return out
    freq_masks, time_masks = draw_masks(f.shape[0], f.shape[1], p, seed)
    value = p.mask_value if p.mask_value is not None else float(np.mean(f))
    for start, width in freq_masks:
        out[:, start : start + width] = value
    for start, width in time_masks:
        out[start : start + width, :] = value
    return out
