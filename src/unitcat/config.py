"""Pipeline configuration: sectioned key=value text, strictly validated.

Unknown keys, duplicate keys, type errors and missing required keys are
all rejected with the offending line number so config drift fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import DEFAULT_SILENCE_LABELS


class ConfigError(ValueError):
    pass


@dataclass
class PipelineConfig:
    corpus_dir: str
    out_dir: str
    transcript: tuple[str, ...]
    seed: int
    noise_dir: str | None = None
    rir_dir: str | None = None
    snr_list: tuple[float, ...] = ()
    silence_labels: frozenset[str] = DEFAULT_SILENCE_LABELS
    cmn_window: int = 300
    spec_augment: bool = False
    freq_mask_width: int = 8
    num_freq_masks: int = 1
    time_mask_width: int = 20
    num_time_masks: int = 1
    train_steps: int = 200
    learn_rate: float = 0.05
    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_units(raw: str) -> tuple[str, ...]:
    units = tuple(raw.split())
    if not units:
        raise ValueError("expected at least one unit")
    return units


def _parse_label_set(raw: str) -> frozenset[str]:
    return frozenset(raw.split())


def _checked(convert, ok, expected: str):
    """A parser that converts a raw value and refuses it unless ok(value)."""

    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"expected {expected}, got {raw!r}")
        return value

    return parse


_parse_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_parse_nonnegative_int = _checked(int, lambda v: v >= 0, "an integer >= 0")
_parse_learn_rate = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_parse_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_parse_probability = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")


def _parse_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(float(p) for p in parts)


_REQUIRED = object()

# (section, key) -> (field name, parser, default)
_SCHEMA = {
    ("paths", "corpus_dir"): ("corpus_dir", str, _REQUIRED),
    ("paths", "out_dir"): ("out_dir", str, _REQUIRED),
    ("paths", "noise_dir"): ("noise_dir", str, None),
    ("paths", "rir_dir"): ("rir_dir", str, None),
    ("synthesis", "transcript"): ("transcript", _parse_units, _REQUIRED),
    ("synthesis", "seed"): ("seed", int, _REQUIRED),
    ("synthesis", "silence_labels"): (
        "silence_labels",
        _parse_label_set,
        DEFAULT_SILENCE_LABELS,
    ),
    ("augment", "snr_list"): ("snr_list", _parse_float_list, ()),
    ("features", "cmn_window"): ("cmn_window", _parse_positive_int, 300),
    ("features", "spec_augment"): ("spec_augment", _parse_bool, False),
    ("features", "freq_mask_width"): ("freq_mask_width", _parse_nonnegative_int, 8),
    ("features", "num_freq_masks"): ("num_freq_masks", _parse_nonnegative_int, 1),
    ("features", "time_mask_width"): ("time_mask_width", _parse_nonnegative_int, 20),
    ("features", "num_time_masks"): ("num_time_masks", _parse_nonnegative_int, 1),
    ("train", "steps"): ("train_steps", _parse_positive_int, 200),
    ("train", "learn_rate"): ("learn_rate", _parse_learn_rate, 0.05),
    ("metrics", "p_target"): ("p_target", _parse_probability, 0.01),
    ("metrics", "c_miss"): ("c_miss", _parse_positive_float, 1.0),
    ("metrics", "c_fa"): ("c_fa", _parse_positive_float, 1.0),
}


def validate_config(text: str) -> PipelineConfig:
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not section:
                raise ConfigError(f"line {lineno}: empty section name")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if (section, key) in entries:
            first = entries[(section, key)][1]
            raise ConfigError(
                f"line {lineno}: duplicate key {section}.{key} (first set at line {first})"
            )
        entries[(section, key)] = (value, lineno)

    for (section, key), (_, lineno) in entries.items():
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")

    values: dict[str, object] = {}
    for (section, key), (field, parser, default) in _SCHEMA.items():
        if (section, key) in entries:
            raw_value, lineno = entries[(section, key)]
            try:
                values[field] = parser(raw_value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {section}.{key}")
        else:
            values[field] = default
    return PipelineConfig(**values)  # type: ignore[arg-type]


def default_config_text(corpus_dir: str, out_dir: str, transcript: str, seed: int) -> str:
    """A minimal runnable config, used by the demo and tests."""
    return (
        "[paths]\n"
        f"corpus_dir = {corpus_dir}\n"
        f"out_dir = {out_dir}\n"
        "\n"
        "[synthesis]\n"
        f"transcript = {transcript}\n"
        f"seed = {seed}\n"
    )
