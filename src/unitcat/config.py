"""Pipeline configuration: sectioned key=value text, strictly validated.

PipelineConfig is the one table of run settings: each field carries its
[section] key, its parser and its default, if it has one. Unknown keys,
duplicate keys and values their parser refuses are rejected with the
offending line number; a missing required key, which has no line, is
rejected by name. So config drift fails loudly.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .corpus import DEFAULT_SILENCE_LABELS, ascii_number


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "yes", "1"):
        return True
    if raw.lower() in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def parse_units(raw: str) -> tuple[str, ...]:
    """Space-separated units, at least one."""
    units = tuple(raw.split())
    if not units:
        raise ValueError("expected at least one unit")
    return units


def _parse_label_set(raw: str) -> frozenset[str]:
    return frozenset(raw.split())


def _checked(convert, ok, expected: str):
    """A number parser that converts a raw value and refuses it unless ok(value)."""
    convert = ascii_number(convert)

    def parse(raw: str):
        value = convert(raw)
        if not ok(value):
            raise ValueError(f"expected {expected}, got {raw!r}")
        return value

    return parse


parse_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
_parse_learn_rate = _checked(float, lambda v: math.isfinite(v) and v >= 0, "a finite number >= 0")
_parse_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "a finite number > 0")
_parse_probability = _checked(float, lambda v: 0 < v < 1, "a number in (0, 1)")
parse_int = ascii_number(int)
parse_float = ascii_number(float)


def parse_snr_list(raw: str) -> tuple[float, ...]:
    """Comma-separated SNRs in dB, empty items skipped; see check_snr_list."""
    return check_snr_list(tuple(parse_float(p) for p in raw.split(",") if p.strip()))


def check_snr_list(snrs: tuple[float, ...]) -> tuple[float, ...]:
    """snrs, unless one is not finite or repeats the %g form of an earlier
    one: that form ends its noisy copy's utterance id."""
    seen: set[str] = set()
    for snr in snrs:
        if not math.isfinite(snr):
            raise ValueError(f"SNR {snr:g} is not finite")
        if f"{snr:g}" in seen:
            raise ValueError(f"SNR {snr:g} is listed twice; it names its copy (<id>-noise{snr:g})")
        seen.add(f"{snr:g}")
    return snrs


def _setting(section: str, key: str, parse, default=MISSING):
    """A field read from [section] key by parse; required without a default."""
    return field(default=default, metadata={"key": (section, key), "parse": parse})


@dataclass
class PipelineConfig:
    """Every run setting; validate_config parses them, and reports a bad or
    missing one, in field order."""

    corpus_dir: str = _setting("paths", "corpus_dir", str)
    out_dir: str = _setting("paths", "out_dir", str)
    transcript: tuple[str, ...] = _setting("synthesis", "transcript", parse_units)
    seed: int = _setting("synthesis", "seed", parse_int)
    noise_dir: str | None = _setting("paths", "noise_dir", str, None)
    rir_dir: str | None = _setting("paths", "rir_dir", str, None)
    snr_list: tuple[float, ...] = _setting("augment", "snr_list", parse_snr_list, ())
    silence_labels: frozenset[str] = _setting(
        "synthesis", "silence_labels", _parse_label_set, DEFAULT_SILENCE_LABELS
    )
    spec_augment: bool = _setting("features", "spec_augment", _parse_bool, False)
    train_steps: int = _setting("train", "steps", parse_positive_int, 200)
    learn_rate: float = _setting("train", "learn_rate", _parse_learn_rate, 0.05)
    p_target: float = _setting("metrics", "p_target", _parse_probability, 0.01)
    c_miss: float = _setting("metrics", "c_miss", _parse_positive_float, 1.0)
    c_fa: float = _setting("metrics", "c_fa", _parse_positive_float, 1.0)


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

    settings = {f.metadata["key"]: f for f in fields(PipelineConfig)}
    for (section, key), (_, lineno) in entries.items():
        if (section, key) not in settings:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")

    values: dict[str, object] = {}
    for (section, key), setting in settings.items():
        if (section, key) in entries:
            raw_value, lineno = entries[(section, key)]
            try:
                values[setting.name] = setting.metadata["parse"](raw_value)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from None
        elif setting.default is MISSING:
            raise ConfigError(f"missing required key {section}.{key}")
    return PipelineConfig(**values)  # type: ignore[arg-type]
