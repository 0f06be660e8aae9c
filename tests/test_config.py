import re
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from unitcat.config import (
    ConfigError,
    PipelineConfig,
    validate_config,
)
from unitcat.corpus import DEFAULT_SILENCE_LABELS

MINIMAL = """\
[paths]
corpus_dir = /data/corpus
out_dir = /data/out

[synthesis]
transcript = ni hao mi ya
seed = 17
"""


def test_minimal_config_and_defaults():
    cfg = validate_config(MINIMAL)
    assert cfg.corpus_dir == "/data/corpus"
    assert cfg.out_dir == "/data/out"
    assert cfg.transcript == ("ni", "hao", "mi", "ya")
    assert cfg.seed == 17
    assert cfg.noise_dir is None
    assert cfg.rir_dir is None
    assert cfg.snr_list == ()
    assert cfg.silence_labels == DEFAULT_SILENCE_LABELS
    assert cfg.spec_augment is False
    assert cfg.train_steps == 200
    assert cfg.learn_rate == 0.05
    assert cfg.p_target == 0.01
    assert cfg.c_miss == 1.0 and cfg.c_fa == 1.0


def test_full_config():
    text = (
        "[paths]\n"
        "corpus_dir = /c\n"
        "out_dir = /o\n"
        "noise_dir = /noise\n"
        "rir_dir = /rir\n"
        "[synthesis]\n"
        "transcript = ni hao\n"
        "seed = 5\n"
        "silence_labels = sil spn hum\n"
        "[augment]\n"
        "snr_list = 0, 5, 10\n"
        "[features]\n"
        "spec_augment = true\n"
        "[train]\n"
        "steps = 30\n"
        "learn_rate = 0.1\n"
        "[metrics]\n"
        "p_target = 0.05\n"
        "c_miss = 10\n"
        "c_fa = 1\n"
    )
    cfg = validate_config(text)
    assert cfg.noise_dir == "/noise"
    assert cfg.snr_list == (0.0, 5.0, 10.0)
    assert cfg.silence_labels == frozenset({"sil", "spn", "hum"})
    assert cfg.spec_augment is True
    assert cfg.train_steps == 30
    assert cfg.learn_rate == 0.1
    assert cfg.p_target == 0.05
    assert cfg.c_miss == 10.0


def test_snr_list_parsing_tolerates_spacing():
    text = MINIMAL + "[augment]\nsnr_list = 0,5 , 10.5,\n"
    assert validate_config(text).snr_list == (0.0, 5.0, 10.5)


def test_comments_and_blank_lines_ignored():
    text = "# top comment\n\n" + MINIMAL + "# trailing\n"
    assert validate_config(text).seed == 17


def test_duplicate_key_names_both_lines():
    text = MINIMAL + "[train]\nsteps = 10\nsteps = 20\n"
    with pytest.raises(ConfigError) as exc:
        validate_config(text)
    msg = str(exc.value)
    assert "duplicate key train.steps" in msg
    assert "line 10" in msg and "line 9" in msg


def test_unknown_key_names_line():
    text = MINIMAL + "[train]\noptimizer = adam\n"
    with pytest.raises(ConfigError, match="line 9: unknown key train.optimizer"):
        validate_config(text)


def test_unknown_section_rejected():
    text = MINIMAL + "[cluster]\nnodes = 4\n"
    with pytest.raises(ConfigError, match="unknown key cluster.nodes"):
        validate_config(text)


def test_missing_required_key():
    with pytest.raises(ConfigError, match="missing required key synthesis.seed"):
        validate_config("[paths]\ncorpus_dir = /c\nout_dir = /o\n[synthesis]\ntranscript = ni\n")


def test_type_error_names_line_and_key():
    text = MINIMAL + "[train]\nsteps = many\n"
    with pytest.raises(ConfigError, match="line 9: bad value for train.steps"):
        validate_config(text)


@pytest.mark.parametrize(
    "key, raw", [("steps", "0"), ("steps", "-3"), ("learn_rate", "-0.1"),
                 ("learn_rate", "nan"), ("learn_rate", "inf")]
)
def test_train_values_out_of_range_name_line_and_key(key, raw):
    text = MINIMAL + f"[train]\n{key} = {raw}\n"
    with pytest.raises(ConfigError, match=f"line 9: bad value for train.{key}"):
        validate_config(text)


def test_smallest_train_values_accepted():
    cfg = validate_config(MINIMAL + "[train]\nsteps = 1\nlearn_rate = 0\n")
    assert (cfg.train_steps, cfg.learn_rate) == (1, 0.0)


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("metrics", "p_target", "0"),
        ("metrics", "p_target", "1"),
        ("metrics", "p_target", "1.5"),
        ("metrics", "p_target", "nan"),
        ("metrics", "c_miss", "0"),
        ("metrics", "c_miss", "-1"),
        ("metrics", "c_fa", "0"),
        ("metrics", "c_fa", "inf"),
    ],
)
def test_feature_and_metric_values_out_of_range_name_line_and_key(section, key, raw):
    text = MINIMAL + f"[{section}]\n{key} = {raw}\n"
    with pytest.raises(ConfigError, match=f"line 9: bad value for {section}.{key}"):
        validate_config(text)


def test_smallest_feature_and_metric_values_accepted():
    text = MINIMAL + (
        "[metrics]\np_target = 1e-9\nc_miss = 1e-9\nc_fa = 1e-9\n"
    )
    cfg = validate_config(text)
    assert (cfg.p_target, cfg.c_miss, cfg.c_fa) == (1e-9, 1e-9, 1e-9)


@pytest.mark.parametrize(
    "section, key, raw",
    [
        ("synthesis", "seed", "1_0"),
        ("synthesis", "seed", "\u0661"),
        ("train", "steps", "\u0661"),
        ("train", "learn_rate", "0.0_5"),
        ("augment", "snr_list", "0, 1_0"),
        ("metrics", "p_target", "0.\u0660\u0661"),
        ("metrics", "c_miss", "1_0"),
        ("metrics", "c_fa", "\u0661"),
    ],
)
def test_numbers_with_underscores_or_non_ascii_digits_name_line_and_key(section, key, raw):
    if key == "seed":
        text, lineno = MINIMAL.replace("seed = 17", f"seed = {raw}"), 7
    else:
        text, lineno = MINIMAL + f"[{section}]\n{key} = {raw}\n", 9
    with pytest.raises(ConfigError, match=f"line {lineno}: bad value for {section}.{key}: "
                       "expected a number in ASCII digits"):
        validate_config(text)


def test_bool_parsing():
    for raw, want in [("true", True), ("YES", True), ("1", True), ("false", False), ("No", False), ("0", False)]:
        text = MINIMAL + f"[features]\nspec_augment = {raw}\n"
        assert validate_config(text).spec_augment is want
    with pytest.raises(ConfigError, match="boolean"):
        validate_config(MINIMAL + "[features]\nspec_augment = maybe\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside"):
        validate_config("corpus_dir = /c\n")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        validate_config("[paths]\njust some words\n")


def test_empty_section_name_rejected():
    with pytest.raises(ConfigError, match="empty section"):
        validate_config("[]\n")


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    cfg = validate_config(blocks[0])
    assert cfg.corpus_dir == "/data/corpus"
    assert cfg.noise_dir == "/data/noise"
    assert cfg.transcript == ("ni", "hao", "mi", "ya")
    assert cfg.silence_labels == frozenset({"sil", "spn"})
    assert cfg.snr_list == (0.0, 5.0, 10.0)


# --- PipelineConfig as the one table of settings -------------------------------


def test_every_setting_maps_to_one_distinct_key():
    keys = [f.metadata["key"] for f in fields(PipelineConfig)]
    assert all(len(key) == 2 for key in keys)
    assert len(set(keys)) == len(keys) == len(fields(PipelineConfig))


def test_required_settings_are_the_paths_transcript_and_seed():
    required = {f.name for f in fields(PipelineConfig) if f.default is MISSING}
    assert required == {"corpus_dir", "out_dir", "transcript", "seed"}


def test_readme_config_example_sets_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    section, keys = None, set()
    for line in block.splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and not line.startswith("#"):
            keys.add((section, line.partition("=")[0].strip()))
    assert keys == {f.metadata["key"] for f in fields(PipelineConfig)}


@pytest.mark.parametrize(
    "raw, refusal",
    [
        ("0, nan", "SNR nan is not finite"),
        ("inf", "SNR inf is not finite"),
        ("-inf, 5", "SNR -inf is not finite"),
        ("5, 5.0", "SNR 5 is listed twice"),
        ("0, 10, 1e1", "SNR 10 is listed twice"),
    ],
)
def test_snr_list_refuses_non_finite_and_repeated_values(raw, refusal):
    with pytest.raises(ConfigError, match=f"line 9: bad value for augment.snr_list: {refusal}"):
        validate_config(MINIMAL + f"[augment]\nsnr_list = {raw}\n")


def test_snr_list_keeps_values_whose_copy_ids_differ():
    cfg = validate_config(MINIMAL + "[augment]\nsnr_list = -5, 0, 0.5, 5\n")
    assert cfg.snr_list == (-5.0, 0.0, 0.5, 5.0)
