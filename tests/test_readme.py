import re
import shlex
import shutil
from pathlib import Path

import numpy as np

from unitcat.archive import write_archive
from unitcat.audio import Waveform, save_wav
from unitcat.cli import main
from unitcat.config import validate_config
from unitcat.kws import save_labels
from unitcat.pipeline import _STAGES, run_pipeline
from unitcat.toydata import default_speaker_specs, make_toy_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_imports_run():
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert len(blocks) == 1
    assert "import" in blocks[0]
    exec(compile(blocks[0], "README.md", "exec"), {})


def _artifact_table() -> list[tuple[str, str, list[str]]]:
    """(stage, written path, file names in the contents column) per row of
    the README's artifacts table; <name> placeholders become '*'."""
    readme = README.read_text(encoding="utf-8")
    section = readme.split("## Pipeline stages and artifacts", 1)[1].split("\n#", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) != 3 or cells[0] in ("stage", "---"):
            continue
        stage, writes, contents = cells
        (written,) = re.findall(r"`([^`]+)`", writes)
        # file names: backquoted, no spaces, with a suffix or a directory
        names = [n for n in re.findall(r"`([^` ]+)`", contents) if "." in n or "/" in n]
        rows.append((stage, re.sub(r"<\w+>", "*", written), [re.sub(r"<\w+>", "*", n) for n in names]))
    return rows


def test_toy_run_writes_every_file_the_readme_artifacts_table_lists(tmp_path):
    rows = _artifact_table()
    # the table's stages and directories are run_pipeline's, in its order
    assert [(stage, written.removeprefix("out/").split("/")[0]) for stage, written, _ in rows] == [
        (stage, directory) for stage, (directory, _) in _STAGES.items()
    ]
    corpus = tmp_path / "corpus"
    make_toy_corpus(corpus, default_speaker_specs(2))
    rng = np.random.default_rng(1)
    save_wav(
        tmp_path / "noises" / "babble.wav",
        Waveform(rng.integers(-2000, 2000, size=8000, dtype=np.int16), 16000),
    )
    save_wav(tmp_path / "rirs" / "room.wav", Waveform(np.array([20000, 0, 6000], np.int16), 16000))
    out = tmp_path / "out"
    run_pipeline(validate_config(
        "[paths]\n"
        f"corpus_dir = {corpus}\n"
        f"out_dir = {out}\n"
        f"noise_dir = {tmp_path / 'noises'}\n"
        f"rir_dir = {tmp_path / 'rirs'}\n"
        "[synthesis]\n"
        "transcript = ni hao mi ya\n"
        "seed = 5\n"
        "[augment]\n"
        "snr_list = 0, 10\n"
        "[features]\n"
        "spec_augment = true\n"
        "[train]\n"
        "steps = 2\n"
    ))
    missing = []
    for stage, written, names in rows:
        assert written.startswith("out/"), (stage, written)
        matches = sorted(out.glob(written.removeprefix("out/").rstrip("/")))
        if not matches:
            missing.append(written)
        for name in names:
            if not any(m.is_dir() and list(m.glob(name)) for m in matches):
                missing.append(f"{written} {name}")
    assert missing == []


def _readme_cli_lines() -> list[list[str]]:
    """argv of each `unitcat` command in the README's standalone sh block,
    continuation lines joined and comments dropped."""
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    (block,) = [b for b in blocks if "unitcat segment" in b]
    lines = block.replace("\\\n", " ").splitlines()
    argvs = [shlex.split(line, comments=True) for line in lines]
    assert all(argv[0] == "unitcat" for argv in argvs if argv)
    return [argv[1:] for argv in argvs if argv]


def test_readme_standalone_commands_run_on_a_toy_corpus(tmp_path, monkeypatch, capsys):
    # the block's file names, made from a toy corpus in the working directory
    corpus = make_toy_corpus(tmp_path, default_speaker_specs(2))
    shutil.copy(corpus.manifest_path, tmp_path / "m.tsv")
    shutil.copy(corpus.alignment_path, tmp_path / "a.ctm")
    rng = np.random.default_rng(3)
    save_wav(tmp_path / "noise" / "babble.wav",
             Waveform(rng.integers(-1500, 1500, size=6000, dtype=np.int16), 16000))
    save_labels(tmp_path / "labels.txt", ("sil", "ni", "hao"))
    for base, peak in (("pos_posteriors", 0.9), ("neg_posteriors", 0.1)):
        streams = []
        for i in range(3):
            probs = np.full((120, 3), 0.05)
            probs[40 + i, 1] = probs[70 + i, 2] = peak
            probs[:, 0] = 1.0 - probs[:, 1:].sum(axis=1)
            streams.append((f"{base[0]}{i}", probs.astype(np.float32)))
        write_archive(tmp_path / base, streams)
    monkeypatch.chdir(tmp_path)
    commands = _readme_cli_lines()
    assert [argv[0] for argv in commands] == [
        "segment", "synth", "featurize", "train-toy", "extract", "score", "eval", "plot-roc",
        "kws-eval",
    ]
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
