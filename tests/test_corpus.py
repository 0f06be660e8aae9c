import pytest

from unitcat.corpus import (
    AlignmentEntry,
    AlignmentError,
    ManifestError,
    UtteranceRecord,
    check_non_overlapping,
    format_alignment,
    format_manifest,
    group_alignments,
    load_alignment,
    load_manifest,
    parse_alignment,
    parse_manifest,
    save_manifest,
)

ALI_TEXT = """\
utt1 1 0.00 0.10 sil
utt1 1 0.10 0.22 ni
utt1 1 0.32 0.18 hao
utt2 1 0.00 0.30 ni
"""


def test_parse_alignment_fields_and_order():
    entries = parse_alignment(ALI_TEXT)
    assert [e.unit for e in entries] == ["sil", "ni", "hao", "ni"]
    assert entries[1].utterance_id == "utt1"
    assert entries[1].start == pytest.approx(0.10)
    assert entries[1].duration == pytest.approx(0.22)
    assert entries[1].end == pytest.approx(0.32)


def test_alignment_roundtrip():
    entries = parse_alignment(ALI_TEXT)
    assert parse_alignment(format_alignment(entries)) == entries


def test_alignment_blank_lines_skipped():
    assert parse_alignment("\n\n") == []
    assert len(parse_alignment("a 1 0 0.5 ni\n\nb 1 0 0.5 ni\n")) == 2


def test_alignment_field_count_error_names_line():
    with pytest.raises(AlignmentError, match="line 2"):
        parse_alignment("a 1 0 0.5 ni\na 1 0 0.5\n")


def test_alignment_non_numeric_error_names_line():
    with pytest.raises(AlignmentError, match="line 1"):
        parse_alignment("a 1 zero 0.5 ni\n")


@pytest.mark.parametrize("start, duration", [("1_0", "0.5"), ("0", "0_5"), ("\u0661", "0.5")])
def test_alignment_times_must_be_ascii_numbers_naming_the_line(start, duration):
    with pytest.raises(AlignmentError, match="line 2: non-numeric time field"):
        parse_alignment(f"u 1 0 0.1 sil\nu 1 {start} {duration} ni\n")


def test_alignment_negative_start_rejected():
    with pytest.raises(AlignmentError, match="negative start"):
        parse_alignment("a 1 -0.1 0.5 ni\n")


@pytest.mark.parametrize(
    "line",
    ["a 1 nan 0.5 ni", "a 1 inf 0.5 ni", "a 1 0 nan ni", "a 1 0 inf ni", "a 1 nan 0.5 sil"],
)
def test_alignment_non_finite_time_rejected_naming_the_line(line):
    with pytest.raises(AlignmentError, match="line 2: non-finite time field"):
        parse_alignment(f"a 1 0 0.1 sil\n{line}\n")


def test_alignment_zero_duration_rejected():
    with pytest.raises(AlignmentError, match="duration"):
        parse_alignment("a 1 0.1 0 ni\n")


def test_group_alignments_preserves_order():
    groups = group_alignments(parse_alignment(ALI_TEXT))
    assert list(groups) == ["utt1", "utt2"]
    assert [e.unit for e in groups["utt1"]] == ["sil", "ni", "hao"]


def test_overlap_detected():
    entries = [
        AlignmentEntry("u", "ni", 0.0, 0.3),
        AlignmentEntry("u", "hao", 0.2, 0.3),
    ]
    with pytest.raises(AlignmentError, match="overlap"):
        check_non_overlapping(entries)


def test_adjacent_entries_with_float_rounding_pass():
    # 0.1 + 0.2 exceeds 0.3 by ~5.6e-17; adjacency must not be flagged.
    entries = [
        AlignmentEntry("u", "ni", 0.1, 0.2),
        AlignmentEntry("u", "hao", 0.3, 0.2),
    ]
    check_non_overlapping(entries)


# --- manifests --------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    records = [
        UtteranceRecord("u1", "spk1", ("ni", "hao"), "wav/u1.wav"),
        UtteranceRecord("u2", "spk2", ("ni",), "wav/u2.wav", channel_index=1),
    ]
    path = tmp_path / "manifest.tsv"
    save_manifest(path, records)
    assert load_manifest(path) == records


def test_manifest_duplicate_id_names_both_lines():
    text = "u1\ts1\tni\ta.wav\nu2\ts1\tni\tb.wav\nu1\ts2\thao\tc.wav\n"
    with pytest.raises(ManifestError) as exc:
        parse_manifest(text)
    assert "line 3" in str(exc.value)
    assert "line 1" in str(exc.value)


def test_manifest_field_count_error():
    with pytest.raises(ManifestError, match="line 1"):
        parse_manifest("u1\ts1\tni\n")


def test_manifest_bad_channel_error():
    with pytest.raises(ManifestError, match="channel"):
        parse_manifest("u1\ts1\tni\ta.wav\tleft\n")


@pytest.mark.parametrize("channel", ["-1", "+1", "1_0", "\u0661", " 1"])
def test_manifest_channel_must_be_ascii_digits_naming_the_line(channel):
    # int() takes each of these; the first three used to reach the audio as
    # channel -1, 1 and 10
    with pytest.raises(ManifestError, match="line 2: channel index"):
        parse_manifest(f"u1\ts1\tni\ta.wav\t0\nu2\ts1\tni\ta.wav\t{channel}\n")


def test_manifest_transcript_split_and_empty():
    records = parse_manifest("u1\ts1\tni hao ni\ta.wav\nu2\ts1\t\tb.wav\n")
    assert records[0].transcript == ("ni", "hao", "ni")
    assert records[1].transcript == ()
    assert records[0].channel_index is None


def test_manifest_format_omits_missing_channel():
    text = format_manifest([UtteranceRecord("u", "s", ("ni",), "a.wav")])
    assert text == "u\ts\tni\ta.wav\n"


def test_loaded_manifest_and_alignment_errors_name_their_file(tmp_path):
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("u1\ts1\tni\ta.wav\nu1\ts1\tni\tb.wav\n", encoding="utf-8")
    with pytest.raises(ManifestError) as exc:
        load_manifest(manifest)
    assert str(exc.value).startswith(f"{manifest}: line 2: duplicate utterance_id 'u1'")
    ali = tmp_path / "ali.ctm"
    ali.write_text("a 1 0 0.5 ni\na 1 0 0.5\n", encoding="utf-8")
    with pytest.raises(AlignmentError) as exc:
        load_alignment(ali)
    assert str(exc.value).startswith(f"{ali}: line 2: expected 5 fields")
