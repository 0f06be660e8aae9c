import tracemalloc

import numpy as np
import pytest

from unitcat.archive import ArchiveError, ArchiveWriter, read_archive, read_index, write_archive


def test_roundtrip_preserves_values_and_order(tmp_path):
    rng = np.random.default_rng(0)
    items = [
        ("utt1", rng.normal(size=(5, 40)).astype(np.float32)),
        ("utt2", rng.normal(size=(3, 40)).astype(np.float32)),
        ("utt1", rng.normal(size=(2, 40)).astype(np.float32)),
    ]
    base = tmp_path / "feats"
    write_archive(base, items)
    back = read_archive(base)
    assert list(back) == ["utt1", "utt2"]
    assert len(back["utt1"]) == 2
    assert np.array_equal(back["utt1"][0], items[0][1])
    assert np.array_equal(back["utt1"][1], items[2][1])
    assert np.array_equal(back["utt2"][0], items[1][1])


def test_vector_records_become_single_rows(tmp_path):
    base = tmp_path / "emb"
    write_archive(base, [("a", np.arange(4, dtype=np.float32))])
    back = read_archive(base)
    assert back["a"][0].shape == (1, 4)
    assert back["a"][0][0].tolist() == [0.0, 1.0, 2.0, 3.0]


def test_float64_input_stored_as_float32(tmp_path):
    base = tmp_path / "emb"
    write_archive(base, [("a", np.array([[1.0, 1e-45]], dtype=np.float64))])
    back = read_archive(base)
    assert back["a"][0].dtype == np.float32


def test_writer_context_manager(tmp_path):
    base = tmp_path / "w"
    with ArchiveWriter(base) as w:
        w.add("x", np.zeros((2, 3), dtype=np.float32))
    assert base.with_suffix(".bin").stat().st_size == 2 * 3 * 4
    index = base.with_suffix(".tsv").read_text()
    assert index == "x\t0\t2\t3\n"


def test_writer_leaves_no_temporary_file_after_a_clean_close(tmp_path):
    write_archive(tmp_path / "w", [("x", np.zeros((2, 3), dtype=np.float32))])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.bin", "w.tsv"]


def test_writer_left_through_an_exception_keeps_the_old_archive(tmp_path):
    base = tmp_path / "w"
    write_archive(base, [("old", np.ones((4, 3), dtype=np.float32))])
    before = {p: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(RuntimeError, match="refused"):
        with ArchiveWriter(base) as w:
            w.add("new", np.zeros((2, 3), dtype=np.float32))
            raise RuntimeError("refused")
    assert {p: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_rejects_higher_rank_records(tmp_path):
    with ArchiveWriter(tmp_path / "w") as w:
        with pytest.raises(ArchiveError, match="1-D or 2-D"):
            w.add("x", np.zeros((2, 2, 2)))


def test_read_rejects_bad_index(tmp_path):
    base = tmp_path / "w"
    write_archive(base, [("x", np.zeros((1, 2), dtype=np.float32))])
    base.with_suffix(".tsv").write_text("x\t0\t1\n")
    with pytest.raises(ArchiveError, match="4 fields"):
        read_archive(base)


def test_read_rejects_out_of_bounds_record(tmp_path):
    base = tmp_path / "w"
    write_archive(base, [("x", np.zeros((1, 2), dtype=np.float32))])
    base.with_suffix(".tsv").write_text("x\t0\t10\t10\n")
    with pytest.raises(ArchiveError, match="past"):
        read_archive(base)


def test_records_are_independent_copies(tmp_path):
    base = tmp_path / "w"
    write_archive(base, [("x", np.ones((1, 2), dtype=np.float32))])
    back = read_archive(base)
    back["x"][0][0, 0] = 99.0  # must not fail on read-only buffers


def test_read_holds_each_record_once(tmp_path):
    base = tmp_path / "w"
    rng = np.random.default_rng(1)
    write_archive(base, [(f"u{i}", rng.standard_normal((200, 40))) for i in range(50)])
    payload = base.with_suffix(".bin").stat().st_size
    tracemalloc.start()
    try:
        back = read_archive(base)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(r.nbytes for recs in back.values() for r in recs) == payload
    assert peak <= 1.25 * payload


def _archive_with_index(tmp_path, index):
    base = tmp_path / "w"
    write_archive(base, [("x", np.zeros((2, 4), dtype=np.float32)), ("y", np.ones((2, 4)))])
    base.with_suffix(".tsv").write_text(index)
    return base


def test_read_refuses_a_negative_row_count_naming_the_line(tmp_path):
    base = _archive_with_index(tmp_path, "x\t0\t2\t4\ny\t0\t-2\t4\n")
    with pytest.raises(
        ArchiveError, match=r"w\.tsv:2: rows must be a non-negative integer, got '-2'"
    ):
        read_archive(base)


def test_read_refuses_a_negative_offset_naming_the_line(tmp_path):
    base = _archive_with_index(tmp_path, "x\t-32\t2\t4\n")
    with pytest.raises(
        ArchiveError, match=r"w\.tsv:1: offset must be a non-negative integer, got '-32'"
    ):
        read_archive(base)


def test_read_refuses_a_non_integer_field_naming_the_line(tmp_path):
    base = _archive_with_index(tmp_path, "\nx\t0\t2\t4\ny\t32\t2\t4.0\n")
    with pytest.raises(
        ArchiveError, match=r"w\.tsv:3: cols must be a non-negative integer, got '4\.0'"
    ):
        read_archive(base)


def test_record_view_reads_on_each_conversion_and_refuses_a_cut_data_file(tmp_path):
    base = tmp_path / "w"
    write_archive(base, [("x", np.zeros((2, 4))), ("x", np.ones((3, 4)))])
    first, second = read_index(base)["x"]
    assert np.shape(second) == (3, 4)
    assert np.array_equal(np.asarray(second), np.ones((3, 4), dtype=np.float32))
    with open(base.with_suffix(".bin"), "r+b") as f:
        f.truncate(40)
    assert np.array_equal(np.asarray(first), np.zeros((2, 4), dtype=np.float32))
    with pytest.raises(ArchiveError, match="record at byte 32 is cut short"):
        np.asarray(second)
