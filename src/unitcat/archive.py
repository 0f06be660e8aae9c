"""Binary matrix archives: float32 records addressed by a TSV index.

An archive is a pair of files sharing a base path: <base>.bin holds
concatenated row-major little-endian float32 payloads, <base>.tsv lists
one record per line as utterance_id, byte offset, rows, cols. An id may
appear on several lines (e.g. one embedding per recording channel).

read_index parses the index into Record views grouped per id in file
order; a view knows its shape and reads its payload only when converted
to an array, through the open data file it was given, if any. read_archive
reads every view from one open data file, so it holds each record once
and never a second copy of the data file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np


class ArchiveError(ValueError):
    pass


class ArchiveWriter:
    """Writes an archive into temporary siblings of its two files and moves
    them into place only on a clean close, the index last, so a reader
    never finds a partial archive. A with block left through an exception
    deletes them and leaves whatever archive was there unchanged."""

    def __init__(self, base: str | Path):
        base = Path(base)
        base.parent.mkdir(parents=True, exist_ok=True)
        self._final = [base.with_suffix(".bin"), base.with_suffix(".tsv")]
        self._temporary = [path.with_name(path.name + ".tmp") for path in self._final]
        self._bin = open(self._temporary[0], "wb")
        self._tsv = open(self._temporary[1], "w", encoding="utf-8")
        self._offset = 0

    def add(self, utt_id: str, matrix: np.ndarray) -> None:
        arr = np.ascontiguousarray(np.asarray(matrix, dtype="<f4"))
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ArchiveError(f"records must be 1-D or 2-D, got shape {arr.shape}")
        payload = arr.tobytes()
        self._bin.write(payload)
        self._tsv.write(f"{utt_id}\t{self._offset}\t{arr.shape[0]}\t{arr.shape[1]}\n")
        self._offset += len(payload)

    def close(self) -> None:
        self._bin.close()
        self._tsv.close()
        for temporary, final in zip(self._temporary, self._final):
            os.replace(temporary, final)

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
            return
        self._bin.close()
        self._tsv.close()
        for temporary in self._temporary:
            temporary.unlink()


def write_archive(base: str | Path, items) -> None:
    with ArchiveWriter(base) as w:
        for utt_id, matrix in items:
            w.add(utt_id, matrix)


@dataclass(frozen=True)
class Record:
    """One archived (rows, cols) matrix. np.asarray(record) reads its
    payload from the data file straight into a new float32 array, on
    every conversion: through data while that is open, else through a file
    it opens itself. np.shape(record) reads nothing."""

    path: Path
    offset: int
    shape: tuple[int, int]
    data: BinaryIO | None = field(default=None, compare=False, repr=False)

    def read(self, data) -> np.ndarray:
        """The payload, from the open data file, in a new float32 array."""
        arr = np.empty(self.shape, dtype="<f4")
        data.seek(self.offset)
        if data.readinto(arr) != arr.nbytes:
            raise ArchiveError(f"{self.path}: record at byte {self.offset} is cut short")
        return arr

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if self.data is not None and not self.data.closed:
            arr = self.read(self.data)
        else:
            with open(self.path, "rb") as data:
                arr = self.read(data)
        return arr if dtype is None else arr.astype(dtype, copy=False)


def _nonnegative_int(where: str, name: str, text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ArchiveError(f"{where}: {name} must be a non-negative integer, got {text!r}")
    return int(text)


def read_index(base: str | Path, data: BinaryIO | None = None) -> dict[str, list[Record]]:
    """Every record as a Record view, grouped by id, file order preserved
    within a group; the views read through data, the open data file, when
    it is given. A line without 4 fields, a field that is not a
    non-negative integer or a record that runs past the data file is
    refused, naming the index file and line."""
    base = Path(base)
    data_path = base.with_suffix(".bin")
    data_size = data_path.stat().st_size
    index_path = base.with_suffix(".tsv")
    records: dict[str, list[Record]] = {}
    for lineno, line in enumerate(
        index_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        where = f"{index_path}:{lineno}"
        fields = line.split("\t")
        if len(fields) != 4:
            raise ArchiveError(f"{where}: expected 4 fields, got {len(fields)}")
        utt_id = fields[0]
        offset, rows, cols = (
            _nonnegative_int(where, name, text)
            for name, text in zip(("offset", "rows", "cols"), fields[1:])
        )
        if offset + rows * cols * 4 > data_size:
            raise ArchiveError(f"{where}: record for {utt_id!r} runs past the data file")
        records.setdefault(utt_id, []).append(Record(data_path, offset, (rows, cols), data))
    return records


def read_archive(base: str | Path) -> dict[str, list[np.ndarray]]:
    """All records grouped by id, file order preserved within a group."""
    index = read_index(base)
    with open(Path(base).with_suffix(".bin"), "rb") as data:
        return {
            utt_id: [record.read(data) for record in records] for utt_id, records in index.items()
        }
