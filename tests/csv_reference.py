"""Reference CSV readers and writers: one cell at a time, in plain Python.

These are the loaders and writers `weaksup.data` had before its vectorized
table codec, kept as the reference that `test_csv_codec.py` compares the
codec against: parsed arrays bit for bit, `DataError` messages exactly and
written bytes exactly.  The binary-feature writer writes the matrix's own
object ids (falling back to the row index), and `save_real_features` is the
row loop the command line once used for the real-feature file.
"""

from __future__ import annotations

import csv
from typing import Sequence, TextIO

import numpy as np

from weaksup.data import (
    DataError,
    FeatureMatrixBinary,
    FeatureMatrixReal,
    HardLabelVector,
    LabelMatrix,
    ProbLabelVector,
)


def _read_rows(reader: TextIO, what: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(reader))
    rows = [r for r in rows if r]  # tolerate trailing blank lines
    if not rows:
        raise DataError(f"{what}: empty file")
    header, body = rows[0], rows[1:]
    if not header or header[0] != "object_id":
        raise DataError(f"{what}: header must start with 'object_id'")
    if len(header) < 2:
        raise DataError(f"{what}: header declares no value columns")
    if not body:
        raise DataError(f"{what}: no objects")
    for i, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{what}: row {i} has {len(row)} columns, expected {len(header)}"
            )
    return header, body


def _cell_int(cell: str, what: str, row: int, col: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DataError(f"{what}: row {row}, column {col}: {cell!r} is not an integer") from None


def _cell_float(cell: str, what: str, row: int, col: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DataError(f"{what}: row {row}, column {col}: {cell!r} is not numeric") from None


def load_label_matrix(reader: TextIO) -> LabelMatrix:
    """Read `object_id,lf_1..lf_M` CSV into a source-major LabelMatrix."""
    header, body = _read_rows(reader, "labels")
    names = tuple(header[1:])
    ids = []
    rows = []
    for i, row in enumerate(body, start=1):
        ids.append(row[0])
        vals = []
        for name, cell in zip(names, row[1:]):
            v = _cell_int(cell, "labels", i, name)
            if v not in (-1, 0, 1):
                raise DataError(f"labels: row {i}, column {name}: {v} outside {{-1,0,1}}")
            vals.append(v)
        rows.append(vals)
    votes = np.array(rows, dtype=np.int8).T  # source-major
    return LabelMatrix(votes=votes, object_ids=tuple(ids), source_names=names)


def save_label_matrix(labels: LabelMatrix, writer: TextIO) -> None:
    names = labels.source_names or tuple(f"lf_{j + 1}" for j in range(labels.m))
    ids = labels.object_ids or tuple(str(i) for i in range(labels.n))
    w = csv.writer(writer, lineterminator="\n")
    w.writerow(("object_id",) + names)
    for i in range(labels.n):
        w.writerow((ids[i],) + tuple(int(v) for v in labels.votes[:, i]))


def load_binary_features(reader: TextIO, encoding: str = "pm1") -> FeatureMatrixBinary:
    """Read `object_id,f_1..f_P` CSV; `zero_one` maps 0 -> -1, 1 -> +1."""
    if encoding not in ("pm1", "zero_one"):
        raise DataError(f"unknown binary feature encoding {encoding!r}")
    allowed = (-1.0, 1.0) if encoding == "pm1" else (0.0, 1.0)
    header, body = _read_rows(reader, "binary features")
    names = tuple(header[1:])
    rows = []
    for i, row in enumerate(body, start=1):
        vals = []
        for name, cell in zip(names, row[1:]):
            v = _cell_float(cell, "binary features", i, name)
            if v not in allowed:
                raise DataError(
                    f"binary features: row {i}, column {name}: {cell!r} invalid for "
                    f"encoding {encoding}"
                )
            vals.append(v if encoding == "pm1" else (1.0 if v == 1.0 else -1.0))
        rows.append(vals)
    return FeatureMatrixBinary(np.array(rows, dtype=np.int8), column_names=names)


def save_binary_features(features: FeatureMatrixBinary, writer: TextIO) -> None:
    names = features.column_names or tuple(f"f_{j + 1}" for j in range(features.p))
    ids = features.object_ids or tuple(str(i) for i in range(features.n))
    w = csv.writer(writer, lineterminator="\n")
    w.writerow(("object_id",) + names)
    for i in range(features.n):
        w.writerow((ids[i],) + tuple(int(v) for v in features.values[i]))


def save_real_features(features: FeatureMatrixReal, writer: TextIO) -> None:
    names = features.column_names or tuple(f"v_{j + 1}" for j in range(features.q))
    ids = features.object_ids or tuple(str(i) for i in range(features.n))
    w = csv.writer(writer, lineterminator="\n")
    w.writerow(["object_id", *names])
    for i, row in enumerate(features.values):
        w.writerow([ids[i]] + [repr(float(v)) for v in row])


def load_real_features(reader: TextIO) -> FeatureMatrixReal:
    """Read `object_id,v_1..v_Q` CSV of finite reals."""
    header, body = _read_rows(reader, "real features")
    names = tuple(header[1:])
    rows = []
    for i, row in enumerate(body, start=1):
        vals = []
        for name, cell in zip(names, row[1:]):
            v = _cell_float(cell, "real features", i, name)
            if not np.isfinite(v):
                raise DataError(f"real features: row {i}, column {name}: non-finite value")
            vals.append(v)
        rows.append(vals)
    return FeatureMatrixReal(np.array(rows, dtype=np.float64), column_names=names)


def load_hard_labels(reader: TextIO, what: str = "truth") -> tuple[HardLabelVector, tuple[str, ...]]:
    """Read `object_id,y` CSV with y in {-1,+1}; returns (labels, object ids)."""
    header, body = _read_rows(reader, what)
    col = header[1]
    ids, vals = [], []
    for i, row in enumerate(body, start=1):
        ids.append(row[0])
        v = _cell_int(row[1], what, i, col)
        if v not in (-1, 1):
            raise DataError(f"{what}: row {i}, column {col}: {v} outside {{-1,+1}}")
        vals.append(v)
    return HardLabelVector(np.array(vals, dtype=np.int8)), tuple(ids)


def load_soft_labels(reader: TextIO) -> tuple[ProbLabelVector, tuple[str, ...]]:
    """Read `object_id,expected_label[,probability]` CSV; returns (labels, ids)."""
    header, body = _read_rows(reader, "soft labels")
    if header[1] != "expected_label":
        raise DataError("soft labels: second column must be 'expected_label'")
    ids, vals = [], []
    for i, row in enumerate(body, start=1):
        ids.append(row[0])
        v = _cell_float(row[1], "soft labels", i, "expected_label")
        if not (np.isfinite(v) and -1.0 <= v <= 1.0):
            raise DataError(f"soft labels: row {i}: {v} outside [-1,1]")
        vals.append(v)
    return ProbLabelVector(np.array(vals, dtype=np.float64)), tuple(ids)


def save_soft_labels(labels: ProbLabelVector, ids: Sequence[str] | None, writer: TextIO) -> None:
    """Write `object_id,expected_label,probability` rows (full float precision)."""
    ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(labels.n))
    w = csv.writer(writer, lineterminator="\n")
    w.writerow(("object_id", "expected_label", "probability"))
    prob = labels.probability
    for i in range(labels.n):
        w.writerow((ids[i], repr(float(labels.expected[i])), repr(float(prob[i]))))


def save_hard_labels(labels: HardLabelVector, ids: Sequence[str] | None, writer: TextIO) -> None:
    ids = tuple(ids) if ids is not None else tuple(str(i) for i in range(labels.n))
    w = csv.writer(writer, lineterminator="\n")
    w.writerow(("object_id", "y"))
    for i in range(labels.n):
        w.writerow((ids[i], int(labels.labels[i])))


def load_vector(reader: TextIO, column: str, what: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a two-column `object_id,<column>` CSV of finite reals."""
    header, body = _read_rows(reader, what)
    if header[1] != column:
        raise DataError(f"{what}: second column must be {column!r}, got {header[1]!r}")
    ids, vals = [], []
    for i, row in enumerate(body, start=1):
        ids.append(row[0])
        v = _cell_float(row[1], what, i, column)
        if not np.isfinite(v):
            raise DataError(f"{what}: row {i}: non-finite value")
        vals.append(v)
    return np.array(vals, dtype=np.float64), tuple(ids)
