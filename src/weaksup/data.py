"""Core data containers, CSV ingestion, and validation.

Labeling-function votes are stored source-major (M x N) because every model
computation iterates per source; feature matrices are object-major.  All
containers freeze their arrays after construction and are safe to share
read-only across workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np


class DataError(Exception):
    """Malformed or out-of-domain input data."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


def _set(obj, **fields) -> None:
    # frozen-dataclass field assignment during __post_init__
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class LabelMatrix:
    """Votes of M sources over N objects; entries in {-1, 0, +1}, 0 = abstain."""

    votes: np.ndarray
    object_ids: tuple[str, ...] | None = None
    source_names: tuple[str, ...] | None = None

    def __post_init__(self):
        votes = np.asarray(self.votes)
        if votes.ndim != 2:
            raise DataError("label matrix must be 2-dimensional (sources x objects)")
        if votes.shape[0] < 1 or votes.shape[1] < 1:
            raise DataError("label matrix needs at least one source and one object")
        if not np.isin(votes, (-1, 0, 1)).all():
            j, o = np.argwhere(~np.isin(votes, (-1, 0, 1)))[0]
            raise DataError(f"vote outside {{-1,0,1}} at source {j}, object {o}")
        _set(self, votes=_frozen(votes.astype(np.int8)))
        if self.object_ids is not None and len(self.object_ids) != self.n:
            raise DataError("object_ids length does not match object count")
        if self.source_names is not None and len(self.source_names) != self.m:
            raise DataError("source_names length does not match source count")

    @property
    def m(self) -> int:
        return self.votes.shape[0]

    @property
    def n(self) -> int:
        return self.votes.shape[1]


@dataclass(frozen=True)
class FeatureMatrixBinary:
    """N x P feature matrix with entries in {-1, +1}."""

    values: np.ndarray
    column_names: tuple[str, ...] | None = None
    object_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise DataError("binary feature matrix must be 2-dimensional")
        if not np.isin(values, (-1, 1)).all():
            o, j = np.argwhere(~np.isin(values, (-1, 1)))[0]
            raise DataError(f"binary feature outside {{-1,+1}} at object {o}, column {j}")
        _set(self, values=_frozen(values.astype(np.int8)))
        if self.column_names is not None and len(self.column_names) != self.p:
            raise DataError("column_names length does not match feature count")
        if self.object_ids is not None and len(self.object_ids) != self.n:
            raise DataError("object_ids length does not match object count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FeatureMatrixReal:
    """N x Q real-valued feature matrix; all entries finite."""

    values: np.ndarray
    column_names: tuple[str, ...] | None = None
    object_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DataError("real feature matrix must be 2-dimensional")
        if not np.isfinite(values).all():
            o, j = np.argwhere(~np.isfinite(values))[0]
            raise DataError(f"non-finite feature at object {o}, column {j}")
        _set(self, values=_frozen(values))
        if self.object_ids is not None and len(self.object_ids) != self.n:
            raise DataError("object_ids length does not match object count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class HardLabelVector:
    """Length-N vector of hard labels in {-1, +1}."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 1:
            raise DataError("hard labels must be a vector")
        if not np.isin(labels, (-1, 1)).all():
            o = np.argwhere(~np.isin(labels, (-1, 1)))[0, 0]
            raise DataError(f"hard label outside {{-1,+1}} at object {o}")
        _set(self, labels=_frozen(labels.astype(np.int8)))

    @property
    def n(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True)
class ProbLabelVector:
    """Soft labels stored as the expected label E[Y | votes] in [-1, 1].

    The probability of class +1 is (1 + expected) / 2.
    """

    expected: np.ndarray

    def __post_init__(self):
        expected = np.asarray(self.expected, dtype=np.float64)
        if expected.ndim != 1:
            raise DataError("soft labels must be a vector")
        if not np.isfinite(expected).all() or (np.abs(expected) > 1.0).any():
            o = np.argwhere(~(np.isfinite(expected) & (np.abs(expected) <= 1.0)))[0, 0]
            raise DataError(f"expected label outside [-1,1] at object {o}")
        _set(self, expected=_frozen(expected))

    @property
    def n(self) -> int:
        return self.expected.shape[0]

    @property
    def probability(self) -> np.ndarray:
        """P(Y = +1) per object."""
        return (1.0 + self.expected) / 2.0


@dataclass(frozen=True)
class Dataset:
    """Bundle of aligned inputs for one task.

    Cross-component consistency (shared N, matching object ids) is checked by
    :func:`validate`, not at construction, so that inconsistent bundles can
    still be reported.
    """

    labels: LabelMatrix
    bin_features: FeatureMatrixBinary | None = None
    real_features: FeatureMatrixReal | None = None
    truth: HardLabelVector | None = None

    @property
    def n(self) -> int:
        return self.labels.n


@dataclass(frozen=True)
class Finding:
    level: str  # "fatal" | "warning" | "info"
    message: str


@dataclass(frozen=True)
class ValidationReport:
    n_by_component: dict[str, int]
    n_consistent: bool
    coverage: tuple[float, ...]
    vote_counts: tuple[tuple[int, int, int], ...]  # per source: (neg, abstain, pos)
    constant_bin_columns: tuple[int, ...]
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not any(f.level == "fatal" for f in self.findings)

    def to_dict(self) -> dict:
        return {
            "n_by_component": dict(self.n_by_component),
            "n_consistent": self.n_consistent,
            "coverage": list(self.coverage),
            "vote_counts": [list(c) for c in self.vote_counts],
            "constant_bin_columns": list(self.constant_bin_columns),
            "findings": [{"level": f.level, "message": f.message} for f in self.findings],
            "ok": self.ok,
        }


def check_ids(**ids: Sequence[str] | None) -> None:
    """Raise DataError naming the first row whose object id differs between
    two of the named components.  Components without ids (None) are skipped;
    rows past the end of the shorter id list are left to the count checks."""
    named = [(name, seq) for name, seq in ids.items() if seq is not None]
    for (prev_name, prev), (name, seq) in zip(named, named[1:]):
        for i, (a, b) in enumerate(zip(prev, seq), start=1):
            if a != b:
                raise DataError(
                    f"object ids differ: row {i} is {a!r} in {prev_name} but {b!r} in {name}"
                )


def validate(dataset: Dataset) -> ValidationReport:
    """Report-only consistency and coverage checks; never mutates inputs."""
    findings: list[Finding] = []
    n_by = {"labels": dataset.labels.n}
    if dataset.bin_features is not None:
        n_by["bin_features"] = dataset.bin_features.n
    if dataset.real_features is not None:
        n_by["real_features"] = dataset.real_features.n
    if dataset.truth is not None:
        n_by["truth"] = dataset.truth.n
    n_consistent = len(set(n_by.values())) == 1
    if not n_consistent:
        findings.append(Finding("fatal", f"object counts disagree: {n_by}"))
    try:
        check_ids(
            labels=dataset.labels.object_ids,
            bin_features=getattr(dataset.bin_features, "object_ids", None),
            real_features=getattr(dataset.real_features, "object_ids", None),
        )
    except DataError as e:
        findings.append(Finding("fatal", str(e)))

    votes = dataset.labels.votes
    nonabstain = votes != 0
    coverage = tuple(nonabstain.mean(axis=1).tolist())
    vote_counts = tuple(
        (int((row == -1).sum()), int((row == 0).sum()), int((row == 1).sum()))
        for row in votes
    )
    for j, cov in enumerate(coverage):
        if cov == 0.0:
            findings.append(Finding("warning", f"source {j} never votes"))

    constant_cols: tuple[int, ...] = ()
    if dataset.bin_features is not None:
        x = dataset.bin_features.values
        constant_cols = tuple(int(j) for j in range(x.shape[1]) if (x[:, j] == x[0, j]).all())
        for j in constant_cols:
            findings.append(Finding("warning", f"binary feature column {j} is constant"))

    return ValidationReport(
        n_by_component=n_by,
        n_consistent=n_consistent,
        coverage=coverage,
        vote_counts=vote_counts,
        constant_bin_columns=constant_cols,
        findings=tuple(findings),
    )


# ---------------------------------------------------------------------------
# CSV tables.  Every file is `object_id,<value columns>`; all loaders preserve
# file row order: row i is object i everywhere downstream.


def _read_table(
    reader: TextIO,
    what: str,
    dtype: type,
    valid: Callable,
    problem: Callable[[int, str, str, object], str],
    vector: bool = False,
    header_error: Callable[[tuple[str, ...]], str | None] = lambda names: None,
) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Parse a table into `(names, ids, values)`: one `dtype` array, N x C,
    or of length N for a `vector` file, which reads its first value column
    only.  `header_error(names)` may reject the value-column names before any
    cell is read.  `valid` is the domain test, on the array or on one parsed
    cell; `problem(row, column, cell, value)` words its failure.
    """
    rows = [r for r in csv.reader(reader) if r]  # tolerate trailing blank lines
    if not rows:
        raise DataError(f"{what}: empty file")
    header, body = rows[0], rows[1:]
    if not header or header[0] != "object_id":
        raise DataError(f"{what}: header must start with 'object_id'")
    if len(header) < 2:
        raise DataError(f"{what}: header declares no value columns")
    if not body:
        raise DataError(f"{what}: no objects")
    ids = []
    for i, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise DataError(
                f"{what}: row {i} has {len(row)} columns, expected {len(header)}"
            )
        ids.append(row.pop(0))  # in place: the cells are not copied
        if vector:
            del row[1:]
    names = tuple(header[1:2] if vector else header[1:])
    if (message := header_error(names)) is not None:
        raise DataError(message)
    try:
        values = np.array(body, dtype=dtype)
        if valid(values).all():
            return names, tuple(ids), values[:, 0] if vector else values
    except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
        pass
    # Some cell is bad.  Python's own number parsing, which numpy's matches,
    # finds the first one in row-major order.
    parse, kind = (int, "an integer") if dtype is np.int64 else (float, "numeric")
    for i, row in enumerate(body, start=1):
        for name, cell in zip(names, row):
            try:
                v = parse(cell)
            except ValueError:
                raise DataError(
                    f"{what}: row {i}, column {name}: {cell!r} is not {kind}"
                ) from None
            if not valid(v):
                raise DataError(problem(i, name, cell, v))
    raise AssertionError(f"{what}: the table failed its checks but no cell does")


def _write_table(
    writer: TextIO, names: Sequence[str], ids: Sequence[str] | None, columns: Sequence[np.ndarray]
) -> None:
    """Write `object_id,<names>` and one row per object; ids default to the
    row index.  Floats are written with repr, so they read back exactly."""
    ids = ids if ids is not None else [str(i) for i in range(len(columns[0]))]
    w = csv.writer(writer, lineterminator="\n")
    w.writerow(("object_id", *names))
    w.writerows(zip(ids, *(c.tolist() for c in columns)))


def load_label_matrix(reader: TextIO) -> LabelMatrix:
    """Read `object_id,lf_1..lf_M` CSV into a source-major LabelMatrix."""
    names, ids, votes = _read_table(
        reader, "labels", np.int64,
        lambda v: (v >= -1) & (v <= 1),
        lambda i, col, cell, v: f"labels: row {i}, column {col}: {v} outside {{-1,0,1}}",
    )
    return LabelMatrix(votes=votes.T, object_ids=ids, source_names=names)


def save_label_matrix(labels: LabelMatrix, writer: TextIO) -> None:
    names = labels.source_names or tuple(f"lf_{j + 1}" for j in range(labels.m))
    _write_table(writer, names, labels.object_ids, labels.votes)


def load_binary_features(reader: TextIO, encoding: str = "pm1") -> FeatureMatrixBinary:
    """Read `object_id,f_1..f_P` CSV; `zero_one` maps 0 -> -1, 1 -> +1."""
    if encoding not in ("pm1", "zero_one"):
        raise DataError(f"unknown binary feature encoding {encoding!r}")
    low = -1.0 if encoding == "pm1" else 0.0
    names, ids, values = _read_table(
        reader, "binary features", np.float64,
        lambda v: (v == low) | (v == 1.0),
        lambda i, col, cell, v: (
            f"binary features: row {i}, column {col}: {cell!r} invalid for encoding {encoding}"
        ),
    )
    if encoding == "zero_one":
        values = np.where(values == 1.0, 1, -1)
    return FeatureMatrixBinary(values, column_names=names, object_ids=ids)


def save_binary_features(features: FeatureMatrixBinary, writer: TextIO) -> None:
    names = features.column_names or tuple(f"f_{j + 1}" for j in range(features.p))
    _write_table(writer, names, features.object_ids, features.values.T)


def load_real_features(reader: TextIO) -> FeatureMatrixReal:
    """Read `object_id,v_1..v_Q` CSV of finite reals."""
    names, ids, values = _read_table(
        reader, "real features", np.float64, np.isfinite,
        lambda i, col, cell, v: f"real features: row {i}, column {col}: non-finite value",
    )
    return FeatureMatrixReal(values, column_names=names, object_ids=ids)


def save_real_features(features: FeatureMatrixReal, writer: TextIO) -> None:
    names = features.column_names or tuple(f"v_{j + 1}" for j in range(features.q))
    _write_table(writer, names, features.object_ids, features.values.T)


def load_hard_labels(reader: TextIO, what: str = "truth") -> tuple[HardLabelVector, tuple[str, ...]]:
    """Read `object_id,y` CSV with y in {-1,+1}; returns (labels, object ids)."""
    _, ids, values = _read_table(
        reader, what, np.int64,
        lambda v: (v == -1) | (v == 1),
        lambda i, col, cell, v: f"{what}: row {i}, column {col}: {v} outside {{-1,+1}}",
        vector=True,
    )
    return HardLabelVector(values), ids


def load_soft_labels(reader: TextIO) -> tuple[ProbLabelVector, tuple[str, ...]]:
    """Read `object_id,expected_label[,probability]` CSV; returns (labels, ids)."""
    _, ids, values = _read_table(
        reader, "soft labels", np.float64,
        lambda v: np.isfinite(v) & (np.abs(v) <= 1.0),
        lambda i, col, cell, v: f"soft labels: row {i}: {v} outside [-1,1]",
        vector=True,
        header_error=lambda names: (
            None if names[0] == "expected_label"
            else "soft labels: second column must be 'expected_label'"
        ),
    )
    return ProbLabelVector(values), ids


def save_soft_labels(labels: ProbLabelVector, ids: Sequence[str] | None, writer: TextIO) -> None:
    """Write `object_id,expected_label,probability` rows (full float precision)."""
    _write_table(
        writer, ("expected_label", "probability"), ids, (labels.expected, labels.probability)
    )


def save_hard_labels(labels: HardLabelVector, ids: Sequence[str] | None, writer: TextIO) -> None:
    _write_table(writer, ("y",), ids, (labels.labels,))


def load_vector(reader: TextIO, column: str, what: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Read a two-column `object_id,<column>` CSV of finite reals."""
    _, ids, values = _read_table(
        reader, what, np.float64, np.isfinite,
        lambda i, col, cell, v: f"{what}: row {i}: non-finite value",
        vector=True,
        header_error=lambda names: (
            None if names[0] == column
            else f"{what}: second column must be {column!r}, got {names[0]!r}"
        ),
    )
    return values, ids
