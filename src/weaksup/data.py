"""Core data containers, CSV ingestion, and validation.

Labeling-function votes are stored source-major (M x N) because every model
computation iterates per source; feature matrices are object-major.  All
containers freeze their arrays after construction and are safe to share
read-only across workers.  One derived value is cached besides: a
LabelMatrix's vote compression, its objects grouped by distinct vote row,
formed on first use, frozen too, and kept as long as the votes.
"""

from __future__ import annotations

import contextlib
import csv
import operator
import warnings
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence, TextIO

import numpy as np


class DataError(Exception):
    """Malformed or out-of-domain input data."""


def _frozen(arr: np.ndarray, dtype: type | None = None, order: str = "K") -> np.ndarray:
    """An owned, read-only copy of `arr`, in `dtype` if given, laid out in
    `order` (np.array's: "K" keeps `arr`'s layout)."""
    arr = np.array(arr, dtype=dtype, copy=True, order=order)
    arr.setflags(write=False)
    return arr


def _set(obj, **fields) -> None:
    # frozen-dataclass field assignment during __post_init__
    for name, value in fields.items():
        object.__setattr__(obj, name, value)


def _index(value, what: str, error: type[Exception] = ValueError) -> int:
    """`value`, any Python or NumPy integer, as an int.  A float, a bool or
    None, which int() would truncate or convert, raises `error` naming `what`."""
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError):
            return operator.index(value)
    raise error(f"{what}: {value!r} is not an integer index")


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def _json_array(
    body: dict, key: str, shape: tuple[int, ...], kinds: str = "iuf", default=None
) -> np.ndarray:
    """`body[key]` of a JSON model file as an array of `shape` (-1: any
    length; [] fits any shape with no entries) and a dtype kind in `kinds`.  A
    body that is not a JSON object, a missing key without a `default`, or a
    value of another kind or shape raises DataError naming the key; so does
    a JSON true or false anywhere in the value, which np.array would read
    as the number 1 or 0 beside other numbers."""
    if not isinstance(body, dict):
        raise DataError("model file must hold a JSON object")
    if key not in body and default is None:
        raise DataError(f"model file lacks {key!r}")
    value = body.get(key, default)
    try:
        arr = np.array(None if _holds_bool(value) else value)
    except ValueError:  # ragged lists
        arr = np.array(None)
    arr = arr.reshape(shape) if arr.size == 0 and 0 in shape else arr
    if (arr.dtype.kind in kinds or not arr.size) and arr.ndim == len(shape) and all(
        want in (-1, got) for want, got in zip(shape, arr.shape)
    ):
        return arr
    dims = " x ".join("N" if want < 0 else str(want) for want in shape)
    kind = "numbers" if "f" in kinds else "integers"
    raise DataError(f"model file: {key!r} must be {kind} of shape ({dims})")


KEY_LIMIT = np.iinfo(np.int64).max


def _group(key: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One member index, the inverse and the count of each distinct value of
    int64 keys in [0, size), values in increasing order.

    One 1-D np.unique serves any range; without return_index it may use a
    sort three times faster than the stable one that the first index of each
    value would need.  When the `size` possible keys number at most twice
    the keys, a counting sort replaces it: np.bincount of the keys, whose
    nonzero bins, ranked in order, give the same inverse and counts.
    """
    if size <= 2 * key.size:
        count = np.bincount(key)
        present = np.flatnonzero(count)
        rank = np.empty(count.size, np.intp)
        rank[present] = np.arange(present.size)
        inverse, count = rank[key], count[present]
    else:
        _, inverse, count = np.unique(key, return_inverse=True, return_counts=True)
    member = np.empty(count.size, np.intp)
    member[inverse] = np.arange(key.size)  # any member will do: all share the value
    return member, inverse, count


class _Votes(NamedTuple):
    """One data set's objects grouped by their distinct rows: a member of
    each row, each object's rank among the rows and each row's object
    count.  The vote compression, `LabelMatrix._compression`, groups by
    the votes alone; it is the K = 0 grouping, which every K's rows refine."""

    member: np.ndarray
    rank: np.ndarray
    count: np.ndarray


def _refine(
    groups: _Votes, digits: Iterable[np.ndarray], radix: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_group` of the rows of `groups` refined by columns of digits in
    [0, radix).

    Each object's key is a mixed-radix number whose digits are its column
    digits in base `radix`, the first column most significant, and last its
    rank among the U rows of `groups` in base U, so the keys order the
    refined rows by their column digits, then by their rank.  Before the key
    range would pass int64, the key so far is replaced by its rank among
    the distinct keys, which keeps the order and the partition."""
    u = groups.count.size
    key = np.zeros(groups.rank.size, np.int64)
    bound = 1  # key < bound
    for digit in digits:
        if radix * bound * u - 1 > KEY_LIMIT:
            _, key = np.unique(key, return_inverse=True)
            bound = int(key.max(initial=0)) + 1
        if bound > 1:  # else every key is 0
            key *= radix
        key += digit
        bound *= radix
    if u > 1:  # the rank is the last digit
        key *= u
        key += groups.rank
    return _group(key, bound * u)


@dataclass(frozen=True)
class LabelMatrix:
    """Votes of M sources over N objects; entries in {-1, 0, +1}, 0 = abstain.
    The votes are stored source-major (C order), whatever the layout given."""

    votes: np.ndarray
    object_ids: tuple[str, ...] | None = None
    source_names: tuple[str, ...] | None = None

    def __post_init__(self):
        votes = np.asarray(self.votes)
        if votes.ndim != 2:
            raise DataError("label matrix must be 2-dimensional (sources x objects)")
        if votes.shape[0] < 1 or votes.shape[1] < 1:
            raise DataError("label matrix needs at least one source and one object")
        in_domain = (votes == -1) | (votes == 0) | (votes == 1)
        if not in_domain.all():
            j, o = np.argwhere(~in_domain)[0]
            raise DataError(f"vote outside {{-1,0,1}} at source {j}, object {o}")
        _set(self, votes=_frozen(votes, np.int8, "C"))
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

    @cached_property
    def _compression(self) -> _Votes:
        """The vote compression, formed on first use: the one group of all
        objects refined by the M vote columns, each vote v read as the digit
        v + 1, so the distinct vote rows come in the lexicographic order of
        np.unique(axis=0).  Its arrays are read-only and take at most 24 N
        bytes."""
        everyone = _Votes(np.zeros(1, np.intp), np.zeros(self.n, np.intp), np.array([self.n]))
        votes = _Votes(*_refine(everyone, self.votes + 1, 3))
        for arr in votes:
            arr.setflags(write=False)
        return votes


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
        in_domain = (values == 1) | (values == -1)
        if not in_domain.all():
            o, j = np.argwhere(~in_domain)[0]
            raise DataError(f"binary feature outside {{-1,+1}} at object {o}, column {j}")
        _set(self, values=_frozen(values, np.int8))
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
        if self.column_names is not None and len(self.column_names) != self.q:
            raise DataError("column_names length does not match feature count")
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
        in_domain = (labels == 1) | (labels == -1)
        if not in_domain.all():
            o = np.argwhere(~in_domain)[0, 0]
            raise DataError(f"hard label outside {{-1,+1}} at object {o}")
        _set(self, labels=_frozen(labels, np.int8))

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
        return asdict(self) | {"ok": self.ok}


def check_ids(**ids: Sequence[str] | None) -> None:
    """Raise DataError naming the first row whose object id differs between
    two of the named components.  Components without ids (None) are skipped;
    rows past the end of the shorter id list are left to the count checks."""
    named = [(name, seq) for name, seq in ids.items() if seq is not None]
    for (prev_name, prev), (name, seq) in zip(named, named[1:]):
        if prev == seq:
            continue
        for i, (a, b) in enumerate(zip(prev, seq), start=1):
            if a != b:
                raise DataError(
                    f"object ids differ: row {i} is {a!r} in {prev_name} but {b!r} in {name}"
                )


def _constant_columns(x: np.ndarray) -> np.ndarray:
    """The columns of an N x P matrix whose entries all equal row 0's.  The
    reduction over the rows reads B rows at a time as one row of B * P >= 4096
    entries: over N rows of a narrow C-order matrix, each step would read
    only P, and a transposed copy of a wide one costs more than the check."""
    n, p = x.shape
    differs = x != x[:1]
    fold = max(1, 4096 // max(p, 1))
    full = n // fold * fold
    varies = differs[:full].reshape(full // fold, fold * p).any(axis=0).reshape(fold, p).any(axis=0)
    return np.flatnonzero(~(varies | differs[full:].any(axis=0)))


def validate(dataset: Dataset) -> ValidationReport:
    """Report-only consistency and coverage checks; never mutates inputs."""
    findings: list[Finding] = []
    parts = {"labels": dataset.labels, "bin_features": dataset.bin_features,
             "real_features": dataset.real_features, "truth": dataset.truth}
    n_by = {name: part.n for name, part in parts.items() if part is not None}
    n_consistent = len(set(n_by.values())) == 1
    if not n_consistent:
        findings.append(Finding("fatal", f"object counts disagree: {n_by}"))
    try:  # the truth vector carries no ids
        check_ids(**{name: getattr(part, "object_ids", None) for name, part in parts.items()})
    except DataError as e:
        findings.append(Finding("fatal", str(e)))

    votes = dataset.labels.votes
    vote_counts = tuple(zip(*((votes == v).sum(axis=1).tolist() for v in (-1, 0, 1))))
    coverage = tuple((neg + pos) / dataset.labels.n for neg, _, pos in vote_counts)
    for j, cov in enumerate(coverage):
        if cov == 0.0:
            findings.append(Finding("warning", f"source {j} never votes"))

    constant_cols: tuple[int, ...] = ()
    if dataset.bin_features is not None:
        constant_cols = tuple(_constant_columns(dataset.bin_features.values).tolist())
        for j in constant_cols:
            findings.append(Finding("warning", f"binary feature column {j} is constant"))
    if dataset.real_features is not None:
        # collinear with the discriminative model's bias: only l2 splits the weight
        for j in _constant_columns(dataset.real_features.values).tolist():
            findings.append(Finding("warning", f"real feature column {j} is constant"))

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


# csv.reader treats '"' and '\r' specially and, before Python 3.11, refuses
# NUL; np.loadtxt strips '\x1c'..'\x1f' as whitespace where int() and float()
# refuse them.
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def _loadtxt(body: list[str], dtypes: Sequence[type], c: int) -> np.ndarray | None:
    """Value columns 1..c-1 of `body` in the first of `dtypes` that parses
    every cell of it, or None where none does or a row is too short."""
    for dtype in dtypes:
        with warnings.catch_warnings():
            # numpy < 2 parses '1.0' as an integer with this warning, where
            # int() refuses it
            warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
            try:
                return np.loadtxt(
                    body, dtype=dtype, delimiter=",", comments=None, usecols=range(1, c), ndmin=2
                )
            except (ValueError, DeprecationWarning):
                pass
    return None


def _split(line: str) -> list[str]:
    """The cells csv.reader reads from a plain line."""
    return line.removesuffix("\n").split(",")


def _read_table(
    reader: TextIO,
    what: str,
    dtype: type,
    valid: Callable,
    problem: Callable[[int, str, str, object], str],
    vector: bool = False,
    header_error: Callable[[tuple[str, ...]], str | None] = lambda names: None,
    try_first: type | None = None,
) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    """Parse a table into `(names, ids, values)`: one array, N x C,
    or of length N for a `vector` file, which reads its first value column
    only.  `header_error(names)` may reject the value-column names; `valid`
    is the domain test, on the array or on one parsed cell;
    `problem(row, column, cell, value)` words its failure.

    Plain text (no `_NOT_PLAIN` character and no line past csv's field size
    limit) is split at commas, any other text by `csv.reader`.  Both then
    take the same checks, with the same messages, in this order: an empty
    file, the `object_id` header, no value columns, no objects, each row's
    width, `header_error`, a repeated object id (naming both rows), each
    cell's parse, the domain.  A plain table's values are parsed in one C
    pass (`np.loadtxt`), in `try_first` where every cell parses as one (a
    narrower dtype whose values `dtype` would parse equal), else in `dtype`;
    where that pass refuses the table or its values fail `valid`, the cells
    of the plain split are parsed again, as csv.reader's cells are.
    """
    lines = list(reader)  # the lines csv.reader would read, in any newline mode
    try:
        text = "".join(lines)
        # csv.reader refuses a field past its size limit
        plain = not any(c in text for c in _NOT_PLAIN) and (
            max(map(len, lines), default=0) <= csv.field_size_limit()
        )
    except TypeError:  # a binary stream, which csv.reader refuses by name
        plain = False
    if plain:
        rows = [line for line in lines if line != "\n"]  # csv.reader skips empty lines
    else:
        rows = [r for r in csv.reader(lines) if r]  # tolerate trailing blank lines
    if not rows:
        raise DataError(f"{what}: empty file")
    header = _split(rows[0]) if plain else rows[0]
    body = rows[1:]
    c = len(header)
    if header[0] != "object_id":
        raise DataError(f"{what}: header must start with 'object_id'")
    if c < 2:
        raise DataError(f"{what}: header declares no value columns")
    if not body:
        raise DataError(f"{what}: no objects")
    names = tuple(header[1:2] if vector else header[1:])
    values = cells = None
    if plain and text.count(",") == (c - 1) * len(rows):
        dtypes = (dtype,) if try_first is None else (try_first, dtype)
        values = _loadtxt(body, dtypes, c)  # a vector file's unread columns must parse too
    if values is None:
        cells = list(map(_split, body)) if plain else body
        ids = []
        for i, row in enumerate(cells, start=1):
            if len(row) != c:
                raise DataError(f"{what}: row {i} has {len(row)} columns, expected {c}")
            ids.append(row.pop(0))  # in place: the cells are not copied
            if vector:
                del row[1:]
    else:
        # np.loadtxt refuses a row with fewer than c columns, so the comma
        # total above leaves every row with exactly c
        ids = [line.partition(",")[0] for line in body]
    if (message := header_error(names)) is not None:
        raise DataError(message)
    if len(set(ids)) != len(ids):
        first: dict[str, int] = {}
        for i, oid in enumerate(ids, start=1):
            if (j := first.setdefault(oid, i)) != i:
                raise DataError(f"{what}: object id {oid!r} repeats in rows {j} and {i}")
    if cells is not None:
        try:
            values = np.array(cells, dtype=dtype)
        except (ValueError, OverflowError):  # OverflowError: an integer beyond int64
            pass
    if values is not None:
        values = values[:, 0] if vector else values
        if valid(values).all():
            return names, tuple(ids), values
    # Some cell is bad.  Python's own number parsing, which numpy's matches,
    # finds the first one in row-major order.
    if cells is None:  # plain rows whose parsed values fail `valid`
        cells = [_split(line)[1:] for line in body]
    parse, kind = (int, "an integer") if dtype is np.int64 else (float, "numeric")
    for i, row in enumerate(cells, start=1):
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


# the characters for which a field is quoted: csv.writer's QUOTE_MINIMAL set
# with '\n' line ends, and '\r', which Python 3.11's csv.writer leaves bare
# although csv.reader cannot read such a field back
_QUOTED = ',"\r\n'

# rows joined per write; larger blocks hold more text at once and save no time
_BLOCK_ROWS = 1024


def _csv_fields(texts: Sequence[str]) -> list[str]:
    """`texts` as fields of a row of two or more: one holding a `_QUOTED`
    character is quoted, its quotes doubled."""
    joined = "".join(texts)
    if not any(c in joined for c in _QUOTED):
        return list(texts)
    return [
        '"' + t.replace('"', '""') + '"' if any(c in t for c in _QUOTED) else t for t in texts
    ]


def _cell_text(column: np.ndarray) -> Callable[[slice], list[str]]:
    """The text of `column`'s cells in a slice of rows.  Floats take repr,
    so they read back exactly.  A float column of at most `_BLOCK_ROWS`
    distinct values formats each of them once and looks its cells up; any
    other is formatted a block at a time, so the text held at once stays
    one block.  Integers are looked up in the text of the column's range
    (the containers hold -1, 0 and 1 only)."""
    if column.dtype.kind == "f":
        bits = column.view(np.int64)  # distinct bits, so -0.0 is not 0.0
        # a column of many values mostly shows more than _BLOCK_ROWS of them
        # in its first _BLOCK_ROWS + 1 cells, and then skips the full np.unique
        if np.unique(bits[: _BLOCK_ROWS + 1]).size <= _BLOCK_ROWS:
            keys, inverse = np.unique(bits, return_inverse=True)
            if keys.size <= _BLOCK_ROWS:
                text = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
                return lambda rows: text[inverse[rows]].tolist()
        return lambda rows: list(map(repr, column[rows].tolist()))
    lo, hi = int(column.min(initial=0)), int(column.max(initial=0))
    text = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
    return lambda rows: text[column[rows].astype(np.intp) - lo].tolist()


def _write_table(
    writer: TextIO, names: Sequence[str], ids: Sequence[str] | None, columns: Sequence[np.ndarray]
) -> None:
    """Write `object_id,<names>` and one row per object, in the bytes
    csv.writer writes, except that a field holding '\r' is always quoted;
    ids default to the row index.  Each column, the ids included, is turned
    into text a block of rows at a time, and each block is one write."""
    n = len(columns[0])
    id_text = (
        (lambda rows: list(map(str, range(n)[rows]))) if ids is None
        else _csv_fields(ids).__getitem__
    )
    formats = [id_text, *map(_cell_text, columns)]
    writer.write(",".join(_csv_fields(("object_id", *names))) + "\n")
    for start in range(0, n, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        cells = [fmt(rows) for fmt in formats]
        writer.write("\n".join(map(",".join, zip(*cells))) + "\n")


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
        try_first=np.int8,
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
