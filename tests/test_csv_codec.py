"""The table codec in `weaksup.data` against the per-cell reference readers
and writers in `csv_reference.py`.

Tables are built from cell spellings that Python's `int()`/`float()` treat in
non-obvious ways (signs, spaces, underscores, `-0`, exponents, `nan`, empty
cells, integers beyond int64).  A well-formed table must parse to the
reference's arrays bit for bit, a table with bad cells must raise the
reference's exact `DataError` message, and every writer must produce the
reference's bytes, except that the codec also quotes a field holding a lone
'\r', which Python 3.11's csv.writer leaves bare and cannot read back.
"""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import csv_reference as ref
from weaksup import cli, data
from weaksup.data import (
    DataError,
    FeatureMatrixBinary,
    FeatureMatrixReal,
    HardLabelVector,
    LabelMatrix,
    ProbLabelVector,
)
from weaksup.genmodel import fit_sp, label_sp
from weaksup.synth import E2EScenario, gen_e2e

INT_EDGE = ["+1", " 1", "1 ", "\t-1", "-0", "+0", "00", "0_0", "-0_1"]
BAD_INT = ["2", "-2", "1e0", "0.5", "1.", "nan", "", "x", "1__0", "99999999999999999999"]
FLOAT_EDGE = ["+1", " -1 ", "1.0", "-1e0", "1_0e-1", "-0", "0_0", "1e-400"]
BAD_FLOAT = ["", "x", "nan", "-nan", "inf", "-inf", "1e400", "0x1", "1__0", "True"]


def _reals(lo=-1e6, hi=1e6):
    """Finite floats, spelled by repr, in exponent form or as an edge cell."""
    x = st.floats(lo, hi, allow_nan=False)
    return st.one_of(
        x.map(repr), x.map(lambda v: f"{v:.6e}"), st.sampled_from(FLOAT_EDGE)
    ).filter(lambda c: lo <= float(c) <= hi)


# loader name -> (codec call, reference call, good cell, bad cell, vector file,
# second-column name that a vector file must carry, or None)
LOADERS = {
    "labels": (
        data.load_label_matrix, ref.load_label_matrix,
        st.sampled_from(["-1", "0", "1", *INT_EDGE]), st.sampled_from(BAD_INT), False, None),
    "binary_pm1": (
        data.load_binary_features, ref.load_binary_features,
        st.sampled_from(["-1", "1", "1.0", "-1e0", "+1", " -1 ", "1_0e-1"]),
        st.sampled_from(["0", "2", "0.5", "-0", *BAD_FLOAT]), False, None),
    "binary_zero_one": (
        lambda f: data.load_binary_features(f, "zero_one"),
        lambda f: ref.load_binary_features(f, "zero_one"),
        st.sampled_from(["0", "1", "-0", "0.0", "1e0", "+1", " 0_0 ", "1e-400"]),
        st.sampled_from(["-1", "2", "0.5", *BAD_FLOAT]), False, None),
    "real": (
        data.load_real_features, ref.load_real_features,
        _reals(), st.sampled_from(BAD_FLOAT), False, None),
    "hard": (
        data.load_hard_labels, ref.load_hard_labels,
        st.sampled_from(["-1", "1", "+1", " 1", "01", "-0_1"]),
        st.sampled_from(["0", "-0", *BAD_INT]), True, None),
    "soft": (
        data.load_soft_labels, ref.load_soft_labels,
        _reals(-1.0, 1.0), st.sampled_from(["1.5", "-2", "1e0_1", *BAD_FLOAT]), True,
        "expected_label"),
    "vector": (
        lambda f: data.load_vector(f, "disagreement", "disagreement"),
        lambda f: ref.load_vector(f, "disagreement", "disagreement"),
        _reals(), st.sampled_from(BAD_FLOAT), True, "disagreement"),
}


def _outcome(load, text: str):
    try:
        result = load(io.StringIO(text))
    except DataError as e:
        return "error", str(e)
    return "ok", result


def _array(result) -> np.ndarray:
    """The parsed array of a loader's result."""
    if isinstance(result, tuple):
        result = result[0]
    for attr in ("votes", "values", "labels", "expected"):
        if hasattr(result, attr):
            return getattr(result, attr)
    return result


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def tables(draw, loader: str, n_bad: int):
    """CSV text for `loader` with `n_bad` bad cells among good ones."""
    _, _, good, bad, vector, column = LOADERS[loader]
    n = draw(st.integers(1, 6))
    c = draw(st.integers(1, 2)) if vector else draw(st.integers(1, 4))
    ids = draw(st.lists(st.from_regex(r"[a-z0-9_]{1,4}", fullmatch=True), min_size=n, max_size=n))
    cells = [[draw(good) for _ in range(c)] for _ in range(n)]
    parsed = [(i, 0) for i in range(n)] if vector else [(i, j) for i in range(n) for j in range(c)]
    for i, j in draw(st.lists(st.sampled_from(parsed), min_size=n_bad, max_size=n_bad)):
        cells[i][j] = draw(bad)
    if vector:  # a vector file's extra columns are never read
        for row in cells:
            row[1:] = [draw(st.sampled_from(["junk", "", "0.5"])) for _ in row[1:]]
    names = [column or "c_1"] + [f"c_{j + 1}" for j in range(1, c)]
    lines = [",".join(["object_id", *names])]
    lines += [",".join([oid, *row]) for oid, row in zip(ids, cells)]
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


def _ids(text: str) -> list[str]:
    return [line.split(",")[0] for line in text.splitlines()[1:] if line]


def _repeat(ids: list[str]) -> str | None:
    """The message tail for the first repeated id (the reference loaders
    accept repeats), or None when every id is distinct."""
    for i, oid in enumerate(ids):
        if oid in ids[:i]:
            return f"object id {oid!r} repeats in rows {ids.index(oid) + 1} and {i + 1}"
    return None


@pytest.mark.parametrize("loader", sorted(LOADERS))
@given(data_=st.data())
def test_well_formed_tables_match_reference_bit_for_bit(loader, data_):
    text = data_.draw(tables(loader, n_bad=0))
    load, load_ref = LOADERS[loader][:2]
    got, want = _outcome(load, text), _outcome(load_ref, text)
    if (repeat := _repeat(_ids(text))) is not None:
        assert got[0] == "error" and got[1].endswith(": " + repeat), got
        return
    assert got[0] == want[0] == "ok", (got, want)
    assert _same_bits(_array(got[1]), _array(want[1]))
    if isinstance(want[1], tuple):
        assert got[1][1] == want[1][1]  # object ids
    if hasattr(got[1], "object_ids"):
        assert got[1].object_ids == tuple(_ids(text))


@pytest.mark.parametrize("loader", sorted(LOADERS))
@given(data_=st.data())
def test_bad_cells_give_the_reference_message(loader, data_):
    text = data_.draw(tables(loader, n_bad=data_.draw(st.integers(1, 3))))
    load, load_ref = LOADERS[loader][:2]
    got, want = _outcome(load, text), _outcome(load_ref, text)
    assert want[0] == "error"
    if (repeat := _repeat(_ids(text))) is not None:
        assert got[0] == "error" and got[1].endswith(": " + repeat), got
        return
    assert got == want


MALFORMED = [
    "",
    "\n\n",
    "id,c_1\na,1\n",
    "object_id\na\n",
    "object_id,c_1\n",
    "object_id,c_1\na,1,1\n",
    "object_id,c_1,c_2\na,1\n",
    "object_id,wrong\na,x\n",
    "object_id,wrong\na,1\n",
]


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_structure_gives_the_reference_message(loader, text):
    load, load_ref = LOADERS[loader][:2]
    got, want = _outcome(load, text), _outcome(load_ref, text)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got == want


# texts at the edge of the one-pass parse of plain tables; `{c}` is the
# loader's second-column name
BOUNDARY = {
    "quoted id": 'object_id,{c}\n"a",1\nb,-1\n',
    "quoted id holding a comma": 'object_id,{c}\n"a,b",1\nc,-1\n',
    "crlf line ends": "object_id,{c}\r\na,1\r\nb,-1\r\n",
    "nul in an id": "object_id,{c}\na\x00,1\nb,-1\n",
    "id starting with #": "object_id,{c}\n#a,1\nb,-1\n",
    "empty id": "object_id,{c}\n,1\nb,-1\n",
    "whitespace-only line": "object_id,{c}\na,1\n \t\nb,-1\n",
    "blank line in the middle": "object_id,{c}\na,1\n\nb,-1\n",
    "cell holding x1c": "object_id,{c}\na,\x1c1\nb,-1\n",
    "cell holding x1f": "object_id,{c}\na,1\x1f\nb,-1\n",
    "unicode spaces around a cell": "object_id,{c}\na,\xa01\u2003\nb,-1\n",
    "non-ascii digit": "object_id,{c}\na,\u0661\nb,-1\n",
    "underscore in a number": "object_id,{c}\na,0_1\nb,-1\n",
    "float spelling of an integer": "object_id,{c}\na,1.0\nb,-1\n",
    "one extra column on one row": "object_id,{c}\na,1\nb,-1,1\n",
    "one row short, one row long": "object_id,{c},c_2\na,1\nb,-1,1,1\n",
    "one row short, one row long, three columns":
        "object_id,{c},c_2,c_3\na,1,1\nb,-1,1,1,1\n",
}


def _csv_ids(text: str) -> list[str]:
    """The object ids csv.reader reads: the first cell of each body row."""
    return [row[0] for row in csv.reader(io.StringIO(text)) if row][1:]


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("case", sorted(BOUNDARY))
def test_plain_table_boundary_matches_reference(loader, case):
    load, load_ref, *_, column = LOADERS[loader]
    text = BOUNDARY[case].format(c=column or "c_1")
    got, want = _outcome(load, text), _outcome(load_ref, text)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "ok", got
    assert _same_bits(_array(got[1]), _array(want[1]))
    ids = got[1][1] if isinstance(got[1], tuple) else got[1].object_ids
    assert list(ids) == _csv_ids(text)
    for attr in ("source_names", "column_names"):
        assert getattr(got[1], attr, None) == getattr(want[1], attr, None)


# the malformed and boundary texts that hold no character only csv.reader reads
PLAIN = {
    name: text
    for name, text in [*((repr(t), t) for t in MALFORMED), *sorted(BOUNDARY.items())]
    if not any(c in text for c in data._NOT_PLAIN)
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("case", PLAIN)
def test_plain_tables_never_reach_the_csv_module(loader, case, monkeypatch):
    # a plain table is split, checked and its errors worded without
    # csv.reader, whichever check it fails
    load, load_ref, *_, column = LOADERS[loader]
    text = PLAIN[case].format(c=column or "c_1")
    want = _outcome(load_ref, text)
    monkeypatch.setattr(csv, "reader", None)
    got = _outcome(load, text)
    if want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok", got
        assert _same_bits(_array(got[1]), _array(want[1]))


# cells at the edge of the binary-feature parse, which tries int8 before
# float64: float spellings of an integer, integer spellings int() accepts,
# and integers outside int8
BINARY_EDGE = ["1.0", "1e0", "+1", " 1", "01", "-0", "1.5", "300", "-129"]


def _assert_same_outcome(load, load_ref, text: str) -> None:
    """The reference's error message, or its parsed array bit for bit."""
    got, want = _outcome(load, text), _outcome(load_ref, text)
    if want[0] == "error":
        assert got == want
    else:
        assert got[0] == "ok", got
        assert _same_bits(_array(got[1]), _array(want[1]))


@pytest.mark.parametrize("loader", ["binary_pm1", "binary_zero_one"])
@pytest.mark.parametrize("cell", BINARY_EDGE)
def test_binary_parse_edge_cells_match_reference(loader, cell):
    load, load_ref = LOADERS[loader][:2]
    _assert_same_outcome(load, load_ref, f"object_id,f_1,f_2\na,{cell},1\nb,1,{cell}\n")


def _numpy_1_loadtxt(real_loadtxt):
    """np.loadtxt as numpy < 2 has it: an integer parse of a cell that only
    parses as a float warns and truncates where numpy 2 refuses."""
    def loadtxt(lines, dtype, **kwargs):
        try:
            return real_loadtxt(lines, dtype=dtype, **kwargs)
        except ValueError:
            if np.dtype(dtype).kind != "i":
                raise
        warnings.warn(
            "loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning
        )
        return real_loadtxt(lines, dtype=np.float64, **kwargs).astype(dtype)
    return loadtxt


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("cell", ["1.0", "1.5", "-1.0"])
def test_integer_parse_via_a_float_is_refused(loader, cell, monkeypatch):
    load, load_ref, *_, column = LOADERS[loader]
    monkeypatch.setattr(np, "loadtxt", _numpy_1_loadtxt(np.loadtxt))
    _assert_same_outcome(load, load_ref, f"object_id,{column or 'c_1'}\na,{cell}\nb,-1\n")


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_crlf_file_opened_by_the_cli_takes_the_plain_parse(loader, tmp_path, monkeypatch):
    load, load_ref, *_, column = LOADERS[loader]
    text = f"object_id,{column or 'c_1'}\na,1\n\nb,1\n\n"
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    with monkeypatch.context() as m:
        m.setattr(csv, "reader", None)  # only the plain-table parse can read it now
        got = cli._load(str(path), load)
    want = load_ref(io.StringIO(text))
    assert _same_bits(_array(got), _array(want))
    ids = got[1] if isinstance(got, tuple) else got.object_ids
    assert ids == ("a", "b")


@pytest.mark.parametrize(
    "stream",
    [
        lambda: io.StringIO("object_id,c_1\n" + "a" * (csv.field_size_limit() + 1) + ",1\n"),
        lambda: io.BytesIO(b"object_id,c_1\na,1\n"),
    ],
    ids=["field past the csv size limit", "binary stream"],
)
def test_csv_module_errors_match_the_reference(stream):
    with pytest.raises(csv.Error) as got:
        data.load_label_matrix(stream())
    with pytest.raises(csv.Error) as want:
        ref.load_label_matrix(stream())
    assert str(got.value) == str(want.value)


def test_unknown_encoding_message():
    text = "object_id,f_1\na,1\n"
    with pytest.raises(DataError) as got:
        data.load_binary_features(io.StringIO(text), "bits")
    with pytest.raises(DataError) as want:
        ref.load_binary_features(io.StringIO(text), "bits")
    assert str(got.value) == str(want.value)


def _written(save, *args) -> str:
    out = io.StringIO()
    save(*args, out)
    return out.getvalue()


def _lone_cr(field: str) -> bool:
    """Whether `field` holds a '\r' but nothing else that csv.writer quotes:
    Python 3.11's writer leaves it bare and the codec quotes it."""
    return "\r" in field and not any(c in field for c in ',"\n')


# ids and names, empty ones included, that need csv quoting
FIELDS = st.from_regex(r'[a-z0-9 ,"\r\n]{0,4}', fullmatch=True)


@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**31 - 1), st.data())
def test_writers_match_reference_bytes(m, n, seed, data_):
    rng = np.random.default_rng(seed)
    # ids that need csv quoting, or none (written as the row index); names
    # that need quoting too.  A field with a lone '\r' is the codec's one
    # departure from csv.writer (test_lone_cr_field_is_quoted)
    text = FIELDS.filter(lambda t: not _lone_cr(t))
    ids = data_.draw(st.one_of(
        st.none(), st.lists(text, min_size=n, max_size=n).map(tuple)))
    names = data_.draw(st.one_of(
        st.none(), st.just(tuple(f"c{j}" for j in range(m))),
        st.lists(text, min_size=m, max_size=m).map(tuple)))
    # real values include -0.0, subnormals and values that need 17 digits
    real = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-320, 300, size=(n, m))
    real[0, 0] = -0.0
    expected = np.clip(rng.standard_normal(n), -1.0, 1.0)
    hard = rng.choice([-1, 1], size=n)

    labels = LabelMatrix(rng.integers(-1, 2, size=(m, n)), object_ids=ids, source_names=names)
    binary = FeatureMatrixBinary(rng.choice([-1, 1], size=(n, m)), column_names=names,
                                 object_ids=ids)
    reals = FeatureMatrixReal(real, column_names=names, object_ids=ids)
    soft = ProbLabelVector(expected)
    hard_v = HardLabelVector(hard)

    assert _written(data.save_label_matrix, labels) == _written(ref.save_label_matrix, labels)
    assert _written(data.save_binary_features, binary) == _written(
        ref.save_binary_features, binary)
    assert _written(data.save_real_features, reals) == _written(ref.save_real_features, reals)
    assert _written(data.save_soft_labels, soft, ids) == _written(
        ref.save_soft_labels, soft, ids)
    assert _written(data.save_hard_labels, hard_v, ids) == _written(
        ref.save_hard_labels, hard_v, ids)


def test_writers_match_reference_bytes_past_two_write_blocks():
    m, n = 4, 2 * data._BLOCK_ROWS + 37
    rng = np.random.default_rng(10)
    quoted = {0: 'o,"{}"\n', 250: "o\r\n{}", 500: ""}  # every 250th id needs quoting or is empty
    ids = tuple(quoted.get(i % 750, "o{}").format(i) for i in range(n))
    names = ("a", "b,c", 'd"', "e\r,f")
    labels = LabelMatrix(rng.integers(-1, 2, size=(m, n)), object_ids=ids, source_names=names)
    binary = FeatureMatrixBinary(rng.choice([-1, 1], size=(n, m)), object_ids=ids)
    reals = FeatureMatrixReal(rng.standard_normal((n, m)), column_names=names)
    soft = ProbLabelVector(np.clip(rng.standard_normal(n), -1.0, 1.0))
    hard = HardLabelVector(rng.choice([-1, 1], size=n))

    assert _written(data.save_label_matrix, labels) == _written(ref.save_label_matrix, labels)
    assert _written(data.save_binary_features, binary) == _written(
        ref.save_binary_features, binary)
    assert _written(data.save_real_features, reals) == _written(ref.save_real_features, reals)
    assert _written(data.save_soft_labels, soft, ids) == _written(
        ref.save_soft_labels, soft, ids)
    assert _written(data.save_hard_labels, hard, None) == _written(
        ref.save_hard_labels, hard, None)


def test_real_features_round_trip_exactly():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-320, 300, size=(5, 3))
    fm = FeatureMatrixReal(values, object_ids=tuple("abcde"))
    back = data.load_real_features(io.StringIO(_written(data.save_real_features, fm)))
    assert back.values.tobytes() == fm.values.tobytes()
    assert back.object_ids == fm.object_ids and back.column_names == ("v_1", "v_2", "v_3")


def test_lone_cr_field_is_quoted():
    # Python 3.11's csv.writer writes these fields bare, and csv.reader then
    # ends the row at the '\r'
    lm = LabelMatrix(np.array([[1, -1]]), object_ids=("a\rb", "c"), source_names=("e\rf",))
    text = _written(data.save_label_matrix, lm)
    assert text == 'object_id,"e\rf"\n"a\rb",1\nc,-1\n'
    back = data.load_label_matrix(io.StringIO(text))
    assert back.object_ids == lm.object_ids and back.source_names == lm.source_names


# loader -> (the saver of what it reads, the loader of the saver's file);
# binary features are written in pm1 whatever their file's encoding
ROUND_TRIPS = {
    "labels": (data.save_label_matrix, data.load_label_matrix),
    "binary_pm1": (data.save_binary_features, data.load_binary_features),
    "binary_zero_one": (data.save_binary_features, data.load_binary_features),
    "real": (data.save_real_features, data.load_real_features),
    "hard": (lambda r, out: data.save_hard_labels(*r, out), data.load_hard_labels),
    "soft": (lambda r, out: data.save_soft_labels(*r, out), data.load_soft_labels),
}


def _contents(result) -> tuple:
    """A loader's result as (value-column names or None, ids, array bytes)."""
    arr = _array(result)
    if isinstance(result, tuple):  # vector loaders keep ids, not names
        return None, result[1], arr.dtype, arr.shape, arr.tobytes()
    names = result.source_names if isinstance(result, LabelMatrix) else result.column_names
    return names, result.object_ids, arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("loader", sorted(ROUND_TRIPS))
@given(data_=st.data())
def test_accepted_tables_read_back_unchanged(loader, data_):
    load, _, good, _, vector, column = LOADERS[loader]
    save, reload = ROUND_TRIPS[loader]
    n = data_.draw(st.integers(1, 6))
    c = 1 if vector else data_.draw(st.integers(1, 4))
    ids = data_.draw(st.lists(FIELDS, min_size=n, max_size=n, unique=True))
    names = [column] if column else data_.draw(st.lists(FIELDS, min_size=c, max_size=c))
    quoting = data_.draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n", quoting=quoting)
    w.writerow(["object_id", *names])
    w.writerows([oid, *(data_.draw(good) for _ in range(c))] for oid in ids)
    try:
        first = load(io.StringIO(out.getvalue()))
    except (DataError, csv.Error):
        # the one kind of table here that the reader refuses: a lone '\r' left bare
        assert quoting == csv.QUOTE_MINIMAL and any(map(_lone_cr, [*ids, *names]))
        return
    back = reload(io.StringIO(_written(save, first)))
    assert _contents(back) == _contents(first)


def _spread(pool: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """n cells holding every value of `pool`, its last value in the last
    cell only, so that the first `_BLOCK_ROWS` + 1 cells of a pool of
    `_BLOCK_ROWS` + 1 values hold `_BLOCK_ROWS` of them."""
    middle = pool[rng.integers(0, len(pool) - 1, size=n - len(pool))]
    return np.concatenate([pool[:-1], middle, pool[-1:]])


def test_few_distinct_floats_past_two_write_blocks_match_reference():
    n = 2 * data._BLOCK_ROWS + 37
    rng = np.random.default_rng(12)
    # 0.1 + 0.2 needs 17 digits; 5e-324 is subnormal
    pool = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, 0.1 + 0.2, -0.75])
    real = FeatureMatrixReal(np.stack([_spread(pool, n, rng), rng.choice(pool, size=n)], axis=1))
    soft = ProbLabelVector(_spread(pool, n, rng))
    assert _written(data.save_real_features, real) == _written(ref.save_real_features, real)
    assert _written(data.save_soft_labels, soft, None) == _written(
        ref.save_soft_labels, soft, None)


@pytest.mark.parametrize("distinct", [data._BLOCK_ROWS, data._BLOCK_ROWS + 1])
def test_float_columns_either_side_of_the_table_bound_match_reference(distinct):
    n = 3 * data._BLOCK_ROWS
    rng = np.random.default_rng(distinct)
    pool = rng.standard_normal(distinct) * 10.0 ** rng.integers(-320, 300, size=distinct)
    column = _spread(pool, n, rng)
    assert np.unique(column).size == distinct
    real = FeatureMatrixReal(np.stack([column, rng.permutation(column)], axis=1))
    soft = ProbLabelVector(_spread(rng.uniform(-1.0, 1.0, size=distinct), n, rng))
    assert _written(data.save_real_features, real) == _written(ref.save_real_features, real)
    assert _written(data.save_soft_labels, soft, None) == _written(
        ref.save_soft_labels, soft, None)


def test_fitted_soft_labels_match_reference_bytes():
    n = 3 * data._BLOCK_ROWS + 5
    lm = gen_e2e(E2EScenario(n=n, seed=13)).labels
    soft = label_sp(fit_sp(lm), lm)
    assert np.unique(soft.expected).size <= 3**lm.m  # one value per vote pattern
    assert _written(data.save_soft_labels, soft, lm.object_ids) == _written(
        ref.save_soft_labels, soft, lm.object_ids)
