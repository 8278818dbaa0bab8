"""The table codec in `weaksup.data` against the per-cell reference readers
and writers in `csv_reference.py`.

Tables are built from cell spellings that Python's `int()`/`float()` treat in
non-obvious ways (signs, spaces, underscores, `-0`, exponents, `nan`, empty
cells, integers beyond int64).  A well-formed table must parse to the
reference's arrays bit for bit, a table with bad cells must raise the
reference's exact `DataError` message, and every writer must produce the
reference's bytes.
"""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import csv_reference as ref
from weaksup import data
from weaksup.data import (
    DataError,
    FeatureMatrixBinary,
    FeatureMatrixReal,
    HardLabelVector,
    LabelMatrix,
    ProbLabelVector,
)

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


@pytest.mark.parametrize("loader", sorted(LOADERS))
@given(data_=st.data())
def test_well_formed_tables_match_reference_bit_for_bit(loader, data_):
    text = data_.draw(tables(loader, n_bad=0))
    load, load_ref = LOADERS[loader][:2]
    got, want = _outcome(load, text), _outcome(load_ref, text)
    assert got[0] == want[0] == "ok", (got, want)
    assert _same_bits(_array(got[1]), _array(want[1]))
    if isinstance(want[1], tuple):
        assert got[1][1] == want[1][1]  # object ids
    ids = [line.split(",")[0] for line in text.splitlines()[1:] if line]
    if hasattr(got[1], "object_ids"):
        assert got[1].object_ids == tuple(ids)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@given(data_=st.data())
def test_bad_cells_give_the_reference_message(loader, data_):
    text = data_.draw(tables(loader, n_bad=data_.draw(st.integers(1, 3))))
    load, load_ref = LOADERS[loader][:2]
    got, want = _outcome(load, text), _outcome(load_ref, text)
    assert want[0] == "error"
    assert got == want


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "id,c_1\na,1\n",
        "object_id\na\n",
        "object_id,c_1\n",
        "object_id,c_1\na,1,1\n",
        "object_id,c_1,c_2\na,1\n",
        "object_id,wrong\na,x\n",
        "object_id,wrong\na,1\n",
    ],
)
def test_malformed_structure_gives_the_reference_message(loader, text):
    load, load_ref = LOADERS[loader][:2]
    got, want = _outcome(load, text), _outcome(load_ref, text)
    assert got[0] == want[0]
    if want[0] == "error":
        assert got == want


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


@given(st.integers(1, 4), st.integers(1, 6), st.integers(0, 2**31 - 1), st.data())
def test_writers_match_reference_bytes(m, n, seed, data_):
    rng = np.random.default_rng(seed)
    # ids that need csv quoting, or none (written as the row index)
    ids = data_.draw(st.one_of(st.none(), st.lists(
        st.from_regex(r'[a-z0-9 ,"]{0,4}', fullmatch=True), min_size=n, max_size=n).map(tuple)))
    names = data_.draw(st.one_of(st.none(), st.just(tuple(f"c{j}" for j in range(m)))))
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


def test_real_features_round_trip_exactly():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-320, 300, size=(5, 3))
    fm = FeatureMatrixReal(values, object_ids=tuple("abcde"))
    back = data.load_real_features(io.StringIO(_written(data.save_real_features, fm)))
    assert back.values.tobytes() == fm.values.tobytes()
    assert back.object_ids == fm.object_ids and back.column_names == ("v_1", "v_2", "v_3")
