import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaksup import data
from weaksup.data import (
    DataError,
    Dataset,
    FeatureMatrixBinary,
    FeatureMatrixReal,
    HardLabelVector,
    LabelMatrix,
    ProbLabelVector,
    load_binary_features,
    load_hard_labels,
    load_label_matrix,
    load_real_features,
    load_soft_labels,
    save_binary_features,
    save_label_matrix,
    save_soft_labels,
    validate,
)


def test_load_label_matrix_transcription():
    text = "object_id,lf_1,lf_2\na,1,0\nb,-1,1\n"
    lm = load_label_matrix(io.StringIO(text))
    assert lm.m == 2 and lm.n == 2
    # source-major: votes[j] is source j over objects
    assert lm.votes.tolist() == [[1, -1], [0, 1]]
    assert lm.object_ids == ("a", "b")


def test_label_matrix_votes_are_source_major_however_read():
    text = "object_id,lf_1,lf_2,lf_3\n" + "".join(f"o{i},1,0,-1\n" for i in range(5))
    assert load_label_matrix(io.StringIO(text)).votes.flags.c_contiguous
    votes = np.asfortranarray(np.random.default_rng(0).integers(-1, 2, (3, 7)))
    lm = LabelMatrix(votes)
    assert lm.votes.flags.c_contiguous and lm.votes.dtype == np.int8
    np.testing.assert_array_equal(lm.votes, votes)


def test_the_vote_compression_is_formed_on_first_use_and_kept(monkeypatch):
    votes = np.random.default_rng(1).integers(-1, 2, (4, 300))
    formed = []
    refine = data._refine
    monkeypatch.setattr(data, "_refine", lambda *args: formed.append(args) or refine(*args))
    lm = LabelMatrix(votes, source_names=("a", "b", "c", "d"))
    before = repr(lm)
    assert not formed  # construction forms nothing
    compression = lm._compression
    assert lm._compression is compression and len(formed) == 1
    assert not any(arr.flags.writeable for arr in compression)
    column_major = LabelMatrix(np.asfortranarray(votes))._compression
    for field, a, b in zip(compression._fields, compression, column_major):
        np.testing.assert_array_equal(a, b, err_msg=field)
    assert repr(lm) == before and "_compression" not in before
    # equality still compares the fields alone, formed compression or not
    one = LabelMatrix([[1]])
    one._compression
    assert one == LabelMatrix([[1]]) and one != LabelMatrix([[-1]])


def test_load_label_matrix_out_of_domain_names_cell():
    text = "object_id,lf_1,lf_2\na,1,2\n"
    with pytest.raises(DataError, match=r"row 1, column lf_2"):
        load_label_matrix(io.StringIO(text))


def test_load_label_matrix_empty_body():
    with pytest.raises(DataError, match="no objects"):
        load_label_matrix(io.StringIO("object_id,lf_1\n"))


def test_load_label_matrix_ragged_row():
    text = "object_id,lf_1,lf_2\na,1\n"
    with pytest.raises(DataError, match="row 1"):
        load_label_matrix(io.StringIO(text))


def test_load_label_matrix_non_integer():
    text = "object_id,lf_1\na,0.5\n"
    with pytest.raises(DataError, match="not an integer"):
        load_label_matrix(io.StringIO(text))


def test_repeated_object_id_names_both_rows():
    text = "object_id,lf_1\na,1\nb,0\na,1\n"
    with pytest.raises(DataError, match="labels: object id 'a' repeats in rows 1 and 3"):
        load_label_matrix(io.StringIO(text))
    # a repeat is rejected before any cell is parsed
    with pytest.raises(DataError, match="object id 'x' repeats in rows 1 and 2"):
        load_real_features(io.StringIO("object_id,v_1\nx,nan\nx,1\n"))


def test_binary_features_zero_one_mapping():
    text = "object_id,f_1,f_2\na,0,1\n"
    fm = load_binary_features(io.StringIO(text), "zero_one")
    assert fm.values.tolist() == [[-1, 1]]


def test_binary_features_pm1():
    text = "object_id,f_1,f_2\na,-1,1\n"
    fm = load_binary_features(io.StringIO(text), "pm1")
    assert fm.values.tolist() == [[-1, 1]]


def test_binary_features_out_of_domain():
    text = "object_id,f_1\na,0.5\n"
    for enc in ("pm1", "zero_one"):
        with pytest.raises(DataError, match="f_1"):
            load_binary_features(io.StringIO(text), enc)


def test_binary_features_encoding_mismatch():
    text = "object_id,f_1\na,0\n"
    with pytest.raises(DataError):
        load_binary_features(io.StringIO(text), "pm1")


def test_real_features_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        load_real_features(io.StringIO("object_id,v_1\na,inf\n"))


def test_round_trip_label_matrix():
    text = "object_id,lf_1,lf_2\na,1,0\nb,-1,1\nc,0,0\n"
    lm = load_label_matrix(io.StringIO(text))
    out = io.StringIO()
    save_label_matrix(lm, out)
    assert out.getvalue().replace("\r", "") == text


def test_round_trip_binary_features():
    text = "object_id,f_1,f_2\n0,-1,1\n1,1,1\n"
    fm = load_binary_features(io.StringIO(text))
    out = io.StringIO()
    save_binary_features(fm, out)
    assert out.getvalue().replace("\r", "") == text


def test_soft_labels_round_trip():
    soft = ProbLabelVector(np.array([0.25, -1.0, 0.0]))
    out = io.StringIO()
    save_soft_labels(soft, ("a", "b", "c"), out)
    loaded, ids = load_soft_labels(io.StringIO(out.getvalue()))
    assert ids == ("a", "b", "c")
    np.testing.assert_array_equal(loaded.expected, soft.expected)


def test_hard_labels_load_and_domain():
    hv, ids = load_hard_labels(io.StringIO("object_id,y\na,1\nb,-1\n"))
    assert hv.labels.tolist() == [1, -1] and ids == ("a", "b")
    with pytest.raises(DataError):
        load_hard_labels(io.StringIO("object_id,y\na,0\n"))


@given(
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_label_round_trip_random(m, n, seed):
    rng = np.random.default_rng(seed)
    lm = LabelMatrix(rng.integers(-1, 2, size=(m, n)))
    buf = io.StringIO()
    save_label_matrix(lm, buf)
    again = load_label_matrix(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(again.votes, lm.votes)


def test_type_domain_checks():
    with pytest.raises(DataError):
        LabelMatrix(np.array([[2, 0]]))
    with pytest.raises(DataError):
        FeatureMatrixBinary(np.array([[0, 1]]))
    with pytest.raises(DataError):
        FeatureMatrixReal(np.array([[np.nan]]))
    with pytest.raises(DataError):
        HardLabelVector(np.array([0]))
    with pytest.raises(DataError):
        ProbLabelVector(np.array([1.5]))


@pytest.mark.parametrize("call, bad, message", [
    (LabelMatrix, np.array([1, 0]), "label matrix must be 2-dimensional"),
    (LabelMatrix, np.zeros((2, 0)), "label matrix needs at least one source and one object"),
    (lambda ids: LabelMatrix(np.zeros((1, 2)), object_ids=ids), ("a",),
     "object_ids length does not match object count"),
    (lambda names: LabelMatrix(np.zeros((1, 2)), source_names=names), ("a", "b"),
     "source_names length does not match source count"),
    (FeatureMatrixBinary, np.ones(3), "binary feature matrix must be 2-dimensional"),
    (lambda names: FeatureMatrixBinary(np.ones((2, 3)), column_names=names), ("a",),
     "column_names length does not match feature count"),
    (lambda ids: FeatureMatrixBinary(np.ones((2, 3)), object_ids=ids), ("a", "b", "c"),
     "object_ids length does not match object count"),
    (FeatureMatrixReal, np.zeros(3), "real feature matrix must be 2-dimensional"),
    (lambda ids: FeatureMatrixReal(np.zeros((2, 3)), object_ids=ids), ("a",),
     "object_ids length does not match object count"),
    (HardLabelVector, np.ones((2, 2)), "hard labels must be a vector"),
    (ProbLabelVector, np.zeros((2, 2)), "soft labels must be a vector"),
], ids=["labels 1-d", "labels empty", "labels ids", "labels names", "binary 1-d",
        "binary names", "binary ids", "real 1-d", "real ids", "hard 2-d", "soft 2-d"])
def test_containers_refuse_a_bad_shape_or_name_count(call, bad, message):
    with pytest.raises(DataError, match=f"^{message}"):
        call(bad)


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c", "d")])
def test_real_features_refuse_column_names_of_another_length(names):
    # such a matrix used to construct, and save_real_features then wrote a
    # header of 1 + len(names) cells above rows of 4, which no loader reads
    with pytest.raises(DataError, match="^column_names length does not match feature count$"):
        FeatureMatrixReal(np.zeros((2, 3)), column_names=names)
    fm = FeatureMatrixReal(np.zeros((2, 3)), column_names=names[:1] + ("b", "c"))
    out = io.StringIO()
    data.save_real_features(fm, out)
    assert load_real_features(io.StringIO(out.getvalue())).column_names == fm.column_names


@pytest.mark.parametrize("bad", [0.5, 2**40, np.nan], ids=["half", "2**40", "nan"])
def test_domain_checks_refuse_near_misses(bad):
    votes = np.array([[1, 0, -1], [0, bad, 1]])
    with pytest.raises(DataError, match=r"^vote outside \{-1,0,1\} at source 1, object 1$"):
        LabelMatrix(votes)
    pm1 = np.where(votes == 0, -1, votes)
    with pytest.raises(
        DataError, match=r"^binary feature outside \{-1,\+1\} at object 1, column 1$"
    ):
        FeatureMatrixBinary(pm1)
    with pytest.raises(DataError, match=r"^hard label outside \{-1,\+1\} at object 1$"):
        HardLabelVector(pm1[1])


def test_containers_are_immutable():
    lm = LabelMatrix(np.array([[1, 0]]))
    with pytest.raises(ValueError):
        lm.votes[0, 0] = -1


@pytest.mark.parametrize("dtype", [np.int8, np.int64])
@pytest.mark.parametrize(
    "make, attr",
    [(LabelMatrix, "votes"), (FeatureMatrixBinary, "values"),
     (lambda a: HardLabelVector(a[0]), "labels")],
    ids=["labels", "binary", "hard"],
)
def test_containers_copy_their_array_once(make, attr, dtype, monkeypatch):
    caller = np.array([[1, -1, 1], [-1, 1, 1]], dtype=dtype)
    frozen, seen = data._frozen, []

    def spy(arr, *args):
        seen.append(np.shares_memory(arr, caller))
        return frozen(arr, *args)

    monkeypatch.setattr(data, "_frozen", spy)
    stored = getattr(make(caller), attr)
    assert seen == [True]  # the one copy is _frozen's, of the caller's own array
    assert stored.dtype == np.int8 and not stored.flags.writeable
    assert not np.shares_memory(stored, caller)


def test_prob_label_probability():
    plv = ProbLabelVector(np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(plv.probability, [0.0, 0.5, 1.0])


def test_validate_coverage_and_warnings():
    lm = LabelMatrix(np.array([[1, 0, 0, 1], [0, 0, 0, 0]]))
    ds = Dataset(labels=lm)
    report = validate(ds)
    assert report.coverage[0] == 0.5
    assert any("source 1 never votes" in f.message for f in report.findings)
    assert report.ok  # warnings are not fatal
    # coverage is read off the vote counts: the non-abstain share, bit for bit
    votes = np.random.default_rng(3).choice([-1, 0, 0, 1], (4, 1001))
    report = validate(Dataset(labels=LabelMatrix(votes)))
    assert report.coverage == tuple((votes != 0).mean(axis=1).tolist())
    assert report.vote_counts == tuple(
        tuple(int((row == v).sum()) for v in (-1, 0, 1)) for row in votes)


def test_validate_mismatched_n_is_fatal():
    ds = Dataset(
        labels=LabelMatrix(np.array([[1, 0]])),
        bin_features=FeatureMatrixBinary(np.array([[1], [1], [-1]])),
    )
    report = validate(ds)
    assert not report.ok
    assert not report.n_consistent


def test_validate_flags_constant_columns_and_never_mutates():
    x = np.array([[1, 1], [1, -1]])
    ds = Dataset(
        labels=LabelMatrix(np.array([[1, -1]])),
        bin_features=FeatureMatrixBinary(x),
    )
    before = ds.bin_features.values.copy()
    report = validate(ds)
    assert report.constant_bin_columns == (0,)
    np.testing.assert_array_equal(ds.bin_features.values, before)


def test_validate_warns_about_a_constant_real_feature_column():
    real = np.random.default_rng(4).standard_normal((6, 3))
    real[:, 1] = 2.5  # collinear with the discriminative model's bias
    ds = Dataset(labels=LabelMatrix(np.ones((1, 6))), real_features=FeatureMatrixReal(real))
    report = validate(ds)
    assert report.ok
    assert [f.message for f in report.findings] == ["real feature column 1 is constant"]
    assert report.constant_bin_columns == ()
    real[:, 1] += np.arange(6)
    assert validate(Dataset(labels=ds.labels, real_features=FeatureMatrixReal(real))).findings == ()


def test_validate_counts_match_a_loop_over_sources_and_columns():
    rng = np.random.default_rng(5)
    votes = rng.integers(-1, 2, size=(4, 50))
    votes[2] = 0
    x = rng.choice([-1, 1], size=(50, 9))
    x[:, [1, 6]] = 1
    x[:, 4] = -1
    report = validate(Dataset(labels=LabelMatrix(votes), bin_features=FeatureMatrixBinary(x)))
    assert report.vote_counts == tuple(
        (int((row == -1).sum()), int((row == 0).sum()), int((row == 1).sum())) for row in votes
    )
    assert report.constant_bin_columns == tuple(
        j for j in range(x.shape[1]) if (x[:, j] == x[0, j]).all()
    ) == (1, 4, 6)


@given(st.integers(1, 3_000), st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_validate_finds_the_constant_columns_of_any_shape(n, p, seed):
    # the check folds rows into runs of 4096 entries: the shapes cover folds
    # of 1 to 4096 rows, whole and partial; each varying column differs from
    # row 0 in one random row only
    rng = np.random.default_rng(seed)
    x = np.where(rng.random(p) < 0.5, 1, -1) * np.ones((n, p), dtype=int)
    varying = rng.random(p) < 0.5
    for j in np.flatnonzero(varying) if n > 1 else ():
        x[rng.integers(1, n), j] *= -1
    report = validate(Dataset(labels=LabelMatrix(np.ones((1, n))), bin_features=FeatureMatrixBinary(x)))
    assert report.constant_bin_columns == tuple(
        j for j in range(p) if (x[:, j] == x[0, j]).all()
    )


def test_binary_features_keep_object_ids():
    text = "object_id,f_1\nx,1\ny,-1\n"
    fm = load_binary_features(io.StringIO(text))
    assert fm.object_ids == ("x", "y")
    out = io.StringIO()
    save_binary_features(fm, out)
    assert out.getvalue() == text


def test_validate_mismatched_ids_is_fatal():
    ds = Dataset(
        labels=LabelMatrix(np.array([[1, 0, -1]]), object_ids=("a", "b", "c")),
        bin_features=FeatureMatrixBinary(np.ones((3, 1)), object_ids=("a", "c", "b")),
        real_features=FeatureMatrixReal(np.zeros((3, 1))),  # no ids: not compared
    )
    report = validate(ds)
    assert not report.ok and report.n_consistent
    assert any(
        f.level == "fatal"
        and f.message == "object ids differ: row 2 is 'b' in labels but 'c' in bin_features"
        for f in report.findings
    )
    same = Dataset(labels=ds.labels, bin_features=FeatureMatrixBinary(
        np.ones((3, 1)), object_ids=("a", "b", "c")))
    assert validate(same).ok


def test_validation_report_json():
    ds = Dataset(
        labels=LabelMatrix(np.array([[1, 0, -1, 1], [0, 0, 0, 0]]), object_ids=("a", "b", "c", "d")),
        bin_features=FeatureMatrixBinary(np.array([[1, 1], [1, -1], [1, 1]]),
                                         object_ids=("a", "b", "x")),
    )
    body = json.loads(json.dumps(validate(ds).to_dict()))
    assert body == {
        "n_by_component": {"labels": 4, "bin_features": 3},
        "n_consistent": False,
        "coverage": [0.75, 0.0],
        "vote_counts": [[1, 1, 2], [0, 4, 0]],
        "constant_bin_columns": [0],
        "findings": [
            {"level": "fatal", "message": "object counts disagree: {'labels': 4, 'bin_features': 3}"},
            {"level": "fatal",
             "message": "object ids differ: row 3 is 'c' in labels but 'x' in bin_features"},
            {"level": "warning", "message": "source 1 never votes"},
            {"level": "warning", "message": "binary feature column 0 is constant"},
        ],
        "ok": False,
    }
