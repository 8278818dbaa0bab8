import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def test_containers_are_immutable():
    lm = LabelMatrix(np.array([[1, 0]]))
    with pytest.raises(ValueError):
        lm.votes[0, 0] = -1


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
