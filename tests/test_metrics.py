import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaksup.data import HardLabelVector, LabelMatrix, ProbLabelVector
from weaksup.metrics import (
    f1_from_precision_recall,
    majority_vote,
    score,
    soft_label_accuracy,
)


def test_majority_vote_plain():
    lm = LabelMatrix(np.array([[1], [1], [-1]]))
    assert majority_vote(lm).labels.tolist() == [1]


def test_majority_vote_tie_is_seeded_coin():
    lm = LabelMatrix(np.array([[0, 1, 1], [0, -1, 1]]))  # objects: abstain, tie, +1
    a = majority_vote(lm, seed=7)
    b = majority_vote(lm, seed=7)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert a.labels[2] == 1
    assert a.labels[0] in (-1, 1) and a.labels[1] in (-1, 1)
    flips = {tuple(majority_vote(lm, seed=s).labels[:2]) for s in range(30)}
    assert len(flips) > 1  # the coin actually depends on the seed


def test_majority_vote_invariant_under_source_permutation():
    rng = np.random.default_rng(0)
    votes = rng.integers(-1, 2, size=(5, 40))
    lm = LabelMatrix(votes)
    perm = LabelMatrix(votes[rng.permutation(5)])
    np.testing.assert_array_equal(
        majority_vote(lm, seed=3).labels, majority_vote(perm, seed=3).labels
    )


def test_score_perfect_prediction():
    y = HardLabelVector(np.array([1, -1, 1, -1]))
    s = score(y, y)
    assert s.accuracy == 1.0 and s.f1 == 1.0
    assert (s.tp, s.fp, s.tn, s.fn) == (2, 0, 2, 0)


def test_f1_from_reported_precision_recall():
    # reported precision/recall pairs, percentages
    assert f1_from_precision_recall(85.98, 41.43) == pytest.approx(55.92, abs=0.01)
    assert f1_from_precision_recall(81.13, 42.09) == pytest.approx(55.42, abs=0.01)


def test_score_zero_denominator_conventions():
    pred = HardLabelVector(np.array([-1, -1]))
    truth = HardLabelVector(np.array([-1, -1]))
    s = score(pred, truth)  # no positives anywhere
    assert s.precision == 0.0 and s.recall == 0.0 and s.f1 == 0.0
    assert s.accuracy == 1.0


def test_score_positive_class_symmetry():
    rng = np.random.default_rng(1)
    pred = HardLabelVector(rng.integers(0, 2, 60) * 2 - 1)
    truth = HardLabelVector(rng.integers(0, 2, 60) * 2 - 1)
    direct = score(pred, truth, positive_class=-1)
    flipped = score(
        HardLabelVector(-pred.labels), HardLabelVector(-truth.labels), positive_class=1
    )
    assert direct == flipped


@pytest.mark.parametrize("positive_class", [0, 2, "1"])
def test_score_refuses_a_positive_class_outside_the_labels(positive_class):
    y = HardLabelVector(np.array([1, -1]))
    with pytest.raises(ValueError, match=r"^positive_class must be \+1 or -1$"):
        score(y, y, positive_class=positive_class)


def test_score_counts_sum_to_n():
    rng = np.random.default_rng(2)
    pred = HardLabelVector(rng.integers(0, 2, 33) * 2 - 1)
    truth = HardLabelVector(rng.integers(0, 2, 33) * 2 - 1)
    s = score(pred, truth)
    assert s.n == 33


def test_percentages_round_to_two_decimals():
    pred = HardLabelVector(np.array([1, 1, -1]))
    truth = HardLabelVector(np.array([1, -1, -1]))
    pct = score(pred, truth).percentages()
    assert pct["accuracy"] == pytest.approx(66.67)


@given(st.floats(0.001, 1.0), st.floats(0.001, 1.0))
def test_f1_is_harmonic_mean_bounded(p, r):
    f1 = f1_from_precision_recall(p, r)
    assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


def test_soft_label_accuracy_cases():
    truth = HardLabelVector(np.array([1, -1, 1, -1]))
    exact = ProbLabelVector(truth.labels.astype(float))
    assert soft_label_accuracy(exact, truth) == 1.0
    zeros = ProbLabelVector(np.zeros(4))
    assert soft_label_accuracy(zeros, truth) == 0.5  # ties predict +1
    flipped = ProbLabelVector(-truth.labels.astype(float))
    assert soft_label_accuracy(flipped, truth) == 0.0
    fractional = ProbLabelVector(np.array([0.2, -0.3, 0.0, 0.4]))
    assert soft_label_accuracy(fractional, truth) == 0.75  # scored by sign


def test_length_mismatch_errors():
    with pytest.raises(ValueError):
        score(HardLabelVector(np.array([1])), HardLabelVector(np.array([1, -1])))
    with pytest.raises(ValueError):
        soft_label_accuracy(ProbLabelVector(np.zeros(1)), HardLabelVector(np.array([1, 1])))
