"""Baselines and evaluation arithmetic: majority vote, confusion counts,
accuracy/precision/recall/F1.  Internal values are fractions; reports render
percentages with two decimals."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import HardLabelVector, LabelMatrix, ProbLabelVector, _seed


@dataclass(frozen=True)
class ClassificationScores:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def percentages(self) -> dict[str, float]:
        return {
            "accuracy": round(100.0 * self.accuracy, 2),
            "precision": round(100.0 * self.precision, 2),
            "recall": round(100.0 * self.recall, 2),
            "f1": round(100.0 * self.f1, 2),
        }

    def to_dict(self) -> dict:
        return asdict(self) | {"percent": self.percentages()}


def f1_from_precision_recall(precision: float, recall: float) -> float:
    """Harmonic mean, 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def majority_vote(labels: LabelMatrix, seed: int = 0) -> HardLabelVector:
    """Sign of the per-object vote sum; ties (including all-abstain objects)
    are broken by a fair coin from the seeded generator, in object order.
    The seed is a non-negative integer, checked before anything is drawn."""
    seed = _seed(seed)
    sums = labels.votes.astype(np.int64).sum(axis=0)
    out = np.sign(sums).astype(np.int8)
    ties = np.flatnonzero(out == 0)
    if ties.size:
        rng = np.random.default_rng(seed)
        out[ties] = rng.integers(0, 2, size=ties.size).astype(np.int8) * 2 - 1
    return HardLabelVector(out)


def score(
    pred: HardLabelVector, truth: HardLabelVector, positive_class: int = 1
) -> ClassificationScores:
    if pred.n != truth.n:
        raise ValueError(f"prediction length {pred.n} != truth length {truth.n}")
    if positive_class not in (-1, 1):
        raise ValueError("positive_class must be +1 or -1")
    p = pred.labels == positive_class
    t = truth.labels == positive_class
    tp = int((p & t).sum())
    fp = int((p & ~t).sum())
    fn = int((~p & t).sum())
    tn = int((~p & ~t).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return ClassificationScores(
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        accuracy=(tp + tn) / pred.n,
        precision=precision,
        recall=recall,
        f1=f1_from_precision_recall(precision, recall),
    )


def sign_labels(soft: ProbLabelVector) -> HardLabelVector:
    """sign(expected label) per object, with sign(0) = +1."""
    return HardLabelVector(np.where(soft.expected >= 0.0, np.int8(1), np.int8(-1)))


def soft_label_accuracy(soft: ProbLabelVector, truth: HardLabelVector) -> float:
    """Accuracy of sign(expected label) against truth, with sign(0) = +1."""
    if soft.n != truth.n:
        raise ValueError(f"label length {soft.n} != truth length {truth.n}")
    return float(((soft.expected >= 0.0) == (truth.labels == 1)).mean())
