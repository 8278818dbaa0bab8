"""Alternating generative/discriminative loop with disagreement-driven
feature feedback.

One run fits the generative model with K = 0 selected features, trains the
discriminative model on its labels, computes the disagreement vector and the
LASSO path once, and then grows the number K of subset features passed to the
same generative model until the tracked metric stops improving.  Model
K - 1 is model K with the new feature's adjustment row at zero, so each K's
fits start from the K - 1 optimum: the generative fit from the K - 1 model
padded with a zero row, the discriminative fit from the K - 1 weights.  The
tracked metric is the dev metric when ground truth is supplied, otherwise the
generative/discriminative agreement rate.  The final labels come from the
best K's model, whatever K is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import discmodel, genmodel
from .data import (
    DataError,
    Dataset,
    FeatureMatrixReal,
    HardLabelVector,
    ProbLabelVector,
    ValidationReport,
    _index,
    _set,
    validate,
)
from .diffmodel import LassoConfig, disagreement, regularization_path, select_features
from .discmodel import DiscConfig, DiscParams, fit_disc, predict
from .genmodel import FitConfig, FitError, GenParams, fit_aug, fit_sp, label_aug, label_sp
from .metrics import score, soft_label_accuracy


@dataclass(frozen=True)
class RunConfig(LassoConfig):
    """The settings of the disagreement path, then those of the loop."""

    k_max: int = 10
    patience: int = 1
    dev_metric: str = "accuracy"  # or "f1"
    gen: FitConfig = field(default_factory=FitConfig)
    disc: DiscConfig = field(default_factory=DiscConfig)
    standardize: bool = False

    def __post_init__(self):
        super().__post_init__()
        _set(self, **{name: _index(getattr(self, name), name) for name in ("k_max", "patience")})
        if self.k_max < 0:
            raise ValueError("k_max must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.dev_metric not in ("accuracy", "f1"):
            raise ValueError("dev_metric must be 'accuracy' or 'f1'")


@dataclass(frozen=True)
class IterationRecord:
    """One K of the loop; `k` and `selected` are read off `gen_params`."""

    agreement: float
    dev_metric: float | None
    gen_params: GenParams
    disc_params: DiscParams
    gen_labels: ProbLabelVector
    disc_labels: HardLabelVector

    @property
    def k(self) -> int:
        return self.gen_params.k

    @property
    def selected(self) -> tuple[int, ...]:
        return self.gen_params.selected


@dataclass(frozen=True)
class RunReport:
    iterations: tuple[IterationRecord, ...]
    best_k: int
    stop_reason: str  # "metric_declined" | "k_max" | "path_exhausted"
    final_labels: ProbLabelVector
    tracked_metric: str  # "agreement" | "accuracy" | "f1"
    validation: ValidationReport

    @property
    def best(self) -> IterationRecord:
        return self.iterations[self.best_k]


def stopping_rule(history: list[float], patience: int) -> bool:
    """True when each of the last `patience` values failed to exceed the
    running maximum attained before it."""
    if not history:
        raise ValueError("history must be non-empty")
    patience = _index(patience, "patience")
    if patience < 1:
        raise ValueError("patience must be at least 1")
    window = range(max(0, len(history) - patience), len(history))
    for i in window:
        before = max(history[:i]) if i else -np.inf
        if history[i] > before:
            return False
    return True


def standardize(features: FeatureMatrixReal) -> tuple[FeatureMatrixReal, np.ndarray, np.ndarray]:
    """Z-score each column; returns (standardized features, mean, scale).
    A constant column keeps scale 1, so it maps to zeros."""
    v = features.values
    mean = v.mean(axis=0)
    scale = v.std(axis=0)
    scale[scale == 0.0] = 1.0
    standardized = FeatureMatrixReal(
        (v - mean) / scale, column_names=features.column_names, object_ids=features.object_ids
    )
    return standardized, mean, scale


def _named(model: str, k: int, fit: Callable, *args, **kwargs):
    """`fit(*args, **kwargs)`, whose FitError names the `model` and K."""
    try:
        return fit(*args, **kwargs)
    except FitError as error:
        raise FitError(f"{model} fit at K = {k}: {error}") from error


def run(dataset: Dataset, config: RunConfig = RunConfig()) -> RunReport:
    """Execute the full loop and return the best-K state.

    The dataset is checked by `validate` first: a fatal finding (object
    counts or ids that disagree across components, truth included) raises
    DataError with its message before any fit, and the report carries the
    validation.  The disagreement vector and the regularization path are
    computed once, from the K = 0 models.  Each K selects the path's first
    K entries, so its selection extends K - 1's and its fits start from the
    K - 1 models.  The path stops once k_max features have entered, since
    only the first k_max entries are ever selected.  Each record carries
    its K's generative and discriminative labels.  A fit that fails raises
    FitError naming its model, generative or discriminative, and its K.

    While the loop runs, each model module keeps what its last fit's last
    evaluation formed, for the calls that read that fit's result: the
    labels of a generative fit, and the next warm start of a
    discriminative fit.  The outputs are the same bit for bit as without
    it, and nothing is kept once `run` returns or raises.  (The labels'
    vote compression, which every generative fit refines, is formed once
    and kept with the `LabelMatrix` itself.)
    """
    if dataset.real_features is None:
        raise DataError("run requires real-valued features for the discriminative model")
    if dataset.bin_features is None and config.k_max > 0:
        raise DataError("run requires binary features for the difference model")
    validation = validate(dataset)
    fatal = next((f for f in validation.findings if f.level == "fatal"), None)
    if fatal is not None:
        raise DataError(fatal.message)

    real = standardize(dataset.real_features)[0] if config.standardize else dataset.real_features
    use_dev = dataset.truth is not None
    records: list[IterationRecord] = []

    def step(gen: GenParams, yg: ProbLabelVector) -> IterationRecord:
        """K = gen.k: the discriminative model trained on `gen`'s labels
        `yg`, warm from the K - 1 weights, and the record's scores.  The
        agreement is the fraction of objects where sign(yg), with sign(0) =
        +1, matches the discriminative labels."""
        disc = _named("discriminative", gen.k, fit_disc, real, yg, config.disc,
                      start=records[-1].disc_params if records else None)
        yd = predict(disc, real)
        return IterationRecord(
            agreement=soft_label_accuracy(yg, yd),
            # dev_metric names a ClassificationScores field: accuracy or f1
            dev_metric=getattr(score(yd, dataset.truth), config.dev_metric) if use_dev else None,
            gen_params=gen,
            disc_params=disc,
            gen_labels=yg,
            disc_labels=yd,
        )

    def tracked() -> list[float]:  # each K's tracked metric so far
        return [r.dev_metric if use_dev else r.agreement for r in records]

    with genmodel._kept.scope(), discmodel._kept.scope():
        gen0 = _named("generative", 0, fit_sp, dataset.labels, config.gen)
        records.append(step(gen0, label_sp(gen0, dataset.labels)))

        stop_reason, k_max = "k_max", config.k_max
        if k_max:
            try:
                path = regularization_path(
                    dataset.bin_features,
                    disagreement(records[0].gen_labels, records[0].disc_labels),
                    config,
                    stop_after=config.k_max,
                )
            except DataError:
                # lambda_max = 0: the disagreement is uncorrelated with every
                # binary column, so the difference model has nothing to select
                stop_reason, k_max = "path_exhausted", 0
        for k in range(1, k_max + 1):
            if len(path.entry_order) < k:
                stop_reason = "path_exhausted"
                break
            gen = _named("generative", k, fit_aug, dataset.labels, dataset.bin_features,
                         tuple(select_features(path, k)), config.gen,
                         start=records[-1].gen_params)
            records.append(step(gen, label_aug(gen, dataset.labels, dataset.bin_features)))
            if stopping_rule(tracked(), config.patience):
                stop_reason = "metric_declined"
                break

    best_k = int(np.argmax(tracked()))  # first maximum, so ties go to smaller K
    return RunReport(
        iterations=tuple(records),
        best_k=best_k,
        stop_reason=stop_reason,
        final_labels=records[best_k].gen_labels,
        tracked_metric=config.dev_metric if use_dev else "agreement",
        validation=validation,
    )
