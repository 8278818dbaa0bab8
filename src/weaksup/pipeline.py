"""Alternating generative/discriminative loop with disagreement-driven
feature feedback.

One run fits the generative model with K = 0 selected features, trains the
discriminative model on its labels, computes the disagreement vector and the
LASSO path once, and then grows the number K of subset features passed to the
same generative model until the tracked metric stops improving.  The tracked
metric is the dev metric when ground truth is supplied, otherwise the
generative/discriminative agreement rate.  The final labels come from the
best K's model, whatever K is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import DataError, Dataset, FeatureMatrixReal, HardLabelVector, ProbLabelVector
from .diffmodel import disagreement, regularization_path, select_features
from .discmodel import DiscConfig, DiscParams, fit_disc, predict
from .genmodel import FitConfig, GenParams, fit_aug, fit_sp, label_aug, label_sp
from .metrics import score


@dataclass(frozen=True)
class RunConfig:
    k_max: int = 10
    patience: int = 1
    dev_metric: str = "accuracy"  # or "f1"
    gen: FitConfig = field(default_factory=FitConfig)
    disc: DiscConfig = field(default_factory=DiscConfig)
    grid_size: int = 100
    lambda_min_ratio: float = 1e-3
    lasso_tol: float = 1e-8
    standardize: bool = False
    refresh_disagreement: bool = False  # recompute the path each K (extension)

    def __post_init__(self):
        if self.k_max < 0:
            raise ValueError("k_max must be non-negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.dev_metric not in ("accuracy", "f1"):
            raise ValueError("dev_metric must be 'accuracy' or 'f1'")


@dataclass(frozen=True)
class IterationRecord:
    k: int
    selected: tuple[int, ...]
    agreement: float
    dev_metric: float | None
    gen_params: GenParams
    disc_params: DiscParams


@dataclass(frozen=True)
class RunReport:
    iterations: tuple[IterationRecord, ...]
    best_k: int
    stop_reason: str  # "metric_declined" | "k_max" | "path_exhausted"
    final_labels: ProbLabelVector
    tracked_metric: str  # "agreement" | "accuracy" | "f1"

    @property
    def best(self) -> IterationRecord:
        return self.iterations[self.best_k]


def agreement_rate(gen_labels: ProbLabelVector, disc_labels: HardLabelVector) -> float:
    """Fraction of objects where sign(Y_G) (0 counts as +1) matches Y_D."""
    if gen_labels.n != disc_labels.n:
        raise ValueError(f"label lengths differ: {gen_labels.n} vs {disc_labels.n}")
    hard = np.where(gen_labels.expected >= 0.0, 1, -1)
    return float((hard == disc_labels.labels).mean())


def stopping_rule(history: list[float], patience: int) -> bool:
    """True when each of the last `patience` values failed to exceed the
    running maximum attained before it."""
    if not history:
        raise ValueError("history must be non-empty")
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


def run(dataset: Dataset, config: RunConfig = RunConfig()) -> RunReport:
    """Execute the full loop and return the best-K state.

    The disagreement vector and the regularization path are computed once
    from the K=0 models; `refresh_disagreement` recomputes them each K
    instead (off by default).
    """
    if dataset.real_features is None:
        raise DataError("run requires real-valued features for the discriminative model")
    if dataset.bin_features is None and config.k_max > 0:
        raise DataError("run requires binary features for the difference model")
    if dataset.real_features.n != dataset.labels.n or (
        dataset.bin_features is not None and dataset.bin_features.n != dataset.labels.n
    ):
        raise DataError("dataset components disagree on object count")

    real = standardize(dataset.real_features)[0] if config.standardize else dataset.real_features
    use_dev = dataset.truth is not None
    tracked_name = config.dev_metric if use_dev else "agreement"

    def dev_value(pred: HardLabelVector) -> float | None:
        if not use_dev:
            return None
        s = score(pred, dataset.truth)
        return s.accuracy if config.dev_metric == "accuracy" else s.f1

    gen0 = fit_sp(dataset.labels, config.gen)
    yg = label_sp(gen0, dataset.labels)
    disc0 = fit_disc(real, yg, config.disc)
    yd = predict(disc0, real)
    records = [
        IterationRecord(
            k=0,
            selected=(),
            agreement=agreement_rate(yg, yd),
            dev_metric=dev_value(yd),
            gen_params=gen0,
            disc_params=disc0,
        )
    ]
    history = [records[0].dev_metric if use_dev else records[0].agreement]

    path = None
    stop_reason = "k_max"
    for k in range(1, config.k_max + 1):
        if path is None or config.refresh_disagreement:
            try:
                path = regularization_path(
                    dataset.bin_features,
                    disagreement(yg, yd),
                    grid_size=config.grid_size,
                    lambda_min_ratio=config.lambda_min_ratio,
                    tol=config.lasso_tol,
                )
            except DataError:
                # models agree everywhere: nothing for the difference model
                stop_reason = "path_exhausted"
                break
        if len(path.entry_order) < k:
            stop_reason = "path_exhausted"
            break
        selected = tuple(select_features(path, k))
        gen_k = fit_aug(dataset.labels, dataset.bin_features, selected, config.gen)
        yg_k = label_aug(gen_k, dataset.labels, dataset.bin_features)
        disc_k = fit_disc(real, yg_k, config.disc)
        yd_k = predict(disc_k, real)
        records.append(
            IterationRecord(
                k=k,
                selected=selected,
                agreement=agreement_rate(yg_k, yd_k),
                dev_metric=dev_value(yd_k),
                gen_params=gen_k,
                disc_params=disc_k,
            )
        )
        history.append(records[-1].dev_metric if use_dev else records[-1].agreement)
        if config.refresh_disagreement:
            yg, yd = yg_k, yd_k
        if stopping_rule(history, config.patience):
            stop_reason = "metric_declined"
            break

    best_k = int(np.argmax(history))  # first maximum, so ties go to smaller K
    return RunReport(
        iterations=tuple(records),
        best_k=best_k,
        stop_reason=stop_reason,
        final_labels=label_aug(records[best_k].gen_params, dataset.labels, dataset.bin_features),
        tracked_metric=tracked_name,
    )
