"""Weak-supervision label modeling with disagreement-driven latent-subset
discovery: generative label models over noisy voting sources, a noise-aware
discriminative model, a LASSO difference model that finds subset-marking
features, recovery-theory diagnostics, and seeded synthetic benchmarks."""

__version__ = "0.1.0"

from .data import (
    DataError,
    Dataset,
    FeatureMatrixBinary,
    FeatureMatrixReal,
    HardLabelVector,
    LabelMatrix,
    ProbLabelVector,
    ValidationReport,
    validate,
)
from .diffmodel import (DisagreementVector, LassoConfig, LassoFit, RegPath, disagreement,
                        lasso_fit)
from .discmodel import DiscConfig, DiscParams, fit_disc, noise_aware_loss, predict
from .genmodel import (
    FitConfig,
    GenParams,
    fit_aug,
    fit_sp,
    label_aug,
    label_sp,
)
from .metrics import ClassificationScores, majority_vote, score, soft_label_accuracy
from .pipeline import RunConfig, RunReport, run
from .synth import E2EScenario, RecoveryScenario, gen_e2e, gen_recovery, run_recovery_experiment
from .theory import ConditionReport, check_conditions, recommended_lambda, sample_bound

__all__ = [
    "ClassificationScores",
    "ConditionReport",
    "DataError",
    "Dataset",
    "DiscConfig",
    "DiscParams",
    "DisagreementVector",
    "E2EScenario",
    "FeatureMatrixBinary",
    "FeatureMatrixReal",
    "FitConfig",
    "GenParams",
    "HardLabelVector",
    "LabelMatrix",
    "LassoConfig",
    "LassoFit",
    "ProbLabelVector",
    "RecoveryScenario",
    "RegPath",
    "RunConfig",
    "RunReport",
    "ValidationReport",
    "check_conditions",
    "disagreement",
    "fit_aug",
    "fit_disc",
    "fit_sp",
    "gen_e2e",
    "gen_recovery",
    "label_aug",
    "label_sp",
    "lasso_fit",
    "majority_vote",
    "noise_aware_loss",
    "predict",
    "recommended_lambda",
    "run",
    "run_recovery_experiment",
    "sample_bound",
    "score",
    "soft_label_accuracy",
    "validate",
]
