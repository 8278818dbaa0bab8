"""Noise-aware logistic regression trained on probabilistic labels.

The loss is the expectation of the logistic loss under the soft label
distribution: with p_o = P(Y_o = +1) and score s_o = theta . v_o + bias,

    loss = mean_o [ p_o log(1 + exp(-s_o)) + (1 - p_o) log(1 + exp(s_o)) ]
           + (l2 / 2) ||theta||^2

The bias is excluded from the penalty.  Hard labels (p in {0,1}) reduce this
to the standard logistic loss exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .data import FeatureMatrixReal, HardLabelVector, ProbLabelVector, _frozen, _set
from .genmodel import _sigmoid, ascend


@dataclass(frozen=True)
class DiscParams:
    theta: np.ndarray
    bias: float = 0.0

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64)
        if theta.ndim != 1 or not np.isfinite(theta).all() or not np.isfinite(self.bias):
            raise ValueError("theta and bias must be finite")
        _set(self, theta=_frozen(theta), bias=float(self.bias))

    @property
    def q(self) -> int:
        return self.theta.shape[0]


@dataclass(frozen=True)
class DiscConfig:
    learning_rate: float = 0.5
    max_iters: int = 2000
    grad_tol: float = 1e-6
    l2: float = 0.01

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


def _log1pexp(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _check_n(features: FeatureMatrixReal, soft: ProbLabelVector) -> None:
    if features.n != soft.n:
        raise ValueError(f"feature rows {features.n} != label count {soft.n}")


def _loss_and_grad(
    x: np.ndarray, v: np.ndarray, p: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """The penalized loss at x = [theta, bias] and its gradient, from one pass
    over the scores."""
    theta = x[:-1]
    s = v @ theta + x[-1]
    data = p * _log1pexp(-s) + (1.0 - p) * _log1pexp(s)
    r = _sigmoid(s) - p
    grad = np.append((v.T @ r) / v.shape[0] + l2 * theta, r.mean())
    return float(data.mean() + 0.5 * l2 * (theta @ theta)), grad


def noise_aware_loss(
    params: DiscParams,
    features: FeatureMatrixReal,
    soft_labels: ProbLabelVector,
    l2: float = 0.0,
) -> float:
    _check_n(features, soft_labels)
    if features.q != params.q:
        raise ValueError(f"feature columns {features.q} != parameter count {params.q}")
    x = np.append(params.theta, params.bias)
    return _loss_and_grad(x, features.values, soft_labels.probability, l2)[0]


def grad_noise_aware_loss(
    params: DiscParams,
    features: FeatureMatrixReal,
    soft_labels: ProbLabelVector,
    l2: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Analytic gradient of noise_aware_loss with respect to (theta, bias)."""
    _check_n(features, soft_labels)
    x = np.append(params.theta, params.bias)
    grad = _loss_and_grad(x, features.values, soft_labels.probability, l2)[1]
    return grad[:-1], float(grad[-1])


def fit_disc(
    features: FeatureMatrixReal, soft_labels: ProbLabelVector, config: DiscConfig = DiscConfig()
) -> DiscParams:
    """Deterministic full-batch gradient descent from the zero vector: ascent
    on the negated loss over [theta, bias]."""
    _check_n(features, soft_labels)
    v = features.values
    p = soft_labels.probability
    q = v.shape[1]

    def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        loss, grad = _loss_and_grad(x, v, p, config.l2)
        return -loss, -grad

    x = ascend(
        value_and_grad, np.zeros(q + 1), config.learning_rate, config.max_iters, config.grad_tol
    )
    return DiscParams(theta=x[:q], bias=x[q])


def decision_scores(params: DiscParams, features: FeatureMatrixReal) -> np.ndarray:
    if features.q != params.q:
        raise ValueError(f"feature columns {features.q} != parameter count {params.q}")
    return features.values @ params.theta + params.bias


def predict(params: DiscParams, features: FeatureMatrixReal) -> HardLabelVector:
    """Hard labels sign(theta . v + bias), with sign(0) = +1."""
    s = decision_scores(params, features)
    return HardLabelVector(np.where(s >= 0.0, 1, -1).astype(np.int8))


def params_to_dict(params: DiscParams, config: DiscConfig | None = None) -> dict:
    body = {"theta": params.theta.tolist(), "bias": params.bias}
    if config is not None:
        body["config"] = {
            "learning_rate": config.learning_rate,
            "max_iters": config.max_iters,
            "grad_tol": config.grad_tol,
            "l2": config.l2,
        }
    return body


def save_params(params: DiscParams, writer: TextIO, config: DiscConfig | None = None) -> None:
    json.dump(params_to_dict(params, config), writer, indent=2, sort_keys=True)
    writer.write("\n")


def load_params(reader: TextIO) -> DiscParams:
    d = json.load(reader)
    return DiscParams(theta=np.asarray(d["theta"], dtype=np.float64), bias=float(d["bias"]))
