"""Noise-aware logistic regression trained on probabilistic labels.

The loss is the expectation of the logistic loss under the soft label
distribution: with p_o = P(Y_o = +1) and score s_o = theta . v_o + bias,

    loss = mean_o [ p_o log(1 + exp(-s_o)) + (1 - p_o) log(1 + exp(s_o)) ]
           + (l2 / 2) ||theta||^2

Since log(1 + exp(-s)) = log(1 + exp(s)) - s, the data term is
mean_o log(1 + exp(s_o)) - mean_o p_o s_o.  The bias is excluded from the
penalty.  Hard labels (p in {0,1}) reduce this to the standard logistic loss
exactly.  With x = [theta, bias] and the feature-major A = [v, 1]^T, a
(Q + 1) x N matrix, s = A^T x, so mean_o p_o s_o = c . x for c = A p / N:
the labels enter a fit only through the (Q + 1)-vector c, formed once per
fit with A.  The gradient is A sigma(s) / N - c (plus l2 on theta), and the
loss is convex, with Hessian A diag(sigma (1 - sigma)) A^T / N (plus l2 on
theta), so `fit_disc` runs the damped-Newton solver of `genmodel` (IRLS).

Of each evaluation, the scores, the mean of log(1 + exp(s)), A sigma(s) / N
and the Hessian do not depend on the labels.  Inside `pipeline.run`, which
opens a reuse scope, a fit keeps that label-free part of its last evaluation
when it was made at the returned weights; `predict` with those weights reads
the scores from it, and the next warm fit its first evaluation.  Outside a
run nothing is kept.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple, TextIO

import numpy as np

from .data import FeatureMatrixReal, HardLabelVector, ProbLabelVector, _frozen, _json_array, _set
from .genmodel import NewtonConfig, _Kept, _sigmoid, newton


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
class DiscConfig(NewtonConfig):
    """`newton`'s settings for `fit_disc` and the L2 penalty `l2` on theta,
    finite and non-negative."""

    l2: float = 0.01

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.l2 < np.inf:
            raise ValueError("l2 must be finite and non-negative")


_kept = _Kept("discmodel.kept")  # the last fit's DiscParams, features -> l2, _LabelFree


def _log1pexp(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _check_n(features: FeatureMatrixReal, soft: ProbLabelVector) -> None:
    if features.n != soft.n:
        raise ValueError(f"feature rows {features.n} != label count {soft.n}")


class _LabelFree(NamedTuple):
    """The part of an evaluation at x = [theta, bias] that the labels do not
    enter: the scores s, the mean of log(1 + e^s), A sigma(s) / N and the
    penalized Hessian."""

    s: np.ndarray
    mean_log1pexp: float
    a_sig: np.ndarray
    hess: np.ndarray


def _augmented(v: np.ndarray) -> np.ndarray:
    """A = [v, 1]^T: the features, feature-major, with a row of ones for the
    bias, as a (Q + 1) x N C-order matrix."""
    n, q = v.shape
    a = np.empty((q + 1, n))
    a[:q] = v.T
    a[q] = 1.0
    return a


def _label_free(x: np.ndarray, a: np.ndarray, l2: float) -> _LabelFree:
    q, n = a.shape[0] - 1, a.shape[1]
    s = x @ a  # as decision_scores forms them
    sig = _sigmoid(s)
    hess = (a * (sig * (1.0 - sig) / n)) @ a.T
    hess[np.arange(q), np.arange(q)] += l2
    return _LabelFree(s, float(_log1pexp(s).mean()), a @ sig / n, hess)


def _loss_grad(
    free: _LabelFree, x: np.ndarray, c: np.ndarray, l2: float
) -> tuple[float, np.ndarray]:
    """The penalized loss at x and its gradient, from x's label-free part and
    the labels' c = A p / N."""
    theta = x[:-1]
    grad = free.a_sig - c
    grad[:-1] += l2 * theta
    return free.mean_log1pexp - float(c @ x) + 0.5 * l2 * float(theta @ theta), grad


def _loss_grad_hess(
    x: np.ndarray, v: np.ndarray, p: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """The penalized loss at x = [theta, bias], its gradient and its Hessian."""
    a = _augmented(v)
    free = _label_free(x, a, l2)
    return (*_loss_grad(free, x, a @ p / v.shape[0], l2), free.hess)


def _evaluate(
    params: DiscParams, features: FeatureMatrixReal, soft_labels: ProbLabelVector, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """`_loss_grad_hess` at `params`, once the row and column counts agree."""
    _check_n(features, soft_labels)
    if features.q != params.q:
        raise ValueError(f"feature columns {features.q} != parameter count {params.q}")
    x = np.append(params.theta, params.bias)
    return _loss_grad_hess(x, features.values, soft_labels.probability, l2)


def noise_aware_loss(
    params: DiscParams,
    features: FeatureMatrixReal,
    soft_labels: ProbLabelVector,
    l2: float = 0.0,
) -> float:
    return _evaluate(params, features, soft_labels, l2)[0]


def grad_noise_aware_loss(
    params: DiscParams,
    features: FeatureMatrixReal,
    soft_labels: ProbLabelVector,
    l2: float = 0.0,
) -> tuple[np.ndarray, float]:
    """Analytic gradient of noise_aware_loss with respect to (theta, bias)."""
    grad = _evaluate(params, features, soft_labels, l2)[1]
    return grad[:-1], float(grad[-1])


def fit_disc(
    features: FeatureMatrixReal,
    soft_labels: ProbLabelVector,
    config: DiscConfig = DiscConfig(),
    *,
    start: DiscParams | None = None,
) -> DiscParams:
    """Deterministic full-batch damped Newton on the negated loss over
    [theta, bias], from the zero vector or, warm, from `start` (a model over
    the same feature columns, such as the fit on the previous labels).

    Inside a reuse scope, a fit whose last evaluation was at the point it
    returns keeps that evaluation's label-free part.  A warm fit from that
    result on the same features and l2 takes its first evaluation's
    label-free part from it, and `predict` its scores."""
    _check_n(features, soft_labels)
    v = features.values
    n, q = v.shape
    a = _augmented(v)
    c = a @ soft_labels.probability / n
    if start is None:
        start = DiscParams(np.zeros(q))
    if start.q != q:
        raise ValueError(f"start has {start.q} feature weights, the features {q} columns")
    kept = _kept.get(start, features)
    first = [kept[1]] if kept is not None and kept[0] == config.l2 else []
    last = []  # the latest evaluation's x and label-free part

    def value_grad_hess(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        last.clear()  # free the previous evaluation's N-vectors before forming this one's
        free = first.pop() if first else _label_free(x, a, config.l2)
        last[:] = x, free
        loss, grad = _loss_grad(free, x, c, config.l2)
        return -loss, -grad, -free.hess

    x0 = np.append(start.theta, start.bias)
    x = newton(value_grad_hess, x0, config.max_iters, config.grad_tol)
    params = DiscParams(theta=x[:q], bias=x[q])
    # the line search may end on a rejected trial, away from x
    at_x = last[0].tobytes() == x.tobytes()
    _kept.put((params, features), (config.l2, last[1]) if at_x else None)
    return params


def decision_scores(params: DiscParams, features: FeatureMatrixReal) -> np.ndarray:
    """The scores theta . v + bias, formed as `fit_disc`'s evaluations form
    them, [theta, bias] times A, so `predict` gives the same labels whether
    or not it reads a fit's kept scores."""
    if features.q != params.q:
        raise ValueError(f"feature columns {features.q} != parameter count {params.q}")
    return np.append(params.theta, params.bias) @ _augmented(features.values)


def predict(params: DiscParams, features: FeatureMatrixReal) -> HardLabelVector:
    """Hard labels sign(theta . v + bias), with sign(0) = +1."""
    kept = _kept.get(params, features)
    s = decision_scores(params, features) if kept is None else kept[1].s
    return HardLabelVector(np.where(s >= 0.0, 1, -1).astype(np.int8))


def params_to_dict(params: DiscParams, config: DiscConfig) -> dict:
    return {"theta": params.theta.tolist(), "bias": params.bias, "config": asdict(config)}


def load_params(reader: TextIO) -> DiscParams:
    """The model of a `params_to_dict` JSON file; a malformed file, a JSON
    true or false among its numbers included, raises DataError naming the
    field."""
    d = json.load(reader)
    return DiscParams(theta=_json_array(d, "theta", (-1,)), bias=float(_json_array(d, "bias", ())))
