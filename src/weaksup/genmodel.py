"""Generative label model over weak-supervision votes.

One model, GenParams(phi, w, selected), with K >= 0 selected binary
features.  phi holds one accuracy weight per source; each selected feature i
adds an adjustment row W_i, so that an object with feature row x has effective
weights phi + sum_i x_i W_i and joint density proportional to
exp(phi_eff . lambda * y) over votes lambda and latent class y.  K = 0 is the
single-accuracy model of data programming; `fit_sp` and `label_sp` are its
entry points, `fit_aug` and `label_aug` those of any K.

Because no factor couples two sources, the partition function factorizes:
log Z(phi) = log 2 + sum_j log(2 cosh phi_j + 1), which gives exact O(M)
marginal likelihoods, gradients, and posteriors (no sampling anywhere).
log Z depends on an object only through its selected-feature row, so the
fits evaluate it once per distinct row.  Every fit runs through `ascend`.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

import numpy as np

from .data import DataError, FeatureMatrixBinary, LabelMatrix, ProbLabelVector, _frozen, _set

LOG2 = float(np.log(2.0))


class FitError(RuntimeError):
    """Optimization produced a non-finite objective."""


@dataclass(frozen=True)
class GenParams:
    """Accuracy weights plus K >= 0 per-feature adjustment rows.

    `selected[i]` is the feature-matrix column that carries adjustment row
    `w[i]`; the effective weights for an object with feature row x are
    phi + sum_i x[i] * w[i].  With K = 0 (the default, `w` is 0 x M) this is
    the single-accuracy model.
    """

    phi: np.ndarray
    w: np.ndarray | None = None
    selected: tuple[int, ...] = ()

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        if phi.ndim != 1 or not np.isfinite(phi).all():
            raise ValueError("phi must be a finite vector")
        w = np.zeros((0, phi.shape[0])) if self.w is None else np.asarray(self.w, dtype=np.float64)
        selected = tuple(int(i) for i in self.selected)
        if w.ndim != 2 or not np.isfinite(w).all():
            raise ValueError("w must be a finite K x M matrix")
        if w.shape[1] != phi.shape[0]:
            raise ValueError("w row length must match phi length")
        if len(selected) != w.shape[0]:
            raise ValueError("selected must name one feature column per w row")
        if len(set(selected)) != len(selected) or min(selected, default=0) < 0:
            raise ValueError("selected indices must be distinct and non-negative")
        _set(self, phi=_frozen(phi), w=_frozen(w), selected=selected)

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def k(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class FitConfig:
    learning_rate: float = 0.1
    max_iters: int = 2000
    grad_tol: float = 1e-6
    phi_init: float = 0.5
    w_l2: float = 0.01

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.w_l2 < 0:
            raise ValueError("w_l2 must be non-negative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")


def ascend(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    learning_rate: float,
    max_iters: int,
    grad_tol: float,
) -> np.ndarray:
    """Fixed-step gradient ascent from x0; returns the best iterate seen.

    Stops when every gradient entry is below grad_tol in magnitude or after
    max_iters steps.  Because the start point is a candidate, the result never
    scores below it.  A non-finite objective raises FitError.
    """
    x = np.array(x0, dtype=np.float64)
    value, grad = value_and_grad(x)
    best_value, best_x = value, x
    for it in range(max_iters):
        if np.abs(grad).max(initial=0.0) < grad_tol:
            break
        x = x + learning_rate * grad
        value, grad = value_and_grad(x)
        if not np.isfinite(value):
            raise FitError(f"non-finite objective at iteration {it + 1}")
        if value > best_value:
            best_value, best_x = value, x
    return best_x


# -- numerically stable scalar kernels (vectorized) -------------------------


def _log_2cosh(z: np.ndarray) -> np.ndarray:
    # log(2 cosh z) = |z| + log1p(exp(-2|z|))
    a = np.abs(z)
    return a + np.log1p(np.exp(-2.0 * a))


def _log_2cosh_plus_1(z: np.ndarray) -> np.ndarray:
    # log(2 cosh z + 1) = |z| + log1p(exp(-|z|) + exp(-2|z|))
    a = np.abs(z)
    e = np.exp(-a)
    return a + np.log1p(e + e * e)


def _dlog_2cosh_plus_1(z: np.ndarray) -> np.ndarray:
    # d/dz log(2 cosh z + 1) = 2 sinh z / (2 cosh z + 1)
    a = np.abs(z)
    e = np.exp(-a)
    return np.sign(z) * (1.0 - e * e) / (1.0 + e + e * e)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _log_z(phi_rows: np.ndarray) -> np.ndarray:
    """Closed-form log Z per row of weights: the sum over all vote/class
    states factorizes per source."""
    return LOG2 + _log_2cosh_plus_1(phi_rows).sum(axis=-1)


# -- shared evaluation core ---------------------------------------------------


def _scores(phi: np.ndarray, w: np.ndarray, lam: np.ndarray, x_sel: np.ndarray) -> np.ndarray:
    """phi_eff(x_o) . votes_o per object: one product per selected feature
    on top of phi . votes, so K = 0 costs no more than the plain model."""
    scores = phi @ lam
    for i in range(w.shape[0]):
        scores += x_sel[:, i] * (w[i] @ lam)
    return scores


def _objective(
    params: GenParams,
    labels: LabelMatrix,
    features: FeatureMatrixBinary | None,
    w_l2: float,
) -> Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray, np.ndarray]]:
    """The penalized objective of `params`'s model shape on one data set, as a
    function of (phi, W) returning its value and its gradients.

    The value is the mean log-likelihood of the votes given the features,
    minus (w_l2 / 2) ||W||^2.  log Z depends on an object only through its
    selected-feature row, so it is evaluated once per distinct row
    ("pattern"); each object's own pattern log Z is subtracted before the
    mean, so W = 0 gives the K = 0 value bit for bit.
    """
    lam = labels.votes.astype(np.float64)
    x_sel = _feature_rows(params, labels, features)
    patterns, inverse = np.unique(x_sel, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    freq = np.bincount(inverse) / labels.n

    def evaluate(phi: np.ndarray, w: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        scores = _scores(phi, w, lam, x_sel)
        phi_pat = phi + patterns @ w  # U x M
        log_z = _log_z(phi_pat)
        if log_z.size > 1:  # a single pattern (always so at K = 0) broadcasts as is
            log_z = log_z[inverse]
        value = float((_log_2cosh(scores) - log_z).mean() - 0.5 * w_l2 * (w**2).sum())
        t = np.tanh(scores)
        dz = freq[:, None] * _dlog_2cosh_plus_1(phi_pat)  # U x M
        grad_phi = (lam @ t) / labels.n - dz.sum(axis=0)
        grad_w = (lam @ (x_sel * t[:, None])).T / labels.n - patterns.T @ dz - w_l2 * w
        return value, grad_phi, grad_w

    return evaluate


def _feature_rows(
    params: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None
) -> np.ndarray:
    """The selected feature columns as an N x K float matrix (N x 0 at K = 0)."""
    if params.m != labels.m:
        raise ValueError(f"parameter count {params.m} != source count {labels.m}")
    if not params.k:
        return np.empty((labels.n, 0))
    if features is None:
        raise ValueError("a model with selected features needs a feature matrix")
    if features.n != labels.n:
        raise ValueError("labels and features disagree on object count")
    if max(params.selected) >= features.p:
        raise IndexError(
            f"selected feature index {max(params.selected)} out of range for "
            f"{features.p} columns"
        )
    return features.values[:, list(params.selected)].astype(np.float64)


# -- public evaluators ----------------------------------------------------------


def effective_phi(params: GenParams, feature_row: np.ndarray = ()) -> np.ndarray:
    """Per-object effective weights phi + sum_i x_i W_i (phi itself at K = 0)."""
    x = np.asarray(feature_row, dtype=np.float64)
    if x.shape != (params.k,):
        raise ValueError(f"feature row must have length {params.k}")
    if not np.isin(x, (-1.0, 1.0)).all():
        raise DataError("feature row entries must lie in {-1,+1}")
    return params.phi + x @ params.w


def log_partition(params: GenParams, feature_row: np.ndarray = ()) -> float:
    """Closed-form log Z at the effective weights of one feature row."""
    return float(_log_z(effective_phi(params, feature_row)))


def marginal_loglik(
    params: GenParams,
    labels: LabelMatrix,
    features: FeatureMatrixBinary | None = None,
    w_l2: float = 0.0,
) -> float:
    """Mean per-object log-likelihood of the observed votes, class summed
    out, minus the (w_l2 / 2) * ||W||^2 penalty.

    The family is fit conditionally on the features: each object uses the
    likelihood at its own effective weights.  `features` may be None at K = 0.
    """
    return _objective(params, labels, features, w_l2)(params.phi, params.w)[0]


def grad_marginal(
    params: GenParams,
    labels: LabelMatrix,
    features: FeatureMatrixBinary | None = None,
    w_l2: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of marginal_loglik with respect to (phi, w).

    The w gradient is the per-object phi gradient weighted by the object's
    feature value, minus the penalty term; it is 0 x M at K = 0.
    """
    return _objective(params, labels, features, w_l2)(params.phi, params.w)[1:]


def posterior(params: GenParams, vote_column: np.ndarray, feature_row: np.ndarray = ()) -> float:
    """P(Y = +1 | votes, x) = sigmoid(2 phi_eff(x) . votes)."""
    lam = np.asarray(vote_column, dtype=np.float64)
    if lam.shape != params.phi.shape:
        raise ValueError("vote column length must match parameter count")
    if not np.isin(lam, (-1.0, 0.0, 1.0)).all():
        raise DataError("vote entries must lie in {-1,0,+1}")
    return float(_sigmoid(2.0 * float(effective_phi(params, feature_row) @ lam)))


# -- fitting and labeling --------------------------------------------------------


def _fit(
    init: GenParams,
    labels: LabelMatrix,
    features: FeatureMatrixBinary | None,
    config: FitConfig,
) -> GenParams:
    """Joint gradient ascent on (phi, W) from `init`.

    Sources with no votes at all keep their initial weights (their gradient
    is masked) so column indices stay stable across pipeline iterations.
    """
    evaluate = _objective(init, labels, features, config.w_l2)
    silent = ~(labels.votes != 0).any(axis=1)
    m, k = init.m, init.k

    def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad_phi, grad_w = evaluate(x[:m], x[m:].reshape(k, m))
        grad_phi[silent] = 0.0
        grad_w[:, silent] = 0.0
        return value, np.concatenate([grad_phi, grad_w.ravel()])

    x0 = np.concatenate([init.phi, init.w.ravel()])
    x = ascend(value_and_grad, x0, config.learning_rate, config.max_iters, config.grad_tol)
    return GenParams(phi=x[:m], w=x[m:].reshape(k, m), selected=init.selected)


def fit_sp(labels: LabelMatrix, config: FitConfig = FitConfig()) -> GenParams:
    """Fit the K = 0 model: gradient ascent on the marginal likelihood with
    phi starting at phi_init.  The returned parameters are the best-scoring
    iterate, hence never worse than the initialization."""
    return _fit(GenParams(np.full(labels.m, config.phi_init)), labels, None, config)


def fit_aug(
    labels: LabelMatrix,
    features: FeatureMatrixBinary,
    selected: Sequence[int],
    config: FitConfig = FitConfig(),
) -> GenParams:
    """Joint gradient ascent on (phi, W) over the `selected` feature columns;
    phi starts at phi_init, W at zero."""
    init = GenParams(
        np.full(labels.m, config.phi_init), np.zeros((len(selected), labels.m)), selected
    )
    return _fit(init, labels, features, config)


def _label(
    params: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None
) -> ProbLabelVector:
    x_sel = _feature_rows(params, labels, features)
    lam = labels.votes.astype(np.float64)
    return ProbLabelVector(np.tanh(_scores(params.phi, params.w, lam, x_sel)))


def label_sp(params: GenParams, labels: LabelMatrix) -> ProbLabelVector:
    """Expected label E[Y | votes] = tanh(phi . votes) per object (K = 0 only)."""
    if params.k:
        raise ValueError("label_sp takes a K = 0 model; use label_aug with the features")
    return _label(params, labels, None)


def label_aug(
    params: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None
) -> ProbLabelVector:
    """Expected label tanh(phi_eff(x_o) . votes_o) per object; `features` may
    be None at K = 0."""
    return _label(params, labels, features)


# -- exhaustive-enumeration oracle -------------------------------------------


@dataclass(frozen=True)
class JointTable:
    """Exact joint distribution over all (vote vector, class) states."""

    vote_states: np.ndarray  # S x M
    class_states: np.ndarray  # S
    probs: np.ndarray  # S, sums to 1
    log_z: float

    def marginal_prob(self, vote_column: np.ndarray) -> float:
        """P(votes = vote_column), class summed out."""
        mask = (self.vote_states == np.asarray(vote_column)).all(axis=1)
        return float(self.probs[mask].sum())

    def posterior_positive(self, vote_column: np.ndarray) -> float:
        """P(Y = +1 | votes = vote_column)."""
        mask = (self.vote_states == np.asarray(vote_column)).all(axis=1)
        joint = self.probs[mask]
        pos = self.probs[mask & (self.class_states == 1)]
        return float(pos.sum() / joint.sum())

    def expected_label(self, vote_column: np.ndarray) -> float:
        return 2.0 * self.posterior_positive(vote_column) - 1.0


def brute_force_joint(phi_eff: np.ndarray) -> JointTable:
    """Enumerate all 2 * 3^M states of the model with weights phi_eff.

    Test oracle: every closed-form quantity (partition, marginals,
    posteriors) is recoverable from the table.  M is capped at 8.
    """
    phi_eff = np.asarray(phi_eff, dtype=np.float64)
    m = phi_eff.shape[0]
    if m > 8:
        raise ValueError(f"enumeration over 2 * 3^{m} states is too large (M <= 8)")
    votes = np.array(list(itertools.product((-1, 0, 1), repeat=m)), dtype=np.float64)
    votes = np.repeat(votes, 2, axis=0)
    ys = np.tile(np.array([-1.0, 1.0]), 3**m)
    weights = np.exp((votes @ phi_eff) * ys)
    z = weights.sum()
    return JointTable(
        vote_states=_frozen(votes.astype(np.int8)),
        class_states=_frozen(ys.astype(np.int8)),
        probs=_frozen(weights / z),
        log_z=float(np.log(z)),
    )


# -- serialization -----------------------------------------------------------


def params_to_dict(params: GenParams, config: FitConfig | None = None) -> dict:
    body = {"phi": params.phi.tolist(), "w": params.w.tolist(), "selected": list(params.selected)}
    body["config"] = {} if config is None else {
        "learning_rate": config.learning_rate,
        "max_iters": config.max_iters,
        "grad_tol": config.grad_tol,
        "phi_init": config.phi_init,
        "w_l2": config.w_l2,
    }
    return body


def params_from_dict(d: dict) -> GenParams:
    phi = np.asarray(d["phi"], dtype=np.float64)
    selected = d.get("selected", [])
    w = np.asarray(d.get("w", []), dtype=np.float64).reshape(len(selected), phi.size)
    return GenParams(phi=phi, w=w, selected=selected)


def save_params(params: GenParams, writer: TextIO, config: FitConfig | None = None) -> None:
    json.dump(params_to_dict(params, config), writer, indent=2, sort_keys=True)
    writer.write("\n")


def load_params(reader: TextIO) -> GenParams:
    return params_from_dict(json.load(reader))
