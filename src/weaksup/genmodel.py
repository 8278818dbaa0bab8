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
marginal likelihoods, gradients, Hessians and posteriors (no sampling
anywhere).  An object enters the likelihood only through its (votes,
selected features) row, so the objective is a weighted sum over the distinct
rows, of which there are at most min(N, 3^M 2^K); log Z is evaluated once
per distinct selected-feature row.  The K = 0 rows are the distinct vote
rows, the vote compression that each LabelMatrix forms once and keeps with
its votes, and any K's rows refine it by the K selected columns (both through
`data._refine`).  Every fit runs through `newton`.

Inside `pipeline.run`, which opens a reuse scope, a fit keeps those distinct
rows, and labelling with the model it returned reads the labels off them
instead of forming an N x M product; once read, they are dropped.  Outside a
run no rows are kept.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .data import (DataError, FeatureMatrixBinary, LabelMatrix, ProbLabelVector, _frozen, _index,
                   _json_array, _rebuild, _refine, _set)

LOG2 = float(np.log(2.0))


class FitError(RuntimeError):
    """Optimization produced a non-finite objective or derivative."""


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
        selected = tuple(_index(i, "selected") for i in self.selected)
        if w.ndim != 2 or not np.isfinite(w).all():
            raise ValueError("w must be a finite K x M matrix")
        if w.shape[1] != phi.shape[0]:
            raise ValueError("w row length must match phi length")
        if len(selected) != w.shape[0]:
            raise ValueError("selected must name one feature column per w row")
        if len(set(selected)) != len(selected) or min(selected, default=0) < 0:
            raise ValueError("selected indices must be distinct and non-negative")
        _set(self, phi=_frozen(phi), w=_frozen(w), selected=selected)

    __reduce__ = _rebuild

    @property
    def m(self) -> int:
        return self.phi.shape[0]

    @property
    def k(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class NewtonConfig:
    """The settings of `newton`, shared by every fit that runs it: at most
    `max_iters` steps, a non-negative integer (any Python or NumPy integer,
    read as an int), and the gradient tolerance `grad_tol`, finite and
    positive.  A value out of range raises ValueError naming the field."""

    max_iters: int = 2000
    grad_tol: float = 1e-6

    def __post_init__(self):
        _set(self, max_iters=_index(self.max_iters, "max_iters"))
        if self.max_iters < 0:
            raise ValueError("max_iters must be non-negative")
        if not 0 < self.grad_tol < np.inf:
            raise ValueError("grad_tol must be finite and positive")


@dataclass(frozen=True)
class FitConfig(NewtonConfig):
    """`newton`'s settings for the generative fits, the start `phi_init` of
    every accuracy weight, finite and positive, and the L2 penalty `w_l2` on
    the adjustment rows, finite and non-negative.  (At phi = 0 every
    gradient entry is exactly 0 by the sign symmetry, so a fit would stay
    there, and a negative start reaches the sign-flipped model.)"""

    phi_init: float = 0.5
    w_l2: float = 0.01

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.phi_init < np.inf:
            raise ValueError("phi_init must be finite and positive")
        if not 0 <= self.w_l2 < np.inf:
            raise ValueError("w_l2 must be finite and non-negative")


ARMIJO = 1e-4  # fraction of the predicted gain a step must achieve


def newton(
    value_grad_hess: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    x0: np.ndarray,
    max_iters: int,
    grad_tol: float,
) -> np.ndarray:
    """Damped Newton ascent from x0 on an objective that returns its value,
    gradient and Hessian.

    Each step solves (mu I - H) d = g.  mu starts at 1e-10 of the Hessian's
    diagonal scale, which bounds the step along directions the data leave
    flat or unidentified, and rises tenfold until the Cholesky factorization
    of mu I - H succeeds, so d is an ascent direction even where the
    objective is not concave.  A monotone backtracking (Armijo) line search
    halves the step until the objective gains at least ARMIJO of the
    predicted gain.  Stops when every gradient entry is below grad_tol in
    magnitude, after max_iters steps, or when the step has halved until it
    no longer moves x: the objective's rounding then hides any further gain,
    as it does near a maximum once the gradient is down to about the square
    root of machine epsilon.  The result never scores below x0.  A
    non-finite value, gradient or Hessian raises FitError.
    """
    x = np.array(x0, dtype=np.float64)
    value, grad, hess = _finite(value_grad_hess(x), 0)
    for it in range(1, max_iters + 1):
        if np.abs(grad).max(initial=0.0) < grad_tol:
            break
        step = _ascent_direction(grad, hess)
        gain = float(grad @ step)
        t = 1.0
        while (np.abs(t * step) >= np.spacing(np.abs(x))).any():  # the step moves x
            trial = _finite(value_grad_hess(x + t * step), it)
            if trial[0] - value >= ARMIJO * t * gain:
                break
            t *= 0.5
        else:
            break
        x = x + t * step
        value, grad, hess = trial
    return x


def _finite(
    evaluation: tuple[float, np.ndarray, np.ndarray], it: int
) -> tuple[float, np.ndarray, np.ndarray]:
    value, grad, hess = evaluation
    if not (np.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise FitError(f"non-finite objective or derivative at iteration {it}")
    return evaluation


def _ascent_direction(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """(mu I - H)^-1 g for the first mu, tenfold from 1e-10 of H's diagonal
    scale, at which mu I - H has a Cholesky factorization."""
    mu = 1e-10 * max(np.abs(np.diag(hess)).max(), 1.0)
    while True:
        damped = mu * np.eye(grad.size) - hess
        try:
            np.linalg.cholesky(damped)
            return np.linalg.solve(damped, grad)
        except np.linalg.LinAlgError:
            mu *= 10.0


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


def _d2log_2cosh_plus_1(z: np.ndarray) -> np.ndarray:
    # d2/dz2 log(2 cosh z + 1) = (2 cosh z + 4) / (2 cosh z + 1)^2
    e = np.exp(-np.abs(z))
    d = 1.0 + e + e * e
    return e * (1.0 + 4.0 * e + e * e) / (d * d)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _log_z(phi_rows: np.ndarray) -> np.ndarray:
    """Closed-form log Z per row of weights: the sum over all vote/class
    states factorizes per source."""
    return LOG2 + _log_2cosh_plus_1(phi_rows).sum(axis=-1)


# -- shared evaluation core ---------------------------------------------------


class _Rows(NamedTuple):
    """The distinct (votes, selected features) rows of one data set under one
    model shape, sorted design first, so they come grouped by design pattern.
    A row's design is a = [1, x_1 .. x_K]."""

    lam: np.ndarray  # U x M votes, float64, C order
    a: np.ndarray  # U x (1 + K) designs, float64
    inverse: np.ndarray  # each object's row
    per_row: np.ndarray  # each row's object count over N
    pattern: np.ndarray  # each row's design pattern
    patterns: np.ndarray  # P x (1 + K) distinct designs
    bounds: np.ndarray  # pattern p holds rows bounds[p]:bounds[p + 1]


def _rows(params: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None) -> _Rows:
    """The distinct rows of `labels` and `params`'s selected columns of
    `features`, which serve `_objective` and, within a run, `_label`.

    The K = 0 rows are the labels' vote compression.  The rows of any K are
    `_refine` of it by the K selected columns, each entry x read as the bit
    x > 0.  Only the U distinct rows' votes and designs are gathered."""
    _check_design(params, labels, features)
    member, inverse, count = votes = labels._compression
    if params.k:
        columns = (features.values[:, j] > 0 for j in params.selected)
        member, inverse, count = _refine(votes, columns, 2)
    u = member.size
    lam = labels.votes.T[member].astype(np.float64)
    a = np.ones((u, 1 + params.k))
    if params.k:
        a[:, 1:] = features.values[np.ix_(member, params.selected)]
    starts = np.empty(u, bool)  # the first row of each pattern
    starts[0] = True
    np.not_equal(a[1:], a[:-1]).any(axis=1, out=starts[1:])
    bounds = np.append(np.flatnonzero(starts), u)
    return _Rows(lam, a, inverse, count / labels.n, np.cumsum(starts) - 1, a[starts], bounds)


def _objective(
    rows: _Rows, w_l2: float
) -> Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]]:
    """The penalized objective of one model shape on one data set, as a
    function of x = [phi, W.ravel()] returning its value, gradient and
    Hessian from one pass over the distinct rows, each weighted by its object
    count.  A row's design a gives its effective weights a @ [phi; W]; both
    log Z and the effective weights are formed once per pattern p: each
    row's score phi_eff . votes reads its pattern's weights.  With W = 0
    those weights are phi exactly, and each row's sum runs in one order for
    any K, so the K = 0 scores are the same bit for bit.

    The value is the mean log-likelihood of the votes given the features,
    minus (w_l2 / 2) ||W||^2.  The row values are averaged over the objects,
    so W = 0 gives the K = 0 value bit for bit.  The log-likelihood is
    log 2cosh(s) - log Z(phi_eff) with score s linear in x, so its Hessian
    is sum_p (a_p a_p^T) (x) S_p with one M x M block per pattern,
    S_p = sum_{u in p} count_u (1 - tanh^2 s_u) votes_u votes_u^T / N minus
    log Z's curvature, which is diagonal in the sources.  An evaluation
    costs U M^2 for the U rows plus P (1 + K)^2 M^2 for the P patterns.
    """
    lam, a, inverse, per_row, pattern, patterns, bounds = rows
    # bincount, not add.reduceat, whose pairwise sums move the K = 0 fit's last digit
    per_pattern = np.bincount(pattern, weights=per_row)[:, None]
    m, k1 = lam.shape[1], a.shape[1]
    sources = np.arange(m)
    penalized = np.arange(m, k1 * m)

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        theta = x.reshape(k1, m)
        phi_pat = patterns @ theta  # P x M
        scores = np.einsum("um,um->u", lam, phi_pat[pattern])
        row_value = _log_2cosh(scores) - _log_z(phi_pat)[pattern]
        value = float(row_value[inverse].mean() - 0.5 * w_l2 * (theta[1:] ** 2).sum())

        t = np.tanh(scores)
        grad = a.T @ (lam * (per_row * t)[:, None])
        grad -= patterns.T @ (per_pattern * _dlog_2cosh_plus_1(phi_pat))
        grad[1:] -= w_l2 * theta[1:]

        curved = lam * (per_row * (1.0 - t * t))[:, None]
        blocks = np.stack([curved[i:j].T @ lam[i:j] for i, j in zip(bounds[:-1], bounds[1:])])
        blocks[:, sources, sources] -= per_pattern * _d2log_2cosh_plus_1(phi_pat)
        hess = np.einsum("pr,pq,pij->riqj", patterns, patterns, blocks).reshape(k1 * m, k1 * m)
        hess[penalized, penalized] -= w_l2
        return value, grad.reshape(-1), hess

    return evaluate


def _check_design(
    params: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None
) -> None:
    """Raise unless `params` can read `labels` and its selected columns of
    `features`."""
    if params.m != labels.m:
        raise ValueError(f"parameter count {params.m} != source count {labels.m}")
    if not params.k:
        return
    if features is None:
        raise ValueError("a model with selected features needs a feature matrix")
    if features.n != labels.n:
        raise ValueError("labels and features disagree on object count")
    if max(params.selected) >= features.p:
        raise IndexError(
            f"selected feature index {max(params.selected)} out of range for "
            f"{features.p} columns"
        )


def _design(
    params: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None
) -> np.ndarray:
    """Each object's design [1, x_1 .. x_K] over the selected feature columns,
    as an N x (1 + K) int8 matrix."""
    _check_design(params, labels, features)
    design = np.ones((labels.n, 1 + params.k), np.int8)
    if params.k:
        design[:, 1:] = features.values[:, list(params.selected)]
    return design


def _flat(params: GenParams) -> np.ndarray:
    return np.concatenate([params.phi, params.w.reshape(-1)])


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
    return _objective(_rows(params, labels, features), w_l2)(_flat(params))[0]


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
    grad = _objective(_rows(params, labels, features), w_l2)(_flat(params))[1]
    return grad[: params.m], grad[params.m :].reshape(params.k, params.m)


def posterior(params: GenParams, vote_column: np.ndarray, feature_row: np.ndarray = ()) -> float:
    """P(Y = +1 | votes, x) = sigmoid(2 phi_eff(x) . votes)."""
    lam = np.asarray(vote_column, dtype=np.float64)
    if lam.shape != params.phi.shape:
        raise ValueError("vote column length must match parameter count")
    if not np.isin(lam, (-1.0, 0.0, 1.0)).all():
        raise DataError("vote entries must lie in {-1,0,+1}")
    return float(_sigmoid(2.0 * float(effective_phi(params, feature_row) @ lam)))


# -- fitting and labeling --------------------------------------------------------


class _Kept:
    """One model module's record of its last fit, kept only while a `scope()`
    is open in the current context: `pipeline.run` opens one per module, so
    its fits hand what their last evaluation formed to the calls that read
    their result.  Outside a scope nothing is kept.  Inside, each fit
    replaces the record, and `get` returns it only for the same objects,
    compared by identity, as the fit recorded it under."""

    def __init__(self, name: str):
        self._slot: ContextVar[list | None] = ContextVar(name, default=None)

    @contextmanager
    def scope(self) -> Iterator[None]:
        token = self._slot.set([None])
        try:
            yield
        finally:
            self._slot.reset(token)

    def put(self, key: tuple, value) -> None:
        """Keep `value` under `key` (None keeps nothing); outside a scope, a no-op."""
        slot = self._slot.get()
        if slot is not None:
            slot[0] = None if value is None else (key, value)

    def get(self, *key):
        """The value kept under `key`, or None."""
        slot = self._slot.get()
        record = None if slot is None else slot[0]
        if record is None or not all(a is b for a, b in zip(record[0], key)):
            return None
        return record[1]


# the last fit's GenParams, labels, features -> its _Rows, until `_label` reads them
_kept = _Kept("genmodel.kept")


def _fit(
    init: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None, config: FitConfig
) -> GenParams:
    """Joint damped-Newton ascent on (phi, W) from `init`.

    Sources with no votes at all keep their initial weights (their gradient
    is masked and their Hessian rows decoupled) so column indices stay stable
    across pipeline iterations.  Inside a reuse scope the fit keeps its
    distinct rows for `_label`.
    """
    rows = _rows(init, labels, features)
    evaluate = _objective(rows, config.w_l2)
    m, k = init.m, init.k
    frozen = np.tile(~(labels.votes != 0).any(axis=1), k + 1)

    def masked(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        value, grad, hess = evaluate(x)
        grad[frozen] = 0.0
        hess[frozen, :] = 0.0
        hess[:, frozen] = 0.0
        hess[frozen, frozen] = -1.0
        return value, grad, hess

    x = newton(masked if frozen.any() else evaluate, _flat(init), config.max_iters, config.grad_tol)
    params = GenParams(phi=x[:m], w=x[m:].reshape(k, m), selected=init.selected)
    _kept.put((params, labels, features), rows)
    return params


def fit_sp(labels: LabelMatrix, config: FitConfig = FitConfig()) -> GenParams:
    """Fit the K = 0 model: damped-Newton ascent on the marginal likelihood
    with phi starting at phi_init.  The line search is monotone, so the
    result never scores below the initialization."""
    return _fit(GenParams(np.full(labels.m, config.phi_init)), labels, None, config)


def fit_aug(
    labels: LabelMatrix,
    features: FeatureMatrixBinary,
    selected: Sequence[int],
    config: FitConfig = FitConfig(),
    *,
    start: GenParams | None = None,
) -> GenParams:
    """Joint damped-Newton ascent on (phi, W) over the `selected` feature
    columns.  phi starts at phi_init and W at zero, or, warm, at `start`: a
    fitted model whose selected columns are a prefix of `selected`, with
    zero rows for the columns it lacks.  Model K - 1 is model K with
    W_K = 0, so from the K - 1 optimum the fit never scores below it."""
    selected = tuple(_index(i, "selected") for i in selected)
    if start is None:
        start = GenParams(np.full(labels.m, config.phi_init))
    if start.m != labels.m:
        raise ValueError(f"start has {start.m} sources, the labels {labels.m}")
    if start.selected != selected[: start.k]:
        raise ValueError(
            f"start's selected columns {start.selected} are not a prefix of {selected}"
        )
    w = np.vstack([start.w, np.zeros((len(selected) - start.k, labels.m))])
    return _fit(GenParams(start.phi, w, selected), labels, features, config)


def _vote_scores(lam: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The R scores sum_j lam[j] * weights[j] of two M x R arrays whose rows
    are the sources, each summed left to right from 0.0 whatever the arrays'
    memory layout.  (A sum along the sources of an R x M array takes numpy's
    pairwise order from M = 8 on where the sources lie contiguous in memory,
    and the left-to-right order where they do not.)"""
    scores = np.zeros(lam.shape[1])
    for lam_j, weights_j in zip(lam, weights):
        scores += lam_j * weights_j
    return scores


def _label(
    params: GenParams, labels: LabelMatrix, features: FeatureMatrixBinary | None
) -> ProbLabelVector:
    """tanh of each object's score votes . ([phi; W]^T a) for its design a:
    on the distinct rows, when the fit that returned `params` kept them for
    these labels and features, else per object.  [phi; W]^T times the int8
    design is phi itself at K = 0, and each product with a vote is exact, so
    both routes sum the same M terms in the same order, and their labels
    agree bit for bit.  Once read, the kept rows are dropped."""
    theta_t = np.vstack([params.phi, params.w]).T  # M x (1 + K)
    rows = _kept.get(params, labels, features)
    if rows is not None:
        scores = _vote_scores(rows.lam.T, (theta_t @ rows.patterns.T)[:, rows.pattern])
        _kept.put((params, labels, features), None)
        return ProbLabelVector(np.tanh(scores)[rows.inverse])
    scores = _vote_scores(labels.votes, theta_t @ _design(params, labels, features).T)
    return ProbLabelVector(np.tanh(scores))


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


# -- serialization -----------------------------------------------------------


def params_to_dict(params: GenParams, config: FitConfig) -> dict:
    return {"phi": params.phi.tolist(), "w": params.w.tolist(), "selected": list(params.selected),
            "config": asdict(config)}


def load_params(reader: TextIO) -> GenParams:
    """The model of a `params_to_dict` JSON file ("w" and "selected" may be
    absent at K = 0); a malformed file, a JSON true or false among its
    numbers included, raises DataError naming the field."""
    d = json.load(reader)
    phi = _json_array(d, "phi", (-1,))
    selected = _json_array(d, "selected", (-1,), "iu", default=[])
    w = _json_array(d, "w", (selected.size, phi.size), default=[])
    return GenParams(phi=phi, w=w, selected=selected)
