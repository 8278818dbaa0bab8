"""Difference model: LASSO over binary features against model disagreement.

The canonical objective is

    (1 / 2N) ||X theta - y||^2 + lambda ||theta||_1

so correlations, the path grid, and the recovery-theory quantities all live
on one lambda axis.  Columns of X are +-1, hence have exact unit norm under
the 1/N scaling and are never standardized; the constructor of
FeatureMatrixBinary is the guard.

Coordinate descent runs on precomputed Gram/correlation statistics (the
covariance-update strategy), so a sweep costs no pass over the N objects.
Each round sweeps only the working set, in ascending column order: the
active columns plus every column whose residual correlation exceeds lambda,
the only ones a coordinate step can move.  Sweeps over the active columns
follow until they settle (glmnet's active-set cycling), and a fit is
accepted only after a KKT check over all P columns, as in the strong rules'
re-check.  Fits are fully deterministic.  The path's three settings arrive
as one LassoConfig, which checks them when it is built; every fit takes at
most MAX_SWEEPS sweeps.

Every public function reads (X, y) through one reader, `_problem`, which
checks the target's length and finiteness.  Every LassoFit is built by one
routine, `_lasso_fits`, which takes each fit's KKT residual from the N
objects themselves, not from the Gram matrix, in one product for a whole
stack of fits grouped by |U|, P and G (see there).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import (DataError, FeatureMatrixBinary, HardLabelVector, ProbLabelVector, _frozen,
                   _index, _set)


@dataclass(frozen=True)
class DisagreementVector:
    """Elementwise -Y_G * Y_D; positive where the two models conflict."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DataError("disagreement must be a vector")
        if not np.isfinite(values).all() or (np.abs(values) > 1.0).any():
            raise DataError("disagreement entries must lie in [-1,1]")
        _set(self, values=_frozen(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LassoFit:
    """The coefficients of one fit at `lam`, with the largest violation of
    its optimality conditions; `active_set` is read off `coef`."""

    coef: np.ndarray
    lam: float
    kkt_residual: float

    def __post_init__(self):
        _set(self, coef=_frozen(self.coef, np.float64))

    @property
    def active_set(self) -> tuple[int, ...]:
        """The indices of the nonzero coefficients, ascending."""
        return tuple(np.flatnonzero(self.coef).tolist())


@dataclass(frozen=True)
class RegPath:
    """Warm-started fits on a decreasing lambda grid plus feature entry order.

    entry_lambdas[i] is the grid value at which entry_order[i] first became
    active.
    """

    lambdas: tuple[float, ...]
    entry_order: tuple[int, ...]
    fits: tuple[LassoFit, ...]
    entry_lambdas: tuple[float, ...]

    def __post_init__(self):
        if any(a <= b for a, b in zip(self.lambdas, self.lambdas[1:])):
            raise ValueError("lambda grid must be strictly decreasing")
        if len(set(self.entry_order)) != len(self.entry_order):
            raise ValueError("entry_order must not repeat features")
        if len(self.entry_lambdas) != len(self.entry_order):
            raise ValueError("entry_lambdas must parallel entry_order")


def _check_tol(tol: float) -> None:
    """Raise ValueError unless the coordinate-descent tolerance is finite and
    positive: no fit meets a tolerance of 0 or NaN."""
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")


@dataclass(frozen=True)
class LassoConfig:
    """The settings of one LASSO path: `grid_size` geometric grid points, an
    integer of at least 2 (any Python or NumPy integer, read as an int), from
    lambda_max down to `lambda_min_ratio` * lambda_max, with the ratio in
    (0, 1), and the coordinate-descent tolerance `lasso_tol`, finite and
    positive.  A value out of range raises ValueError."""

    grid_size: int = 100
    lambda_min_ratio: float = 1e-3
    lasso_tol: float = 1e-8

    def __post_init__(self):
        _set(self, grid_size=_index(self.grid_size, "grid_size"))
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if not 0.0 < self.lambda_min_ratio < 1.0:
            raise ValueError("lambda_min_ratio must lie in (0,1)")
        _check_tol(self.lasso_tol)


def disagreement(gen_labels: ProbLabelVector, disc_labels: HardLabelVector) -> DisagreementVector:
    if gen_labels.n != disc_labels.n:
        raise ValueError(f"label lengths differ: {gen_labels.n} vs {disc_labels.n}")
    return DisagreementVector(-gen_labels.expected * disc_labels.labels)


def soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _target(target, n: int) -> np.ndarray:
    """The target y as a float vector, checked to have `n` finite entries."""
    y = target.values if isinstance(target, DisagreementVector) else np.asarray(target, dtype=np.float64)
    if y.shape != (n,):
        raise ValueError(f"target length {y.shape} != object count {n}")
    if not np.isfinite(y).all():
        raise DataError("non-finite target")
    return y


def _problem(features: FeatureMatrixBinary, target) -> tuple[np.ndarray, np.ndarray]:
    """The float copy of X that every statistic of one call is read from,
    and the checked target y."""
    return features.values.astype(np.float64), _target(target, features.n)


def _corr(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Correlations (1/N) X^T y."""
    return (x.T @ y) / x.shape[0]


def _stats(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix (1/N) X^T X and correlations (1/N) X^T y."""
    return (x.T @ x) / x.shape[0], _corr(x, y)


MAX_SWEEPS = 10_000  # the sweeps one coordinate-descent fit may take (see `_cd_solve`)


def _cd_solve(
    gram: np.ndarray,
    corr: np.ndarray,
    lam: float,
    theta: np.ndarray,
    tol: float,
) -> None:
    """Working-set coordinate descent; `theta` is updated in place.

    Each round starts from the fresh residual correlations
    q = corr - gram @ theta (exactly the KKT vector; no drift carries over)
    and sweeps, in ascending column order, only the working set: the active
    columns plus every column with |q_j| > lam, the only columns a step can
    move.  The fit is converged when that sweep moves no coordinate by tol
    or more and the Gram-based KKT violation over all P columns is within
    5 * tol; a column that violates it has |q_j| > lam and joins the next
    round.  Otherwise sweeps over the active columns follow until one moves
    no coordinate by tol or more, and a new round begins.  A sweep is one
    pass over the working set or the active set, not over all P columns;
    MAX_SWEEPS bounds their total.  A fit that uses them all up warns,
    at the caller of the public fit, with a RuntimeWarning.
    """
    sweeps = 0
    while sweeps < MAX_SWEEPS:
        q = corr - gram @ theta
        max_delta = _sweep(gram, q, theta, lam, np.flatnonzero((theta != 0.0) | (np.abs(q) > lam)))
        sweeps += 1
        if max_delta < tol and _kkt_from_q(q, theta, lam) <= 5.0 * tol:
            return
        active = np.flatnonzero(theta)
        while sweeps < MAX_SWEEPS and active.size:
            sweeps += 1
            if _sweep(gram, q, theta, lam, active) < tol:
                break
    warnings.warn(
        f"coordinate descent at lambda={lam!r} did not converge within "
        f"max_sweeps={MAX_SWEEPS}",
        RuntimeWarning,
        stacklevel=3,
    )


def _sweep(gram: np.ndarray, q: np.ndarray, theta: np.ndarray, lam: float, columns: np.ndarray) -> float:
    """One coordinate-descent pass over `columns` in order, updating theta
    and q = corr - gram @ theta in place; returns the largest step."""
    max_delta = 0.0
    for j in columns.tolist():
        old = theta[j]
        new = soft_threshold(q[j] + old, lam)
        if new != old:
            d = new - old
            q -= gram[j] * d
            theta[j] = new
            max_delta = max(max_delta, abs(d))
    return max_delta


def _kkt_from_q(q: np.ndarray, theta: np.ndarray, lam: float) -> float:
    """Largest KKT violation given the residual correlations q: |q_j - lam *
    sign(theta_j)| on active columns, |q_j| - lam on inactive ones, floored
    at 0."""
    viol = np.where(theta != 0.0, np.abs(q - lam * np.sign(theta)), np.abs(q) - lam)
    return float(np.max(viol, initial=0.0))


def _lasso_fits(x: np.ndarray, y: np.ndarray, thetas: np.ndarray, lambdas) -> tuple[LassoFit, ...]:
    """One LassoFit per row of `thetas` (G x P) and entry of `lambdas`, each
    with the kkt_residual of its KKT vector X^T (y - X theta) / N.

    The G vectors come from one product, in whichever grouping costs less
    given U, the columns active in any of the fits: the regrouped
    (X^T y - Theta_U (X_U^T X)) / N costs N |U| P, the direct
    X^T (y - X_U Theta_U^T) / N costs N G (|U| + P).  Both read X and y,
    never the solver's Gram statistics, so they check the fits against the
    data.
    """
    g, p = thetas.shape
    used = np.flatnonzero(thetas.any(axis=0))
    if used.size * p <= g * (used.size + p):
        kkt = (x.T @ y - thetas[:, used] @ (x[:, used].T @ x)) / x.shape[0]
    else:
        kkt = (x.T @ (y[:, None] - x[:, used] @ thetas[:, used].T)).T / x.shape[0]
    return tuple(
        LassoFit(coef=c, lam=lam, kkt_residual=_kkt_from_q(q, c, lam))
        for c, lam, q in zip(thetas, lambdas, kkt)
    )


def _coef(features: FeatureMatrixBinary, coef, lam: float) -> np.ndarray:
    """`coef` as a float copy, checked to hold one entry per column, at a lam >= 0."""
    if not lam >= 0:
        raise ValueError("lambda must be non-negative")
    theta = np.array(coef, dtype=np.float64)
    if theta.shape != (features.p,):
        raise ValueError("coef must have one entry per feature column")
    return theta


def lasso_objective(features: FeatureMatrixBinary, target, coef: np.ndarray, lam: float) -> float:
    """Canonical objective (1/2N) ||X coef - y||^2 + lambda ||coef||_1."""
    coef = _coef(features, coef, lam)
    x, y = _problem(features, target)
    r = x @ coef - y
    return float((r @ r) / (2.0 * features.n) + lam * np.abs(coef).sum())


def kkt_residual(features: FeatureMatrixBinary, target, fit: LassoFit) -> float:
    """Largest violation of the subgradient optimality conditions.

    For active j, (1/N) X_j . (y - X theta) must equal lam * sign(theta_j);
    for inactive j its magnitude must not exceed lam.
    """
    coef = _coef(features, fit.coef, fit.lam)
    x, y = _problem(features, target)
    return _lasso_fits(x, y, coef[None, :], [fit.lam])[0].kkt_residual


def lasso_fit(features: FeatureMatrixBinary, target, lam: float, tol: float = 1e-8) -> LassoFit:
    """Solve the canonical LASSO at one lambda by cyclic coordinate descent
    from zero, to the finite and positive tolerance `tol`.

    A fit that uses up its MAX_SWEEPS sweeps, each over the working set or
    the active set rather than over all P columns (see `_cd_solve`), warns
    with a RuntimeWarning."""
    theta = _coef(features, np.zeros(features.p), lam)
    _check_tol(tol)
    x, y = _problem(features, target)
    gram, corr = _stats(x, y)
    _cd_solve(gram, corr, lam, theta, tol)
    return _lasso_fits(x, y, theta[None, :], [float(lam)])[0]


def lambda_max(features: FeatureMatrixBinary, target) -> float:
    """Smallest lambda whose solution is exactly zero: || (1/N) X^T y ||_inf."""
    return float(np.abs(_corr(*_problem(features, target))).max())


def regularization_path(
    features: FeatureMatrixBinary,
    target,
    config: LassoConfig = LassoConfig(),
    stop_after: int | None = None,
) -> RegPath:
    """Warm-started fits on the geometric grid of `config`: `grid_size`
    points from lambda_max down to `lambda_min_ratio` * lambda_max, each fit
    to the tolerance `lasso_tol`.

    entry_order records each feature's first activation; features activating
    at the same grid point are ordered by larger |coef|, then lower index.
    With `stop_after`, an integer of at least 1, the descent stops early once
    that many features have activated (the remaining grid points are
    dropped).  Each grid point whose fit uses up MAX_SWEEPS warns with a
    RuntimeWarning.

    Each fit's kkt_residual is the N-object check of `kkt_residual`, taken
    for every grid point at once after the loop by `_lasso_fits`, which
    groups the one product by the grid size G, the column count P and the
    number |U| of columns active at any grid point.  It reads X and y, never
    the solver's Gram statistics, so it still checks the fits against the
    data.
    """
    stop = np.inf if stop_after is None else _index(stop_after, "stop_after")
    if stop < 1:
        raise ValueError("stop_after must be at least 1")
    x, y = _problem(features, target)
    gram, corr = _stats(x, y)
    lam_max = float(np.abs(corr).max())
    if lam_max == 0.0:
        raise DataError("no disagreement signal: target is uncorrelated with every feature")

    grid = np.geomspace(lam_max, lam_max * config.lambda_min_ratio, config.grid_size)
    grid[0] = lam_max  # exact, so the first fit is all-zero by construction

    theta = np.zeros(features.p)
    coefs: list[np.ndarray] = []
    entry_order: list[int] = []
    entry_lambdas: list[float] = []
    seen = np.zeros(features.p, dtype=bool)
    for lam in grid.tolist():
        _cd_solve(gram, corr, lam, theta, config.lasso_tol)
        coefs.append(theta.copy())
        fresh = [j for j in np.flatnonzero(theta).tolist() if not seen[j]]
        fresh.sort(key=lambda j: (-abs(theta[j]), j))
        for j in fresh:
            seen[j] = True
            entry_order.append(j)
            entry_lambdas.append(lam)
        if len(entry_order) >= stop:
            break

    lambdas = grid[: len(coefs)].tolist()
    return RegPath(
        lambdas=tuple(lambdas),
        entry_order=tuple(entry_order),
        fits=_lasso_fits(x, y, np.array(coefs), lambdas),
        entry_lambdas=tuple(entry_lambdas),
    )


def select_features(path: RegPath, k: int) -> list[int]:
    """First k features by path entry order (fewer, with a warning, if the
    path never activated k features)."""
    if _index(k, "k") < 1:
        raise ValueError("k must be at least 1")
    if not path.fits:
        raise ValueError("empty regularization path")
    if k > len(path.entry_order):
        warnings.warn(
            f"only {len(path.entry_order)} features activated; requested {k}",
            stacklevel=2,
        )
    return list(path.entry_order[:k])
