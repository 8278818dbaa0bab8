"""Difference model: LASSO over binary features against model disagreement.

The canonical objective is

    (1 / 2N) ||X theta - y||^2 + lambda ||theta||_1

so correlations, the path grid, and the recovery-theory quantities all live
on one lambda axis.  Columns of X are +-1, hence have exact unit norm under
the 1/N scaling and are never standardized; the constructor of
FeatureMatrixBinary is the guard.

The solution is piecewise linear in lambda, so every fit is read off the
exact path (`_homotopy`): LARS with the lasso modification (Osborne,
Presnell and Turlach 2000; Efron et al. 2004), run on the Gram matrix and
the correlations, so a breakpoint costs no pass over the N objects.  A
column enters when its residual correlation reaches lambda and leaves when
its coefficient reaches zero; between breakpoints each grid point's
coefficients are a linear function of its lambda, with no solve of their
own.  A fit is accepted when its KKT violation, taken from the Gram matrix
over all P columns, is within 5 * tol.  A column that equals or negates a
lower-index column never enters, since it would make the active block
singular and the solution is not unique with it (Tibshirani 2013, EJS 7).
Fits are fully deterministic.  The path's three settings arrive as one
LassoConfig, which checks them when it is built.

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

from .data import (DataError, FeatureMatrixBinary, HardLabelVector, ProbLabelVector, _checked,
                   _frozen, _index, _is_unit, _positive, _real, _rebuild, _set)


@dataclass(frozen=True)
class DisagreementVector:
    """Elementwise -Y_G * Y_D; positive where the two models conflict."""

    values: np.ndarray

    def __post_init__(self):
        _set(self, values=_checked(self.values, "disagreement", ("object",), _is_unit,
                                   "disagreement outside [-1,1]", np.float64))

    __reduce__ = _rebuild

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

    __reduce__ = _rebuild

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


@dataclass(frozen=True)
class LassoConfig:
    """The settings of one LASSO path: `grid_size` geometric grid points, an
    integer of at least 2 (any Python or NumPy integer, read as an int), from
    lambda_max down to `lambda_min_ratio` * lambda_max, with the ratio in
    (0, 1), and the KKT tolerance `lasso_tol`, finite and positive: a fit is
    accepted when its Gram-based KKT violation is within 5 * lasso_tol.  A
    value out of range raises ValueError."""

    grid_size: int = 100
    lambda_min_ratio: float = 1e-3
    lasso_tol: float = 1e-8

    def __post_init__(self):
        _set(self, grid_size=_index(self.grid_size, "grid_size"))
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")
        if not 0.0 < _real(self.lambda_min_ratio, "lambda_min_ratio") < 1.0:
            raise ValueError("lambda_min_ratio must lie in (0,1)")
        _positive(self.lasso_tol, "lasso_tol")


def disagreement(gen_labels: ProbLabelVector, disc_labels: HardLabelVector) -> DisagreementVector:
    if gen_labels.n != disc_labels.n:
        raise ValueError(f"label lengths differ: {gen_labels.n} vs {disc_labels.n}")
    return DisagreementVector(-gen_labels.expected * disc_labels.labels)


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


TIE = 1e-9  # breakpoints within this fraction of lambda of each other are one event
PIVOT = 1e-10  # a column whose Gram pivot on the active block is this small lies in its span


def _kkt(q: np.ndarray, thetas: np.ndarray, lambdas: np.ndarray) -> np.ndarray:
    """Largest KKT violation of each row of `thetas` (G x P) given its
    residual correlations, the same row of `q`: |q_j - lam sign(theta_j)| on
    active columns, |q_j| - lam on inactive ones, floored at 0."""
    lam = lambdas[:, None]
    viol = np.where(thetas != 0.0, np.abs(q - lam * np.sign(thetas)), np.abs(q) - lam)
    return np.max(viol, axis=1, initial=0.0)


def _homotopy(gram: np.ndarray, corr: np.ndarray, grid: np.ndarray, stop: float,
              refresh: bool) -> np.ndarray:
    """The exact LASSO path from lambda_max down, read at each point of the
    decreasing `grid`: one row of coefficients per grid point reached.  The
    path stops at the first grid point by which `stop` columns have been
    active at a grid point.

    On a segment between breakpoints the active set A and its signs s are
    fixed, and theta_A(lam) = u - lam d with u = H c_A, d = H s_A and
    H = G_AA^-1, so the residual correlations are q(lam) = r + lam a with
    r = c - G_.A u and a = G_.A d.  The segment ends at the largest lam at
    which an inactive q_j reaches the bound +-lam it heads for (the column
    enters with that sign) or an active coefficient at least TIE below the
    segment's top reaches zero (it leaves); events within TIE of it are
    taken with it.  H is kept as W^T W, where W G_AA W^T = I: an entry
    borders W with one row, from two products with W, and an exit applies
    one Householder reflection to W.  A column whose pivot on the active
    block is at most PIVOT lies in the active columns' span and does not
    enter until a column leaves; a column that equals or negates a
    lower-index one never enters.  The grid points of a segment are read
    off it; with `refresh`, W is first formed again from G_AA and the
    segment redone.
    """
    p = corr.size
    free = np.ones(p, dtype=bool)  # inactive columns that may enter
    spanned: list[int] = []  # inactive columns in the span of the active ones
    white = np.zeros((p, p))  # W, on its leading m x m block
    rows = np.empty((p, p))  # G_A., one Gram row per active column, in the order of A
    cs = np.empty((p, 2))  # [c_A, s_A]
    ud = np.empty((p, 2))  # [u, d]
    active: list[int] = []
    coefs = np.zeros((grid.size, p))
    entered: set[int] = set()  # columns active at a grid point read so far
    bounds = np.array([[1.0], [-1.0]])
    lams = grid.tolist()
    r, a = corr, np.zeros(p)
    lam_hi, g, redone = np.inf, 0, False
    while True:
        m = len(active)
        u, d = ud[:m, 0], ud[:m, 1]
        cap = lam_hi * (1.0 - TIE)
        with np.errstate(divide="ignore", invalid="ignore"):
            hits = r / (bounds - a)  # the lam at which q_j = +lam (row 0) and -lam (row 1)
            zeros = u / d  # the lam at which theta_j = 0
        # q_j heads for the bound +-lam only where lam -+ q_j shrinks as lam falls,
        # so a column at its bound enters now if it heads out, not if it heads in
        hits = np.where((bounds * a < 1.0) & (hits > 0.0) & free, hits, 0.0)
        zeros = np.where((zeros > 0.0) & (zeros < cap), zeros, 0.0)
        lam_lo = min(max(hits.max(), zeros.max(initial=0.0)), lam_hi)

        end = g
        while end < len(lams) and lams[end] >= lam_lo:
            end += 1
        if end > g:
            if refresh and not redone:
                white[:m, :m] = np.linalg.inv(np.linalg.cholesky(gram[np.ix_(active, active)]))
                ud[:m] = white[:m, :m].T @ (white[:m, :m] @ cs[:m])
                r, a = corr - u @ rows[:m], d @ rows[:m]
                redone = True
                continue
            coefs[g:end, active] = u - grid[g:end, None] * d
            # an active coefficient is nonzero below the breakpoint it entered at
            entered.update(active)
            if len(entered) >= stop:
                return coefs[: g + 1]
            g = end
        if g == grid.size:
            return coefs

        tie = lam_lo * (1.0 - TIE)
        q = r + lam_lo * a  # continuous across the breakpoint, as theta is
        out = np.flatnonzero(zeros >= tie)[::-1].tolist()
        for i in out:  # the last active column takes the leaving one's place
            m -= 1
            free[active[i]] = True
            active[i] = active[m]
            active.pop()
            rows[i], cs[i] = rows[m], cs[m]
            w = white[: m + 1, : m + 1]
            v = w[:, i].copy()  # reflected onto the last axis, whose row is then dropped
            w[:, i] = w[:, m]
            v[-1] += np.copysign(np.sqrt(v @ v), v[-1])
            w -= np.outer(v, (2.0 / (v @ v)) * (v @ w))
        if out:
            ud[:m] = white[:m, :m].T @ (white[:m, :m] @ cs[:m])
            free[spanned] = True  # a smaller active set may no longer span them
            spanned.clear()
        for j in np.flatnonzero(hits.max(axis=0) >= tie).tolist():
            if (np.abs(gram[j, :j]) == 1.0).any():  # a copy or negation of a lower-index column
                free[j] = False
                continue
            ell = white[:m, :m] @ rows[:m, j]
            pivot = gram[j, j] - ell @ ell
            if pivot <= PIVOT:
                free[j] = False
                spanned.append(j)
                continue
            scale = 1.0 / np.sqrt(pivot)
            new = white[m, : m + 1]  # W's new row; its new column is zero above it
            new[:m] = white[:m, :m].T @ ell
            new *= -scale
            new[m] = scale
            white[:m, m] = 0.0
            rows[m] = gram[j]
            cs[m] = corr[j], 1.0 if hits[0, j] > hits[1, j] else -1.0
            ud[m] = 0.0
            ud[: m + 1] += new[:, None] * (new @ cs[: m + 1])
            active.append(j)
            free[j] = False
            m += 1
        a = ud[:m, 1] @ rows[:m]
        r = q - lam_lo * a
        lam_hi, redone = lam_lo, False


def _path(gram: np.ndarray, corr: np.ndarray, grid: np.ndarray, tol: float,
          stop: float = np.inf) -> np.ndarray:
    """The coefficients of `_homotopy`, each grid point's fit accepted when
    its Gram-based KKT violation is within 5 * tol.  If one misses, the path
    is taken again with W formed afresh for every segment that holds a grid
    point, and each fit that still misses warns with a RuntimeWarning."""
    for refresh in (False, True):
        coefs = _homotopy(gram, corr, grid, stop, refresh)
        lam = grid[: len(coefs)]
        used = np.flatnonzero(coefs.any(axis=0))
        bad = _kkt(corr - coefs[:, used] @ gram[used], coefs, lam) > 5.0 * tol
        if not bad.any():
            return coefs
    for miss in lam[bad].tolist():
        warnings.warn(f"the LASSO fit at lambda={miss!r} misses the KKT tolerance "
                      f"5 * tol, tol={tol!r}", RuntimeWarning, stacklevel=3)
    return coefs


def _entries(coefs: np.ndarray, grid: np.ndarray) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Each column's first grid point with a nonzero coefficient: the entry
    order, ties at one grid point by larger |coef| and then lower index, and
    the entry lambdas."""
    nonzero = coefs != 0.0
    cols = np.flatnonzero(nonzero.any(axis=0))
    first = nonzero.argmax(axis=0)[cols]
    order = np.lexsort((cols, -np.abs(coefs[first, cols]), first))
    return tuple(cols[order].tolist()), tuple(grid[first[order]].tolist())


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
    lambdas = np.asarray(lambdas, dtype=np.float64)
    return tuple(
        LassoFit(coef=c, lam=lam, kkt_residual=v)
        for c, lam, v in zip(thetas, lambdas.tolist(), _kkt(kkt, thetas, lambdas).tolist())
    )


def _lam(lam: float) -> float:
    """`lam` as a float, checked to be >= 0."""
    if not lam >= 0:
        raise ValueError("lambda must be non-negative")
    return float(lam)


def _coef(features: FeatureMatrixBinary, coef, lam: float) -> np.ndarray:
    """`coef` as a float copy, checked to hold one entry per column, at a lam >= 0."""
    _lam(lam)
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
    """Solve the canonical LASSO at one lambda: the exact path from
    lambda_max down, read at `lam`.  The fit is accepted when its Gram-based
    KKT violation is within 5 * `tol`, which must be finite and positive;
    one that misses it warns with a RuntimeWarning."""
    grid = np.array([_lam(lam)])
    _positive(tol, "tol")
    x, y = _problem(features, target)
    coefs = _path(*_stats(x, y), grid, tol)
    return _lasso_fits(x, y, coefs, grid)[0]


def lambda_max(features: FeatureMatrixBinary, target) -> float:
    """Smallest lambda whose solution is exactly zero: || (1/N) X^T y ||_inf."""
    return float(np.abs(_corr(*_problem(features, target))).max())


def regularization_path(
    features: FeatureMatrixBinary,
    target,
    config: LassoConfig = LassoConfig(),
    stop_after: int | None = None,
) -> RegPath:
    """Fits on the geometric grid of `config`, `grid_size` points from
    lambda_max down to `lambda_min_ratio` * lambda_max, all read off one
    exact LASSO path, each within the KKT tolerance 5 * `lasso_tol`.

    entry_order records each feature's first activation; features activating
    at the same grid point are ordered by larger |coef|, then lower index.
    A column that equals or negates a lower-index column never activates.
    With `stop_after`, an integer of at least 1, the path stops early once
    that many features have activated (the remaining grid points are
    dropped).  Each grid point whose fit misses the tolerance, even with the
    active block formed again from the Gram matrix, warns with a
    RuntimeWarning.

    Each fit's kkt_residual is the N-object check of `kkt_residual`, taken
    for every grid point at once after the path by `_lasso_fits`, which
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
    coefs = _path(gram, corr, grid, config.lasso_tol, stop)
    lambdas = grid[: len(coefs)]
    entry_order, entry_lambdas = _entries(coefs, lambdas)
    return RegPath(
        lambdas=tuple(lambdas.tolist()),
        entry_order=entry_order,
        fits=_lasso_fits(x, y, coefs, lambdas),
        entry_lambdas=entry_lambdas,
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
