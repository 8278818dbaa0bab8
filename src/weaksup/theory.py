"""Empirical evaluation of the sparse-recovery conditions for the difference
model: incoherence, dependence, relevance, and irrelevance slack, plus the
recommended lambda and the sample-size bound they imply.

All expectations are replaced by plug-in sample averages over the provided
data; the quantities are reported as empirical estimates.  Only
`check_conditions` splits X into X_S and X_Sbar, for a support it checks.
Both gamma and c read one least-squares coefficient of the target on X_S,
formed from the sample blocks: no pass over the N objects forms a residual.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .data import DataError, FeatureMatrixBinary, _index
from .diffmodel import DisagreementVector, _target


def matrix_inf_norm(a: np.ndarray) -> float:
    """Operator infinity norm: maximum absolute row sum."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    return float(np.abs(a).sum(axis=1).max(initial=0.0))


def vector_inf_norm(v: np.ndarray) -> float:
    v = np.asarray(v, dtype=np.float64)
    return float(np.abs(v).max()) if v.size else 0.0


@dataclass(frozen=True)
class ConditionReport:
    alpha: float
    beta: float
    gamma: float
    c: float
    sigma_ss: np.ndarray
    sigma_s_sbar: np.ndarray
    sigma_ss_cond: float
    satisfied: dict[str, bool]
    recommended_lambda: float | None
    n_bound: int | None
    delta: float

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())

    def to_dict(self) -> dict:
        blocks = {"sigma_ss": self.sigma_ss.tolist(), "sigma_s_sbar": self.sigma_s_sbar.tolist()}
        return asdict(self) | blocks


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")


def sample_bound(beta: float, gamma: float, c: float, p: int, delta: float) -> int:
    """Objects needed for recovery with probability at least 1 - delta:
    ceil(max(8 beta^4 / gamma^2, 32) / c^2 * log(4 P / delta))."""
    if gamma <= 0 or c <= 0:
        raise ValueError("conditions unsatisfied: gamma and c must be positive")
    _check_delta(delta)
    if p < 1:
        raise ValueError("p must be at least 1")
    return math.ceil(max(8.0 * beta**4 / gamma**2, 32.0) / c**2 * math.log(4.0 * p / delta))


def recommended_lambda(alpha: float, beta: float, gamma: float, c: float) -> float:
    """The theory's canonical-scale regularizer gamma/beta - c/alpha."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    lam = gamma / beta - c / alpha
    if lam <= 0:
        raise ValueError("no admissible lambda; conditions too weak")
    return lam


def check_conditions(
    features: FeatureMatrixBinary,
    support: Sequence[int],
    target: DisagreementVector | np.ndarray,
    delta: float = 0.05,
) -> ConditionReport:
    """Plug-in estimates of the recovery conditions for `support`: X_S holds
    its columns in the order given, X_Sbar the others in ascending order.

    alpha is the incoherence slack 1 - ||Sigma_SbarS Sigma_SS^-1||_inf, beta
    the dependence bound ||Sigma_SS^-1||_inf, gamma the smallest rescaled
    correlation of a relevant feature with the target, and c the irrelevance
    slack alpha*gamma/beta minus the largest correlation of an irrelevant
    feature with the least-squares residual of the target on X_S.  Sigma_SS
    and Sigma_SSbar are the sample blocks (1/N) X_S^T X_S and (1/N) X_S^T
    X_Sbar.  gamma is min |coef| for the least-squares coefficient
    coef = Sigma_SS^-1 X_S^T y / N, and c's residual correlations are
    X_Sbar^T y / N - Sigma_SSbar^T coef, with no pass over the N rows.  An
    empty support, a non-integer index, a repeated or out-of-range column,
    or a numerically singular Sigma_SS (its smallest singular value
    reported) raises DataError; `delta` must lie in (0, 1).
    """
    support = [_index(j, "support", DataError) for j in support]
    if not support:
        raise DataError("support must name at least one feature column")
    if len(set(support)) != len(support):
        repeated = next(j for i, j in enumerate(support) if j in support[:i])
        raise DataError(f"support names column {repeated} more than once")
    if min(support) < 0 or max(support) >= features.p:
        raise DataError(f"support indices out of range for {features.p} columns")
    _check_delta(delta)
    x_s = features.values[:, support].astype(np.float64)
    x_sbar = np.delete(features.values, support, axis=1).astype(np.float64)
    n = features.n
    y = _target(target, n)
    sigma_ss = (x_s.T @ x_s) / n
    sigma_s_sbar = (x_s.T @ x_sbar) / n
    svals = np.linalg.svd(sigma_ss, compute_uv=False)
    if svals[-1] <= 1e-12 * max(1.0, svals[0]):
        raise DataError(
            f"singular relevant-feature second-moment matrix; smallest singular "
            f"value {svals[-1]:.3e}"
        )
    inv = np.linalg.inv(sigma_ss)

    alpha = 1.0 - matrix_inf_norm(sigma_s_sbar.T @ inv)
    beta = matrix_inf_norm(inv)
    coef = inv @ (x_s.T @ y / n)
    gamma = float(np.abs(coef).min())
    # X_Sbar^T (y - X_S coef) / N, from the sample blocks: no N-row residual
    resid_corr = vector_inf_norm(x_sbar.T @ y / n - sigma_s_sbar.T @ coef)
    c = alpha * gamma / beta - resid_corr

    satisfied = {
        "incoherence": bool(alpha > 0),
        "relevance": bool(gamma > 0),
        "irrelevance": bool(c > 0),
    }
    try:
        rec_lam: float | None = recommended_lambda(alpha, beta, gamma, c)
    except ValueError:
        rec_lam = None
    try:
        n_bound: int | None = sample_bound(beta, gamma, c, features.p, delta)
    except ValueError:
        n_bound = None
    return ConditionReport(
        alpha=float(alpha),
        beta=float(beta),
        gamma=gamma,
        c=float(c),
        sigma_ss=sigma_ss,
        sigma_s_sbar=sigma_s_sbar,
        sigma_ss_cond=float(svals[0] / svals[-1]),
        satisfied=satisfied,
        recommended_lambda=rec_lam,
        n_bound=n_bound,
        delta=float(delta),
    )
