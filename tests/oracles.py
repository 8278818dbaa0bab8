"""Independent reference implementations used to cross-check the library.

Nothing here shares code paths with the implementations under test: gradients
come from central finite differences, LASSO solutions from multi-resolution
dense grid search over coefficient space, LASSO paths from plain cyclic
coordinate descent over all P columns, likelihoods from exhaustive
state enumeration (`brute_force_joint`), and the generative objective also
from a plain per-object formula.  The Bayes labelers
of a planted-subset scenario are built from the scenario's true parameters
alone, by enumerating every (class, indicator, vote) state.
"""

import itertools
from dataclasses import dataclass

import numpy as np


def finite_difference(f, x0, step=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x0 = np.asarray(x0, dtype=np.float64)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        up, down = x0.copy(), x0.copy()
        up.flat[i] += step
        down.flat[i] -= step
        grad.flat[i] = (f(up) - f(down)) / (2.0 * step)
    return grad


def rel_error(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return float(np.abs(a - b).max() / scale)


@dataclass(frozen=True)
class JointTable:
    """Exact joint distribution over all (vote vector, class) states."""

    vote_states: np.ndarray  # S x M
    class_states: np.ndarray  # S
    probs: np.ndarray  # S, sums to 1
    log_z: float

    def marginal_prob(self, vote_column):
        """P(votes = vote_column), class summed out."""
        mask = (self.vote_states == np.asarray(vote_column)).all(axis=1)
        return float(self.probs[mask].sum())

    def posterior_positive(self, vote_column):
        """P(Y = +1 | votes = vote_column)."""
        mask = (self.vote_states == np.asarray(vote_column)).all(axis=1)
        joint = self.probs[mask]
        pos = self.probs[mask & (self.class_states == 1)]
        return float(pos.sum() / joint.sum())

    def expected_label(self, vote_column):
        return 2.0 * self.posterior_positive(vote_column) - 1.0


def brute_force_joint(phi_eff):
    """Enumerate all 2 * 3^M states of the generative model with weights
    phi_eff: every closed-form quantity (partition, marginals, posteriors)
    is recoverable from the table.  M is capped at 8."""
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
        vote_states=votes.astype(np.int8),
        class_states=ys.astype(np.int8),
        probs=weights / z,
        log_z=float(np.log(z)),
    )


def per_object_objective(phi, w, votes, x_sel, w_l2):
    """Penalized mean log-likelihood of the generative model and its (phi, W)
    gradients, one object at a time: votes is M x N, x_sel is N x K.

    log P(votes_o) = log 2cosh(s_o) - log Z(phi_o), with phi_o = phi + x_o W,
    s_o = phi_o . votes_o and log Z = log 2 + sum_j log(2 cosh phi_oj + 1).
    """
    phi, w = np.asarray(phi, dtype=np.float64), np.asarray(w, dtype=np.float64)
    lam = np.asarray(votes, dtype=np.float64).T
    x = np.asarray(x_sel, dtype=np.float64)
    n = lam.shape[0]
    value = 0.0
    g_phi, g_w = np.zeros_like(phi), np.zeros_like(w)
    for o in range(n):
        phi_o = phi + x[o] @ w
        s = float(phi_o @ lam[o])
        value += np.log(2.0 * np.cosh(s)) - np.log(2.0) - np.log(2.0 * np.cosh(phi_o) + 1.0).sum()
        d = lam[o] * np.tanh(s) - 2.0 * np.sinh(phi_o) / (2.0 * np.cosh(phi_o) + 1.0)
        g_phi += d
        g_w += np.outer(x[o], d)
    value = value / n - 0.5 * w_l2 * (w * w).sum()
    return value, g_phi / n, g_w / n - w_l2 * w


def sequential_labels(phi, w, votes, x_sel):
    """Expected labels tanh(s_o), one object at a time in Python floats: each
    effective weight phi_j + x_1 W_1j + ... + x_K W_Kj and each score
    s_o = votes_1o phi_o1 + ... + votes_Mo phi_oM summed left to right from
    0.0.  votes is M x N, x_sel is N x K."""
    scores = []
    for o in range(len(votes[0])):
        s = 0.0
        for j, phi_j in enumerate(phi):
            weight = float(phi_j)
            for x_i, w_i in zip(x_sel[o], w):
                weight += float(x_i) * float(w_i[j])
            s += float(votes[j][o]) * weight
        scores.append(s)
    return np.tanh(np.array(scores))


def lasso_grid_search(x, y, lam, span=2.0, final_step=1e-3):
    """Global minimizer of (1/2N)||X t - y||^2 + lam ||t||_1 by dense grid
    search, refined multi-resolution down to `final_step` per coordinate.

    Only usable for small P (cost grows as 41^P per level).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape

    def objective(thetas):  # thetas: G x P
        r = thetas @ x.T - y[None, :]
        return (r * r).sum(axis=1) / (2.0 * n) + lam * np.abs(thetas).sum(axis=1)

    center = np.zeros(p)
    step = span / 20.0
    while True:
        axes = [center[j] + step * np.arange(-20, 21) for j in range(p)]
        grids = np.meshgrid(*axes, indexing="ij")
        thetas = np.stack([g.ravel() for g in grids], axis=1)
        center = thetas[int(np.argmin(objective(thetas)))]
        if step <= final_step:
            return center
        step = max(step / 10.0, final_step)


def soft_threshold(x, t):
    return x - t if x > t else x + t if x < -t else 0.0


def _kkt(q, theta, lam):
    active = theta != 0.0
    viol = 0.0
    if active.any():
        viol = float(np.abs(q[active] - lam * np.sign(theta[active])).max())
    if (~active).any():
        viol = max(viol, float(max(0.0, np.abs(q[~active]).max() - lam)))
    return viol


def naive_kkt_residual(x, y, coef, lam):
    """Largest KKT violation of one fit from its own residual correlations
    X^T (y - X coef) / N."""
    x = np.asarray(x, dtype=np.float64)
    return _kkt(x.T @ (np.asarray(y, dtype=np.float64) - x @ coef) / x.shape[0], coef, lam)


def full_sweep_cd(gram, corr, lam, theta, tol, max_sweeps):
    """Cyclic coordinate descent over all P columns in order 0..P-1, with
    inner sweeps over the active set between full sweeps; `theta` is updated
    in place.  Converged when a full sweep moves no coordinate by tol or more
    and the KKT violation from q = corr - gram @ theta is within 5 * tol."""
    p = theta.shape[0]
    sweeps = 0
    while sweeps < max_sweeps:
        q = corr - gram @ theta
        max_delta = 0.0
        for j in range(p):
            new = soft_threshold(q[j] + theta[j], lam)
            d = new - theta[j]
            if d != 0.0:
                q -= gram[j] * d
                theta[j] = new
                max_delta = max(max_delta, abs(d))
        sweeps += 1
        if max_delta < tol and _kkt(q, theta, lam) <= 5.0 * tol:
            break
        active = np.flatnonzero(theta)
        while sweeps < max_sweeps and active.size:
            inner_delta = 0.0
            for j in active:
                new = soft_threshold(q[j] + theta[j], lam)
                d = new - theta[j]
                if d != 0.0:
                    q -= gram[j] * d
                    theta[j] = new
                    inner_delta = max(inner_delta, abs(d))
            sweeps += 1
            if inner_delta < tol:
                break
    return theta


def reference_path(x, y, grid_size=100, lambda_min_ratio=1e-3, tol=1e-8, max_sweeps=10_000,
                   stop_after=None):
    """Warm-started LASSO path by `full_sweep_cd` on the geometric grid from
    lambda_max = ||X^T y / N||_inf down to lambda_min_ratio * lambda_max.

    Returns (lambdas, entry_order, entry_lambdas, coefs): a feature
    enters at its first nonzero grid point, ties ordered by larger |coef|
    and then lower index; the descent stops once `stop_after` have entered.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = x.shape
    gram, corr = (x.T @ x) / n, (x.T @ y) / n
    lam_max = float(np.abs(corr).max())
    grid = np.geomspace(lam_max, lam_max * lambda_min_ratio, grid_size)
    grid[0] = lam_max
    theta = np.zeros(p)
    lambdas, entry_order, entry_lambdas, coefs = [], [], [], []
    for lam in grid:
        lam = float(lam)
        theta = full_sweep_cd(gram, corr, lam, theta, tol, max_sweeps)
        lambdas.append(lam)
        coefs.append(theta.copy())
        fresh = sorted((j for j in np.flatnonzero(theta) if int(j) not in entry_order),
                       key=lambda j: (-abs(theta[j]), j))
        entry_order += [int(j) for j in fresh]
        entry_lambdas += [lam] * len(fresh)
        if stop_after is not None and len(entry_order) >= stop_after:
            break
    return lambdas, entry_order, entry_lambdas, np.array(coefs)


def planted_joint(scenario):
    """Exact joint P(y, indicators, votes) of an `E2EScenario`, shape
    (2, 2^S, 3^M) for S planted subsets and M sources.

    Axis 0 is y in (-1, +1).  Axes 1 and 2 run over `itertools.product`
    of (-1, +1) per subset indicator and (-1, 0, +1) per source, so the
    first subset (first source) is the most significant digit.  As in the
    generator: y is uniform, indicators are independent, each source covers
    an object with its coverage and is then correct with its base accuracy,
    overridden by the accuracy of the last planted subset that contains the
    object and names that source.
    """
    subsets = scenario.subsets
    zs = np.array(list(itertools.product((-1, 1), repeat=len(subsets))))
    votes = np.array(list(itertools.product((-1, 0, 1), repeat=scenario.m)))
    p_z = np.ones(len(zs))
    acc = np.tile(np.array(scenario.base_accuracies, dtype=np.float64), (len(zs), 1))
    for i, sub in enumerate(subsets):
        inside = zs[:, i] == 1
        p_z *= np.where(inside, sub.fraction, 1.0 - sub.fraction)
        acc[inside, sub.source] = sub.accuracy
    cov = np.array(scenario.coverages, dtype=np.float64)
    joint = np.empty((2, len(zs), len(votes)))
    for row, y in enumerate((-1, 1)):
        per_source = np.where(
            votes[None] == 0,
            1.0 - cov,
            np.where(votes[None] == y, cov * acc[:, None], cov * (1.0 - acc[:, None])),
        )
        joint[row] = 0.5 * p_z[:, None] * per_source.prod(axis=2)
    return joint


def bayes_ceiling(scenario) -> tuple[float, float]:
    """Population accuracy of the Bayes labelers with true parameters:
    (seeing votes and subset indicators, seeing votes only)."""
    joint = planted_joint(scenario)
    return float(joint.max(axis=0).sum()), float(joint.sum(axis=1).max(axis=0).sum())


def bayes_labels(scenario, dataset) -> tuple[np.ndarray, np.ndarray]:
    """Hard labels of the true-parameter Bayes labelers on `dataset`, drawn
    from `scenario`: (seeing votes and subset indicators, seeing votes only).

    Indicator i is binary feature column i, as the scenario plants it.  Exact
    ties go to +1, the sign(0) convention of soft-label accuracy.
    """
    joint = planted_joint(scenario)
    s, m = len(scenario.subsets), scenario.m
    votes = dataset.labels.votes.astype(np.int64)
    z = dataset.bin_features.values[:, :s].astype(np.int64)
    v_idx = (votes.T + 1) @ (3 ** np.arange(m - 1, -1, -1))
    z_idx = ((z + 1) // 2) @ (2 ** np.arange(s - 1, -1, -1))

    def decide(pos, neg):
        return np.where(pos - neg >= -1e-12 * (pos + neg), 1, -1)

    neg, pos = joint
    return (
        decide(pos[z_idx, v_idx], neg[z_idx, v_idx]),
        decide(pos.sum(axis=0)[v_idx], neg.sum(axis=0)[v_idx]),
    )
