"""Seeded synthetic data: the sparse-recovery simulation and an end-to-end
weak-supervision scenario with planted latent subsets.

Every generator is a pure function of its scenario (including the seed, a
non-negative integer checked when the scenario is built), and experiment
trials derive child seeds from (seed, cell, trial) so results do not depend
on scheduling or worker count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import (DataError, Dataset, FeatureMatrixBinary, FeatureMatrixReal, HardLabelVector,
                   LabelMatrix, _index, _real, _seed, _set)
from .diffmodel import (DisagreementVector, LassoConfig, lasso_fit, regularization_path,
                        select_features)
from .theory import _check_delta, check_conditions


@dataclass(frozen=True)
class RecoveryScenario:
    """Feature matrix with `s_size` columns correlated kappa with the target.

    A latent sign t is drawn per object; each relevant column copies t with
    probability (1 + rho) / 2 and the target copies t with probability 1 - q,
    where rho * (1 - 2q) = kappa.  By default rho = sqrt(kappa) (the
    symmetric split); any admissible rho in [kappa, 1] may be forced.
    Relevant columns are shuffled into random positions and reported as
    true_support.
    """

    kappa: float
    n: int
    p: int = 100
    s_size: int = 3
    seed: int = 0
    rho: float | None = None

    def __post_init__(self):
        _set(self, seed=_seed(self.seed),
             **{name: _index(getattr(self, name), name) for name in ("n", "p", "s_size")})
        if not 0.0 < _real(self.kappa, "kappa") <= 1.0:
            raise ValueError("kappa must lie in (0,1]; 1 is the degenerate limit")
        if not 1 <= self.s_size < self.p:
            raise ValueError("need 1 <= s_size < p")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.rho is not None and not self.kappa <= _real(self.rho, "rho") <= 1.0:
            raise ValueError("rho must lie in [kappa, 1]")

    @property
    def rho_q(self) -> tuple[float, float]:
        rho = math.sqrt(self.kappa) if self.rho is None else self.rho
        return rho, 0.5 * (1.0 - self.kappa / rho)


def gen_recovery(
    scenario: RecoveryScenario,
) -> tuple[FeatureMatrixBinary, DisagreementVector, tuple[int, ...]]:
    rho, q = scenario.rho_q
    rng = np.random.default_rng(scenario.seed)
    n, p, s = scenario.n, scenario.p, scenario.s_size

    t = rng.integers(0, 2, size=n).astype(np.int8) * 2 - 1
    cols = np.empty((n, p), dtype=np.int8)
    for j in range(s):
        agree = rng.random(n) < (1.0 + rho) / 2.0
        cols[:, j] = np.where(agree, t, -t)
    target = np.where(rng.random(n) < 1.0 - q, t, -t).astype(np.float64)
    cols[:, s:] = rng.integers(0, 2, size=(n, p - s)).astype(np.int8) * 2 - 1

    perm = rng.permutation(p)
    shuffled = cols[:, perm]
    support = tuple(sorted(int(i) for i in np.flatnonzero(perm < s)))
    return FeatureMatrixBinary(shuffled), DisagreementVector(target), support


@dataclass(frozen=True)
class PlantedSubset:
    """One latent subset: on it, `source` votes correctly with `accuracy`."""

    source: int
    accuracy: float
    fraction: float

    def __post_init__(self):
        _set(self, source=_index(self.source, "subset source"))
        if not 0.0 < _real(self.fraction, "fraction") < 1.0:
            raise ValueError("subset fraction must lie in (0,1)")
        if not 0.0 < _real(self.accuracy, "accuracy") < 1.0:
            raise ValueError("subset accuracy must lie in (0,1)")


@dataclass(frozen=True)
class E2EScenario:
    """Weak-supervision task with a planted subset where one source flips.

    Binary feature column i is the indicator of planted subset i (the default
    scenario plants exactly one, marked by column 0); the remaining columns
    are independent noise.  Real features are a seeded unit direction scaled
    by the true label plus standard normal noise, so a linear model suffices
    downstream.  `extra_subsets` plants additional subsets on further
    indicator columns.
    """

    m: int = 5
    n: int = 10_000
    p: int = 20
    subset_fraction: float = 0.3
    base_accuracies: tuple[float, ...] | float = 0.8
    flipped_source: int = 0
    flipped_accuracy: float = 0.3
    coverages: tuple[float, ...] | float = 0.7
    q_disc: int = 5
    seed: int = 0
    extra_subsets: tuple[PlantedSubset, ...] = ()

    def __post_init__(self):
        _set(self, seed=_seed(self.seed), **{
            name: _index(getattr(self, name), name)
            for name in ("m", "n", "p", "q_disc", "flipped_source")})
        base, cov = (  # one real for all sources, as a float, or one real per source
            tuple(_real(x, key) for x in v) if np.ndim(v) else (float(_real(v, key)),) * self.m
            for key, v in (("base_accuracies", self.base_accuracies), ("coverages", self.coverages))
        )
        _set(self, base_accuracies=base, coverages=cov, extra_subsets=tuple(self.extra_subsets))
        if self.m < 1 or self.n < 1 or self.q_disc < 1:
            raise ValueError("m, n, and q_disc must be positive")
        if len(base) != self.m or len(cov) != self.m:
            raise ValueError("base_accuracies and coverages must have length m")
        if not all(0.5 < a < 1.0 for a in base):
            raise ValueError("base accuracies must lie in (0.5,1)")
        if not all(0.0 < c <= 1.0 for c in cov):
            raise ValueError("coverages must lie in (0,1]")
        _real(self.subset_fraction, "subset_fraction")
        _real(self.flipped_accuracy, "flipped_accuracy")
        for sub in self.subsets:  # each PlantedSubset checks its own accuracy and fraction
            if not 0 <= sub.source < self.m:
                raise ValueError("planted subset source out of range")
        if self.p < 1 + len(self.extra_subsets):
            raise ValueError("p must cover one indicator column per planted subset")

    @property
    def subsets(self) -> tuple[PlantedSubset, ...]:
        first = PlantedSubset(
            source=self.flipped_source,
            accuracy=self.flipped_accuracy,
            fraction=self.subset_fraction,
        )
        return (first,) + self.extra_subsets


def gen_e2e(scenario: E2EScenario) -> Dataset:
    """Draw a full dataset (votes, binary and real features, truth)."""
    rng = np.random.default_rng(scenario.seed)
    n, m, p = scenario.n, scenario.m, scenario.p
    subsets = scenario.subsets

    y = rng.integers(0, 2, size=n).astype(np.int8) * 2 - 1
    indicators = np.empty((n, len(subsets)), dtype=np.int8)
    for i, sub in enumerate(subsets):
        indicators[:, i] = np.where(rng.random(n) < sub.fraction, 1, -1)

    votes = np.zeros((m, n), dtype=np.int8)
    for j in range(m):
        acc = np.full(n, scenario.base_accuracies[j])
        for i, sub in enumerate(subsets):
            if sub.source == j:
                acc = np.where(indicators[:, i] == 1, sub.accuracy, acc)
        covered = rng.random(n) < scenario.coverages[j]
        correct = rng.random(n) < acc
        votes[j] = np.where(covered, np.where(correct, y, -y), 0)

    x = np.empty((n, p), dtype=np.int8)
    x[:, : len(subsets)] = indicators
    x[:, len(subsets):] = rng.integers(0, 2, size=(n, p - len(subsets))).astype(np.int8) * 2 - 1

    u = rng.standard_normal(scenario.q_disc)
    u /= np.linalg.norm(u)
    v = y[:, None] * u[None, :] + rng.standard_normal((n, scenario.q_disc))

    return Dataset(
        labels=LabelMatrix(votes),
        bin_features=FeatureMatrixBinary(x),
        real_features=FeatureMatrixReal(v),
        truth=HardLabelVector(y),
    )


# -- recovery experiment ------------------------------------------------------


@dataclass(frozen=True)
class RecoveryCell:
    kappa: float
    n: int
    trials: int
    recovered_fraction: float
    containment_fraction: float
    conditions_ok_fraction: float


def derive_trial_seed(base_seed: int, cell: int, trial: int) -> int:
    return int(np.random.SeedSequence((_seed(base_seed), cell, trial)).generate_state(1)[0])


def map_trials(trial: Callable, work: Sequence, jobs: int) -> list:
    """`[trial(w) for w in work]`, spread over `jobs` worker processes when
    jobs > 1.  `jobs` is an integer of at least 1 (any Python or NumPy
    integer), checked before the first trial.  Results keep the order of
    `work`, so they do not depend on `jobs`; `trial` must pickle: a
    module-level function or a partial of one."""
    jobs = _index(jobs, "jobs")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if jobs == 1:
        return [trial(w) for w in work]
    # imported here: it pulls in multiprocessing, which `import weaksup` need not pay for
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(trial, work, chunksize=max(1, len(work) // (jobs * 8))))


def _recovery_trial(item: tuple[int, RecoveryScenario], policy: str, delta: float,
                    lasso: LassoConfig) -> tuple[int, bool, bool, bool]:
    cell, scenario = item
    x, target, support = gen_recovery(scenario)
    support_set = set(support)
    if policy == "path":
        path = regularization_path(x, target, lasso, stop_after=scenario.s_size)
        if len(path.entry_order) < scenario.s_size:
            return cell, False, False, True
        selected = set(select_features(path, scenario.s_size))
        return cell, selected == support_set, support_set <= selected, True
    # fixed-lambda policy: fit once at the recommended regularizer
    try:
        report = check_conditions(x, support, target, delta=delta)
    except DataError:  # two support columns of the draw are equal or opposite: singular Sigma_SS
        return cell, False, False, False
    if not report.all_satisfied or report.recommended_lambda is None:
        return cell, False, False, False
    fit = lasso_fit(x, target, report.recommended_lambda, tol=lasso.lasso_tol)
    active = set(fit.active_set)
    return cell, active == support_set, support_set <= active, True


def run_recovery_experiment(
    kappas: Sequence[float],
    ns: Sequence[int],
    trials: int,
    p: int = 100,
    s_size: int = 3,
    seed: int = 0,
    rho: float | None = None,
    lambda_policy: str = "path",
    delta: float = 0.2,
    lasso: LassoConfig = LassoConfig(),
    jobs: int = 1,
) -> list[RecoveryCell]:
    """Fraction of seeded trials whose selected support equals the planted one,
    per (kappa, n) grid cell.  Exact equality and containment are both
    reported; `conditions_ok_fraction` tracks how often the recovery
    preconditions held (always 1 under the path policy; a draw with a
    singular Sigma_SS fails them).  The path policy selects the first s_size
    entries of a path with the settings `lasso`; the theorem policy fits
    once at the recommended lambda, to the tolerance `lasso.lasso_tol`.
    Every setting, `delta` under either policy and `jobs` included, is
    checked before the first draw; `lasso` checks its own fields when it is
    built."""
    trials, seed = _index(trials, "trials"), _seed(seed)
    if trials < 1:
        raise ValueError("trials must be positive")
    if lambda_policy not in ("path", "theorem"):
        raise ValueError("lambda_policy must be 'path' or 'theorem'")
    _check_delta(delta)
    cells = [(kappa, n) for kappa in kappas for n in ns]
    work = [
        (ci, RecoveryScenario(kappa=kappa, n=n, p=p, s_size=s_size,
                              seed=derive_trial_seed(seed, ci, t), rho=rho))
        for ci, (kappa, n) in enumerate(cells)
        for t in range(trials)
    ]
    trial = functools.partial(_recovery_trial, policy=lambda_policy, delta=delta, lasso=lasso)
    results = map_trials(trial, work, jobs)
    counts = np.zeros((len(cells), 3))  # exact, contained, conditions held: RecoveryCell order
    for ci, *flags in results:
        counts[ci] += flags
    return [
        RecoveryCell(float(kappa), int(n), trials, *(counts[ci] / trials).tolist())
        for ci, (kappa, n) in enumerate(cells)
    ]
