import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import weaksup
from weaksup import synth
from weaksup.data import validate
from weaksup.diffmodel import LassoConfig
from weaksup.genmodel import fit_sp
from weaksup.synth import (
    E2EScenario,
    PlantedSubset,
    RecoveryScenario,
    derive_trial_seed,
    gen_e2e,
    gen_recovery,
    run_recovery_experiment,
)


def test_scenario_validation():
    with pytest.raises(ValueError):
        RecoveryScenario(kappa=0.0, n=10)
    with pytest.raises(ValueError):
        RecoveryScenario(kappa=1.2, n=10)
    with pytest.raises(ValueError):
        RecoveryScenario(kappa=0.5, n=10, p=3, s_size=3)
    with pytest.raises(ValueError):
        RecoveryScenario(kappa=0.5, n=10, rho=0.2)  # rho below kappa


_SUBSET = PlantedSubset(source=1, accuracy=0.3, fraction=0.2)


@pytest.mark.parametrize("call, bad, message", [
    (lambda n: RecoveryScenario(kappa=0.5, n=n), 0, "n must be positive"),
    (lambda f: PlantedSubset(source=0, accuracy=0.3, fraction=f), 1.0,
     r"subset fraction must lie in \(0,1\)"),
    (lambda a: PlantedSubset(source=0, accuracy=a, fraction=0.2), 0.0,
     r"subset accuracy must lie in \(0,1\)"),
    (lambda m: E2EScenario(m=m), 0, "m, n, and q_disc must be positive"),
    (lambda n: E2EScenario(n=n), 0, "m, n, and q_disc must be positive"),
    (lambda q: E2EScenario(q_disc=q), 0, "m, n, and q_disc must be positive"),
    (lambda a: E2EScenario(base_accuracies=a), (0.8, 0.8),
     "base_accuracies and coverages must have length m"),
    (lambda c: E2EScenario(coverages=c), (0.7,) * 6,
     "base_accuracies and coverages must have length m"),
    (lambda a: E2EScenario(base_accuracies=a), 0.5, r"base accuracies must lie in \(0.5,1\)"),
    (lambda c: E2EScenario(coverages=c), 0.0, r"coverages must lie in \(0,1\]"),
    (lambda c: E2EScenario(coverages=c), 1.5, r"coverages must lie in \(0,1\]"),
    # the first planted subset is checked by PlantedSubset, as the others are
    (lambda a: E2EScenario(flipped_accuracy=a), 1.0, r"subset accuracy must lie in \(0,1\)"),
    (lambda f: E2EScenario(subset_fraction=f), 0.0, r"subset fraction must lie in \(0,1\)"),
    (lambda j: E2EScenario(flipped_source=j), 5, "planted subset source out of range"),
    (lambda j: E2EScenario(flipped_source=j), -1, "planted subset source out of range"),
    (lambda j: E2EScenario(extra_subsets=(PlantedSubset(j, 0.3, 0.2),)), 5,
     "planted subset source out of range"),
    (lambda p: E2EScenario(p=p, extra_subsets=(_SUBSET,)), 1,
     "p must cover one indicator column per planted subset"),
], ids=["recovery n", "subset fraction", "subset accuracy", "e2e m", "e2e n", "e2e q_disc",
        "base length", "coverage length", "base accuracy", "coverage 0", "coverage 1.5",
        "flipped accuracy", "subset_fraction", "flipped source", "negative flipped source",
        "extra source", "p"])
def test_scenarios_refuse_a_setting_out_of_range(call, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(bad)


@pytest.mark.parametrize("field", ["m", "n", "p", "q_disc"])
@pytest.mark.parametrize("value", [100.5, np.float64(5.0), True, None])
def test_e2e_scenario_refuses_a_count_that_is_not_an_integer(field, value):
    # a fractional count used to construct and fail inside gen_e2e with a TypeError
    with pytest.raises(ValueError, match=f"^{field}: .* is not an integer index$"):
        E2EScenario(**{field: value})
    scenario = E2EScenario(**{field: np.int64(6)})
    assert getattr(scenario, field) == 6 and type(getattr(scenario, field)) is int


@pytest.mark.parametrize("field", ["n", "p", "s_size"])
@pytest.mark.parametrize("value", [2.0, np.float64(5.5), True, None])
def test_recovery_scenario_refuses_a_count_that_is_not_an_integer(field, value):
    # a fractional count used to construct and fail inside gen_recovery with a TypeError
    settings = {"kappa": 0.4, "n": 100, "p": 10, "s_size": 3}
    with pytest.raises(ValueError, match=f"^{field}: .* is not an integer index$"):
        RecoveryScenario(**settings | {field: value})
    scenario = RecoveryScenario(**settings | {field: np.int32(settings[field])})
    assert type(getattr(scenario, field)) is int


@pytest.mark.parametrize("kwargs, message", [
    ({"trials": 0}, "trials must be positive"),
    ({"lambda_policy": "cv"}, "lambda_policy must be 'path' or 'theorem'"),
], ids=["trials", "policy"])
def test_recovery_experiment_refuses_a_setting_before_any_draw(kwargs, message, monkeypatch):
    monkeypatch.setattr(synth, "gen_recovery", lambda scenario: pytest.fail("drew a trial"))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_recovery_experiment([0.4], [100], **{"trials": 1} | kwargs)


@pytest.mark.parametrize("index", [1.5, np.float64(1.0), True, None])
def test_e2e_scenario_refuses_a_non_integer_source(index):
    # a fractional flipped_source used to pass the range check and plant no subset
    with pytest.raises(ValueError, match="flipped_source: .* is not an integer index"):
        E2EScenario(flipped_source=index)
    with pytest.raises(ValueError, match="subset source: .* is not an integer index"):
        PlantedSubset(source=index, accuracy=0.3, fraction=0.2)


def test_e2e_scenario_reads_numpy_integer_sources():
    sc = E2EScenario(flipped_source=np.int64(1),
                     extra_subsets=(PlantedSubset(np.int8(2), accuracy=0.3, fraction=0.2),))
    assert [type(s.source) for s in sc.subsets] == [int, int]
    assert [s.source for s in sc.subsets] == [1, 2]


def test_gen_recovery_degenerate_kappa_one():
    x, target, support = gen_recovery(RecoveryScenario(kappa=1.0, n=200, p=10, seed=0))
    for j in support:
        np.testing.assert_array_equal(x.values[:, j].astype(float), target.values)


def test_gen_recovery_correlations_within_clt_bands():
    kappa, n = 0.6, 100_000
    x, target, support = gen_recovery(RecoveryScenario(kappa=kappa, n=n, p=10, seed=1))
    corr = x.values.astype(float).T @ target.values / n
    band_rel = 3.0 * np.sqrt((1.0 - kappa**2) / n)
    for j in range(10):
        if j in support:
            assert abs(corr[j] - kappa) < band_rel
        else:
            assert abs(corr[j]) < 3.0 / np.sqrt(n)


def test_gen_recovery_custom_rho_split():
    kappa = 0.5
    sc = RecoveryScenario(kappa=kappa, n=50_000, p=8, seed=3, rho=kappa)  # q = 0
    x, target, support = gen_recovery(sc)
    rho, q = sc.rho_q
    assert q == 0.0
    corr = x.values.astype(float).T @ target.values / sc.n
    for j in support:
        assert abs(corr[j] - kappa) < 3.0 * np.sqrt((1.0 - kappa**2) / sc.n)


def test_gen_recovery_deterministic():
    a = gen_recovery(RecoveryScenario(kappa=0.4, n=100, p=6, seed=9))
    b = gen_recovery(RecoveryScenario(kappa=0.4, n=100, p=6, seed=9))
    np.testing.assert_array_equal(a[0].values, b[0].values)
    np.testing.assert_array_equal(a[1].values, b[1].values)
    assert a[2] == b[2]


def test_gen_e2e_defaults_and_determinism():
    sc = E2EScenario(n=2000, seed=5)
    ds1, ds2 = gen_e2e(sc), gen_e2e(sc)
    np.testing.assert_array_equal(ds1.labels.votes, ds2.labels.votes)
    np.testing.assert_array_equal(ds1.real_features.values, ds2.real_features.values)
    assert validate(ds1).ok
    assert ds1.truth is not None and ds1.bin_features.p == sc.p


def test_gen_e2e_flipped_conditional_accuracy():
    sc = E2EScenario(seed=11)  # defaults: n=10000, base 0.8, flipped 0.3 on source 0
    ds = gen_e2e(sc)
    on_subset = ds.bin_features.values[:, 0] == 1
    votes = ds.labels.votes[sc.flipped_source]
    voted = votes != 0
    sel = on_subset & voted
    acc = (votes[sel] == ds.truth.labels[sel]).mean()
    se = np.sqrt(0.3 * 0.7 / sel.sum())
    assert abs(acc - sc.flipped_accuracy) < 3.0 * se
    off = ~on_subset & voted
    acc_off = (votes[off] == ds.truth.labels[off]).mean()
    assert abs(acc_off - 0.8) < 3.0 * np.sqrt(0.8 * 0.2 / off.sum())


def test_gen_e2e_null_when_flip_matches_base():
    sc = E2EScenario(n=20_000, flipped_accuracy=0.8, base_accuracies=0.8, seed=13)
    ds = gen_e2e(sc)
    # without a planted effect the indicator behaves like any noise column
    soft = fit_sp(ds.labels)
    gen_labels = np.tanh(soft.phi @ ds.labels.votes.astype(float))
    corr = np.abs(ds.bin_features.values.astype(float).T @ gen_labels) / sc.n
    assert abs(corr[0]) < 3.0 / np.sqrt(sc.n) + corr[1:].max()


def test_gen_e2e_sp_accuracy_estimate_between_conditionals():
    sc = E2EScenario(seed=17)
    ds = gen_e2e(sc)
    fitted = fit_sp(ds.labels)
    # implied voting accuracy of the flipped source: sigmoid(2 phi)
    implied = 1.0 / (1.0 + np.exp(-2.0 * fitted.phi[sc.flipped_source]))
    assert sc.flipped_accuracy < implied < 0.8


def test_gen_e2e_extra_subsets_get_indicator_columns():
    sc = E2EScenario(
        n=5000,
        flipped_source=1,
        extra_subsets=(PlantedSubset(source=3, accuracy=0.25, fraction=0.25),),
        seed=19,
    )
    ds = gen_e2e(sc)
    on = ds.bin_features.values[:, 1] == 1
    votes = ds.labels.votes[3]
    sel = on & (votes != 0)
    acc = (votes[sel] == ds.truth.labels[sel]).mean()
    assert abs(acc - 0.25) < 3.0 * np.sqrt(0.25 * 0.75 / sel.sum())


def test_trial_seeds_are_stable():
    assert derive_trial_seed(1, 0, 0) == derive_trial_seed(1, 0, 0)
    assert derive_trial_seed(1, 0, 0) != derive_trial_seed(1, 0, 1)
    assert derive_trial_seed(1, 0, 0) != derive_trial_seed(2, 0, 0)


def test_recovery_experiment_underdetermined_n():
    cells = run_recovery_experiment([0.6], [1], trials=20, p=10, s_size=3, seed=0)
    assert cells[0].recovered_fraction <= 0.05


def test_recovery_experiment_parallel_matches_serial():
    kwargs = dict(kappas=[0.6], ns=[300], trials=8, p=20, s_size=3, seed=4)
    serial = run_recovery_experiment(**kwargs, jobs=1)
    parallel = run_recovery_experiment(**kwargs, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("policy", ["path", "theorem"])
def test_recovery_experiment_fits_with_its_lasso_settings(policy, monkeypatch):
    lasso = LassoConfig(grid_size=20, lambda_min_ratio=0.01, lasso_tol=1e-7)
    seen = []
    path, fit = synth.regularization_path, synth.lasso_fit
    monkeypatch.setattr(synth, "regularization_path",
                        lambda x, t, config, **kw: seen.append(config) or path(x, t, config, **kw))
    monkeypatch.setattr(synth, "lasso_fit",
                        lambda x, t, lam, tol: seen.append(tol) or fit(x, t, lam, tol=tol))
    kwargs = dict(kappas=[0.6], ns=[2000], trials=2, p=10, rho=0.6, lambda_policy=policy)
    cells = run_recovery_experiment(**kwargs, lasso=lasso, jobs=np.int64(1))
    assert seen and all(s == (lasso if policy == "path" else lasso.lasso_tol) for s in seen)
    assert cells == run_recovery_experiment(**kwargs, lasso=lasso)


def test_recovery_experiment_theorem_policy_runs():
    cells = run_recovery_experiment(
        [0.6], [4000], trials=4, p=10, s_size=3, seed=6, rho=0.6,
        lambda_policy="theorem",
    )
    cell = cells[0]
    assert 0.0 <= cell.recovered_fraction <= 1.0
    assert cell.containment_fraction >= cell.recovered_fraction


@pytest.mark.parametrize("policy", ["path", "theorem"])
@pytest.mark.parametrize("setting, message", [
    *[({"delta": d}, r"delta must lie in \(0,1\)") for d in (0.0, 1.0, 1.5, -0.1, np.nan)],
    ({"kappas": [0.4, 1.5]}, "kappa"),  # the second cell's scenario, before the first's draw
    ({"trials": 1.5}, "^trials: 1.5 is not an integer index$"),
    ({"jobs": 1.5}, "^jobs: 1.5 is not an integer index$"),
    ({"jobs": 0}, "^jobs must be at least 1$"),
    ({"jobs": -3}, "^jobs must be at least 1$"),
    ({"jobs": True}, "^jobs: True is not an integer index$"),
], ids=["delta=0", "delta=1", "delta=1.5", "delta=-0.1", "delta=nan", "kappa", "trials=1.5",
        "jobs=1.5", "jobs=0", "jobs=-3", "jobs=True"])
def test_recovery_experiment_checks_every_setting_before_the_first_draw(
    setting, message, policy, monkeypatch
):
    monkeypatch.setattr(synth, "gen_recovery", lambda scenario: pytest.fail("drew a trial"))
    kwargs = {"kappas": [0.4, 0.5], "ns": [200], "trials": 2, "p": 10, **setting}
    with pytest.raises(ValueError, match=message):
        run_recovery_experiment(lambda_policy=policy, **kwargs)


def test_a_singular_draw_fails_the_theorem_policy_conditions_of_its_trial():
    # this draw's support columns 21 and 25 are equal, so Sigma_SS is singular
    x, _, support = gen_recovery(RecoveryScenario(kappa=0.9, n=64, p=30, seed=1013))
    assert {21, 25} <= set(support)
    np.testing.assert_array_equal(x.values[:, 21], x.values[:, 25])
    cells = run_recovery_experiment([0.9], [16], trials=50, p=30, lambda_policy="theorem",
                                    delta=0.2)
    assert cells[0].conditions_ok_fraction < 1.0
    assert cells[0].recovered_fraction <= cells[0].conditions_ok_fraction


def test_import_leaves_the_process_pool_unloaded():
    # a fresh interpreter: this one has loaded the pool for the jobs=2 tests
    code = "import sys, weaksup; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(weaksup.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
