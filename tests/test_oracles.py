"""Checks of the oracles themselves: the planted-subset Bayes oracles against
the generator, and the enumerated joint table of the generative model."""

import numpy as np
import pytest

from oracles import bayes_ceiling, bayes_labels, brute_force_joint
from weaksup.synth import E2EScenario, PlantedSubset, gen_e2e


def test_bayes_ceiling_default_scenario():
    with_indicator, votes_only = bayes_ceiling(E2EScenario())
    assert with_indicator == pytest.approx(0.88464, abs=1e-5)
    assert votes_only == pytest.approx(0.87375, abs=1e-5)


@pytest.mark.parametrize(
    "extra",
    [(), (PlantedSubset(source=2, accuracy=0.25, fraction=0.3),)],
    ids=["one-subset", "two-subsets"],
)
def test_bayes_labels_score_the_population_ceiling(extra):
    # A large draw scored by the same-sample labelers lands within 4 standard
    # errors of the enumerated accuracies; a wrong state index or parameter
    # mapping moves it by far more.
    n = 200_000
    scenario = E2EScenario(n=n, p=1 + len(extra), q_disc=1, seed=11, extra_subsets=extra)
    ds = gen_e2e(scenario)
    for labels, population in zip(bayes_labels(scenario, ds), bayes_ceiling(scenario)):
        sample = np.mean(labels == ds.truth.labels)
        assert abs(sample - population) < 4 * np.sqrt(population * (1 - population) / n)


def test_joint_table_normalized():
    table = brute_force_joint(np.array([0.3, -1.2, 0.8]))
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_joint_table_uniform_at_zero():
    table = brute_force_joint(np.zeros(2))
    np.testing.assert_allclose(table.probs, 1.0 / 18.0, atol=1e-14)


def test_joint_table_rejects_large_m():
    with pytest.raises(ValueError):
        brute_force_joint(np.zeros(9))
