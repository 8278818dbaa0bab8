import math

import numpy as np
import pytest

from weaksup.data import DataError, FeatureMatrixBinary

from weaksup.synth import RecoveryScenario, gen_recovery
from weaksup.theory import (
    check_conditions,
    matrix_inf_norm,
    recommended_lambda,
    sample_bound,
    vector_inf_norm,
)


def hadamard8():
    h2 = np.array([[1, 1], [1, -1]])
    return np.kron(np.kron(h2, h2), h2).astype(np.float64)


def test_inf_norms_match_naive_loops():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((5, 7))
        naive = max(sum(abs(a[i, j]) for j in range(7)) for i in range(5))
        assert matrix_inf_norm(a) == naive
        v = rng.standard_normal(7)
        assert vector_inf_norm(v) == max(abs(x) for x in v)


def test_check_conditions_sigmas_orthogonal_identity():
    h = hadamard8()
    report = check_conditions(FeatureMatrixBinary(h[:, 1:6]), [0, 1, 2], h[:, 1])
    np.testing.assert_allclose(report.sigma_ss, np.eye(3), atol=1e-15)
    np.testing.assert_allclose(report.sigma_s_sbar, 0.0, atol=1e-15)
    assert report.sigma_ss_cond == pytest.approx(1.0, abs=1e-12)


def test_check_conditions_duplicate_column_singular():
    col = np.ones((8, 1))
    with pytest.raises(DataError, match="singular"):
        check_conditions(FeatureMatrixBinary(np.hstack([col, col, -col])), [0, 1], np.ones(8))


def test_check_conditions_sigmas_single_column():
    h = hadamard8()
    report = check_conditions(FeatureMatrixBinary(h[:, 1:3]), [0], h[:, 1])
    np.testing.assert_allclose(report.sigma_ss, [[1.0]])


def test_check_conditions_takes_one_svd(monkeypatch):
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    h = hadamard8()
    check_conditions(FeatureMatrixBinary(h[:, 1:6]), [0, 1], h[:, 1])
    assert len(calls) == 1


def test_check_conditions_orthogonal_case():
    h = hadamard8()
    x_s = h[:, 1:3]
    target = 0.5 * x_s[:, 0] + 0.25 * x_s[:, 1]  # fully explained by x_s
    report = check_conditions(FeatureMatrixBinary(h[:, 1:6]), [0, 1], target)
    assert report.alpha == pytest.approx(1.0, abs=1e-12)
    assert report.c == pytest.approx(report.alpha * report.gamma / report.beta, abs=1e-12)
    assert report.gamma == pytest.approx(0.25, abs=1e-12)


def test_check_conditions_uncorrelated_relevant_column():
    h = hadamard8()
    target = h[:, 1].astype(np.float64)  # orthogonal to the second relevant column
    report = check_conditions(FeatureMatrixBinary(h[:, 1:5]), [0, 1], target)
    assert report.gamma == pytest.approx(0.0, abs=1e-12)
    assert not report.satisfied["relevance"]


def test_check_conditions_monte_carlo_recovery_scenario():
    ok = 0
    for seed in range(100):
        x, target, support = gen_recovery(
            RecoveryScenario(kappa=0.6, n=20_000, p=100, s_size=3, seed=seed)
        )
        report = check_conditions(x, support, target, delta=0.05)
        ok += report.all_satisfied
    assert ok >= 95


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1, np.nan])
def test_check_conditions_rejects_a_delta_outside_0_1(delta):
    h = hadamard8()
    with pytest.raises(ValueError, match=r"delta must lie in \(0,1\)"):
        check_conditions(FeatureMatrixBinary(h[:, 1:5]), [0, 1], h[:, 1], delta=delta)


def test_check_conditions_checks_the_target():
    h = hadamard8()
    x = FeatureMatrixBinary(h[:, 1:5])
    target = h[:, 1].copy()
    target[3] = np.nan
    with pytest.raises(DataError, match="non-finite target"):
        check_conditions(x, [0, 1], target)
    with pytest.raises(ValueError, match="target length"):
        check_conditions(x, [0, 1], h[:4, 1])


def test_check_conditions_with_empty_irrelevant_block():
    h = hadamard8()
    target = 0.5 * h[:, 1] - 0.25 * h[:, 2]
    report = check_conditions(FeatureMatrixBinary(h[:, 1:3]), [0, 1], target)
    assert report.alpha == 1.0
    assert report.c == pytest.approx(report.gamma / report.beta, abs=1e-12)


def test_residual_orthogonality():
    rng = np.random.default_rng(1)
    x_s = (rng.integers(0, 2, size=(500, 3)) * 2 - 1).astype(np.float64)
    x_sbar = (rng.integers(0, 2, size=(500, 5)) * 2 - 1).astype(np.float64)
    y = rng.uniform(-1, 1, 500)
    report = check_conditions(FeatureMatrixBinary(np.hstack([x_s, x_sbar])), [0, 1, 2], y)
    coef, *_ = np.linalg.lstsq(x_s, y, rcond=None)
    resid = y - x_s @ coef
    assert np.abs(x_s.T @ resid).max() < 1e-8
    # c's residual correlations come from the sample blocks, not from an
    # N-row residual; both routes agree
    resid_corr = np.abs(x_sbar.T @ resid / 500).max()
    assert report.c == pytest.approx(report.alpha * report.gamma / report.beta - resid_corr,
                                     rel=1e-12, abs=1e-15)
    assert report.gamma == pytest.approx(np.abs(coef).min(), rel=1e-12)


@pytest.mark.parametrize("support, message", [
    ([], "support must name at least one feature column"),
    ([1, 0, 1], "support names column 1 more than once"),
    ([-1, 0], r"support indices out of range for 4 columns"),
    ([0, 4], r"support indices out of range for 4 columns"),
    ([0, 1.5], r"support: 1.5 is not an integer index"),
    ([0.9], r"support: 0.9 is not an integer index"),
    ([np.float64(1.0)], r"support: np.float64\(1.0\) is not an integer index"),
    ([True], r"support: True is not an integer index"),
    ([None], r"support: None is not an integer index"),
    (np.array([0.0, 1.0]), r"support: np.float64\(0.0\) is not an integer index"),
], ids=["empty", "repeated", "negative", "out of range", "float", "fraction", "numpy float",
        "bool", "None", "float array"])
def test_check_conditions_checks_the_support(support, message):
    h = hadamard8()
    with pytest.raises(DataError, match=message):
        check_conditions(FeatureMatrixBinary(h[:, 1:5]), support, h[:, 1])


@pytest.mark.parametrize("support", [np.array([0]), np.array([0, 2]), (np.int8(2), np.int64(0))],
                         ids=["one", "two", "numpy scalars"])
def test_check_conditions_reads_numpy_integer_supports(support):
    h = hadamard8()
    x = FeatureMatrixBinary(h[:, 1:5])
    target = 0.5 * h[:, 1] - 0.25 * h[:, 3]
    as_ints = [int(j) for j in support]
    assert check_conditions(x, support, target).to_dict() == check_conditions(
        x, as_ints, target).to_dict()


def test_check_conditions_splits_in_the_support_order_given():
    x, target, support = gen_recovery(RecoveryScenario(kappa=0.6, n=5000, p=20, seed=3))
    shuffled = [support[2], support[0], support[1]]
    report = check_conditions(x, shuffled, target, delta=0.1)
    # the explicit float64 split: X_S in the order given, X_Sbar ascending
    x_s = x.values[:, shuffled].astype(np.float64)
    x_sbar = x.values[:, sorted(set(range(20)) - set(support))].astype(np.float64)
    assert report.sigma_ss.tobytes() == (x_s.T @ x_s / 5000).tobytes()
    assert report.sigma_s_sbar.tobytes() == (x_s.T @ x_sbar / 5000).tobytes()
    explicit = check_conditions(FeatureMatrixBinary(np.hstack([x_s, x_sbar])), [0, 1, 2], target,
                                delta=0.1)
    assert report.to_dict() == explicit.to_dict()


def test_sample_bound_frozen_example():
    assert sample_bound(beta=1.0, gamma=0.5, c=0.1, p=100, delta=0.05) == 28760


def test_sample_bound_log_additivity_in_p():
    b1 = sample_bound(1.0, 0.5, 0.1, 100, 0.05)
    b2 = sample_bound(1.0, 0.5, 0.1, 200, 0.05)
    expected = max(8.0 / 0.25, 32.0) / 0.01 * math.log(2.0)
    assert abs((b2 - b1) - expected) <= 1.0  # exact up to the ceilings


def test_sample_bound_saturates_at_32():
    b = sample_bound(beta=1.0, gamma=1e9, c=0.5, p=10, delta=0.1)
    assert b == math.ceil(32.0 / 0.25 * math.log(400.0))


def test_sample_bound_errors():
    with pytest.raises(ValueError, match="conditions unsatisfied"):
        sample_bound(1.0, 0.0, 0.1, 10, 0.1)
    with pytest.raises(ValueError, match="conditions unsatisfied"):
        sample_bound(1.0, 0.5, -0.1, 10, 0.1)
    with pytest.raises(ValueError):
        sample_bound(1.0, 0.5, 0.1, 10, 1.5)
    with pytest.raises(ValueError, match="^p must be at least 1$"):
        sample_bound(1.0, 0.5, 0.1, 0, 0.1)


def test_sample_bound_monotonicity_grid():
    base = dict(beta=1.2, gamma=0.4, c=0.15, p=50, delta=0.1)
    b0 = sample_bound(**base)
    for key, larger, expect_growth in (
        ("c", 0.3, False),
        ("gamma", 0.8, False),
        ("delta", 0.3, False),
        ("beta", 2.4, True),
        ("p", 100, True),
    ):
        b1 = sample_bound(**{**base, key: larger})
        assert (b1 >= b0) == expect_growth or b1 == b0


def test_recommended_lambda_arithmetic():
    assert recommended_lambda(alpha=0.5, beta=1.0, gamma=0.5, c=0.1) == pytest.approx(0.3)
    assert recommended_lambda(alpha=0.5, beta=1.0, gamma=0.5, c=0.0) == pytest.approx(0.5)
    with pytest.raises(ValueError, match="no admissible lambda"):
        recommended_lambda(alpha=0.5, beta=1.0, gamma=0.5, c=0.25)
    with pytest.raises(ValueError):
        recommended_lambda(alpha=0.0, beta=1.0, gamma=0.5, c=0.1)


def test_report_serializes_and_carries_nulls_when_unsatisfiable():
    h = hadamard8()
    target = h[:, 1].astype(np.float64)
    report = check_conditions(FeatureMatrixBinary(h[:, 1:5]), [0, 1], target)
    d = report.to_dict()
    assert d["recommended_lambda"] is None or isinstance(d["recommended_lambda"], float)
    assert isinstance(d["satisfied"], dict)
