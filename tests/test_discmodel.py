import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from oracles import finite_difference, rel_error
from weaksup.data import FeatureMatrixReal, ProbLabelVector
from weaksup.discmodel import (
    DiscConfig,
    DiscParams,
    decision_scores,
    fit_disc,
    grad_noise_aware_loss,
    noise_aware_loss,
    predict,
)
from weaksup.genmodel import FitError


def _hard_soft(labels: np.ndarray) -> ProbLabelVector:
    return ProbLabelVector(labels.astype(np.float64))


def test_loss_reduces_to_logistic_on_hard_labels():
    rng = np.random.default_rng(0)
    v = FeatureMatrixReal(rng.standard_normal((40, 3)))
    y = rng.integers(0, 2, 40) * 2 - 1
    params = DiscParams(theta=rng.standard_normal(3), bias=0.3)
    s = decision_scores(params, v)
    logistic = np.log1p(np.exp(-y * s)).mean()
    assert noise_aware_loss(params, v, _hard_soft(y)) == pytest.approx(logistic, abs=1e-12)


def test_loss_log2_at_zero_params():
    rng = np.random.default_rng(1)
    v = FeatureMatrixReal(rng.standard_normal((25, 2)))
    soft = ProbLabelVector(rng.uniform(-1, 1, 25))
    params = DiscParams(theta=np.zeros(2), bias=0.0)
    assert noise_aware_loss(params, v, soft) == pytest.approx(np.log(2.0), abs=1e-12)


def test_loss_minimized_at_zero_score_for_uninformative_labels():
    # 1-D oracle: with p = 1/2 everywhere the loss over a common score s
    # is minimized at s = 0 with value log 2
    def scalar_loss(s):
        return 0.5 * np.log1p(np.exp(-s)) + 0.5 * np.log1p(np.exp(s))

    res = minimize_scalar(scalar_loss, bounds=(-5, 5), method="bounded")
    assert res.x == pytest.approx(0.0, abs=1e-6)
    assert res.fun == pytest.approx(np.log(2.0), abs=1e-10)

    v = FeatureMatrixReal(np.ones((10, 1)))
    soft = ProbLabelVector(np.zeros(10))
    params = fit_disc(v, soft, DiscConfig(l2=0.0))
    assert noise_aware_loss(params, v, soft) == pytest.approx(np.log(2.0), abs=1e-8)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(2)
    v = FeatureMatrixReal(rng.standard_normal((30, 4)))
    soft = ProbLabelVector(rng.uniform(-1, 1, 30))
    for _ in range(10):
        theta = rng.standard_normal(4)
        bias = float(rng.standard_normal())

        def f(flat):
            p = DiscParams(theta=flat[:4], bias=flat[4])
            return noise_aware_loss(p, v, soft, l2=0.05)

        analytic_t, analytic_b = grad_noise_aware_loss(
            DiscParams(theta=theta, bias=bias), v, soft, l2=0.05
        )
        numeric = finite_difference(f, np.concatenate([theta, [bias]]))
        assert rel_error(np.concatenate([analytic_t, [analytic_b]]), numeric) < 1e-5


def test_fit_matches_sklearn_on_hard_labels():
    # on hard labels the objective is plain L2-regularized logistic regression;
    # sklearn's lbfgs solve is an independent route to the same optimum
    sklearn = pytest.importorskip("sklearn.linear_model")
    rng = np.random.default_rng(12)
    n, q, l2 = 300, 3, 0.05
    v = rng.standard_normal((n, q))
    y = np.where(v @ np.array([1.0, -0.5, 0.2]) + 0.3 * rng.standard_normal(n) > 0, 1, -1)
    params = fit_disc(
        FeatureMatrixReal(v), _hard_soft(y), DiscConfig(l2=l2, max_iters=20_000, grad_tol=1e-9)
    )
    ref = sklearn.LogisticRegression(C=1.0 / (n * l2), tol=1e-10, max_iter=10_000)
    ref.fit(v, y)
    np.testing.assert_allclose(params.theta, ref.coef_[0], atol=2e-4)
    assert params.bias == pytest.approx(ref.intercept_[0], abs=2e-4)


def test_fit_separable_reaches_full_training_accuracy():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((200, 2))
    y = np.where(v[:, 0] >= 0, 1, -1)
    v[:, 0] += y * 0.5  # enforce a margin
    features = FeatureMatrixReal(v)
    params = fit_disc(features, _hard_soft(y), DiscConfig(l2=0.01))
    pred = predict(params, features)
    assert (pred.labels == y).mean() == 1.0


def test_fit_stays_at_zero_for_all_zero_soft_labels():
    rng = np.random.default_rng(4)
    v = FeatureMatrixReal(rng.standard_normal((50, 3)))
    params = fit_disc(v, ProbLabelVector(np.zeros(50)))
    assert params.theta.tolist() == [0.0, 0.0, 0.0]
    assert params.bias == 0.0


def test_fit_never_increases_loss():
    rng = np.random.default_rng(5)
    v = FeatureMatrixReal(rng.standard_normal((60, 3)))
    soft = ProbLabelVector(np.tanh(rng.standard_normal(60)))
    cfg = DiscConfig()
    params = fit_disc(v, soft, cfg)
    zero = DiscParams(theta=np.zeros(3), bias=0.0)
    assert noise_aware_loss(params, v, soft, l2=cfg.l2) <= noise_aware_loss(
        zero, v, soft, l2=cfg.l2
    ) + 1e-12


def test_fit_non_finite_loss_raises():
    rng = np.random.default_rng(9)
    v = FeatureMatrixReal(rng.standard_normal((20, 2)))
    soft = ProbLabelVector(np.tanh(rng.standard_normal(20)))
    with np.errstate(all="ignore"), pytest.raises(FitError):
        fit_disc(v, soft, DiscConfig(learning_rate=1e308))


def test_fit_zero_iterations_returns_zero_vector():
    rng = np.random.default_rng(10)
    v = FeatureMatrixReal(rng.standard_normal((20, 2)))
    soft = ProbLabelVector(np.tanh(rng.standard_normal(20)))
    params = fit_disc(v, soft, DiscConfig(max_iters=0))
    assert params.theta.tolist() == [0.0, 0.0]
    assert params.bias == 0.0


def test_config_rejects_negative_max_iters():
    with pytest.raises(ValueError, match="max_iters"):
        DiscConfig(max_iters=-5)


def test_predict_sign_conventions():
    v = FeatureMatrixReal(np.array([[1.0], [-1.0], [0.0]]))
    all_pos = predict(DiscParams(theta=np.zeros(1), bias=1.0), v)
    assert all_pos.labels.tolist() == [1, 1, 1]
    tie = predict(DiscParams(theta=np.array([1.0]), bias=0.0), v)
    assert tie.labels.tolist() == [1, -1, 1]  # score exactly 0 -> +1


def test_predict_invariant_under_positive_scaling():
    rng = np.random.default_rng(6)
    v = FeatureMatrixReal(rng.standard_normal((40, 3)))
    params = DiscParams(theta=rng.standard_normal(3), bias=0.7)
    doubled = DiscParams(theta=2.0 * params.theta, bias=2.0 * params.bias)
    np.testing.assert_array_equal(predict(params, v).labels, predict(doubled, v).labels)


def test_loss_convex_on_random_pairs():
    rng = np.random.default_rng(7)
    v = FeatureMatrixReal(rng.standard_normal((30, 3)))
    soft = ProbLabelVector(rng.uniform(-1, 1, 30))
    for _ in range(25):
        a = rng.standard_normal(4)
        b = rng.standard_normal(4)
        mid = 0.5 * (a + b)
        la = noise_aware_loss(DiscParams(a[:3], a[3]), v, soft)
        lb = noise_aware_loss(DiscParams(b[:3], b[3]), v, soft)
        lm = noise_aware_loss(DiscParams(mid[:3], mid[3]), v, soft)
        assert lm <= 0.5 * (la + lb) + 1e-12


def test_loss_symmetric_under_label_and_score_flip():
    rng = np.random.default_rng(8)
    v = FeatureMatrixReal(rng.standard_normal((30, 2)))
    soft = ProbLabelVector(rng.uniform(-1, 1, 30))
    params = DiscParams(theta=rng.standard_normal(2), bias=-0.4)
    flipped_params = DiscParams(theta=-params.theta, bias=-params.bias)
    flipped_soft = ProbLabelVector(-soft.expected)
    assert noise_aware_loss(params, v, soft) == pytest.approx(
        noise_aware_loss(flipped_params, v, flipped_soft), abs=1e-12
    )


def test_dimension_mismatch_errors():
    v = FeatureMatrixReal(np.zeros((4, 2)))
    soft = ProbLabelVector(np.zeros(3))
    with pytest.raises(ValueError):
        noise_aware_loss(DiscParams(np.zeros(2)), v, soft)
    with pytest.raises(ValueError):
        predict(DiscParams(np.zeros(5)), v)
