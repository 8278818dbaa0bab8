import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from oracles import finite_difference, rel_error
import weaksup.discmodel as discmodel
from weaksup.data import DataError, FeatureMatrixReal, ProbLabelVector
from weaksup.discmodel import (
    DiscConfig,
    DiscParams,
    _loss_grad_hess,
    decision_scores,
    fit_disc,
    grad_noise_aware_loss,
    load_params,
    noise_aware_loss,
    params_to_dict,
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


def test_hessian_matches_finite_differences_of_gradient():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((60, 4))
    p = rng.uniform(0, 1, 60)
    step = 1e-5 * np.eye(5)
    for _ in range(5):
        x = rng.standard_normal(5)
        hess = _loss_grad_hess(x, v, p, 0.05)[2]
        numeric = np.stack(
            [(_loss_grad_hess(x + e, v, p, 0.05)[1] - _loss_grad_hess(x - e, v, p, 0.05)[1]) / 2e-5
             for e in step],
            axis=1,
        )
        assert rel_error(hess, numeric) < 1e-6
        np.testing.assert_allclose(hess, hess.T, rtol=1e-14, atol=0)


def _per_object(x, v, p, l2):
    """The loss, gradient and Hessian summed object by object: each object's
    two-term loss, its residual sigma(s) - p and its weight sigma (1 - sigma)."""
    n, q = v.shape
    theta = x[:-1]
    s = v @ theta + x[-1]
    sig = 0.5 * (1.0 + np.tanh(0.5 * s))
    value = np.mean(p * np.logaddexp(0.0, -s) + (1.0 - p) * np.logaddexp(0.0, s))
    r = sig - p
    grad = np.append(v.T @ r / n + l2 * theta, r.mean())
    a = np.column_stack([v, np.ones(n)])
    hess = sum(w * np.outer(row, row) for w, row in zip(sig * (1.0 - sig) / n, a))
    hess[:q, :q] += l2 * np.eye(q)
    return value + 0.5 * l2 * theta @ theta, grad, hess


@pytest.mark.parametrize("hard", [False, True])
def test_the_labels_entering_through_one_vector_match_the_per_object_sums(hard):
    rng = np.random.default_rng(21)
    n, q = 400, 4
    v = rng.standard_normal((n, q)) * np.array([1.0, 10.0, 0.1, 30.0])
    p = rng.integers(0, 2, n).astype(float) if hard else rng.uniform(0, 1, n)
    for _ in range(5):
        x = rng.standard_normal(q + 1)
        assert (np.abs(v @ x[:-1] + x[-1]) > 40).any()
        value, grad, hess = _loss_grad_hess(x, v, p, 0.05)
        want_value, want_grad, want_hess = _per_object(x, v, p, 0.05)
        assert abs(value - want_value) <= 1e-12 * abs(want_value)
        assert rel_error(grad, want_grad) <= 1e-12
        assert rel_error(hess, want_hess) <= 1e-12
        numeric = finite_difference(lambda y: _loss_grad_hess(y, v, p, 0.05)[0], x)
        assert rel_error(grad, numeric) < 1e-6


@pytest.mark.parametrize("score", [-800.0, -40.0, 40.0, 800.0])
@pytest.mark.parametrize("p", [0.0, 1e-12, 1.0])
def test_loss_at_extreme_scores_matches_the_two_term_form(score, p):
    # one object with a zero feature, so the score is the bias
    loss = _loss_grad_hess(np.array([0.0, score]), np.zeros((1, 1)), np.array([p]), 0.0)[0]
    two_term = p * np.logaddexp(0.0, -score) + (1.0 - p) * np.logaddexp(0.0, score)
    assert np.isfinite(loss)
    assert abs(loss - two_term) <= 1e-12


def test_fit_from_a_start_reaches_the_optimum_from_zero():
    rng = np.random.default_rng(8)
    v = FeatureMatrixReal(rng.standard_normal((300, 3)))
    soft = ProbLabelVector(np.tanh(v.values @ np.array([1.0, -2.0, 0.5]) + 0.3))
    cold = fit_disc(v, soft)
    warm = fit_disc(v, soft, start=DiscParams(rng.standard_normal(3), bias=-1.0))
    # both stop once max|gradient| < 1e-6
    np.testing.assert_allclose(warm.theta, cold.theta, atol=1e-5)
    assert warm.bias == pytest.approx(cold.bias, abs=1e-5)
    same = fit_disc(v, soft, DiscConfig(max_iters=0), start=cold)
    assert same.theta.tobytes() == cold.theta.tobytes() and same.bias == cold.bias
    with pytest.raises(ValueError, match="feature weights"):
        fit_disc(v, soft, start=DiscParams(np.zeros(2)))


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


def _count_label_free(monkeypatch) -> list[np.ndarray]:
    """The x of each label-free evaluation from now on."""
    points = []

    def counting(x, *args, _label_free=discmodel._label_free):
        points.append(x.copy())
        return _label_free(x, *args)

    monkeypatch.setattr(discmodel, "_label_free", counting)
    return points


def test_warm_fits_and_predictions_are_the_same_bytes_inside_a_reuse_scope(monkeypatch):
    rng = np.random.default_rng(5)
    v = FeatureMatrixReal(rng.standard_normal((500, 4)))
    base = v.values @ rng.standard_normal(4)
    softs = [ProbLabelVector(np.tanh(base + rng.standard_normal(500))) for _ in range(4)]
    points = _count_label_free(monkeypatch)

    def chain():
        fits, params = [], None
        for soft in softs:
            params = fit_disc(v, soft, start=params)
            fits.append((params, predict(params, v)))
        return fits

    alone = chain()
    evaluations = len(points)
    with discmodel._kept.scope():
        scoped = chain()
    for (a, ya), (b, yb) in zip(alone, scoped):
        assert np.append(a.theta, a.bias).tobytes() == np.append(b.theta, b.bias).tobytes()
        assert ya.labels.tobytes() == yb.labels.tobytes()
    # each of the three warm fits took its first evaluation from the fit before
    assert len(points) - evaluations == evaluations - 3
    # the label-free part holds the penalty's curvature: another l2 evaluates afresh
    other = DiscConfig(l2=0.5)
    alone = fit_disc(v, softs[0], other, start=scoped[-1][0])
    with discmodel._kept.scope():
        start = fit_disc(v, softs[-1], start=scoped[-1][0])
        assert np.append(start.theta, start.bias).tobytes() == (
            np.append(scoped[-1][0].theta, scoped[-1][0].bias).tobytes())
        refit = fit_disc(v, softs[0], other, start=start)
    assert np.append(refit.theta, refit.bias).tobytes() == np.append(alone.theta, alone.bias).tobytes()


def test_a_fit_whose_line_search_ends_on_a_rejected_trial_keeps_nothing(monkeypatch):
    rng = np.random.default_rng(0)
    v = FeatureMatrixReal(rng.standard_normal((200, 3)))
    soft = ProbLabelVector(np.tanh(v.values @ rng.standard_normal(3) + rng.standard_normal(200)))
    points = _count_label_free(monkeypatch)
    with discmodel._kept.scope():
        kept = fit_disc(v, soft)
        assert discmodel._kept.get(kept, v) is not None
        # below any reachable gradient: the fit runs until a step no longer moves x
        stalled = fit_disc(v, soft, DiscConfig(grad_tol=1e-300, max_iters=200), start=kept)
        assert points[-1].tobytes() != np.append(stalled.theta, stalled.bias).tobytes()
        assert discmodel._kept.get(stalled, v) is None and discmodel._kept.get(kept, v) is None
        evaluations = len(points)
        fit_disc(v, soft, start=stalled)
        assert len(points) > evaluations  # the warm fit evaluates its start afresh
        assert predict(stalled, v).labels.tobytes() == (
            np.where(decision_scores(stalled, v) >= 0.0, 1, -1).astype(np.int8).tobytes()
        )


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
    # finite features whose squares overflow: the Hessian is not finite
    v = FeatureMatrixReal(rng.standard_normal((20, 2)) * 1e200)
    soft = ProbLabelVector(np.tanh(rng.standard_normal(20)))
    with np.errstate(all="ignore"), pytest.raises(FitError):
        fit_disc(v, soft)


@given(st.integers(5, 200), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_fit_reaches_a_stationary_point_with_a_constant_column(n, q, seed):
    # a constant column duplicates the unpenalized bias: with l2 = 0 the
    # Hessian is singular, and the damped solver must still end stationary
    rng = np.random.default_rng(seed)
    v = FeatureMatrixReal(np.column_stack([rng.standard_normal((n, q)), np.full(n, 2.0)]))
    soft = ProbLabelVector(0.9 * np.tanh(rng.standard_normal(n)))
    cfg = DiscConfig(l2=0.0)
    params = fit_disc(v, soft, cfg)
    g_theta, g_bias = grad_noise_aware_loss(params, v, soft)
    assert max(np.abs(g_theta).max(), abs(g_bias)) < cfg.grad_tol
    zero = DiscParams(theta=np.zeros(q + 1), bias=0.0)
    assert noise_aware_loss(params, v, soft) <= noise_aware_loss(zero, v, soft)


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


@pytest.mark.parametrize("value", [2.5, np.float64(3.0), True, None, "5"])
def test_config_refuses_a_max_iters_that_is_not_an_integer(value):
    # a fractional cap used to construct and fail inside fit_disc with a TypeError
    with pytest.raises(ValueError, match="^max_iters: .* is not an integer index$"):
        DiscConfig(max_iters=value)
    config = DiscConfig(max_iters=np.int32(7))
    assert config.max_iters == 7 and type(config.max_iters) is int


@pytest.mark.parametrize("theta, bias", [([0.5, np.nan], 0.0), ([[0.5]], 0.0), ([0.5], np.inf)],
                         ids=["theta nan", "theta matrix", "bias inf"])
def test_params_refuse_a_non_finite_or_non_vector_weight(theta, bias):
    with pytest.raises(ValueError, match="^theta and bias must be finite$"):
        DiscParams(theta, bias)


@pytest.mark.parametrize(
    "field, value",
    [("grad_tol", np.nan), ("grad_tol", np.inf), ("grad_tol", 0.0), ("l2", np.nan),
     ("l2", np.inf), ("l2", -1.0)],
)
def test_config_rejects_a_tolerance_or_penalty_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        DiscConfig(**{field: value})


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
    wide = FeatureMatrixReal(np.zeros((4, 3)))
    for loss in (noise_aware_loss, grad_noise_aware_loss):
        with pytest.raises(ValueError, match="label count 3"):
            loss(DiscParams(np.zeros(2)), v, soft)
        with pytest.raises(ValueError, match="feature columns 3 != parameter count 2"):
            loss(DiscParams(np.zeros(2)), wide, ProbLabelVector(np.zeros(4)))


def test_params_json_round_trip():
    params = DiscParams(np.array([0.7, -0.3, 1e-17]), bias=-0.25)
    back = load_params(io.StringIO(json.dumps(params_to_dict(params, DiscConfig()))))
    assert back.theta.tobytes() == params.theta.tobytes() and back.bias == params.bias


@pytest.mark.parametrize("text, message", [
    ("[]", "model file must hold a JSON object"),
    ('{"bias": 0.5}', "model file lacks 'theta'"),
    ('{"theta": [1, 2]}', "model file lacks 'bias'"),
    ('{"theta": "ab", "bias": 0.5}', r"'theta' must be numbers of shape \(N\)"),
    ('{"theta": [[1, 2]], "bias": 0.5}', r"'theta' must be numbers of shape \(N\)"),
    ('{"theta": [1, null], "bias": 0.5}', r"'theta' must be numbers of shape \(N\)"),
    ('{"theta": [1, 2], "bias": [0.5]}', r"'bias' must be numbers of shape \(\)"),
    ('{"theta": [1, 2], "bias": null}', r"'bias' must be numbers of shape \(\)"),
    ('{"theta": [1, 2], "bias": "0.5"}', r"'bias' must be numbers of shape \(\)"),
    # a JSON true or false beside numbers used to load as 1 or 0
    ('{"theta": [true, 0.5], "bias": 0.5}', r"'theta' must be numbers of shape \(N\)"),
    ('{"theta": [1, 2], "bias": false}', r"'bias' must be numbers of shape \(\)"),
], ids=["list", "no theta", "no bias", "theta string", "theta matrix", "theta null",
        "bias list", "bias null", "bias string", "theta true", "bias false"])
def test_load_params_refuses_a_malformed_model_file(text, message):
    with pytest.raises(DataError, match=message):
        load_params(io.StringIO(text))
