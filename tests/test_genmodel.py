import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import weaksup.genmodel as genmodel
from oracles import (brute_force_joint, finite_difference, per_object_objective, rel_error,
                     sequential_labels)
from weaksup.data import DataError, FeatureMatrixBinary, LabelMatrix
from weaksup.discmodel import DiscConfig
from weaksup.genmodel import (
    FitConfig,
    FitError,
    GenParams,
    NewtonConfig,
    _flat,
    _objective,
    _rows,
    effective_phi,
    fit_aug,
    fit_sp,
    grad_marginal,
    label_aug,
    label_sp,
    load_params,
    log_partition,
    marginal_loglik,
    newton,
    params_to_dict,
    posterior,
)

# frozen values computed with the enumeration oracle (brute_force_joint)
LOGZ_M1_PHI1 = 2.1007531450043255  # log(2 * (2 cosh 1 + 1)) = log 8.17232...
LOGLIK_M1_PHI1_LAM1 = -0.9738251339613532
GRAD_M1_PHI2 = 0.1130904878549488  # tanh 2 - 2 sinh 2 / (2 cosh 2 + 1)

finite_phis = hnp.arrays(
    np.float64,
    st.integers(1, 4),
    elements=st.floats(-3, 3, allow_nan=False, allow_infinity=False),
)


def sample_sp(phi: np.ndarray, n: int, seed: int) -> LabelMatrix:
    """Exact sampler: inverse CDF over the enumerated joint distribution."""
    table = brute_force_joint(phi)
    cum = np.cumsum(table.probs)
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cum, rng.random(n))
    return LabelMatrix(table.vote_states[idx].T)


# -- partition function -------------------------------------------------------


def test_log_partition_zero_phi():
    assert log_partition(GenParams(np.zeros(2))) == pytest.approx(np.log(18.0), abs=1e-12)


def test_log_partition_matches_enumeration():
    params = GenParams(np.array([1.0]))
    assert log_partition(params) == pytest.approx(LOGZ_M1_PHI1, abs=1e-12)
    assert brute_force_joint(params.phi).log_z == pytest.approx(LOGZ_M1_PHI1, abs=1e-12)


@given(finite_phis)
def test_log_partition_even(phi):
    a = log_partition(GenParams(phi))
    b = log_partition(GenParams(-phi))
    assert a == b


def test_log_partition_stable_for_large_phi():
    val = log_partition(GenParams(np.array([500.0, -500.0])))
    assert np.isfinite(val)
    assert val == pytest.approx(np.log(2.0) + 1000.0, rel=1e-12)


@given(finite_phis)
def test_partition_factorization_matches_enumeration(phi):
    assert log_partition(GenParams(phi)) == pytest.approx(
        brute_force_joint(phi).log_z, abs=1e-10
    )


# -- marginal likelihood and gradient -----------------------------------------


def test_marginal_loglik_uniform_phi_zero():
    lm = LabelMatrix(np.array([[1, -1, 0]]))
    assert marginal_loglik(GenParams(np.zeros(1)), lm) == pytest.approx(
        -np.log(3.0), abs=1e-12
    )


def test_marginal_loglik_frozen_value_and_oracle():
    lm = LabelMatrix(np.array([[1]]))
    params = GenParams(np.array([1.0]))
    got = marginal_loglik(params, lm)
    assert got == pytest.approx(LOGLIK_M1_PHI1_LAM1, abs=1e-12)
    oracle = np.log(brute_force_joint(params.phi).marginal_prob(np.array([1])))
    assert got == pytest.approx(oracle, abs=1e-10)


@given(finite_phis, st.integers(0, 2**31 - 1))
def test_marginal_loglik_even(phi, seed):
    lm = sample_sp(np.zeros_like(phi), 7, seed)
    assert marginal_loglik(GenParams(phi), lm) == marginal_loglik(
        GenParams(-phi), lm
    )


def test_marginal_loglik_dimension_mismatch():
    lm = LabelMatrix(np.array([[1, 0]]))
    with pytest.raises(ValueError):
        marginal_loglik(GenParams(np.zeros(2)), lm)


def test_grad_zero_at_origin():
    lm = sample_sp(np.array([0.7, -0.2, 1.1]), 50, seed=3)
    np.testing.assert_array_equal(
        grad_marginal(GenParams(np.zeros(3)), lm)[0], np.zeros(3)
    )


def test_grad_closed_form_single_source():
    lm = LabelMatrix(np.ones((1, 10), dtype=int))
    grad = grad_marginal(GenParams(np.array([2.0])), lm)[0]
    assert grad[0] == pytest.approx(GRAD_M1_PHI2, abs=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    lm = sample_sp(np.array([1.0, 0.4, -0.6]), 200, seed=5)
    for _ in range(10):
        phi = rng.uniform(-2, 2, size=3)
        analytic = grad_marginal(GenParams(phi), lm)[0]
        numeric = finite_difference(
            lambda p: marginal_loglik(GenParams(p), lm), phi
        )
        assert rel_error(analytic, numeric) < 1e-5


def _random_model(rng, m: int, k: int, n: int):
    """Random parameters over K selected columns of a P = K + 1 feature
    matrix, with labels and features for n objects."""
    lm = LabelMatrix(rng.integers(-1, 2, size=(m, n)))
    x = FeatureMatrixBinary(rng.integers(0, 2, size=(n, k + 1)) * 2 - 1)
    selected = tuple(int(j) for j in rng.permutation(k + 1)[:k])
    params = GenParams(rng.uniform(-1.5, 1.5, m), rng.uniform(-1, 1, (k, m)), selected)
    return lm, x, params


@pytest.mark.parametrize("k", [0, 1, 2, 3, 6])
def test_compressed_objective_matches_per_object_form(k):
    rng = np.random.default_rng(100 + k)
    for m, n in ((1, 7), (3, 400), (5, 2_000), (20, 2_000)):
        lm, x, params = _random_model(rng, m, k, n)
        value, g_phi, g_w = per_object_objective(
            params.phi, params.w, lm.votes, x.values[:, list(params.selected)], 0.03
        )
        assert abs(marginal_loglik(params, lm, x, w_l2=0.03) - value) <= 1e-12 * abs(value)
        got = np.concatenate([g.ravel() for g in grad_marginal(params, lm, x, w_l2=0.03)])
        want = np.concatenate([g_phi, g_w.ravel()])
        assert rel_error(got, want) <= 1e-12


@pytest.mark.parametrize("k", [0, 1, 2, 3, 6])
def test_hessian_matches_finite_differences_of_gradient(k):
    rng = np.random.default_rng(200 + k)
    for m in (3, 20):
        lm, x, params = _random_model(rng, m, k, 80)
        evaluate = _objective(_rows(params, lm, x), 0.03)
        for _ in range(5):
            flat = np.concatenate([rng.uniform(-1.5, 1.5, m), rng.uniform(-1, 1, m * k)])
            hess = evaluate(flat)[2]
            # column j: central differences of the whole gradient along x_j, the
            # same evaluations as finite_difference makes for each entry
            step = 1e-5 * np.eye(flat.size)
            numeric = np.stack(
                [(evaluate(flat + e)[1] - evaluate(flat - e)[1]) / 2e-5 for e in step], axis=1
            )
            assert rel_error(hess, numeric) < 1e-5
            np.testing.assert_array_equal(hess, hess.T)


def _unique_rows(rows):
    """np.unique's first member, inverse and count of each distinct row."""
    _, member, inverse, count = np.unique(
        rows, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    return member, inverse.reshape(-1), count


@pytest.mark.parametrize("m", [1, 5, 25, 39, 40, 41, 60])
def test_distinct_rows_partition_like_np_unique(m):
    # from 40 sources on the running base-3 code re-ranks; M = 1 and 5
    # count the keys when they number at most twice the objects (at M = 5,
    # 243 keys: 121 objects sort and 122 count), the rest sort them; few
    # values make many repeated rows
    rng = np.random.default_rng(m)
    for n, values in ((1, 3), (121, 3), (122, 3), (500, 3), (3_000, 2)):
        rows = rng.integers(-1, values - 1, size=(n, m)).astype(np.int8)
        rows[n // 2 :] = rows[: n - n // 2]
        member, rank, count = LabelMatrix(rows.T)._compression
        want_member, want_rank, want_count = _unique_rows(rows)
        np.testing.assert_array_equal(rows[member], rows[want_member])
        np.testing.assert_array_equal(rank, want_rank)
        np.testing.assert_array_equal(count, want_count)


def test_distinct_rows_tell_apart_rows_that_differ_past_the_first_key():
    rows = np.zeros((4, 80), np.int8)
    rows[1, 79], rows[2, 40], rows[3, 0] = 1, -1, -1
    member, rank, count = LabelMatrix(rows.T)._compression
    np.testing.assert_array_equal(rank, [2, 3, 1, 0])
    np.testing.assert_array_equal(count, [1, 1, 1, 1])
    np.testing.assert_array_equal(member, [3, 2, 0, 1])


def _stacked_rows(params, lm, x):
    """The rows as np.unique of the stacked (selected features, votes) rows
    gives them, each object's design built in full."""
    design = np.ones((lm.n, 1 + params.k), np.int8)
    design[:, 1:] = x.values[:, list(params.selected)]
    member, inverse, count = _unique_rows(np.vstack([design[:, 1:].T, lm.votes]).T)
    lam, a = lm.votes.T[member].astype(np.float64), design[member].astype(np.float64)
    starts = np.r_[True, (a[1:] != a[:-1]).any(axis=1)]
    bounds = np.r_[np.flatnonzero(starts), a.shape[0]]
    return lam, a, inverse, count / lm.n, np.cumsum(starts) - 1, a[starts], bounds


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("m", [5, 20, 45])
@pytest.mark.parametrize("k, n", [(0, 600), (1, 600), (2, 600), (3, 600), (4, 600), (60, 300)])
def test_rows_refined_from_the_vote_compression_equal_the_stacked_rows(k, n, m, order):
    # at M = 45 the 3^45 vote codes pass the int64 key range, and at K = 60
    # the 2^60 design codes times the distinct vote rows do, so each stage's
    # code is ranked before its last columns enter
    rng = np.random.default_rng(1000 * k + m)
    votes = rng.integers(-1, 2, size=(m, n))
    votes[:, n // 2:] = votes[:, : n - n // 2]  # repeated rows
    fresh, formed = (LabelMatrix(np.asarray(votes, order=order)) for _ in range(2))
    compression = formed._compression
    x = FeatureMatrixBinary(rng.choice([-1, 1], size=(n, k + 3)))
    params = GenParams(np.zeros(m), np.zeros((k, m)), tuple(rng.permutation(k + 3)[:k].tolist()))
    want = _stacked_rows(params, fresh, x)
    np.testing.assert_array_equal(compression.rank, _unique_rows(fresh.votes.T)[1])
    key_limit = np.iinfo(np.int64).max
    assert (3**m > key_limit) == (m == 45)
    assert (2**k * compression.count.size > key_limit) == (k == 60)
    for lm in (fresh, formed):  # the compression formed by the fit, or before it
        got = _rows(params, lm, x)
        assert len(got) == len(want)
        for field, a, b in zip(got._fields, got, want):
            np.testing.assert_array_equal(a, b, err_msg=field)
        assert got.lam.flags.c_contiguous
    assert formed._compression is compression


# -- the solver ------------------------------------------------------------------


def test_newton_solves_a_concave_quadratic_in_one_full_step():
    a = np.array([[-2.0, 0.5], [0.5, -1.0]])
    b = np.array([1.0, -3.0])
    calls = []

    def quad(x):
        calls.append(x)
        return 0.5 * x @ a @ x + b @ x, a @ x + b, a

    x = newton(quad, np.zeros(2), max_iters=1, grad_tol=1e-12)
    # the 1e-10 floor on the damping is all that stands between one step
    # and the exact maximizer
    np.testing.assert_allclose(x, np.linalg.solve(a, -b), rtol=1e-9)
    assert len(calls) == 2  # the start point and one full step


def test_newton_damps_where_the_objective_is_convex():
    # f(x) = x^2 - x^4 / 4 has a minimum at 0 and maxima at +-sqrt(2); the
    # undamped Newton step from 0.1 would head for the minimum
    def f(x):
        return x @ x - (x**4).sum() / 4, 2 * x - x**3, np.diag(2 - 3 * x**2)

    x = newton(f, np.array([0.1]), max_iters=100, grad_tol=1e-10)
    assert x[0] == pytest.approx(np.sqrt(2.0), abs=1e-10)


@given(hnp.arrays(np.float64, st.integers(1, 6), elements=st.floats(-5, 5)))
def test_newton_zero_iterations_returns_the_start_point(x0):
    def f(x):
        return -(x @ x), -2 * x, -2 * np.eye(x.size)

    assert newton(f, x0, max_iters=0, grad_tol=1e-9).tobytes() == x0.tobytes()


def test_newton_raises_on_a_non_finite_start():
    def f(x):
        return float("nan"), np.zeros(1), np.zeros((1, 1))

    with pytest.raises(FitError):
        newton(f, np.zeros(1), max_iters=5, grad_tol=1e-9)


# -- degenerate inputs ---------------------------------------------------------


@st.composite
def vote_matrices(draw, min_m=1, max_m=4, min_n=1, max_n=30):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(min_n, max_n))
    votes = draw(hnp.arrays(np.int8, (m, n), elements=st.sampled_from([-1, 0, 1])))
    return votes


@given(vote_matrices(min_m=2), st.integers(0, 3), st.data())
def test_all_abstain_source_keeps_its_initial_weights(votes, k, data_):
    silent = data_.draw(st.integers(0, votes.shape[0] - 1))
    votes[silent] = 0
    lm = LabelMatrix(votes)
    cfg = FitConfig(phi_init=0.3, max_iters=100)
    if k:
        x = FeatureMatrixBinary(data_.draw(
            hnp.arrays(np.int8, (lm.n, k), elements=st.sampled_from([-1, 1]))))
        fitted = fit_aug(lm, x, list(range(k)), cfg)
    else:
        fitted = fit_sp(lm, cfg)
    assert fitted.phi[silent] == 0.3
    assert not fitted.w[:, silent].any()


@given(st.integers(1, 60), st.integers(0, 60))
def test_single_source_reaches_the_closed_form_optimum(voting, abstaining):
    # one source: P(vote) = 2 cosh(phi) / (2 (2 cosh phi + 1)) each way, so the
    # maximum sits at 2 cosh phi = c / (1 - c) for coverage c > 2/3, else at 0
    votes = np.array([[1] * voting + [0] * abstaining])
    lm = LabelMatrix(votes)
    fitted = fit_sp(lm)
    c = voting / (voting + abstaining)
    grad = grad_marginal(fitted, lm)[0]
    assert np.abs(grad).max() < FitConfig().grad_tol
    if c >= 0.7 and abstaining:
        assert fitted.phi[0] == pytest.approx(np.arccosh(c / (2 * (1 - c))), abs=1e-6)
    elif c <= 0.6:
        assert abs(fitted.phi[0]) < 1e-5


@given(vote_matrices(min_n=1, max_n=1), st.integers(0, 2))
def test_single_object_fits_without_error(votes, k):
    lm = LabelMatrix(votes)
    x = FeatureMatrixBinary(np.ones((1, k), dtype=np.int8)) if k else None
    cfg = FitConfig(max_iters=200)
    fitted = fit_aug(lm, x, list(range(k)), cfg) if k else fit_sp(lm, cfg)
    init = GenParams(np.full(lm.m, cfg.phi_init), np.zeros((k, lm.m)), tuple(range(k)))
    assert marginal_loglik(fitted, lm, x, cfg.w_l2) >= marginal_loglik(init, lm, x, cfg.w_l2)


@given(finite_phis, st.integers(100, 2_000), st.integers(0, 2**31 - 1))
def test_constant_column_without_penalty_matches_fit_sp(phi_star, n, seed):
    # x = +1 everywhere makes (phi_j, W_j) enter only as phi_j + W_j: the
    # Hessian is singular, and damping must still reach fit_sp's likelihood
    lm = sample_sp(phi_star, n, seed)
    x = FeatureMatrixBinary(np.ones((n, 1), dtype=np.int8))
    cfg = FitConfig(w_l2=0.0)
    aug = fit_aug(lm, x, [0], cfg)
    sp = fit_sp(lm, cfg)
    assert marginal_loglik(aug, lm, x) == pytest.approx(marginal_loglik(sp, lm), abs=1e-9)
    np.testing.assert_allclose(aug.phi + aug.w[0], sp.phi, atol=1e-4)


@given(st.integers(1, 5), hnp.arrays(np.int8, st.integers(1, 40), elements=st.sampled_from([-1, 1])))
def test_all_votes_agreeing_fits_and_labels_by_the_vote(m, y):
    # every source votes every object's class: the likelihood rises without
    # bound in phi, and the fit stops on the gradient tolerance
    lm = LabelMatrix(np.tile(y, (m, 1)))
    fitted = fit_sp(lm)
    assert np.isfinite(fitted.phi).all() and (fitted.phi > 0).all()
    assert np.abs(grad_marginal(fitted, lm)[0]).max() < FitConfig().grad_tol
    np.testing.assert_array_equal(np.sign(label_sp(fitted, lm).expected), y)


# -- fitting -------------------------------------------------------------------


def test_fit_sp_recovers_planted_accuracies():
    phi_star = np.array([1.2, 0.8, 0.5])
    lm = sample_sp(phi_star, 50_000, seed=7)
    fitted = fit_sp(lm)
    np.testing.assert_allclose(np.abs(fitted.phi), np.abs(phi_star), atol=0.1)


def test_fit_sp_stationary_at_zero_init():
    # why FitConfig refuses phi_init = 0: a fit started there would stay
    lm = sample_sp(np.zeros(2), 500, seed=9)
    assert grad_marginal(GenParams(np.zeros(2)), lm)[0].tolist() == [0.0, 0.0]


def test_fit_sp_deterministic():
    lm = sample_sp(np.array([0.9, 0.3]), 300, seed=1)
    a = fit_sp(lm, FitConfig())
    b = fit_sp(lm, FitConfig())
    assert a.phi.tobytes() == b.phi.tobytes()


def test_fit_sp_improves_on_init():
    lm = sample_sp(np.array([1.5, -0.4]), 2_000, seed=2)
    cfg = FitConfig()
    init = GenParams(np.full(2, cfg.phi_init))
    fitted = fit_sp(lm, cfg)
    assert marginal_loglik(fitted, lm) >= marginal_loglik(init, lm)


def test_fit_sp_freezes_all_abstain_sources():
    votes = np.array([[1, -1, 1, 1], [0, 0, 0, 0]])
    fitted = fit_sp(LabelMatrix(votes), FitConfig(phi_init=0.5))
    assert fitted.phi[1] == 0.5


def test_fit_sp_non_finite_objective_raises():
    lm = LabelMatrix(np.array([[1, -1, 1, 1], [1, 1, 0, -1]]))
    with np.errstate(all="ignore"), pytest.raises(FitError):
        fit_sp(lm, FitConfig(phi_init=1e308))


def test_fit_sp_zero_iterations_returns_init():
    lm = sample_sp(np.array([1.5, -0.4]), 200, seed=4)
    fitted = fit_sp(lm, FitConfig(max_iters=0, phi_init=0.3))
    assert fitted.phi.tolist() == [0.3, 0.3]
    assert fitted.w.shape == (0, 2)
    x = FeatureMatrixBinary(np.ones((200, 3), dtype=np.int8))
    aug = fit_aug(lm, x, [2, 0], FitConfig(max_iters=0, phi_init=0.3))
    assert aug.phi.tolist() == [0.3, 0.3] and not aug.w.any() and aug.selected == (2, 0)


@pytest.mark.parametrize(
    "field, value",
    [("grad_tol", np.nan), ("grad_tol", np.inf), ("grad_tol", 0.0), ("w_l2", np.nan),
     ("w_l2", np.inf), ("w_l2", -1.0), ("phi_init", 0.0), ("phi_init", -0.5),
     ("phi_init", np.nan), ("phi_init", np.inf)],
)
def test_config_rejects_a_tolerance_or_penalty_out_of_range(field, value):
    with pytest.raises(ValueError, match=field):
        FitConfig(**{field: value})


@pytest.mark.parametrize("value", [2.5, np.float64(3.0), True, None, "5"])
def test_config_refuses_a_max_iters_that_is_not_an_integer(value):
    # a fractional cap used to construct and fail inside the fit with a TypeError
    with pytest.raises(ValueError, match="^max_iters: .* is not an integer index$"):
        FitConfig(max_iters=value)
    config = FitConfig(max_iters=np.int64(7))
    assert config.max_iters == 7 and type(config.max_iters) is int


def test_the_fit_configs_extend_one_newton_settings_type():
    # the CLI's defaults and config echoes read these fields in this order
    fields = {cls: [(f.name, f.default) for f in dataclasses.fields(cls)]
              for cls in (NewtonConfig, FitConfig, DiscConfig)}
    assert fields[NewtonConfig] == [("max_iters", 2000), ("grad_tol", 1e-6)]
    assert fields[FitConfig] == fields[NewtonConfig] + [("phi_init", 0.5), ("w_l2", 0.01)]
    assert fields[DiscConfig] == fields[NewtonConfig] + [("l2", 0.01)]


# -- posterior and labels -----------------------------------------------------


def test_posterior_half_at_zero_score():
    assert posterior(GenParams(np.zeros(3)), np.array([1, -1, 0])) == 0.5


def test_posterior_frozen_value_and_oracle():
    params = GenParams(np.array([1.0]))
    got = posterior(params, np.array([1]))
    assert got == pytest.approx(0.8807970779778823, abs=1e-12)
    oracle = brute_force_joint(params.phi).posterior_positive(np.array([1]))
    assert got == pytest.approx(oracle, abs=1e-10)


def test_posterior_symmetric_cancellation():
    params = GenParams(np.array([0.5, 0.5]))
    assert posterior(params, np.array([1, -1])) == 0.5


@given(finite_phis, st.integers(0, 2**31 - 1))
def test_posterior_normalization(phi, seed):
    rng = np.random.default_rng(seed)
    lam = rng.integers(-1, 2, size=phi.size)
    p = posterior(GenParams(phi), lam)
    q = posterior(GenParams(phi), -lam)
    assert p + q == pytest.approx(1.0, abs=1e-12)


def test_posterior_oracle_random_m3():
    rng = np.random.default_rng(123)
    for _ in range(20):
        phi = rng.uniform(-2, 2, size=3)
        lam = rng.integers(-1, 2, size=3)
        closed = posterior(GenParams(phi), lam)
        table = brute_force_joint(phi)
        assert closed == pytest.approx(table.posterior_positive(lam), abs=1e-10)


def test_posterior_monotone_in_phi():
    base = np.array([0.3, -0.2])
    for lam_j, direction in ((1, +1), (-1, -1)):
        lam = np.array([lam_j, 1])
        lo = posterior(GenParams(base), lam)
        hi = posterior(GenParams(base + np.array([0.5, 0.0])), lam)
        assert (hi - lo) * direction > 0
    lam = np.array([0, 1])
    same = posterior(GenParams(base + np.array([0.5, 0.0])), lam)
    assert same == posterior(GenParams(base), lam)


def test_label_sp_values():
    params = GenParams(np.array([1.0]))
    lm = LabelMatrix(np.array([[1, 0, -1]]))
    soft = label_sp(params, lm)
    np.testing.assert_allclose(
        soft.expected, [0.7615941559557649, 0.0, -0.7615941559557649], atol=1e-12
    )


def test_label_sp_consistent_with_posterior():
    params = GenParams(np.array([0.7, -0.3]))
    lm = LabelMatrix(np.array([[1, -1, 0], [1, 1, -1]]))
    soft = label_sp(params, lm)
    for o in range(lm.n):
        p = posterior(params, lm.votes[:, o])
        assert soft.expected[o] == pytest.approx(2.0 * p - 1.0, abs=1e-12)


def test_label_sp_odd_in_votes():
    params = GenParams(np.array([0.9, 0.1]))
    votes = np.array([[1, 0, -1], [1, 1, 0]])
    a = label_sp(params, LabelMatrix(votes))
    b = label_sp(params, LabelMatrix(-votes))
    np.testing.assert_array_equal(a.expected, -b.expected)


# -- augmented model -----------------------------------------------------------


def test_effective_phi_cases():
    params = GenParams(
        phi=np.array([0.5, 0.5]), w=np.array([[0.3, -0.2]]), selected=(0,)
    )
    np.testing.assert_allclose(effective_phi(params, np.array([1])), [0.8, 0.3])
    np.testing.assert_allclose(effective_phi(params, np.array([-1])), [0.2, 0.7])
    zero_w = GenParams(phi=np.array([0.5, 0.5]), w=np.zeros((1, 2)), selected=(0,))
    np.testing.assert_array_equal(effective_phi(zero_w, np.array([1])), [0.5, 0.5])


def test_posterior_and_log_partition_at_feature_row():
    params = GenParams(phi=np.array([0.5, -0.4]), w=np.array([[0.3, 0.9]]), selected=(2,))
    for x in (np.array([1]), np.array([-1])):
        table = brute_force_joint(effective_phi(params, x))
        assert log_partition(params, x) == pytest.approx(table.log_z, abs=1e-12)
        lam = np.array([1, -1])
        assert posterior(params, lam, x) == pytest.approx(table.posterior_positive(lam), abs=1e-12)
    with pytest.raises(ValueError):
        posterior(params, np.array([1, -1]))


def test_aug_loglik_reduces_to_sp_at_zero_w():
    rng = np.random.default_rng(0)
    lm = LabelMatrix(rng.integers(-1, 2, size=(3, 40)))
    x = FeatureMatrixBinary(rng.integers(0, 2, size=(40, 2)) * 2 - 1)
    phi = rng.uniform(-1, 1, 3)
    aug = GenParams(phi=phi, w=np.zeros((2, 3)), selected=(0, 1))
    assert marginal_loglik(aug, lm, x) == marginal_loglik(GenParams(phi), lm)


def test_aug_loglik_constant_column_identity():
    rng = np.random.default_rng(4)
    lm = LabelMatrix(rng.integers(-1, 2, size=(2, 30)))
    x = FeatureMatrixBinary(np.ones((30, 1), dtype=int))
    phi = np.array([0.4, -0.2])
    w = np.array([[0.3, 0.1]])
    aug = GenParams(phi=phi, w=w, selected=(0,))
    shifted = GenParams(phi + w[0])
    assert marginal_loglik(aug, lm, x) == pytest.approx(
        marginal_loglik(shifted, lm), abs=1e-12
    )
    # penalty subtracts (w_l2 / 2) ||w||^2
    assert marginal_loglik(aug, lm, x, w_l2=0.5) == pytest.approx(
        marginal_loglik(shifted, lm) - 0.25 * (w**2).sum(), abs=1e-12
    )


def test_aug_loglik_matches_enumeration():
    rng = np.random.default_rng(17)
    for m, k in ((2, 1), (3, 2), (4, 2)):
        lm = LabelMatrix(rng.integers(-1, 2, size=(m, 25)))
        x = FeatureMatrixBinary(rng.integers(0, 2, size=(25, k)) * 2 - 1)
        params = GenParams(
            phi=rng.uniform(-1.5, 1.5, m),
            w=rng.uniform(-1, 1, (k, m)),
            selected=tuple(range(k)),
        )
        total = 0.0
        for o in range(lm.n):
            phi_eff = effective_phi(params, x.values[o])
            total += np.log(brute_force_joint(phi_eff).marginal_prob(lm.votes[:, o]))
        assert marginal_loglik(params, lm, x) == pytest.approx(
            total / lm.n, abs=1e-10
        )


def test_aug_grad_matches_finite_differences():
    rng = np.random.default_rng(23)
    lm = LabelMatrix(rng.integers(-1, 2, size=(3, 60)))
    x = FeatureMatrixBinary(rng.integers(0, 2, size=(60, 2)) * 2 - 1)
    for _ in range(10):
        phi = rng.uniform(-1.5, 1.5, 3)
        w = rng.uniform(-1, 1, (2, 3))
        params = GenParams(phi=phi, w=w, selected=(0, 1))
        g_phi, g_w = grad_marginal(params, lm, x, w_l2=0.05)

        def f(flat):
            p = GenParams(phi=flat[:3], w=flat[3:].reshape(2, 3), selected=(0, 1))
            return marginal_loglik(p, lm, x, w_l2=0.05)

        numeric = finite_difference(f, np.concatenate([phi, w.ravel()]))
        analytic = np.concatenate([g_phi, g_w.ravel()])
        assert rel_error(analytic, numeric) < 1e-5


def test_fit_aug_finds_planted_flip_direction():
    from weaksup.synth import E2EScenario, gen_e2e

    ds = gen_e2e(E2EScenario(n=4000, flipped_source=1, seed=31))
    fitted = fit_aug(ds.labels, ds.bin_features, [0])
    # on the subset (x=+1) the flipped source is anti-correlated with truth,
    # so its adjustment must be negative
    assert fitted.w[0, 1] < 0


def test_fit_aug_l2_shrinks_uninformative_w():
    rng = np.random.default_rng(5)
    lm = LabelMatrix(rng.integers(-1, 2, size=(3, 500)))
    x = FeatureMatrixBinary(np.ones((500, 1), dtype=int))
    small = fit_aug(lm, x, [0], FitConfig(w_l2=0.01))
    large = fit_aug(lm, x, [0], FitConfig(w_l2=1.0))
    assert np.abs(large.w).sum() < np.abs(small.w).sum()


def test_label_aug_matches_sp_at_zero_w():
    rng = np.random.default_rng(6)
    lm = LabelMatrix(rng.integers(-1, 2, size=(2, 20)))
    x = FeatureMatrixBinary(rng.integers(0, 2, size=(20, 1)) * 2 - 1)
    phi = np.array([0.8, -0.1])
    aug = GenParams(phi=phi, w=np.zeros((1, 2)), selected=(0,))
    a = label_aug(aug, lm, x)
    b = label_sp(GenParams(phi), lm)
    assert a.expected.tobytes() == b.expected.tobytes()


@given(st.sampled_from([5, 8, 20]), st.integers(0, 3), st.integers(1, 400),
       st.integers(0, 2**32 - 1))
def test_labels_on_a_kept_grouping_and_either_vote_layout_agree_bit_for_bit(m, k, n, seed):
    lm, x, params = _random_model(np.random.default_rng(seed), m, k, n)
    fresh = label_aug(params, LabelMatrix(lm.votes), x)  # labels that group the objects afresh
    _rows(params, lm, x)  # leaves its grouping on the labels, as a fit does
    kept = lm._last_grouping
    on_kept = label_aug(params, lm, x)
    assert lm._last_grouping is kept  # the labels read it, grouping nothing again
    assert on_kept.expected.tobytes() == fresh.expected.tobytes()
    # votes given column-major, which LabelMatrix stores in C order, give the same labels
    column_major = label_aug(params, LabelMatrix(np.asfortranarray(lm.votes)), x)
    assert column_major.expected.tobytes() == fresh.expected.tobytes()


@pytest.mark.parametrize("m", [5, 8, 20])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_labels_equal_the_left_to_right_per_object_sum(m, k):
    lm, x, params = _random_model(np.random.default_rng(300 + 10 * m + k), m, k, 2_000)
    labels = {"random, grouped afresh": (params, label_aug(params, lm, x))}
    fitted = fit_aug(lm, x, params.selected)
    labels["fitted, on its fit's grouping"] = (fitted, label_aug(fitted, lm, x))
    for model, got in labels.values():
        want = sequential_labels(model.phi, model.w, lm.votes, x.values[:, list(model.selected)])
        assert got.expected.tobytes() == want.tobytes()


def test_a_fit_and_the_labels_of_its_model_group_the_objects_once(monkeypatch):
    import weaksup.data as data

    lm, x, params = _random_model(np.random.default_rng(7), 5, 2, 1_000)
    refined = []  # the grouping each call of data._refine refines
    refine = data._refine
    monkeypatch.setattr(data, "_refine",
                        lambda groups, *args: refined.append(groups) or refine(groups, *args))
    k0 = fit_sp(lm)
    label_sp(k0, lm)
    assert len(refined) == 1 and lm._last_grouping is None  # the vote compression alone
    fitted = fit_aug(lm, x, params.selected, start=k0)
    assert len(refined) == 2 and refined[1] is lm._compression  # refined from the compression
    bits, groups = lm._last_grouping
    np.testing.assert_array_equal(bits, x.values[:, list(params.selected)] > 0)
    assert not any(arr.flags.writeable for arr in (bits, *groups))
    first = label_aug(fitted, lm, x)
    assert len(refined) == 2  # the labels read the fit's grouping
    fit_aug(lm, x, params.selected[::-1], start=k0)  # other bits of the same shape replace it
    again = label_aug(fitted, lm, x)
    assert len(refined) == 4 and lm._last_grouping[1] is not groups
    assert first.expected.tobytes() == again.expected.tobytes()


def test_label_aug_abstain_and_single_object():
    params = GenParams(phi=np.array([0.2]), w=np.array([[0.6]]), selected=(0,))
    lm = LabelMatrix(np.array([[1, 0]]))
    x = FeatureMatrixBinary(np.array([[1], [1]]))
    soft = label_aug(params, lm, x)
    assert soft.expected[0] == pytest.approx(np.tanh(0.8), abs=1e-12)
    assert soft.expected[1] == 0.0


def test_fit_aug_constant_column_equivalent_to_sp():
    phi_star = np.array([1.0, 0.6])
    lm = sample_sp(phi_star, 5_000, seed=13)
    x = FeatureMatrixBinary(np.ones((lm.n, 1), dtype=int))
    sp = fit_sp(lm)
    aug = fit_aug(lm, x, [0])
    # the (phi, W) split is unidentifiable; compare achieved likelihoods
    assert marginal_loglik(aug, lm, x) == pytest.approx(
        marginal_loglik(sp, lm), abs=1e-3
    )


def test_newton_stops_once_its_step_no_longer_moves_x(monkeypatch):
    # No gradient entry reaches 1e-30, so the fit cannot stop on grad_tol: it
    # stops when the Newton step is below the spacing of x, long before
    # max_iters, and at a point no worse than the default-tolerance fit.
    from weaksup.synth import E2EScenario, gen_e2e

    labels = gen_e2e(E2EScenario(n=5000, seed=1)).labels
    directions = []  # one ascent direction per Newton iteration
    solve = genmodel._ascent_direction
    monkeypatch.setattr(genmodel, "_ascent_direction",
                        lambda grad, hess: directions.append(0) or solve(grad, hess))
    tight = fit_sp(labels, FitConfig(grad_tol=1e-30, max_iters=500))
    monkeypatch.undo()
    assert len(directions) < 20
    assert np.abs(grad_marginal(tight, labels)[0]).max() >= 1e-30
    assert marginal_loglik(tight, labels) >= marginal_loglik(fit_sp(labels), labels)


# -- warm starts -----------------------------------------------------------------


def _counting_newton(monkeypatch) -> list[int]:
    """Replace genmodel.newton by a wrapper that counts each fit's objective
    evaluations, one list entry per fit."""
    counts: list[int] = []
    solve = genmodel.newton

    def counting(value_grad_hess, x0, max_iters, grad_tol):
        counts.append(0)

        def counted(x):
            counts[-1] += 1
            return value_grad_hess(x)

        return solve(counted, x0, max_iters, grad_tol)

    monkeypatch.setattr(genmodel, "newton", counting)
    return counts


def test_warm_fit_aug_takes_few_evaluations_and_reaches_the_cold_optimum(monkeypatch):
    from weaksup.synth import E2EScenario, gen_e2e

    ds = gen_e2e(E2EScenario(n=10_000, m=5, p=20, seed=44))
    labels, x = ds.labels, ds.bin_features
    counts = _counting_newton(monkeypatch)
    previous = fit_sp(labels)
    for selected in ((0,), (0, 8), (0, 8, 7)):
        cold = fit_aug(labels, x, selected)
        warm = fit_aug(labels, x, selected, start=previous)
        assert counts[-1] <= 6
        assert counts[-1] < counts[-2]
        assert np.abs(_flat(warm) - _flat(cold)).max() < 1e-5
        # model K - 1 is model K at W_K = 0, and the line search is monotone
        assert marginal_loglik(warm, labels, x, 0.01) >= marginal_loglik(previous, labels, x, 0.01)
        previous = warm


def test_fit_aug_rejects_a_start_of_another_shape():
    rng = np.random.default_rng(5)
    lm, x, _ = _random_model(rng, 3, 3, 200)
    start = fit_aug(lm, x, [0, 2])
    assert fit_aug(lm, x, [0, 2, 1], start=start).selected == (0, 2, 1)
    for selected in ([2, 0, 1], [0, 1, 2], [0]):
        with pytest.raises(ValueError, match="prefix"):
            fit_aug(lm, x, selected, start=start)
    with pytest.raises(ValueError, match="sources"):
        fit_aug(LabelMatrix(lm.votes[:2]), x, [0, 2, 1], start=start)


def test_warm_fit_aug_from_a_symmetric_saddle_stays_on_it():
    # Two sources vote on every object but one and agree on 70 of 135.  The
    # likelihood is symmetric in the two sources, and fit_sp stops at the
    # symmetric stationary point, a saddle at -2.1155.  With W = 0 that point
    # is stationary for K = 1 too, so the warm fit takes no step: it inherits
    # the saddle.  Leaving it takes a step along the negative curvature,
    # which newton does not make.
    rng = np.random.default_rng(0)
    first = rng.choice([-1, 1], 135)
    agree = rng.permutation(np.arange(135) < 70)
    votes = np.stack([np.append(first, 0), np.append(np.where(agree, first, -first), 0)])
    lm = LabelMatrix(votes)
    x = FeatureMatrixBinary(np.ones((lm.n, 1), dtype=int))
    config = FitConfig(w_l2=0.0)
    sp = fit_sp(lm, config)
    warm = fit_aug(lm, x, [0], config, start=sp)
    assert sp.phi[0] == sp.phi[1] == pytest.approx(0.7734, abs=1e-4)
    assert marginal_loglik(sp, lm) == pytest.approx(-2.1155, abs=1e-4)
    assert warm.phi.tobytes() == sp.phi.tobytes() and not warm.w.any()
    hess = _objective(_rows(warm, lm, x), 0.0)(_flat(warm))[2]
    assert np.linalg.eigvalsh(hess).max() > 0.5  # not a maximum


@pytest.mark.parametrize("kwargs, message", [
    ({"phi": [0.5, np.nan]}, "phi must be a finite vector"),
    ({"phi": [[0.5]]}, "phi must be a finite vector"),
    ({"phi": [0.5], "w": [[np.inf]], "selected": (0,)}, "w must be a finite K x M matrix"),
    ({"phi": [0.5], "w": [0.1], "selected": (0,)}, "w must be a finite K x M matrix"),
    ({"phi": [0.5], "w": [[0.1, 0.2]], "selected": (0,)}, "w row length must match phi length"),
    ({"phi": [0.5], "w": [[0.1]], "selected": (0, 1)},
     "selected must name one feature column per w row"),
    ({"phi": [0.5], "w": [[0.1], [0.2]], "selected": (1, 1)},
     "selected indices must be distinct and non-negative"),
    ({"phi": [0.5], "w": [[0.1]], "selected": (-1,)},
     "selected indices must be distinct and non-negative"),
], ids=["phi nan", "phi matrix", "w inf", "w vector", "w wide", "selected long",
        "selected repeated", "selected negative"])
def test_gen_params_refuse_a_malformed_model(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GenParams(**kwargs)


POINT_EVALUATORS = {
    "effective_phi feature row": (lambda p: effective_phi(p, [0.0]), DataError,
                                  "feature row entries must lie in {-1,+1}"),
    "posterior vote length": (lambda p: posterior(p, [1, 0, 1], [1.0]), ValueError,
                              "vote column length must match parameter count"),
    "posterior vote domain": (lambda p: posterior(p, [2, 0], [1.0]), DataError,
                              "vote entries must lie in {-1,0,+1}"),
    "label_aug without features": (
        lambda p: label_aug(p, LabelMatrix(np.array([[1, -1], [0, 1]])), None), ValueError,
        "a model with selected features needs a feature matrix"),
    "label_aug object count": (
        lambda p: label_aug(p, LabelMatrix(np.array([[1, -1], [0, 1]])),
                            FeatureMatrixBinary(np.ones((3, 1)))), ValueError,
        "labels and features disagree on object count"),
}


@pytest.mark.parametrize("call, error, message", POINT_EVALUATORS.values(),
                         ids=POINT_EVALUATORS.keys())
def test_evaluators_refuse_inputs_outside_the_model(call, error, message):
    params = GenParams(phi=np.array([0.5, 0.2]), w=np.array([[0.3, -0.1]]), selected=(0,))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(params)


def test_label_sp_rejects_selected_features():
    params = GenParams(phi=np.array([0.5, 0.2]), w=np.array([[0.3, -0.1]]), selected=(0,))
    lm = LabelMatrix(np.array([[1, -1], [0, 1]]))
    with pytest.raises(ValueError):
        label_sp(params, lm)


def _round_trip(params: GenParams) -> GenParams:
    return load_params(io.StringIO(json.dumps(params_to_dict(params, FitConfig()))))


def test_params_json_round_trip():
    k0 = GenParams(np.array([0.7, -0.3, 0.1]))
    k2 = GenParams(
        phi=np.array([0.7, -0.3, 0.1]), w=np.array([[0.2, 0.0, -0.5], [0.1, 0.4, 0.3]]),
        selected=(4, 1),
    )
    for params in (k0, k2):
        back = _round_trip(params)
        assert back.phi.tobytes() == params.phi.tobytes()
        assert back.w.shape == params.w.shape and back.w.tobytes() == params.w.tobytes()
        assert back.selected == params.selected


@pytest.mark.parametrize("text, message", [
    ("[]", "model file must hold a JSON object"),
    ('"phi"', "model file must hold a JSON object"),
    ('{"w": []}', "model file lacks 'phi'"),
    ('{"phi": "ab"}', r"'phi' must be numbers of shape \(N\)"),
    ('{"phi": 0.5}', r"'phi' must be numbers of shape \(N\)"),
    ('{"phi": [[0.5], [0.5, 1]]}', r"'phi' must be numbers of shape \(N\)"),
    ('{"phi": [0.5, null]}', r"'phi' must be numbers of shape \(N\)"),
    ('{"phi": [0.5, 0.5], "selected": [null], "w": [[0, 0]]}', "'selected' must be integers"),
    ('{"phi": [0.5, 0.5], "selected": [2.9], "w": [[0, 0]]}', "'selected' must be integers"),
    ('{"phi": [0.5, 0.5], "selected": 3, "w": [[0, 0]]}', "'selected' must be integers"),
    ('{"phi": [0.5, 0.5], "w": [[1, 1]]}', r"'w' must be numbers of shape \(0 x 2\)"),
    ('{"phi": [0.5, 0.5], "selected": [1, 0], "w": [[0, 0]]}',
     r"'w' must be numbers of shape \(2 x 2\)"),
    ('{"phi": [0.5, 0.5], "selected": [1], "w": [[0, 0, 0]]}',
     r"'w' must be numbers of shape \(1 x 2\)"),
    # a JSON true or false beside numbers used to load as 1 or 0
    ('{"phi": [true, 0.5, 0.2]}', r"'phi' must be numbers of shape \(N\)"),
    ('{"phi": [0.5, 0.5, 0.2], "selected": [true, 2], "w": [[0, 0, 0], [0, 0, 0]]}',
     "'selected' must be integers"),
    ('{"phi": [0.5, 0.5], "selected": [0], "w": [[0, false]]}',
     r"'w' must be numbers of shape \(1 x 2\)"),
], ids=["list", "string", "no phi", "phi string", "phi scalar", "phi ragged", "phi null",
        "selected null", "selected float", "selected scalar", "w without selected",
        "w short", "w wide", "phi true", "selected true", "w false"])
def test_load_params_refuses_a_malformed_model_file(text, message):
    with pytest.raises(DataError, match=message):
        load_params(io.StringIO(text))


def test_params_json_k0_literal_file():
    text = '{"config": {}, "phi": [0.8, -0.1], "selected": [], "w": []}'
    params = load_params(io.StringIO(text))
    assert params.k == 0 and params.w.shape == (0, 2)
    lm = LabelMatrix(np.array([[1, -1, 0, 1], [1, 1, -1, 0]]))
    a = label_aug(params, lm, None)
    b = label_sp(params, lm)
    assert a.expected.tobytes() == b.expected.tobytes()


def test_index_errors():
    lm = LabelMatrix(np.array([[1, -1]]))
    x = FeatureMatrixBinary(np.array([[1], [-1]]))
    params = GenParams(phi=np.array([0.5]), w=np.array([[0.1]]), selected=(3,))
    with pytest.raises(IndexError):
        label_aug(params, lm, x)
    with pytest.raises(IndexError):
        fit_aug(lm, x, [5])


@pytest.mark.parametrize("index", [1.7, 0.9, np.float64(1.0), True, np.True_, None])
def test_a_non_integer_index_is_refused_not_truncated(index):
    lm = LabelMatrix(np.array([[1, -1]]))
    x = FeatureMatrixBinary(np.array([[1, -1], [-1, 1]]))
    with pytest.raises(ValueError, match="selected: .* is not an integer index"):
        GenParams(np.zeros(1), np.zeros((1, 1)), selected=(index,))
    with pytest.raises(ValueError, match="selected: .* is not an integer index"):
        fit_aug(lm, x, [index], FitConfig(max_iters=0))


@pytest.mark.parametrize("selected", [(1, 0), [np.int64(1), np.int8(0)], np.array([1, 0])],
                         ids=["ints", "numpy scalars", "numpy array"])
def test_numpy_integer_indices_are_read_as_ints(selected):
    lm = LabelMatrix(np.array([[1, -1]]))
    x = FeatureMatrixBinary(np.array([[1, -1], [-1, 1]]))
    for params in (GenParams(np.zeros(1), np.zeros((2, 1)), selected=selected),
                   fit_aug(lm, x, selected, FitConfig(max_iters=0))):
        assert params.selected == (1, 0) and all(type(i) is int for i in params.selected)

