import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import (full_sweep_cd, lasso_grid_search, naive_kkt_residual, reference_path,
                     soft_threshold)
from weaksup import diffmodel
from weaksup.data import DataError, FeatureMatrixBinary, HardLabelVector, ProbLabelVector
from weaksup.diffmodel import (
    DisagreementVector,
    LassoConfig,
    LassoFit,
    RegPath,
    disagreement,
    kkt_residual,
    lambda_max,
    lasso_fit,
    lasso_objective,
    regularization_path,
    select_features,
)
from weaksup.discmodel import fit_disc, predict
from weaksup.genmodel import fit_sp, label_sp
from weaksup.pipeline import RunConfig
from weaksup.synth import E2EScenario, RecoveryScenario, gen_e2e, gen_recovery


def hadamard8() -> np.ndarray:
    h2 = np.array([[1, 1], [1, -1]])
    return np.kron(np.kron(h2, h2), h2)


def random_pm1(rng, n, p):
    return FeatureMatrixBinary(rng.integers(0, 2, size=(n, p)) * 2 - 1)


# -- disagreement --------------------------------------------------------------


@pytest.mark.parametrize("values, message", [
    (np.zeros((2, 2)), "disagreement must be a vector"),
    (np.array([0.5, 1.5]), r"disagreement entries must lie in \[-1,1\]"),
    (np.array([0.5, np.nan]), r"disagreement entries must lie in \[-1,1\]"),
], ids=["matrix", "above 1", "nan"])
def test_disagreement_vector_refuses_entries_outside_its_domain(values, message):
    with pytest.raises(DataError, match=f"^{message}$"):
        DisagreementVector(values)


def test_disagreement_perfect_agreement_is_minus_one():
    gen = ProbLabelVector(np.array([1.0, -1.0]))
    disc = HardLabelVector(np.array([1, -1]))
    np.testing.assert_array_equal(disagreement(gen, disc).values, [-1.0, -1.0])


def test_disagreement_zero_soft_label():
    gen = ProbLabelVector(np.array([0.0]))
    disc = HardLabelVector(np.array([1]))
    assert disagreement(gen, disc).values[0] == 0.0


def test_disagreement_elementwise_product():
    gen = ProbLabelVector(np.array([0.8, -0.5]))
    disc = HardLabelVector(np.array([-1, -1]))
    np.testing.assert_allclose(disagreement(gen, disc).values, [0.8, -0.5])


def test_disagreement_length_mismatch():
    with pytest.raises(ValueError):
        disagreement(ProbLabelVector(np.zeros(2)), HardLabelVector(np.array([1])))


@given(st.integers(0, 2**31 - 1), st.integers(1, 30))
def test_disagreement_range(seed, n):
    rng = np.random.default_rng(seed)
    gen = ProbLabelVector(rng.uniform(-1, 1, n))
    disc = HardLabelVector(rng.integers(0, 2, n) * 2 - 1)
    vals = disagreement(gen, disc).values
    assert (np.abs(vals) <= 1.0).all()


# -- single-lambda solver --------------------------------------------------------


def test_zero_solution_at_and_above_lambda_max():
    rng = np.random.default_rng(0)
    x = random_pm1(rng, 32, 5)
    y = rng.uniform(-1, 1, 32)
    lmax = lambda_max(x, y)
    for lam in (lmax, 1.5 * lmax):
        fit = lasso_fit(x, y, lam)
        assert fit.coef.tolist() == [0.0] * 5
        assert fit.active_set == ()
        assert fit.kkt_residual == 0.0


def test_single_feature_closed_form():
    rng = np.random.default_rng(1)
    x = random_pm1(rng, 64, 1)
    y = rng.uniform(-1, 1, 64)
    corr = float(x.values[:, 0] @ y) / 64
    for lam in (0.01, 0.1, abs(corr) + 0.05):
        fit = lasso_fit(x, y, lam)
        assert fit.coef[0] == pytest.approx(soft_threshold(corr, lam), abs=1e-12)


def test_orthogonal_design_unit_correlation():
    h = hadamard8()
    x = FeatureMatrixBinary(h[:, 1:5])  # mutually orthogonal +-1 columns
    y = x.values[:, 0].astype(np.float64)
    fit = lasso_fit(x, y, 0.01)
    assert fit.coef[0] == pytest.approx(0.99, abs=1e-10)
    assert fit.coef[1:].tolist() == [0.0, 0.0, 0.0]


def test_matches_grid_search_oracle():
    rng = np.random.default_rng(2)
    for p in (1, 2, 3):
        x = random_pm1(rng, 16, p)
        y = rng.uniform(-1, 1, 16)
        lam = 0.3 * lambda_max(x, y)
        fit = lasso_fit(x, y, lam)
        oracle = lasso_grid_search(x.values, y, lam)
        np.testing.assert_allclose(fit.coef, oracle, atol=5e-3)


def test_kkt_residual_of_converged_fit():
    rng = np.random.default_rng(3)
    x = random_pm1(rng, 50, 8)
    y = rng.uniform(-1, 1, 50)
    tol = 1e-8
    fit = lasso_fit(x, y, 0.05, tol=tol)
    assert fit.kkt_residual <= 10 * tol
    assert kkt_residual(x, y, fit) == fit.kkt_residual


def test_kkt_residual_increases_under_perturbation():
    rng = np.random.default_rng(4)
    x = random_pm1(rng, 50, 4)
    y = rng.uniform(-1, 1, 50)
    fit = lasso_fit(x, y, 0.02)
    assert fit.active_set, "test needs an active coordinate"
    coef = fit.coef.copy()
    coef[fit.active_set[0]] += 0.1
    perturbed = LassoFit(coef=coef, lam=fit.lam, kkt_residual=0.0)
    assert kkt_residual(x, y, perturbed) > fit.kkt_residual


def test_objective_nonincreasing_across_sweeps():
    # the coordinate-descent reference that the path is checked against
    # descends: each of its sweeps lowers the objective or leaves it
    rng = np.random.default_rng(5)
    x = random_pm1(rng, 40, 6)
    y = rng.uniform(-1, 1, 40)
    lam = 0.05
    theta = np.zeros(6)
    gram, corr = diffmodel._stats(*diffmodel._problem(x, y))
    prev = lasso_objective(x, y, theta, lam)
    for _ in range(12):
        full_sweep_cd(gram, corr, lam, theta, 1e-8, max_sweeps=1)
        cur = lasso_objective(x, y, theta, lam)
        assert cur <= prev + 1e-12
        prev = cur
    assert cur < lasso_objective(x, y, np.zeros(6), lam)


PUBLIC_FITS = {
    "lasso_fit": lambda x, y: lasso_fit(x, y, 0.1),
    "regularization_path": lambda x, y: regularization_path(x, y),
    "lambda_max": lambda_max,
    "kkt_residual": lambda x, y: kkt_residual(
        x, y, LassoFit(coef=np.array([0.5]), lam=0.1, kkt_residual=0.0)),
    "lasso_objective": lambda x, y: lasso_objective(x, y, np.array([0.5]), 0.1),
}


@pytest.mark.parametrize("target, error, message",
                         [(np.array([np.nan, 0.0]), DataError, "non-finite target"),
                          (np.array([0.5]), ValueError, "target length")],
                         ids=["nan", "wrong length"])
@pytest.mark.parametrize("call", PUBLIC_FITS.values(), ids=PUBLIC_FITS.keys())
def test_non_finite_target_rejected(call, target, error, message):
    x = FeatureMatrixBinary(np.array([[1], [-1]]))
    with pytest.raises(error, match=message):
        call(x, target)


def _at(coef: np.ndarray, lam: float) -> LassoFit:
    return LassoFit(coef=coef, lam=lam, kkt_residual=0.0)


# the public calls that take a lambda, and the two of them that take a coefficient vector
COEF_CALLS = {
    "lasso_objective": lasso_objective,
    "kkt_residual": lambda x, y, coef, lam: kkt_residual(x, y, _at(coef, lam)),
}
POINT_CALLS = {"lasso_fit": lambda x, y, coef, lam: lasso_fit(x, y, lam)} | COEF_CALLS


@pytest.mark.parametrize("lam", [-0.1, np.nan])
@pytest.mark.parametrize("call", POINT_CALLS.values(), ids=POINT_CALLS.keys())
def test_negative_lambda_rejected(call, lam):
    x = FeatureMatrixBinary(np.array([[1], [-1]]))
    with pytest.raises(ValueError, match="lambda must be non-negative"):
        call(x, np.array([1.0, 0.0]), np.zeros(1), lam)


@pytest.mark.parametrize("length", [4, 6])
@pytest.mark.parametrize("call", COEF_CALLS.values(), ids=COEF_CALLS.keys())
def test_coef_of_the_wrong_length_rejected(call, length):
    x, y, _ = gen_recovery(RecoveryScenario(kappa=0.4, n=200, p=5, seed=0))
    with pytest.raises(ValueError, match="must have one entry per feature column"):
        call(x, y, np.full(length, 0.1), 0.1)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_lasso_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    x, y, _ = gen_recovery(RecoveryScenario(kappa=0.4, n=500, p=30, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="tol"):
            lasso_fit(x, y, 0.01, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            regularization_path(x, y, LassoConfig(grid_size=20, lasso_tol=tol))


@pytest.mark.parametrize("field, value, message", [
    ("grid_size", 1, "^grid_size must be at least 2$"),
    ("grid_size", 10.5, "^grid_size: 10.5 is not an integer index$"),
    ("grid_size", True, "^grid_size: True is not an integer index$"),
    *[("lambda_min_ratio", r, r"^lambda_min_ratio must lie in \(0,1\)$") for r in (0.0, 1.0, np.nan)],
    *[("lasso_tol", t, "^lasso_tol must be finite and positive$")
      for t in (0.0, -1.0, np.nan, np.inf)],
])
@pytest.mark.parametrize("cls", [LassoConfig, RunConfig])
def test_the_lasso_settings_refuse_a_value_out_of_range(cls, field, value, message):
    with pytest.raises(ValueError, match=message):
        cls(**{field: value})
    config = cls(grid_size=np.int64(5))
    assert config.grid_size == 5 and type(config.grid_size) is int


def test_the_run_config_extends_one_lasso_settings_type():
    # the CLI's defaults and config echoes, and the benchmark, read these fields
    fields = {cls: [(f.name, f.default) for f in dataclasses.fields(cls)]
              for cls in (LassoConfig, RunConfig)}
    assert fields[LassoConfig] == [("grid_size", 100), ("lambda_min_ratio", 1e-3),
                                   ("lasso_tol", 1e-8)]
    assert fields[RunConfig][:3] == fields[LassoConfig]
    assert [name for name, _ in fields[RunConfig][3:]] == [
        "k_max", "patience", "dev_metric", "gen", "disc", "standardize"]


# -- regularization path ---------------------------------------------------------


def test_path_starts_all_zero_and_satisfies_kkt():
    rng = np.random.default_rng(6)
    x = random_pm1(rng, 60, 10)
    y = rng.uniform(-1, 1, 60)
    path = regularization_path(x, y, LassoConfig(grid_size=30, lasso_tol=1e-8))
    assert path.fits[0].active_set == ()
    assert path.lambdas[0] == lambda_max(x, y)
    for fit in path.fits:
        assert fit.kkt_residual <= 1e-7
    assert all(a > b for a, b in zip(path.lambdas, path.lambdas[1:]))


def test_path_rejects_zero_target():
    x = FeatureMatrixBinary(np.array([[1], [-1]]))
    with pytest.raises(DataError, match="no disagreement signal"):
        regularization_path(x, np.zeros(2))


def test_path_warns_when_a_fit_misses_its_tolerance():
    rng = np.random.default_rng(6)
    x = random_pm1(rng, 60, 10)
    y = rng.uniform(-1, 1, 60)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = regularization_path(x, y, LassoConfig(grid_size=30))
    # no fit meets a KKT tolerance below rounding, even with the active block
    # formed again from the Gram matrix; each fit that misses warns, and the
    # path is still the exact one
    with pytest.warns(RuntimeWarning, match=r"at lambda=.* tol=1e-30$") as caught:
        missed = regularization_path(x, y, LassoConfig(grid_size=30, lasso_tol=1e-30))
    assert 0 < len(caught) < len(path.fits)
    assert missed.entry_order == path.entry_order
    np.testing.assert_allclose([f.coef for f in missed.fits], [f.coef for f in path.fits],
                               rtol=0, atol=1e-12)
    with pytest.warns(RuntimeWarning, match=r"at lambda=0.01 .* tol=1e-30$"):
        lasso_fit(x, y, 0.01, tol=1e-30)


def test_path_column_permutation_equivariance():
    rng = np.random.default_rng(7)
    x = random_pm1(rng, 80, 6)
    y = rng.uniform(-1, 1, 80)
    path = regularization_path(x, y, LassoConfig(grid_size=40))
    perm = rng.permutation(6)
    x_perm = FeatureMatrixBinary(x.values[:, perm])
    path_perm = regularization_path(x_perm, y, LassoConfig(grid_size=40))
    # position i of the permuted matrix is original column perm[i]
    assert [int(perm[j]) for j in path_perm.entry_order] == list(path.entry_order)


def test_select_features_prefix_and_truncation():
    rng = np.random.default_rng(8)
    x = random_pm1(rng, 60, 5)
    y = rng.uniform(-1, 1, 60)
    path = regularization_path(x, y, LassoConfig(grid_size=40))
    assert select_features(path, 2)[0] == select_features(path, 1)[0]
    assert select_features(path, 1) == list(path.entry_order[:1])
    with pytest.warns(UserWarning, match="activated"):
        everything = select_features(path, 100)
    assert everything == list(path.entry_order)
    with pytest.raises(ValueError):
        select_features(path, 0)
    with pytest.raises(ValueError, match="^empty regularization path$"):
        select_features(RegPath(lambdas=(), entry_order=(), fits=(), entry_lambdas=()), 1)


@pytest.mark.parametrize("value", [1.5, np.float64(2.0), True], ids=["1.5", "float64", "True"])
@pytest.mark.parametrize("name", ["k", "stop_after"])
def test_path_counts_refuse_a_value_that_is_not_an_integer(name, value):
    # read as an int, True would select one entry and stop_after = 1.5 would
    # stop the path once 2 features had entered
    rng = np.random.default_rng(8)
    x = random_pm1(rng, 60, 5)
    y = rng.uniform(-1, 1, 60)

    def entries(count):
        if name == "k":
            return select_features(regularization_path(x, y, LassoConfig(grid_size=40)), count)
        return list(regularization_path(x, y, LassoConfig(grid_size=40),
                                        stop_after=count).entry_order)

    with pytest.raises(ValueError, match=f"^{name}: .* is not an integer index$"):
        entries(value)
    assert entries(np.int64(2)) == entries(2)


@pytest.mark.parametrize("count", [0, -1])
def test_path_stop_after_refuses_a_count_below_one(count):
    rng = np.random.default_rng(8)
    x = random_pm1(rng, 60, 5)
    y = rng.uniform(-1, 1, 60)
    with pytest.raises(ValueError, match="^stop_after must be at least 1$"):
        regularization_path(x, y, stop_after=count)


@pytest.mark.parametrize("lambdas, entry_order, entry_lambdas, message", [
    ((0.5, 0.5), (), (), "lambda grid must be strictly decreasing"),
    ((0.5, 0.7), (), (), "lambda grid must be strictly decreasing"),
    ((0.5, 0.2), (1, 1), (0.5, 0.2), "entry_order must not repeat features"),
    ((0.5, 0.2), (1, 0), (0.5,), "entry_lambdas must parallel entry_order"),
], ids=["flat grid", "rising grid", "repeated entry", "short entry lambdas"])
def test_reg_path_refuses_an_inconsistent_path(lambdas, entry_order, entry_lambdas, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RegPath(lambdas=lambdas, entry_order=entry_order, fits=(), entry_lambdas=entry_lambdas)


def test_lasso_fit_reads_its_active_set_off_coef():
    assert [f.name for f in dataclasses.fields(LassoFit)] == ["coef", "lam", "kkt_residual"]
    fit = LassoFit(coef=[0.0, 0.5, 0.0, -1e-300], lam=0.1, kkt_residual=0.0)
    assert fit.active_set == (1, 3) and all(type(j) is int for j in fit.active_set)
    assert fit.coef.dtype == np.float64 and not fit.coef.flags.writeable


def test_first_entry_is_max_correlation_feature():
    rng = np.random.default_rng(9)
    x = random_pm1(rng, 100, 7)
    y = rng.uniform(-1, 1, 100)
    corr = np.abs(x.values.astype(float).T @ y) / 100
    path = regularization_path(x, y, LassoConfig(grid_size=40))
    assert path.entry_order[0] == int(np.argmax(corr))


def test_path_entry_order_finds_planted_support():
    from weaksup.synth import RecoveryScenario, gen_recovery

    hits = 0
    for seed in range(10):
        x, target, support = gen_recovery(
            RecoveryScenario(kappa=0.6, n=5000, p=100, s_size=3, seed=seed)
        )
        path = regularization_path(x, target, stop_after=3)
        if set(select_features(path, 3)) == set(support):
            hits += 1
    assert hits >= 9


@given(st.integers(0, 2**31 - 1))
def test_lambda_above_max_gives_zero(seed):
    rng = np.random.default_rng(seed)
    x = random_pm1(rng, 12, 4)
    y = rng.uniform(-1, 1, 12)
    fit = lasso_fit(x, y, lambda_max(x, y) * (1 + rng.random()))
    assert fit.coef.tolist() == [0.0] * 4


# -- the exact path against the full-sweep reference ------------------------------


def _design_cases():
    rng = np.random.default_rng(11)
    for p in (1, 2, 5, 30):
        yield f"random P={p}", random_pm1(rng, 200, p), rng.uniform(-1, 1, 200)
    h = np.kron(hadamard8(), np.array([[1, 1], [1, -1]]))  # 16 x 16, orthogonal columns
    x = FeatureMatrixBinary(np.tile(h[:, 1:], (4, 1)))
    yield "Hadamard, tied correlations", x, x.values[:, :3].sum(axis=1) / 4.0
    base = rng.integers(0, 2, size=(300, 6)) * 2 - 1
    x = FeatureMatrixBinary(np.column_stack([base, base[:, 1], -base[:, 2]]))
    y = np.clip(0.4 * base[:, 1] - 0.3 * base[:, 2] + rng.normal(0, 0.3, 300), -1, 1)
    yield ALIASED, x, y
    ds = gen_e2e(E2EScenario(n=3000, m=5, p=20, seed=44))
    yg = label_sp(fit_sp(ds.labels), ds.labels)
    yd = predict(fit_disc(ds.real_features, yg), ds.real_features)
    yield "planted scenario", ds.bin_features, disagreement(yg, yd).values
    for p in (100, 300):
        x, target, _ = gen_recovery(RecoveryScenario(kappa=0.4, n=1000, p=p, seed=p))
        yield f"gen_recovery P={p}", x, target.values


ALIASED = "duplicated and negated column"  # columns 6 and 7 copy column 1 and negate column 2
DESIGNS = list(_design_cases())
UNIQUE = [case for case in DESIGNS if case[0] != ALIASED]


def _assert_matches_the_reference(x, y, stop_after=None):
    tol = 1e-8
    path = regularization_path(x, y, LassoConfig(lasso_tol=tol), stop_after=stop_after)
    lambdas, entry_order, entry_lambdas, coefs = reference_path(x.values, y, tol=tol,
                                                                stop_after=stop_after)
    assert path.lambdas == tuple(lambdas)
    assert path.entry_order == tuple(entry_order)
    assert path.entry_lambdas == tuple(entry_lambdas)
    np.testing.assert_allclose(np.array([f.coef for f in path.fits]), coefs, rtol=0, atol=1e-6)
    assert max(f.kkt_residual for f in path.fits) <= 10 * tol


@pytest.mark.parametrize("stop_after", [None, 3])
@pytest.mark.parametrize("case", range(len(UNIQUE)), ids=[name for name, _, _ in UNIQUE])
def test_path_matches_the_full_sweep_reference(case, stop_after):
    _, x, y = UNIQUE[case]
    _assert_matches_the_reference(x, y, stop_after)


@given(st.integers(0, 2**31 - 1), st.integers(20, 200), st.integers(1, 30))
def test_path_matches_the_reference_on_random_designs(seed, n, p):
    rng = np.random.default_rng(seed)
    x = random_pm1(rng, n, p)
    y = rng.uniform(-1, 1, n)
    gram = x.values.T.astype(np.int64) @ x.values
    assume(not (np.abs(gram[np.triu_indices(p, 1)]) == n).any())  # no column repeats another
    # past P = N / 2 the active block nears singular at the grid's end, where
    # coordinate descent stalls short of its tolerance (at N = 20, P = 25 the
    # reference's KKT residual is 1e-6 after 10,000 sweeps, the path's 1e-15)
    assume(2 * p <= n)
    _assert_matches_the_reference(x, y)


@pytest.mark.parametrize("stop_after", [None, 3])
def test_a_copied_or_negated_column_never_enters(stop_after):
    # With copies the LASSO solution is not unique (Tibshirani 2013, EJS 7):
    # the reference splits the weight of column 1 with its copy 6 and of
    # column 2 with its negation 7, the path gives it all to the lower index.
    # The objective is unique, and the entry order is the reference's with
    # each copy read as the column it copies.
    x, y = next((x, y) for name, x, y in DESIGNS if name == ALIASED)
    tol = 1e-8
    path = regularization_path(x, y, LassoConfig(lasso_tol=tol), stop_after=stop_after)
    lambdas, entry_order, _, coefs = reference_path(x.values, y, tol=tol)
    assert path.lambdas == tuple(lambdas[: len(path.fits)])
    for fit, reference in zip(path.fits, coefs):
        assert abs(lasso_objective(x, y, fit.coef, fit.lam)
                   - lasso_objective(x, y, reference, fit.lam)) <= 1e-10
        assert fit.coef[6] == fit.coef[7] == 0.0
    assert max(f.kkt_residual for f in path.fits) <= 10 * tol
    classes = list(dict.fromkeys({6: 1, 7: 2}.get(j, j) for j in entry_order))
    assert list(path.entry_order) == classes[: 3 if stop_after else None]


def test_a_copy_of_a_support_column_is_not_selected():
    # column 25 of this draw equals support column 21; it used to enter the
    # path third, with a coefficient of 6.1e-16
    x, target, support = gen_recovery(RecoveryScenario(kappa=0.9, n=64, p=30, seed=1013))
    assert (x.values[:, 25] == x.values[:, 21]).all() and 21 in support
    path = regularization_path(x, target, stop_after=3)
    assert 25 not in select_features(path, 3)
    assert 25 not in regularization_path(x, target).entry_order


@pytest.mark.parametrize("p", [20, 60, 300])
def test_path_kkt_residual_is_the_n_object_check(p):
    x, target, _ = gen_recovery(RecoveryScenario(kappa=0.3, n=2000, p=p, seed=p))
    for stop_after in (None, 3):
        fits = regularization_path(x, target, stop_after=stop_after).fits
        for fit in fits:
            assert abs(fit.kkt_residual - kkt_residual(x, target, fit)) <= 1e-12
            assert abs(fit.kkt_residual - naive_kkt_residual(x.values, target.values, fit.coef,
                                                             fit.lam)) <= 1e-12
        if p == 300 and stop_after is None:
            # the full grid has more columns ever active than grid points, so
            # its KKT vectors take the direct grouping X^T (y - X_U Theta_U^T)
            used = np.array([f.coef for f in fits]).any(axis=0).sum()
            assert used * p > len(fits) * (used + p)
    # one fit with several active columns
    fit = lasso_fit(x, target, fits[-1].lam)
    assert len(fit.active_set) >= 3
    assert abs(fit.kkt_residual - naive_kkt_residual(x.values, target.values, fit.coef,
                                                     fit.lam)) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_path_is_exact_with_more_columns_than_objects(seed):
    # near the end of the grid the active columns span all N = 10 dimensions,
    # so each inactive column lies in their span and waits for one to leave
    rng = np.random.default_rng(seed)
    x = random_pm1(rng, 10, 21)
    y = rng.uniform(-1, 1, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        path = regularization_path(x, y)
    assert max(f.kkt_residual for f in path.fits) <= 1e-7
    assert max(len(f.active_set) for f in path.fits) == 10
