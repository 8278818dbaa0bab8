import numpy as np
import pytest

from weaksup.data import (DataError, Dataset, FeatureMatrixBinary, FeatureMatrixReal,
                          HardLabelVector, LabelMatrix, validate)
from weaksup.discmodel import DiscConfig, fit_disc
from weaksup.genmodel import (FitConfig, FitError, fit_aug, fit_sp, label_aug, label_sp,
                              marginal_loglik)
from weaksup.pipeline import RunConfig, run, stopping_rule
from weaksup.synth import E2EScenario, gen_e2e


def test_stopping_rule_examples():
    assert stopping_rule([0.7, 0.75, 0.74], patience=1) is True
    assert stopping_rule([0.7, 0.75], patience=1) is False
    assert stopping_rule([0.7, 0.69, 0.71], patience=2) is False
    assert stopping_rule([0.7], patience=1) is False
    assert stopping_rule([0.7, 0.65, 0.64], patience=2) is True
    with pytest.raises(ValueError):
        stopping_rule([], patience=1)
    with pytest.raises(ValueError, match="^patience must be at least 1$"):
        stopping_rule([0.7, 0.6], patience=0)
    with pytest.raises(ValueError, match="^patience: 1.5 is not an integer index$"):
        stopping_rule([0.7, 0.6], patience=1.5)  # used to raise TypeError from range


def test_run_stops_when_the_models_agree_everywhere():
    # Three sources that never vote give expected label 0 on every object,
    # so the disagreement is 0 everywhere and the path has no signal: the
    # path's DataError ends the run after K = 0.
    rng = np.random.default_rng(0)
    dataset = Dataset(
        labels=LabelMatrix(np.zeros((3, 200), dtype=np.int8)),
        bin_features=FeatureMatrixBinary(rng.choice([-1, 1], (200, 6))),
        real_features=FeatureMatrixReal(rng.standard_normal((200, 2))),
    )
    report = run(dataset, RunConfig(k_max=3))
    assert report.stop_reason == "path_exhausted"
    assert len(report.iterations) == 1 and report.best_k == 0
    assert not report.final_labels.expected.any()


def _small_scenario(seed=0, **kw):
    defaults = dict(m=4, n=1500, p=8, q_disc=3, seed=seed)
    defaults.update(kw)
    return E2EScenario(**defaults)


def _fast_config(**kw):
    defaults = dict(
        gen=FitConfig(max_iters=400),
        disc=DiscConfig(max_iters=400),
        grid_size=50,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_run_k_max_zero_matches_sp_baseline():
    ds = gen_e2e(_small_scenario(seed=1))
    report = run(ds, _fast_config(k_max=0))
    assert len(report.iterations) == 1
    assert report.best_k == 0
    assert report.stop_reason == "k_max"
    baseline = label_sp(fit_sp(ds.labels, FitConfig(max_iters=400)), ds.labels)
    assert report.final_labels.expected.tobytes() == baseline.expected.tobytes()


def test_run_is_deterministic():
    ds = gen_e2e(_small_scenario(seed=2))
    cfg = _fast_config(k_max=3)
    a = run(ds, cfg)
    b = run(ds, cfg)
    assert a.best_k == b.best_k
    assert a.stop_reason == b.stop_reason
    assert a.final_labels.expected.tobytes() == b.final_labels.expected.tobytes()
    for ra, rb in zip(a.iterations, b.iterations):
        assert ra.agreement == rb.agreement
        assert ra.dev_metric == rb.dev_metric
        assert ra.selected == rb.selected
        assert ra.gen_params.phi.tobytes() == rb.gen_params.phi.tobytes()
        assert ra.disc_params.theta.tobytes() == rb.disc_params.theta.tobytes()
        assert ra.disc_params.bias == rb.disc_params.bias


def test_run_selected_is_prefix_across_iterations():
    ds = gen_e2e(_small_scenario(seed=3))
    report = run(ds, _fast_config(k_max=4, patience=4))
    for prev, cur in zip(report.iterations[1:], report.iterations[2:]):
        assert cur.selected[: len(prev.selected)] == prev.selected


@pytest.mark.parametrize("seed, grad_tol", [(3, 1e-6), (12, 1e-6), (27, 1e-2)])
def test_run_penalized_loglik_never_falls_from_k_minus_1_to_k(seed, grad_tol):
    # each K's generative fit starts from the K - 1 optimum padded with a
    # zero W row, which scores the same, and its line search is monotone;
    # from phi_init, the K = 2 fit of seed 27 stops 1.3e-4 below K = 1
    ds = gen_e2e(_small_scenario(seed=seed))
    cfg = _fast_config(k_max=4, patience=4, gen=FitConfig(max_iters=400, grad_tol=grad_tol))
    report = run(ds, cfg)
    values = [
        marginal_loglik(r.gen_params, ds.labels, ds.bin_features, cfg.gen.w_l2)
        for r in report.iterations
    ]
    assert len(values) == 5
    assert all(later >= earlier for earlier, later in zip(values, values[1:]))


def _recording(monkeypatch, module, names):
    """Record the positional and keyword arguments of each call of
    module.<name>, one list per name."""
    calls = {name: [] for name in names}
    for name in names:
        def wrapper(*args, _fit=getattr(module, name), _into=calls[name], **kwargs):
            _into.append((args, kwargs))
            return _fit(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_run_starts_each_k_from_the_previous_fits(monkeypatch):
    import weaksup.pipeline as pipeline

    ds = gen_e2e(_small_scenario(seed=3))
    calls = _recording(monkeypatch, pipeline, ["fit_aug", "fit_disc"])
    report = run(ds, _fast_config(k_max=3, patience=3))
    assert len(calls["fit_aug"]) == 3 and len(calls["fit_disc"]) == 4
    assert calls["fit_disc"][0][1] == {"start": None}
    for k, record in enumerate(report.iterations[1:], start=1):
        args, kwargs = calls["fit_aug"][k - 1]
        assert args[:3] == (ds.labels, ds.bin_features, record.selected)
        assert kwargs["start"] is report.iterations[k - 1].gen_params
        assert calls["fit_disc"][k][1]["start"] is report.iterations[k - 1].disc_params


@pytest.mark.parametrize("seed, best_k", [(0, 0), (2, 1), (9, 2)])
def test_run_labels_each_k_once_and_returns_the_best_ks_labels(seed, best_k, monkeypatch):
    import weaksup.genmodel as genmodel

    ds = gen_e2e(_small_scenario(seed=seed))
    calls = _recording(monkeypatch, genmodel, ["_label"])
    report = run(ds, _fast_config(k_max=2, patience=2))
    assert report.best_k == best_k  # the seeds cover a best K of 0 and above
    assert len(calls["_label"]) == len(report.iterations) == 3
    monkeypatch.undo()
    for record in report.iterations:
        again = label_aug(record.gen_params, ds.labels, ds.bin_features)
        assert record.gen_labels.expected.tobytes() == again.expected.tobytes()
    assert report.final_labels is report.best.gen_labels


def test_run_keeps_nothing_after_it_returns_or_raises(monkeypatch):
    import weaksup.discmodel as discmodel
    import weaksup.genmodel as genmodel
    import weaksup.pipeline as pipeline

    def scopes():  # None where no reuse scope is open
        return genmodel._kept._slot.get(), discmodel._kept._slot.get()

    ds = gen_e2e(_small_scenario(seed=5))
    report = run(ds, _fast_config(k_max=2, patience=2))
    assert scopes() == (None, None)
    assert discmodel._kept.get(ds.real_features) is None

    seen = []

    def failing_path(*args, **kwargs):
        seen.append(scopes())
        raise RuntimeError("path failed")

    monkeypatch.setattr(pipeline, "regularization_path", failing_path)
    with pytest.raises(RuntimeError, match="path failed"):
        run(ds, _fast_config(k_max=2, patience=2))
    assert None not in seen[0]  # open while the run ran
    assert scopes() == (None, None)


def test_two_runs_on_one_dataset_make_the_same_label_free_disc_evaluations(monkeypatch):
    import weaksup.discmodel as discmodel
    import weaksup.genmodel as genmodel

    calls = _recording(monkeypatch, discmodel, ["_label_free"])
    rows = _recording(monkeypatch, genmodel, ["_rows"])["_rows"]
    ds = gen_e2e(_small_scenario(seed=6))
    cfg = _fast_config(k_max=3, patience=3)
    report = run(ds, cfg)
    assert len(rows) == len(report.iterations)  # one per fit: the labels read its rows
    first = len(calls["_label_free"])
    run(ds, cfg)
    assert len(calls["_label_free"]) - first == first
    # outside a run, the same fits evaluate each warm fit's start once more
    start = None
    for record in report.iterations:
        start = fit_disc(ds.real_features, record.gen_labels, cfg.disc, start=start)
        assert start.theta.tobytes() == record.disc_params.theta.tobytes()
    assert len(calls["_label_free"]) - 2 * first == first + len(report.iterations) - 1


def test_each_run_forms_one_vote_compression_that_every_k_refines(monkeypatch):
    import weaksup.data as data
    import weaksup.genmodel as genmodel

    # data._refine forms a compression; genmodel._refine refines one for K >= 1
    compress = _recording(monkeypatch, data, ["_refine"])["_refine"]
    refine = _recording(monkeypatch, genmodel, ["_refine"])["_refine"]
    ds = gen_e2e(_small_scenario(seed=6))
    cfg = _fast_config(k_max=3, patience=3)
    report = run(ds, cfg)
    assert len(report.iterations) == 4 and len(compress) == 1
    assert len(refine) == 3 and all(args[0] is ds.labels._compression for args, _ in refine)
    run(ds, cfg)  # the compression stays with the labels: the next run forms none
    assert len(compress) == 1 and len(refine) == 6
    assert refine[-1][0][0] is ds.labels._compression
    same_votes = Dataset(LabelMatrix(ds.labels.votes), ds.bin_features, ds.real_features)
    run(same_votes, cfg)  # new labels of the same votes form their own
    assert len(compress) == 2 and refine[-1][0][0] is same_votes.labels._compression


def test_a_failed_fit_names_its_model_and_k(monkeypatch):
    import weaksup.pipeline as pipeline

    ds = gen_e2e(_small_scenario(seed=6))
    huge = Dataset(labels=ds.labels, bin_features=ds.bin_features,
                   real_features=FeatureMatrixReal(ds.real_features.values * 1e200))
    with np.errstate(all="ignore"), pytest.raises(FitError, match=(
        r"^discriminative fit at K = 0: non-finite objective or derivative at iteration 0$"
    )):
        run(huge, _fast_config(k_max=3))

    def fit_aug_failing_at_k2(labels, features, selected, *args, **kwargs):
        if len(selected) == 2:
            raise FitError("non-finite objective or derivative at iteration 4")
        return fit_aug(labels, features, selected, *args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_aug", fit_aug_failing_at_k2)
    with pytest.raises(FitError, match=(
        r"^generative fit at K = 2: non-finite objective or derivative at iteration 4$"
    )):
        run(ds, _fast_config(k_max=3, patience=3))


def test_run_best_k_maximizes_tracked_metric():
    ds = gen_e2e(_small_scenario(seed=4))
    report = run(ds, _fast_config(k_max=3, patience=3))
    metrics = [
        r.dev_metric if report.tracked_metric != "agreement" else r.agreement
        for r in report.iterations
    ]
    assert metrics[report.best_k] == max(metrics)
    assert report.best_k == int(np.argmax(metrics))


def test_run_finds_planted_subset_and_improves():
    # run blind (agreement-tracked); the held-back truth only scores the labels
    from weaksup.metrics import soft_label_accuracy

    ds = gen_e2e(E2EScenario(seed=23))
    blind = Dataset(
        labels=ds.labels, bin_features=ds.bin_features, real_features=ds.real_features
    )
    report = run(blind, RunConfig(k_max=4))
    assert report.best_k >= 1
    assert 0 in report.best.selected
    k0_labels = label_sp(report.iterations[0].gen_params, ds.labels)
    acc0 = soft_label_accuracy(k0_labels, ds.truth)
    acc_best = soft_label_accuracy(report.final_labels, ds.truth)
    assert acc_best > acc0


def test_run_path_exhausted_with_tiny_feature_set():
    ds = gen_e2e(_small_scenario(seed=5, p=2))
    report = run(ds, _fast_config(k_max=10, patience=10))
    assert report.stop_reason == "path_exhausted"
    assert [r.selected for r in report.iterations] == [(), (0,), (0, 1)]


def test_run_without_truth_tracks_agreement():
    ds = gen_e2e(_small_scenario(seed=6))
    blind = Dataset(
        labels=ds.labels, bin_features=ds.bin_features, real_features=ds.real_features
    )
    report = run(blind, _fast_config(k_max=2))
    assert report.tracked_metric == "agreement"
    assert all(r.dev_metric is None for r in report.iterations)


def test_run_requires_real_features():
    ds = gen_e2e(_small_scenario(seed=7))
    with pytest.raises(DataError, match="real-valued features"):
        run(Dataset(labels=ds.labels, bin_features=ds.bin_features), RunConfig())


def test_run_requires_binary_features_past_k0(monkeypatch):
    import weaksup.pipeline as pipeline

    ds = gen_e2e(_small_scenario(seed=7))
    no_bin = Dataset(labels=ds.labels, real_features=ds.real_features)
    calls = _recording(monkeypatch, pipeline, ["fit_sp"])
    with pytest.raises(DataError, match="^run requires binary features for the difference model$"):
        run(no_bin, RunConfig(k_max=1))
    assert calls["fit_sp"] == []
    assert run(no_bin, _fast_config(k_max=0)).best_k == 0


def test_run_refuses_a_truth_of_the_wrong_length_before_any_fit(monkeypatch):
    import weaksup.pipeline as pipeline

    ds = gen_e2e(_small_scenario(seed=7))
    short = Dataset(
        labels=ds.labels,
        bin_features=ds.bin_features,
        real_features=ds.real_features,
        truth=HardLabelVector(ds.truth.labels[:-1]),
    )
    calls = _recording(monkeypatch, pipeline, ["fit_sp"])
    with pytest.raises(DataError, match="^object counts disagree: .*'truth': 1499"):
        run(short, RunConfig())
    assert calls["fit_sp"] == []


def test_run_reports_the_validation_it_checked():
    ds = gen_e2e(_small_scenario(seed=7))
    report = run(ds, _fast_config(k_max=1))
    assert report.validation == validate(ds)
    assert report.validation.ok


@pytest.mark.parametrize("field", ["k_max", "patience", "grid_size"])
@pytest.mark.parametrize("value", [2.5, np.float64(3.0), True, None])
def test_run_config_refuses_a_count_that_is_not_an_integer(field, value):
    # a fractional count used to construct: patience failed after the K = 0
    # fits with a TypeError, grid_size inside np.geomspace
    with pytest.raises(ValueError, match=f"^{field}: .* is not an integer index$"):
        RunConfig(**{field: value})
    config = RunConfig(**{field: np.int64(3)})
    assert getattr(config, field) == 3 and type(getattr(config, field)) is int


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(k_max=-1)
    with pytest.raises(ValueError):
        RunConfig(patience=0)
    with pytest.raises(ValueError):
        RunConfig(dev_metric="auc")


@pytest.mark.parametrize(
    "field, value, message",
    [("lasso_tol", 0.0, "tol must be finite and positive"),
     ("grid_size", 1, "grid_size must be at least 2"),
     ("lambda_min_ratio", 1.0, r"lambda_min_ratio must lie in \(0,1\)")],
)
def test_run_config_rejects_a_lasso_setting_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**{field: value})


def test_run_with_standardized_features():
    ds = gen_e2e(_small_scenario(seed=8))
    # shift one feature column so standardization actually changes the data
    shifted = ds.real_features.values.copy()
    shifted[:, 0] = shifted[:, 0] * 3.0 + 10.0
    from weaksup.data import FeatureMatrixReal

    moved = Dataset(
        labels=ds.labels,
        bin_features=ds.bin_features,
        real_features=FeatureMatrixReal(shifted),
        truth=ds.truth,
    )
    cfg = _fast_config(k_max=2, standardize=True)
    a = run(moved, cfg)
    b = run(moved, cfg)
    assert a.final_labels.expected.tobytes() == b.final_labels.expected.tobytes()
    assert a.iterations[0].dev_metric > 0.5


def test_run_regresses_the_disagreement_of_k0(monkeypatch):
    import weaksup.pipeline as pipeline

    ds = gen_e2e(_small_scenario(seed=9))
    calls = _recording(monkeypatch, pipeline, ["disagreement"])
    report = run(ds, _fast_config(k_max=3, patience=3))
    assert len(report.iterations) == 4
    [(args, _)] = calls["disagreement"]
    k0 = report.iterations[0]
    assert args[0] is k0.gen_labels and args[1] is k0.disc_labels


def test_run_tracks_f1_when_requested():
    ds = gen_e2e(_small_scenario(seed=10))
    report = run(ds, _fast_config(k_max=1, dev_metric="f1"))
    assert report.tracked_metric == "f1"
    assert all(0.0 <= r.dev_metric <= 1.0 for r in report.iterations)


def _same_report(a, b) -> bool:
    same = (a.best_k, a.stop_reason, a.tracked_metric) == (b.best_k, b.stop_reason, b.tracked_metric)
    same &= a.final_labels.expected.tobytes() == b.final_labels.expected.tobytes()
    same &= len(a.iterations) == len(b.iterations)
    for ra, rb in zip(a.iterations, b.iterations):
        same &= (ra.k, ra.selected, ra.agreement, ra.dev_metric) == (
            rb.k, rb.selected, rb.agreement, rb.dev_metric)
        same &= ra.gen_params.phi.tobytes() == rb.gen_params.phi.tobytes()
        same &= ra.gen_params.w.tobytes() == rb.gen_params.w.tobytes()
        same &= ra.disc_params.theta.tobytes() == rb.disc_params.theta.tobytes()
        same &= ra.disc_params.bias == rb.disc_params.bias
    return same


def test_path_stopped_at_k_max_matches_the_full_grid(monkeypatch):
    import weaksup.pipeline as pipeline

    ds = gen_e2e(_small_scenario(seed=11))
    cfg = _fast_config(k_max=3, patience=3)
    full_grid = pipeline.regularization_path
    stopped, full = [], []

    def recording(into, drop_stop):
        def path(*args, **kwargs):
            if drop_stop:
                assert kwargs.pop("stop_after") == cfg.k_max
            into.append(full_grid(*args, **kwargs))
            return into[-1]
        return path

    monkeypatch.setattr(pipeline, "regularization_path", recording(stopped, False))
    a = run(ds, cfg)
    monkeypatch.setattr(pipeline, "regularization_path", recording(full, True))
    b = run(ds, cfg)
    [s], [f] = stopped, full
    assert s.entry_order[: cfg.k_max] == f.entry_order[: cfg.k_max]
    assert len(s.lambdas) < len(f.lambdas) == cfg.grid_size
    assert _same_report(a, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_run_is_equivariant_under_object_and_source_order_and_column_signs(seed):
    ds = gen_e2e(E2EScenario(n=10_000, p=20, seed=seed))
    votes, xbin, real = ds.labels.votes, ds.bin_features.values, ds.real_features.values
    cfg = RunConfig(k_max=3, patience=3)

    def blind(votes, xbin, real):
        data = Dataset(LabelMatrix(votes), FeatureMatrixBinary(xbin), FeatureMatrixReal(real))
        report = run(data, cfg)
        assert (report.best_k, report.stop_reason) == (base.best_k, base.stop_reason)
        assert [r.selected for r in report.iterations] == [r.selected for r in base.iterations]
        return zip(base.iterations, report.iterations)

    base = run(Dataset(LabelMatrix(votes), FeatureMatrixBinary(xbin), FeatureMatrixReal(real)), cfg)
    rng = np.random.default_rng(seed)
    objects, sources = rng.permutation(ds.n), rng.permutation(votes.shape[0])
    for ref, rec in blind(votes[:, objects], xbin[objects], real[objects]):
        assert np.abs(rec.gen_labels.expected - ref.gen_labels.expected[objects]).max() <= 1e-12
    for ref, rec in blind(votes[sources], xbin, real):
        assert np.abs(rec.gen_params.phi - ref.gen_params.phi[sources]).max() <= 1e-12
    signs = np.where(np.arange(xbin.shape[1]) % 2 == 0, -1, 1).astype(np.int8)
    for ref, rec in blind(votes, xbin * signs, real):
        assert np.abs(rec.gen_labels.expected - ref.gen_labels.expected).max() <= 1e-12
