"""Acceptance suite.

One test per criterion; each prints a single `ACCEPTANCE <n>: PASS/FAIL` line
(run with `pytest -s` to see the lines for passing tests too).

Criterion 6 measures the generative-label gain against what the data allows,
not against a fixed number of points.  Enumerating all (vote, subset, class)
states exactly, the Bayes-optimal labeler given votes and the subset
indicator scores 0.88464 on the default scenario versus 0.87375 for the
labeler given votes only, which is a weighted vote at the marginal accuracy
and so the best single-accuracy labeler: a 1.089-point ceiling on any
implementation's gain, which a fixed target such as 2 points would put out of
reach of a correct pipeline.  So on each seed the fitted gain (final labels
over K = 0 labels) must come within a tolerance of the true-parameter oracle
gain on that seed's own objects (tests/oracles.py), alongside best_k >= 1 and
the indicator being selected.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    bayes_ceiling,
    bayes_labels,
    brute_force_joint,
    finite_difference,
    lasso_grid_search,
    rel_error,
)
from weaksup.cli import main
from weaksup.data import Dataset, FeatureMatrixBinary, LabelMatrix
from weaksup.diffmodel import lambda_max, lasso_fit
from weaksup.discmodel import DiscParams, grad_noise_aware_loss, noise_aware_loss
from weaksup.genmodel import (
    GenParams,
    effective_phi,
    grad_marginal,
    label_sp,
    log_partition,
    marginal_loglik,
)
from weaksup.metrics import f1_from_precision_recall, soft_label_accuracy
from weaksup.pipeline import RunConfig, run
from weaksup.synth import (
    E2EScenario,
    PlantedSubset,
    RecoveryScenario,
    derive_trial_seed,
    gen_e2e,
    gen_recovery,
    run_recovery_experiment,
)
from weaksup.theory import check_conditions

JOBS = 2


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {text}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _se_diff(a: float, b: float, trials: int) -> float:
    return math.sqrt((a * (1 - a) + b * (1 - b)) / trials)


def test_criterion_1_recovery_curves():
    kappas = [0.2, 0.4, 0.6]
    ns = [250, 500, 1000, 2000, 5000]
    trials = 100
    with criterion(1, "recovery curves: monotone in N, ordered in kappa, "
                      "kappa=0.6 reaches 0.95 at N=5000"):
        cells = run_recovery_experiment(
            kappas, ns, trials=trials, p=100, s_size=3, seed=20_240_001, jobs=JOBS
        )
        table = {(c.kappa, c.n): c.recovered_fraction for c in cells}
        for kappa in kappas:
            curve = [table[(kappa, n)] for n in ns]
            for lo, hi in zip(curve, curve[1:]):
                assert hi >= lo - 2.0 * _se_diff(lo, hi, trials), (kappa, curve)
        for n in ns:
            by_kappa = [table[(k, n)] for k in kappas]
            for weak, strong in zip(by_kappa, by_kappa[1:]):
                assert strong >= weak - 2.0 * _se_diff(weak, strong, trials), (n, by_kappa)
        assert table[(0.6, 5000)] >= 0.95, table


def test_criterion_2_recommended_lambda_recovers_support():
    with criterion(2, "lasso at the recommended lambda recovers the support "
                      "in >= 80% of 50 trials at N >= the empirical bound"):
        pilot = RecoveryScenario(kappa=0.6, n=20_000, p=25, s_size=3, seed=7, rho=0.6)
        x, target, support = gen_recovery(pilot)
        report = check_conditions(x, support, target, delta=0.2)
        assert report.all_satisfied and report.n_bound is not None
        cells = run_recovery_experiment(
            [0.6], [report.n_bound], trials=50, p=25, s_size=3, seed=20_240_002,
            rho=0.6, lambda_policy="theorem", delta=0.2, jobs=JOBS,
        )
        cell = cells[0]
        assert cell.conditions_ok_fraction >= 0.9, cell
        assert cell.recovered_fraction >= 0.80, cell


def test_criterion_3_oracle_equivalence():
    with criterion(3, "factorized partition/likelihood match enumeration "
                      "within 1e-10 (SP and augmented, 100 draws each)"):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            phi = rng.uniform(-2.5, 2.5, m)
            table = brute_force_joint(phi)
            assert abs(log_partition(GenParams(phi)) - table.log_z) < 1e-10
            lm = LabelMatrix(rng.integers(-1, 2, size=(m, 12)))
            expect = np.mean(
                [np.log(table.marginal_prob(lm.votes[:, o])) for o in range(lm.n)]
            )
            assert abs(marginal_loglik(GenParams(phi), lm) - expect) < 1e-10
        for _ in range(100):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 3))
            params = GenParams(
                phi=rng.uniform(-2, 2, m),
                w=rng.uniform(-1.5, 1.5, (k, m)),
                selected=tuple(range(k)),
            )
            lm = LabelMatrix(rng.integers(-1, 2, size=(m, 10)))
            x = FeatureMatrixBinary(rng.integers(0, 2, size=(10, k)) * 2 - 1)
            expect = np.mean(
                [
                    np.log(
                        brute_force_joint(
                            effective_phi(params, x.values[o])
                        ).marginal_prob(lm.votes[:, o])
                    )
                    for o in range(lm.n)
                ]
            )
            assert abs(marginal_loglik(params, lm, x) - expect) < 1e-10


def test_criterion_4_gradient_checks():
    with criterion(4, "analytic gradients match central finite differences "
                      "within rel. error 1e-5 (10 points per model)"):
        rng = np.random.default_rng(44)
        lm = LabelMatrix(rng.integers(-1, 2, size=(3, 80)))
        for _ in range(10):
            phi = rng.uniform(-2, 2, 3)
            numeric = finite_difference(
                lambda p: marginal_loglik(GenParams(p), lm), phi
            )
            assert rel_error(grad_marginal(GenParams(phi), lm)[0], numeric) < 1e-5

        x = FeatureMatrixBinary(rng.integers(0, 2, size=(80, 2)) * 2 - 1)
        for _ in range(10):
            phi = rng.uniform(-1.5, 1.5, 3)
            w = rng.uniform(-1, 1, (2, 3))
            params = GenParams(phi=phi, w=w, selected=(0, 1))
            g_phi, g_w = grad_marginal(params, lm, x, w_l2=0.03)

            def f_aug(flat):
                p = GenParams(phi=flat[:3], w=flat[3:].reshape(2, 3), selected=(0, 1))
                return marginal_loglik(p, lm, x, w_l2=0.03)

            numeric = finite_difference(f_aug, np.concatenate([phi, w.ravel()]))
            assert rel_error(np.concatenate([g_phi, g_w.ravel()]), numeric) < 1e-5

        from weaksup.data import FeatureMatrixReal, ProbLabelVector

        v = FeatureMatrixReal(rng.standard_normal((60, 4)))
        soft = ProbLabelVector(rng.uniform(-1, 1, 60))
        for _ in range(10):
            theta = rng.standard_normal(4)
            bias = float(rng.standard_normal())
            g_t, g_b = grad_noise_aware_loss(
                DiscParams(theta=theta, bias=bias), v, soft, l2=0.02
            )

            def f_disc(flat):
                return noise_aware_loss(
                    DiscParams(theta=flat[:4], bias=flat[4]), v, soft, l2=0.02
                )

            numeric = finite_difference(f_disc, np.concatenate([theta, [bias]]))
            assert rel_error(np.concatenate([g_t, [g_b]]), numeric) < 1e-5


def test_criterion_5_lasso_optimality():
    with criterion(5, "KKT residual <= 10*tol, grid-search oracle match "
                      "within 5e-3 for P <= 3, exact zeros at lambda_max"):
        rng = np.random.default_rng(55)
        tol = 1e-8
        for _ in range(20):
            n, p = int(rng.integers(20, 200)), int(rng.integers(2, 30))
            x = FeatureMatrixBinary(rng.integers(0, 2, size=(n, p)) * 2 - 1)
            y = rng.uniform(-1, 1, n)
            lmax = lambda_max(x, y)
            fit = lasso_fit(x, y, float(rng.uniform(0.05, 0.8)) * lmax, tol=tol)
            assert fit.kkt_residual <= 10 * tol
            zero = lasso_fit(x, y, lmax * float(rng.uniform(1.0, 2.0)), tol=tol)
            assert not zero.coef.any()
        for p in (1, 2, 3):
            for trial in range(3):
                x = FeatureMatrixBinary(rng.integers(0, 2, size=(16, p)) * 2 - 1)
                y = rng.uniform(-1, 1, 16)
                lam = 0.25 * lambda_max(x, y)
                fit = lasso_fit(x, y, lam, tol=tol)
                oracle = lasso_grid_search(x.values, y, lam)
                np.testing.assert_allclose(fit.coef, oracle, atol=5e-3)


# Fitted gain minus oracle gain spans -0.34 to +0.43 points over the 20
# seeds, and the smallest oracle gain is 0.59 points: a run that gains
# nothing over its K = 0 labels fails every seed.
GAIN_TOL = 0.005


def _e2e_seed_outcome(seed: int) -> tuple[bool, bool, float, float]:
    scenario = E2EScenario(seed=seed)
    ds = gen_e2e(scenario)
    blind = Dataset(
        labels=ds.labels, bin_features=ds.bin_features, real_features=ds.real_features
    )
    report = run(blind, RunConfig(k_max=6))
    acc0 = soft_label_accuracy(label_sp(report.iterations[0].gen_params, ds.labels), ds.truth)
    acc_best = soft_label_accuracy(report.final_labels, ds.truth)
    with_indicator, votes_only = bayes_labels(scenario, ds)
    oracle_gain = float(
        np.mean(with_indicator == ds.truth.labels) - np.mean(votes_only == ds.truth.labels)
    )
    return report.best_k >= 1, 0 in report.best.selected, acc_best - acc0, oracle_gain


def test_criterion_6_end_to_end_gain():
    with criterion(6, "planted-subset run: best_k >= 1, indicator selected, "
                      "gen-label gain >= true-parameter Bayes gain on the "
                      f"same objects - {100 * GAIN_TOL:g} points, in >= 90% "
                      "of 20 seeds"):
        with_indicator, votes_only = bayes_ceiling(E2EScenario())
        ceiling = 100 * (with_indicator - votes_only)
        seeds = [derive_trial_seed(20_240_006, 0, t) for t in range(20)]
        with ProcessPoolExecutor(max_workers=JOBS) as pool:
            outcomes = list(pool.map(_e2e_seed_outcome, seeds))
        ok = sum(
            best_k_ok and indicator_ok and gain >= oracle_gain - GAIN_TOL
            for best_k_ok, indicator_ok, gain, oracle_gain in outcomes
        )
        pairs = [(round(100 * g, 2), round(100 * og, 2)) for *_, g, og in outcomes]
        print(f"\n  criterion 6 detail: clause pass {ok}/20; "
              f"best_k>=1 {sum(o[0] for o in outcomes)}/20; "
              f"indicator {sum(o[1] for o in outcomes)}/20; "
              f"population ceiling {ceiling:.3f} pts; "
              f"(gain, oracle gain) pts={pairs}")
        assert ok >= 18, (
            f"only {ok}/20 seeds came within {100 * GAIN_TOL} points of the "
            f"true-parameter oracle gain; (gain, oracle gain) per seed "
            f"(points): {pairs}; population ceiling {ceiling:.3f} points"
        )


def test_criterion_7_f1_spot_checks():
    with criterion(7, "F1 from printed precision/recall pairs matches the "
                      "reported values within 0.01"):
        assert f1_from_precision_recall(85.98, 41.43) == pytest.approx(55.92, abs=0.01)
        assert f1_from_precision_recall(81.13, 42.09) == pytest.approx(55.42, abs=0.01)


def _agreement_curve(seed: int) -> list[float]:
    sc = E2EScenario(
        n=5000, m=5, p=12, q_disc=5, seed=seed, flipped_source=0,
        extra_subsets=(PlantedSubset(source=2, accuracy=0.25, fraction=0.3),),
    )
    ds = gen_e2e(sc)
    blind = Dataset(
        labels=ds.labels, bin_features=ds.bin_features, real_features=ds.real_features
    )
    report = run(blind, RunConfig(k_max=6, patience=7))
    return [r.agreement for r in report.iterations]


def test_criterion_8_agreement_rises_then_falls():
    with criterion(8, "two planted subsets: agreement non-decreasing through "
                      "K=2 and below its maximum at some K in 3..6, majority "
                      "of 20 seeds"):
        seeds = [derive_trial_seed(20_240_008, 0, t) for t in range(20)]
        with ProcessPoolExecutor(max_workers=JOBS) as pool:
            curves = list(pool.map(_agreement_curve, seeds))
        good = 0
        for ag in curves:
            mono = len(ag) >= 3 and ag[0] <= ag[1] <= ag[2]
            drop = len(ag) >= 4 and min(ag[3:7]) < max(ag)
            good += mono and drop
        assert good > 10, f"only {good}/20 seeds show the rise-then-fall shape"


def test_criterion_9_byte_identical_reruns(tmp_path):
    with criterion(9, "every subcommand run twice with identical flags and "
                      "seed produces byte-identical outputs"):
        base = tmp_path / "data"
        assert main([
            "simulate-e2e", "--trials", "1", "--n", "250", "--p", "6",
            "--q-disc", "3", "--k-max", "1", "--seed", "5",
            "--out", str(tmp_path / "seed_e2e.csv"), "--dump-data", str(base),
            "--max-iters", "150", "--disc-max-iters", "150",
        ]) == 0
        labels = str(base / "labels.csv")
        xbin = str(base / "features_bin.csv")
        vreal = str(base / "features_real.csv")
        truth = str(base / "truth.csv")

        rng = np.random.default_rng(1)
        with open(tmp_path / "dis.csv", "w") as f:
            f.write("object_id,disagreement\n")
            for i in range(250):
                f.write(f"{i},{rng.uniform(-1, 1)!r}\n")

        d = tmp_path / "out"
        d.mkdir()
        model = str(d / "model.json")
        soft = str(d / "soft.csv")
        # each entry: (argv run twice verbatim, files it writes)
        plan = [
            (["fit-gen", "--labels", labels, "--max-iters", "150",
              "--seed", "3", "--out", model], [model]),
            (["label", "--labels", labels, "--model", model, "--out", soft], [soft]),
            (["train-disc", "--real-features", vreal, "--soft-labels", soft,
              "--disc-max-iters", "150", "--seed", "3",
              "--out", str(d / "disc.json")], [str(d / "disc.json")]),
            (["diff", "--bin-features", xbin, "--gen-labels", soft,
              "--disc-labels", truth, "--k", "2",
              "--out", str(d / "diff.json")], [str(d / "diff.json")]),
            (["run", "--labels", labels, "--bin-features", xbin,
              "--real-features", vreal, "--truth", truth, "--k-max", "1",
              "--max-iters", "150", "--disc-max-iters", "150", "--seed", "3",
              "--out-dir", str(d / "run")],
             [str(d / "run" / "run_report.json"), str(d / "run" / "labels_out.csv")]),
            (["check-conditions", "--features", xbin, "--disagreement",
              str(tmp_path / "dis.csv"), "--support", "0",
              "--out", str(d / "cond.json")], [str(d / "cond.json")]),
            (["simulate-recovery", "--kappa", "0.5", "--n", "120", "--trials",
              "3", "--p", "8", "--seed", "3", "--jobs", "2",
              "--out", str(d / "rec.csv")], [str(d / "rec.csv")]),
            (["simulate-e2e", "--trials", "1", "--n", "200", "--p", "6",
              "--q-disc", "3", "--k-max", "1", "--seed", "3", "--max-iters",
              "120", "--disc-max-iters", "120",
              "--out", str(d / "e2e.csv")], [str(d / "e2e.csv")]),
            (["metrics", "--pred", truth, "--truth", truth,
              "--out", str(d / "scores.json")], [str(d / "scores.json")]),
        ]
        for argv, outputs in plan:
            assert main(argv) == 0, argv
            first = {path: Path(path).read_bytes() for path in outputs}
            assert main(argv) == 0, argv
            for path, before in first.items():
                again = Path(path).read_bytes()
                assert again == before, f"rerun changed {path} for {argv[0]}"
