"""Command-line front end.

Subcommands: fit-gen, label, train-disc, diff, run, check-conditions,
simulate-recovery, simulate-e2e, metrics.  Structured reports are JSON with
a fully resolved config echo; tabular and label outputs are CSV.  Every
subcommand is deterministic given its flags: all randomness flows from
--seed (default: the SOCRATIC_SEED environment variable, else 0).

Option precedence: command-line flags > --config JSON file > environment
seed > built-in defaults.  Exit codes: 0 success, 1 usage error, 2 data or
validation error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, data, diffmodel, discmodel, genmodel, metrics, pipeline, synth, theory
from .data import DataError
from .genmodel import FitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

_DEFAULTS = {
    "encoding": "pm1",
    "learning_rate": 0.1,
    "max_iters": 2000,
    "grad_tol": 1e-6,
    "phi_init": 0.5,
    "w_l2": 0.01,
    "disc_learning_rate": 0.5,
    "disc_max_iters": 2000,
    "disc_grad_tol": 1e-6,
    "disc_l2": 0.01,
    "standardize": False,
    "grid_size": 100,
    "lambda_min_ratio": 1e-3,
    "lasso_tol": 1e-8,
    "k": 3,
    "k_max": 10,
    "patience": 1,
    "dev_metric": "accuracy",
    "refresh_disagreement": False,
    "delta": 0.05,
    "positive_class": 1,
    "trials": 100,
    "jobs": 1,
    "lambda_policy": "path",
    "p": 100,
    "s_size": 3,
    "rho": None,
    "n": 10000,
    "m": 5,
    "subset_fraction": 0.3,
    "base_accuracy": 0.8,
    "flipped_source": 0,
    "flipped_accuracy": 0.3,
    "coverage": 0.7,
    "q_disc": 5,
}


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _plain(obj):
    """Recursively convert numpy scalars/arrays for JSON emission."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(obj: dict, out: str | None) -> None:
    text = json.dumps(_plain(obj), indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _ints(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(v) for v in value]
    try:
        return [int(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise DataError(f"expected comma-separated integers, got {value!r}") from None


def _floats(value) -> list[float]:
    if isinstance(value, (list, tuple)):
        return [float(v) for v in value]
    try:
        return [float(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise DataError(f"expected comma-separated numbers, got {value!r}") from None


def _resolve(args: argparse.Namespace) -> None:
    """Merge --config file values and built-in defaults into unset flags."""
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path) as f:
            try:
                file_cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise DataError(f"config file {cfg_path}: {e}") from None
        if not isinstance(file_cfg, dict):
            raise DataError(f"config file {cfg_path}: expected a JSON object")
        for key, value in file_cfg.items():
            dest = key.replace("-", "_")
            if hasattr(args, dest) and getattr(args, dest) is None:
                setattr(args, dest, value)
    for dest, value in _DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    if hasattr(args, "seed") and args.seed is None:
        env = os.environ.get("SOCRATIC_SEED")
        args.seed = int(env) if env else 0


def _gen_config(args) -> genmodel.FitConfig:
    return genmodel.FitConfig(
        learning_rate=float(args.learning_rate),
        max_iters=int(args.max_iters),
        grad_tol=float(args.grad_tol),
        phi_init=float(args.phi_init),
        w_l2=float(args.w_l2),
    )


def _disc_config(args) -> discmodel.DiscConfig:
    return discmodel.DiscConfig(
        learning_rate=float(args.disc_learning_rate),
        max_iters=int(args.disc_max_iters),
        grad_tol=float(args.disc_grad_tol),
        l2=float(args.disc_l2),
    )


def _echo(args, keys: list[str]) -> dict:
    return {k: _plain(getattr(args, k)) for k in keys}


def _load(path: str, loader, *extra):
    with open(path) as f:
        return loader(f, *extra)


def _run_config(args) -> pipeline.RunConfig:
    return pipeline.RunConfig(
        k_max=int(args.k_max),
        patience=int(args.patience),
        dev_metric=args.dev_metric,
        gen=_gen_config(args),
        disc=_disc_config(args),
        grid_size=int(args.grid_size),
        lambda_min_ratio=float(args.lambda_min_ratio),
        lasso_tol=float(args.lasso_tol),
        standardize=bool(args.standardize),
        refresh_disagreement=bool(getattr(args, "refresh_disagreement", False)),
    )


# -- subcommands --------------------------------------------------------------


def cmd_fit_gen(args) -> int:
    labels = _load(args.labels, data.load_label_matrix)
    cfg = _gen_config(args)
    if args.selected:
        if not args.bin_features:
            raise DataError("--selected requires --bin-features")
        features = _load(args.bin_features, data.load_binary_features, args.encoding)
        data.check_ids(labels=labels.object_ids, bin_features=features.object_ids)
        params = genmodel.fit_aug(labels, features, _ints(args.selected), cfg)
    else:
        params = genmodel.fit_sp(labels, cfg)
    body = genmodel.params_to_dict(params, cfg)
    body["config"].update(
        _echo(args, ["labels", "bin_features", "selected", "encoding", "seed"])
    )
    _write_json(body, args.out)
    return EXIT_OK


def cmd_label(args) -> int:
    labels = _load(args.labels, data.load_label_matrix)
    with open(args.model) as f:
        params = genmodel.load_params(f)
    features = None
    if params.k:
        if not args.bin_features:
            raise DataError("augmented model requires --bin-features")
        features = _load(args.bin_features, data.load_binary_features, args.encoding)
        data.check_ids(labels=labels.object_ids, bin_features=features.object_ids)
    soft = genmodel.label_aug(params, labels, features)
    with open(args.out, "w") as f:
        data.save_soft_labels(soft, labels.object_ids, f)
    return EXIT_OK


def cmd_train_disc(args) -> int:
    features = _load(args.real_features, data.load_real_features)
    soft, soft_ids = _load(args.soft_labels, data.load_soft_labels)
    data.check_ids(real_features=features.object_ids, soft_labels=soft_ids)
    cfg = _disc_config(args)
    preprocess = {"standardize": bool(args.standardize)}
    if args.standardize:
        features, mean, scale = pipeline.standardize(features)
        preprocess |= {"mean": mean.tolist(), "scale": scale.tolist()}
    params = discmodel.fit_disc(features, soft, cfg)
    body = discmodel.params_to_dict(params, cfg)
    body["preprocess"] = preprocess
    body["config"].update(_echo(args, ["real_features", "soft_labels", "standardize", "seed"]))
    _write_json(body, args.out)
    return EXIT_OK


def cmd_diff(args) -> int:
    features = _load(args.bin_features, data.load_binary_features, args.encoding)
    gen_labels, gen_ids = _load(args.gen_labels, data.load_soft_labels)
    disc_labels, disc_ids = _load(args.disc_labels, data.load_hard_labels, "disc labels")
    data.check_ids(bin_features=features.object_ids, gen_labels=gen_ids, disc_labels=disc_ids)
    target = diffmodel.disagreement(gen_labels, disc_labels)
    path = diffmodel.regularization_path(
        features,
        target,
        grid_size=int(args.grid_size),
        lambda_min_ratio=float(args.lambda_min_ratio),
        tol=float(args.lasso_tol),
    )
    selected = diffmodel.select_features(path, int(args.k))
    k_eff = len(selected)
    sel_idx = path.lambdas.index(path.entry_lambdas[k_eff - 1]) if k_eff else 0
    sel_fit = path.fits[sel_idx]
    names = features.column_names
    body = {
        "lambda_max": path.lambdas[0],
        "entry_order": list(path.entry_order),
        "selected": selected,
        "selected_names": [names[j] for j in selected] if names else None,
        "coef_at_selection": [float(sel_fit.coef[j]) for j in selected],
        "lambda_at_selection": sel_fit.lam,
        "kkt_residual": sel_fit.kkt_residual,
        # canonical objective is (1/2N)||X theta - y||^2 + lambda ||theta||_1;
        # multiply lambda by this factor for the unnormalized form
        "lambda_unnormalized_factor": 2 * features.n,
        "config": _echo(
            args,
            ["bin_features", "gen_labels", "disc_labels", "encoding", "k",
             "grid_size", "lambda_min_ratio", "lasso_tol"],
        ),
    }
    _write_json(body, args.out)
    return EXIT_OK


def cmd_run(args) -> int:
    labels = _load(args.labels, data.load_label_matrix)
    bin_features = (
        _load(args.bin_features, data.load_binary_features, args.encoding)
        if args.bin_features
        else None
    )
    real_features = _load(args.real_features, data.load_real_features) if args.real_features else None
    truth, truth_ids = _load(args.truth, data.load_hard_labels) if args.truth else (None, None)
    data.check_ids(labels=labels.object_ids, truth=truth_ids)
    dataset = data.Dataset(
        labels=labels, bin_features=bin_features, real_features=real_features, truth=truth
    )
    report_v = data.validate(dataset)
    if not report_v.ok:
        fatal = next(f for f in report_v.findings if f.level == "fatal")
        raise DataError(fatal.message)

    report = pipeline.run(dataset, _run_config(args))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = bin_features.column_names if bin_features is not None else None
    iterations = []
    for rec in report.iterations:
        gp = rec.gen_params
        iterations.append(
            {
                "k": rec.k,
                "selected": list(rec.selected),
                "selected_names": [names[j] for j in rec.selected] if names else None,
                "agreement": rec.agreement,
                "dev_metric": rec.dev_metric,
                "phi": gp.phi.tolist(),
                "w": gp.w.tolist(),
                "disc_theta": rec.disc_params.theta.tolist(),
                "disc_bias": rec.disc_params.bias,
            }
        )
    body = {
        "best_k": report.best_k,
        "stop_reason": report.stop_reason,
        "tracked_metric": report.tracked_metric,
        "iterations": iterations,
        "validation": report_v.to_dict(),
        "config": _echo(
            args,
            ["labels", "bin_features", "real_features", "truth", "encoding",
             "k_max", "patience", "dev_metric", "learning_rate", "max_iters",
             "grad_tol", "phi_init", "w_l2", "disc_learning_rate",
             "disc_max_iters", "disc_grad_tol", "disc_l2", "standardize",
             "grid_size", "lambda_min_ratio", "lasso_tol",
             "refresh_disagreement", "seed", "out_dir"],
        ),
    }
    _write_json(body, str(out_dir / "run_report.json"))
    with open(out_dir / "labels_out.csv", "w") as f:
        data.save_soft_labels(report.final_labels, labels.object_ids, f)
    return EXIT_OK


def cmd_check_conditions(args) -> int:
    features = _load(args.features, data.load_binary_features, args.encoding)
    vec, vec_ids = _load(args.disagreement, data.load_vector, "disagreement", "disagreement")
    data.check_ids(features=features.object_ids, disagreement=vec_ids)
    target = diffmodel.DisagreementVector(vec)
    support = _ints(args.support)
    if not support:
        raise DataError("--support must name at least one feature column")
    if min(support) < 0 or max(support) >= features.p:
        raise DataError(f"support indices out of range for {features.p} columns")
    rest = sorted(set(range(features.p)) - set(support))
    report = theory.check_conditions(
        features.values[:, support].astype(np.float64),
        features.values[:, rest].astype(np.float64),
        target,
        delta=float(args.delta),
    )
    body = report.to_dict()
    body["support"] = support
    body["lambda_unnormalized_factor"] = 2 * features.n
    body["config"] = _echo(args, ["features", "disagreement", "support", "encoding", "delta"])
    _write_json(body, args.out)
    return EXIT_OK


def cmd_simulate_recovery(args) -> int:
    kappas = _floats(args.kappa)
    ns = _ints(args.n_grid)
    cells = synth.run_recovery_experiment(
        kappas,
        ns,
        trials=int(args.trials),
        p=int(args.p),
        s_size=int(args.s_size),
        seed=int(args.seed),
        rho=None if args.rho is None else float(args.rho),
        lambda_policy=args.lambda_policy,
        delta=float(args.delta),
        grid_size=int(args.grid_size),
        lambda_min_ratio=float(args.lambda_min_ratio),
        tol=float(args.lasso_tol),
        jobs=int(args.jobs),
    )
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["kappa", "n", "trials", "recovered_fraction"])
        for cell in cells:
            w.writerow([repr(cell.kappa), cell.n, cell.trials, repr(cell.recovered_fraction)])
    return EXIT_OK


def _e2e_trial(payload) -> dict:
    trial, scenario, cfg = payload
    dataset = synth.gen_e2e(scenario)
    report = pipeline.run(dataset, cfg)
    k0 = report.iterations[0]
    best = report.best
    gen0 = genmodel.label_sp(k0.gen_params, dataset.labels)
    return {
        "trial": trial,
        "seed": scenario.seed,
        "best_k": report.best_k,
        "stop_reason": report.stop_reason,
        "gen_acc_k0": metrics.soft_label_accuracy(gen0, dataset.truth),
        "gen_acc_best": metrics.soft_label_accuracy(report.final_labels, dataset.truth),
        "disc_metric_k0": k0.dev_metric,
        "disc_metric_best": best.dev_metric,
        "indicator_selected": int(0 in best.selected),
    }


def cmd_simulate_e2e(args) -> int:
    cfg = _run_config(args)
    work = []
    for t in range(int(args.trials)):
        scenario = synth.E2EScenario(
            m=int(args.m),
            n=int(args.n),
            p=int(args.p),
            subset_fraction=float(args.subset_fraction),
            base_accuracies=float(args.base_accuracy),
            flipped_source=int(args.flipped_source),
            flipped_accuracy=float(args.flipped_accuracy),
            coverages=float(args.coverage),
            q_disc=int(args.q_disc),
            seed=synth.derive_trial_seed(int(args.seed), 0, t),
        )
        work.append((t, scenario, cfg))
    if args.dump_data:
        _dump_dataset(synth.gen_e2e(work[0][1]), Path(args.dump_data))
    if int(args.jobs) > 1:
        with ProcessPoolExecutor(max_workers=int(args.jobs)) as pool:
            rows = list(pool.map(_e2e_trial, work))
    else:
        rows = [_e2e_trial(w) for w in work]
    with open(args.out, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(rows[0].keys())
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    return EXIT_OK


def _dump_dataset(dataset: data.Dataset, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "labels.csv", "w") as f:
        data.save_label_matrix(dataset.labels, f)
    with open(out_dir / "features_bin.csv", "w") as f:
        data.save_binary_features(dataset.bin_features, f)
    with open(out_dir / "features_real.csv", "w") as f:
        data.save_real_features(dataset.real_features, f)
    with open(out_dir / "truth.csv", "w") as f:
        data.save_hard_labels(dataset.truth, None, f)


def cmd_metrics(args) -> int:
    pred, pred_ids = _load(args.pred, data.load_hard_labels, "predictions")
    truth, truth_ids = _load(args.truth, data.load_hard_labels)
    data.check_ids(pred=pred_ids, truth=truth_ids)
    scores = metrics.score(pred, truth, positive_class=int(args.positive_class))
    body = scores.to_dict()
    body["config"] = _echo(args, ["pred", "truth", "positive_class"])
    _write_json(body, args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="JSON file of option values (flags override)")
    p.add_argument("--seed", type=int, help="random seed (default: $SOCRATIC_SEED or 0)")


def _add_gen_opts(p: _Parser) -> None:
    p.add_argument("--learning-rate", type=float, help="generative fit step size")
    p.add_argument("--max-iters", type=int, help="generative fit iteration cap")
    p.add_argument("--grad-tol", type=float, help="generative fit gradient tolerance")
    p.add_argument("--phi-init", type=float, help="initial per-source weight")
    p.add_argument("--w-l2", type=float, help="L2 penalty on subset adjustments")


def _add_disc_opts(p: _Parser) -> None:
    p.add_argument("--disc-learning-rate", type=float)
    p.add_argument("--disc-max-iters", type=int)
    p.add_argument("--disc-grad-tol", type=float)
    p.add_argument("--disc-l2", type=float)
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                   help="z-score real features on the training data")


def _add_lasso_opts(p: _Parser) -> None:
    p.add_argument("--grid-size", type=int, help="lambda grid points")
    p.add_argument("--lambda-min-ratio", type=float, help="smallest lambda / lambda_max")
    p.add_argument("--lasso-tol", type=float, help="coordinate-descent tolerance")


def build_parser() -> _Parser:
    parser = _Parser(prog="weaksup", description=__doc__)
    parser.add_argument("--version", action="version", version=f"weaksup {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit-gen", help="fit a generative label model")
    p.add_argument("--labels", required=True)
    p.add_argument("--bin-features")
    p.add_argument("--encoding", choices=["pm1", "zero_one"])
    p.add_argument("--selected", help="comma-separated feature columns (augmented fit)")
    p.add_argument("--out", default="-")
    _add_gen_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_fit_gen)

    p = sub.add_parser("label", help="apply a fitted generative model")
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--bin-features")
    p.add_argument("--encoding", choices=["pm1", "zero_one"])
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train-disc", help="train the noise-aware discriminative model")
    p.add_argument("--real-features", required=True)
    p.add_argument("--soft-labels", required=True)
    p.add_argument("--out", default="-")
    _add_disc_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_train_disc)

    p = sub.add_parser("diff", help="select disagreement-marking features")
    p.add_argument("--bin-features", required=True)
    p.add_argument("--encoding", choices=["pm1", "zero_one"])
    p.add_argument("--gen-labels", required=True, help="soft labels CSV")
    p.add_argument("--disc-labels", required=True, help="hard labels CSV")
    p.add_argument("--k", type=int, help="features to select")
    p.add_argument("--out", default="-")
    _add_lasso_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("run", help="full loop: fit, train, select, augment")
    p.add_argument("--labels", required=True)
    p.add_argument("--bin-features")
    p.add_argument("--real-features")
    p.add_argument("--truth")
    p.add_argument("--encoding", choices=["pm1", "zero_one"])
    p.add_argument("--k-max", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--dev-metric", choices=["accuracy", "f1"])
    p.add_argument("--refresh-disagreement", action=argparse.BooleanOptionalAction)
    p.add_argument("--out-dir", required=True)
    _add_gen_opts(p)
    _add_disc_opts(p)
    _add_lasso_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("check-conditions", help="evaluate recovery conditions")
    p.add_argument("--features", required=True, help="binary features CSV")
    p.add_argument("--encoding", choices=["pm1", "zero_one"])
    p.add_argument("--disagreement", required=True, help="object_id,disagreement CSV")
    p.add_argument("--support", required=True, help="declared relevant columns, comma-separated")
    p.add_argument("--delta", type=float, help="tolerated failure probability")
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=cmd_check_conditions)

    p = sub.add_parser("simulate-recovery", help="support-recovery experiment grid")
    p.add_argument("--kappa", required=True, help="comma-separated correlations")
    p.add_argument("--n", dest="n_grid", required=True, help="comma-separated object counts")
    p.add_argument("--trials", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--s-size", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--lambda-policy", choices=["path", "theorem"])
    p.add_argument("--delta", type=float)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", required=True)
    _add_lasso_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_simulate_recovery)

    p = sub.add_parser("simulate-e2e", help="end-to-end planted-subset experiment")
    p.add_argument("--trials", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--subset-fraction", type=float)
    p.add_argument("--base-accuracy", type=float)
    p.add_argument("--flipped-source", type=int)
    p.add_argument("--flipped-accuracy", type=float)
    p.add_argument("--coverage", type=float)
    p.add_argument("--q-disc", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--dev-metric", choices=["accuracy", "f1"])
    p.add_argument("--jobs", type=int)
    p.add_argument("--dump-data", help="write the first trial's dataset CSVs here")
    p.add_argument("--out", required=True)
    _add_gen_opts(p)
    _add_disc_opts(p)
    _add_lasso_opts(p)
    _add_common(p)
    p.set_defaults(func=cmd_simulate_e2e)

    p = sub.add_parser("metrics", help="score predictions against truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--positive-class", type=int, choices=[1, -1])
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _resolve(args)
        return args.func(args)
    except (DataError, FitError, ValueError, IndexError, KeyError, OSError,
            json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
