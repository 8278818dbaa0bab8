"""Command-line front end.

Subcommands: fit-gen, label, train-disc, diff, run, check-conditions,
simulate-recovery, simulate-e2e, metrics.  Structured reports are JSON with
a fully resolved config echo; tabular and label outputs are CSV.  Every
subcommand is deterministic given its flags: all randomness flows from
--seed (default: the SOCRATIC_SEED environment variable, else 0).

Option precedence: command-line flags > --config JSON file > environment
seed > built-in defaults.  A --config key that no subcommand reads is a data
error.  Exit codes: 0 success, 1 usage error, 2 data or validation error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__, data, diffmodel, discmodel, genmodel, metrics, pipeline, synth, theory
from .data import DataError
from .genmodel import FitError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

# the FitConfig, DiscConfig (as disc_<field>) and RunConfig defaults, then
# the options the library does not default, or defaults differently
# (run_recovery_experiment takes delta=0.2, E2EScenario takes p=20)
_DEFAULTS = {
    prefix + f.name: f.default
    for cls, prefix in [(genmodel.FitConfig, ""), (discmodel.DiscConfig, "disc_"),
                        (pipeline.RunConfig, "")]
    for f in dataclasses.fields(cls)
    if f.default is not dataclasses.MISSING
} | {
    "encoding": "pm1",
    "k": 3,
    "delta": 0.05,
    "positive_class": 1,
    "trials": 100,
    "jobs": 1,
    "lambda_policy": "path",
    "p": 100,
    "s_size": 3,
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


def _write_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _ints(value) -> list[int]:
    if isinstance(value, (list, tuple)):  # a --config list: no float truncated
        return [data._index(v, "expected integers", DataError) for v in value]
    try:
        return [int(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise DataError(f"expected comma-separated integers, got {value!r}") from None


def _floats(value) -> list[float]:
    try:
        return [float(tok) for tok in str(value).split(",") if tok != ""]
    except ValueError:
        raise DataError(f"expected comma-separated numbers, got {value!r}") from None


def _option_types(parser: argparse.ArgumentParser) -> dict[str, type | None]:
    """The type of every option that some subcommand reads, by name: `bool`
    for the --[no-] flags, None for options kept as given."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        a.dest: bool if isinstance(a, argparse.BooleanOptionalAction) else a.type
        for p in sub.choices.values()
        for a in p._actions
        if not isinstance(a, argparse._HelpAction) and a.dest != "config"
    }


def _from_json(value, convert: type | None):
    """A --config value as the command line would take it: a --[no-] flag
    only as JSON true/false, an int option only as a JSON integer, a float
    option as any JSON number (a bool is neither), and a string through the
    option's type.  Raises TypeError for anything else."""
    if convert is None:
        return value
    if isinstance(value, str) and convert is not bool:
        return convert(value)
    json_types = {bool: bool, int: int, float: (int, float)}[convert]
    if isinstance(value, json_types) and isinstance(value, bool) == (convert is bool):
        return convert(value)
    raise TypeError(value)


def _resolve(args: argparse.Namespace, types: dict[str, type | None]) -> None:
    """Merge --config file values, taken as the command line would take
    them, and built-in defaults into unset flags.  A file key that no
    subcommand reads is a data error; keys of other subcommands are accepted
    and ignored."""
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
            if dest not in types:
                raise DataError(f"config file {cfg_path}: unknown option {key!r}")
            if hasattr(args, dest) and getattr(args, dest) is None and value is not None:
                convert = types[dest]
                try:
                    setattr(args, dest, _from_json(value, convert))
                except (TypeError, ValueError, OverflowError):
                    raise DataError(
                        f"config file {cfg_path}: option {key!r} expects "
                        f"{convert.__name__}, got {value!r}"
                    ) from None
    for dest, value in _DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    if hasattr(args, "seed") and args.seed is None:
        env = os.environ.get("SOCRATIC_SEED")
        args.seed = int(env) if env else 0


def _config(cls, args, prefix: str = "", **given):
    """A `cls` built from the options named `prefix` + field name and the
    `given` fields; a field with no option in this subcommand keeps its
    default."""
    names = [f.name for f in dataclasses.fields(cls) if hasattr(args, prefix + f.name)]
    return cls(**{name: getattr(args, prefix + name) for name in names} | given)


def _run_config(args) -> pipeline.RunConfig:
    """The loop's settings, its generative and discriminative fits' included."""
    return _config(pipeline.RunConfig, args, gen=_config(genmodel.FitConfig, args),
                   disc=_config(discmodel.DiscConfig, args, "disc_"))


def _echo(args, keys: list[str]) -> dict:
    return {k: getattr(args, k) for k in keys}


def _load(path: str, loader, *extra):
    with open(path) as f:
        return loader(f, *extra)


# -- subcommands --------------------------------------------------------------


def cmd_fit_gen(args) -> int:
    labels = _load(args.labels, data.load_label_matrix)
    cfg = _config(genmodel.FitConfig, args)
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
    cfg = _config(discmodel.DiscConfig, args, "disc_")
    preprocess = {"standardize": args.standardize}
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
    path = diffmodel.regularization_path(features, target, _config(diffmodel.LassoConfig, args))
    selected = diffmodel.select_features(path, args.k)
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
        "validation": report.validation.to_dict(),
        # every option but --config
        "config": _echo(args, [k for k in vars(args) if k not in ("config", "command", "func")]),
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
    report = theory.check_conditions(features, support, target, delta=args.delta)
    body = report.to_dict()
    body["support"] = support
    body["lambda_unnormalized_factor"] = 2 * features.n
    body["config"] = _echo(args, ["features", "disagreement", "support", "encoding", "delta"])
    _write_json(body, args.out)
    return EXIT_OK


def _write_rows(path: str, header, rows) -> None:
    """An experiment table as CSV, floats by repr so they read back exactly."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)


def cmd_simulate_recovery(args) -> int:
    kappas = _floats(args.kappa)
    ns = _ints(args.n_grid)
    cells = synth.run_recovery_experiment(
        kappas,
        ns,
        trials=args.trials,
        p=args.p,
        s_size=args.s_size,
        seed=args.seed,
        rho=args.rho,
        lambda_policy=args.lambda_policy,
        delta=args.delta,
        lasso=_config(diffmodel.LassoConfig, args),
        jobs=args.jobs,
    )
    _write_rows(
        args.out,
        ["kappa", "n", "trials", "recovered_fraction"],
        [(c.kappa, c.n, c.trials, c.recovered_fraction) for c in cells],
    )
    return EXIT_OK


def _e2e_trial(payload) -> dict:
    trial, scenario, cfg = payload
    dataset = synth.gen_e2e(scenario)
    report = pipeline.run(dataset, cfg)
    k0 = report.iterations[0]
    best = report.best
    return {
        "trial": trial,
        "seed": scenario.seed,
        "best_k": report.best_k,
        "stop_reason": report.stop_reason,
        "gen_acc_k0": metrics.soft_label_accuracy(k0.gen_labels, dataset.truth),
        "gen_acc_best": metrics.soft_label_accuracy(report.final_labels, dataset.truth),
        "disc_metric_k0": k0.dev_metric,
        "disc_metric_best": best.dev_metric,
        "indicator_selected": int(0 in best.selected),
    }


def cmd_simulate_e2e(args) -> int:
    if args.trials < 1:
        raise DataError("trials must be positive")
    cfg = _run_config(args)
    work = []
    for t in range(args.trials):
        scenario = _config(
            synth.E2EScenario,
            args,
            base_accuracies=args.base_accuracy,
            coverages=args.coverage,
            seed=synth.derive_trial_seed(args.seed, 0, t),
        )
        work.append((t, scenario, cfg))
    rows = synth.map_trials(_e2e_trial, work, args.jobs)
    if args.dump_data:
        _dump_dataset(synth.gen_e2e(work[0][1]), Path(args.dump_data))
    _write_rows(args.out, rows[0].keys(), [row.values() for row in rows])
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


def _load_predictions(path: str) -> tuple[data.HardLabelVector, tuple[str, ...]]:
    """Hard labels, or the signs of the soft labels that `label` and `run`
    write, told apart by the header's second column."""
    with open(path) as f:
        header = next((row for row in csv.reader(f) if row), [])
        f.seek(0)
        if header[1:2] == ["expected_label"]:
            soft, ids = data.load_soft_labels(f)
            return metrics.sign_labels(soft), ids
        return data.load_hard_labels(f, "predictions")


def cmd_metrics(args) -> int:
    pred, pred_ids = _load_predictions(args.pred)
    truth, truth_ids = _load(args.truth, data.load_hard_labels)
    data.check_ids(pred=pred_ids, truth=truth_ids)
    scores = metrics.score(pred, truth, positive_class=args.positive_class)
    body = scores.to_dict()
    body["config"] = _echo(args, ["pred", "truth", "positive_class"])
    _write_json(body, args.out)
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_common(p: _Parser) -> None:
    p.add_argument("--config", help="JSON file of option values (flags override)")
    p.add_argument("--seed", type=int, help="random seed (default: $SOCRATIC_SEED or 0)")


def _add_gen_opts(p: _Parser) -> None:
    p.add_argument("--max-iters", type=int, help="generative fit iteration cap")
    p.add_argument("--grad-tol", type=float, help="generative fit gradient tolerance")
    p.add_argument("--phi-init", type=float, help="initial per-source weight")
    p.add_argument("--w-l2", type=float, help="L2 penalty on subset adjustments")


def _add_disc_opts(p: _Parser) -> None:
    p.add_argument("--disc-max-iters", type=int)
    p.add_argument("--disc-grad-tol", type=float)
    p.add_argument("--disc-l2", type=float)
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                   help="z-score real features on the training data")


def _add_lasso_opts(p: _Parser) -> None:
    p.add_argument("--grid-size", type=int, help="lambda grid points")
    p.add_argument("--lambda-min-ratio", type=float, help="smallest lambda / lambda_max")
    p.add_argument("--lasso-tol", type=float, help="KKT tolerance of each LASSO fit")


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
    p.add_argument("--pred", required=True,
                   help="hard labels CSV, or soft labels CSV, scored by sign")
    p.add_argument("--truth", required=True)
    p.add_argument("--positive-class", type=int, choices=[1, -1])
    p.add_argument("--out", default="-")
    _add_common(p)
    p.set_defaults(func=cmd_metrics)

    return parser


@functools.cache
def _parser() -> tuple[_Parser, dict[str, type | None]]:
    """The parser and its option types, built once per process: a build
    costs more than most parses, and parsing leaves the parser as it was."""
    parser = build_parser()
    return parser, _option_types(parser)


def main(argv=None) -> int:
    parser, types = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        _resolve(args, types)
        return args.func(args)
    except (DataError, FitError, ValueError, IndexError, KeyError, OSError,
            json.JSONDecodeError, csv.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
