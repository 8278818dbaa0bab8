import dataclasses
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weaksup import __version__, cli
from weaksup import data as wdata
from weaksup.cli import build_parser, main
from weaksup.discmodel import DiscConfig
from weaksup.genmodel import FitConfig, fit_sp, label_sp
from weaksup.metrics import soft_label_accuracy
from weaksup.pipeline import RunConfig, run
from weaksup.synth import E2EScenario, gen_e2e, run_recovery_experiment


@pytest.fixture()
def tiny_dataset(tmp_path):
    ds = gen_e2e(E2EScenario(m=3, n=400, p=6, q_disc=3, seed=2))
    paths = {}
    with open(tmp_path / "labels.csv", "w") as f:
        wdata.save_label_matrix(ds.labels, f)
    with open(tmp_path / "xbin.csv", "w") as f:
        wdata.save_binary_features(ds.bin_features, f)
    with open(tmp_path / "vreal.csv", "w") as f:
        f.write("object_id," + ",".join(f"v_{j}" for j in range(ds.real_features.q)) + "\n")
        for i, row in enumerate(ds.real_features.values):
            f.write(f"{i}," + ",".join(repr(float(v)) for v in row) + "\n")
    with open(tmp_path / "truth.csv", "w") as f:
        wdata.save_hard_labels(ds.truth, None, f)
    paths.update(
        labels=str(tmp_path / "labels.csv"),
        xbin=str(tmp_path / "xbin.csv"),
        vreal=str(tmp_path / "vreal.csv"),
        truth=str(tmp_path / "truth.csv"),
    )
    return ds, paths, tmp_path


def _load_soft(path):
    with open(path) as f:
        return wdata.load_soft_labels(f)


FAST = ["--max-iters", "200", "--grad-tol", "1e-5"]
FAST_DISC = ["--disc-max-iters", "200", "--disc-grad-tol", "1e-5"]


def test_fit_gen_and_label_round_trip(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    model = str(tmp_path / "model.json")
    out = str(tmp_path / "soft.csv")
    assert main(["fit-gen", "--labels", paths["labels"], "--out", model, *FAST]) == 0
    body = json.loads(Path(model).read_text())
    assert body["selected"] == [] and len(body["phi"]) == 3
    assert body["config"]["max_iters"] == 200
    # every FitConfig field, plus the inputs and seed the command echoes
    assert set(body["config"]) == {f.name for f in dataclasses.fields(FitConfig)} | {
        "labels", "bin_features", "selected", "encoding", "seed"}
    assert main(["label", "--labels", paths["labels"], "--model", model, "--out", out]) == 0
    soft, ids = _load_soft(out)
    assert soft.n == 400


def test_fit_gen_augmented_requires_features(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    assert main(["fit-gen", "--labels", paths["labels"], "--selected", "0"]) == 2
    model = str(tmp_path / "aug.json")
    code = main(
        ["fit-gen", "--labels", paths["labels"], "--selected", "0,2",
         "--bin-features", paths["xbin"], "--out", model, *FAST]
    )
    assert code == 0
    body = json.loads(Path(model).read_text())
    assert body["selected"] == [0, 2] and len(body["w"]) == 2


@pytest.mark.parametrize("model, message", [
    ("[]", "model file must hold a JSON object"),
    ('{"phi": [0.5, 0.5], "selected": [null], "w": [[0, 0]]}',
     "model file: 'selected' must be integers of shape (N)"),
    ('{"phi": [0.5, 0.5], "w": [[1, 1]]}', "model file: 'w' must be numbers of shape (0 x 2)"),
    ('{"w": []}', "model file lacks 'phi'"),
    ('{"phi": [true, 0.5, 0.2]}', "model file: 'phi' must be numbers of shape (N)"),
], ids=["list", "null index", "w without selected", "no phi", "phi true"])
def test_label_refuses_a_malformed_model_file(model, message, tiny_dataset, tmp_path, capsys):
    _, paths, _ = tiny_dataset
    (tmp_path / "m.json").write_text(model)
    out = tmp_path / "out.csv"
    argv = ["label", "--labels", paths["labels"], "--model", str(tmp_path / "m.json"),
            "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_fit_gen_refuses_a_fractional_config_index(tiny_dataset, tmp_path, capsys):
    _, paths, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"selected": [0.9], "bin_features": paths["xbin"]}))
    argv = ["fit-gen", "--labels", paths["labels"], "--out", str(tmp_path / "m.json"),
            "--config", str(cfg)]
    assert main(argv) == 2
    assert "0.9 is not an integer index" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_label_with_augmented_model(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    model = str(tmp_path / "aug.json")
    out = str(tmp_path / "soft_aug.csv")
    main(["fit-gen", "--labels", paths["labels"], "--selected", "0",
          "--bin-features", paths["xbin"], "--out", model, *FAST])
    # augmented model without features is a data error, with features it labels
    assert main(["label", "--labels", paths["labels"], "--model", model,
                 "--out", out]) == 2
    assert main(["label", "--labels", paths["labels"], "--model", model,
                 "--bin-features", paths["xbin"], "--out", out]) == 0
    soft, _ = _load_soft(out)
    assert soft.n == 400


def test_train_disc_writes_model(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    model = str(tmp_path / "model.json")
    soft = str(tmp_path / "soft.csv")
    main(["fit-gen", "--labels", paths["labels"], "--out", model, *FAST])
    main(["label", "--labels", paths["labels"], "--model", model, "--out", soft])
    disc = str(tmp_path / "disc.json")
    code = main(
        ["train-disc", "--real-features", paths["vreal"], "--soft-labels", soft,
         "--standardize", "--out", disc, *FAST_DISC]
    )
    assert code == 0
    body = json.loads(Path(disc).read_text())
    assert len(body["theta"]) == 3 and "bias" in body
    assert body["preprocess"]["standardize"] is True
    assert set(body["config"]) == {f.name for f in dataclasses.fields(DiscConfig)} | {
        "real_features", "soft_labels", "standardize", "seed"}


def test_run_writes_report_and_labels(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--labels", paths["labels"], "--bin-features", paths["xbin"],
         "--real-features", paths["vreal"], "--truth", paths["truth"],
         "--k-max", "2", "--seed", "7", "--out-dir", str(out_dir),
         *FAST, *FAST_DISC]
    )
    assert code == 0
    report = json.loads((out_dir / "run_report.json").read_text())
    assert report["tracked_metric"] == "accuracy"
    assert report["iterations"][0]["k"] == 0
    assert report["config"]["seed"] == 7
    soft, ids = _load_soft(out_dir / "labels_out.csv")
    assert soft.n == 400


def test_run_defaults_are_the_library_defaults(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    out_dir = tmp_path / "out"
    code = main(
        ["run", "--labels", paths["labels"], "--bin-features", paths["xbin"],
         "--real-features", paths["vreal"], "--out-dir", str(out_dir)]
    )
    assert code == 0
    echo = json.loads((out_dir / "run_report.json").read_text())["config"]
    expected = {f.name: f.default for f in dataclasses.fields(RunConfig)
                if f.name not in ("gen", "disc")}
    expected |= {f.name: f.default for f in dataclasses.fields(FitConfig)}
    expected |= {f"disc_{f.name}": f.default for f in dataclasses.fields(DiscConfig)}
    assert {k: echo[k] for k in expected} == expected


def test_run_rejects_mismatched_components(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    short = tmp_path / "short.csv"
    short.write_text("object_id,f_1\n0,1\n1,-1\n")
    code = main(
        ["run", "--labels", paths["labels"], "--bin-features", str(short),
         "--real-features", paths["vreal"], "--out-dir", str(tmp_path / "x")]
    )
    assert code == 2


def test_diff_selects_indicator(tiny_dataset, tmp_path, capsys):
    ds, paths, _ = tiny_dataset
    model = str(tmp_path / "model.json")
    soft = str(tmp_path / "soft.csv")
    main(["fit-gen", "--labels", paths["labels"], "--out", model, *FAST])
    main(["label", "--labels", paths["labels"], "--model", model, "--out", soft])
    hard = str(tmp_path / "hard.csv")
    with open(hard, "w") as f:
        wdata.save_hard_labels(ds.truth, None, f)
    code = main(
        ["diff", "--bin-features", paths["xbin"], "--gen-labels", soft,
         "--disc-labels", hard, "--k", "2"]
    )
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert set(body) >= {"lambda_max", "entry_order", "selected",
                         "coef_at_selection", "kkt_residual"}
    assert len(body["selected"]) == 2


def test_check_conditions_json(tiny_dataset, tmp_path, capsys):
    ds, paths, _ = tiny_dataset
    dis = tmp_path / "dis.csv"
    rng = np.random.default_rng(0)
    with open(dis, "w") as f:
        f.write("object_id,disagreement\n")
        for i in range(ds.n):
            f.write(f"{i},{rng.uniform(-1, 1)!r}\n")
    code = main(
        ["check-conditions", "--features", paths["xbin"], "--disagreement",
         str(dis), "--support", "0,1", "--delta", "0.1"]
    )
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert {"alpha", "beta", "gamma", "c", "satisfied"} <= set(body)
    assert body["config"]["delta"] == 0.1


def test_simulate_recovery_grid_shape(tmp_path):
    out = tmp_path / "rec.csv"
    code = main(
        ["simulate-recovery", "--kappa", "0.4,0.6", "--n", "100,200", "--trials",
         "3", "--p", "12", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kappa,n,trials,recovered_fraction"
    assert len(lines) == 5  # header + 2x2 grid
    cells = run_recovery_experiment([0.4, 0.6], [100, 200], trials=3, p=12, seed=1)
    assert [float(line.split(",")[3]) for line in lines[1:]] == [
        c.recovered_fraction for c in cells]


@pytest.mark.parametrize("policy", ["path", "theorem"])
@pytest.mark.parametrize("option, value, message", [
    ("--delta", "1.5", "delta must lie in (0,1)"),
    ("--grid-size", "1", "grid_size must be at least 2"),
    ("--lambda-min-ratio", "1.5", "lambda_min_ratio must lie in (0,1)"),
    ("--lasso-tol", "0", "lasso_tol must be finite and positive"),
])
def test_simulate_recovery_refuses_a_bad_setting_before_any_trial(
    option, value, message, policy, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli.synth, "gen_recovery", lambda scenario: pytest.fail("drew a trial"))
    out = tmp_path / "rec.csv"
    argv = ["simulate-recovery", "--kappa", "0.4", "--n", "200", "--trials", "1",
            "--lambda-policy", policy, option, value, "--out", str(out)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_e2e_csv(tmp_path):
    out = tmp_path / "e2e.csv"
    code = main(
        ["simulate-e2e", "--trials", "2", "--n", "300", "--p", "6", "--q-disc",
         "3", "--k-max", "1", "--seed", "3", "--out", str(out), *FAST, *FAST_DISC]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("trial,seed,best_k")
    assert len(lines) == 3


def test_e2e_trial_scores_the_k0_and_the_best_labels():
    scenario = E2EScenario(m=4, n=1500, p=8, q_disc=3, seed=2)
    cfg = RunConfig(k_max=2, patience=2, gen=FitConfig(max_iters=400),
                    disc=DiscConfig(max_iters=400), grid_size=50)
    row = cli._e2e_trial((0, scenario, cfg))
    ds = gen_e2e(scenario)
    k0 = label_sp(fit_sp(ds.labels, cfg.gen), ds.labels)
    assert row["best_k"] >= 1 and row["gen_acc_k0"] != row["gen_acc_best"]
    assert row["gen_acc_k0"] == soft_label_accuracy(k0, ds.truth)
    assert row["gen_acc_best"] == soft_label_accuracy(run(ds, cfg).final_labels, ds.truth)


def test_metrics_json(tiny_dataset, capsys):
    _, paths, _ = tiny_dataset
    assert main(["metrics", "--pred", paths["truth"], "--truth", paths["truth"]]) == 0
    body = json.loads(capsys.readouterr().out)
    assert body["accuracy"] == 1.0 and body["percent"]["f1"] == 100.0


def test_metrics_negative_positive_class(tiny_dataset, capsys):
    _, paths, _ = tiny_dataset
    code = main(["metrics", "--pred", paths["truth"], "--truth", paths["truth"],
                 "--positive-class", "-1"])
    assert code == 0
    body = json.loads(capsys.readouterr().out)
    assert body["config"]["positive_class"] == -1 and body["f1"] == 1.0


def test_metrics_scores_soft_labels_by_sign(tmp_path, capsys):
    pred, truth = tmp_path / "soft.csv", tmp_path / "truth.csv"
    pred.write_text("object_id,expected_label,probability\na,0.0,0.5\nb,-0.5,0.25\nc,0.9,0.95\n")
    truth.write_text("object_id,y\na,1\nb,1\nc,-1\n")
    assert main(["metrics", "--pred", str(pred), "--truth", str(truth)]) == 0
    body = json.loads(capsys.readouterr().out)
    assert (body["tp"], body["fp"], body["tn"], body["fn"]) == (1, 1, 0, 1)  # sign(0) = +1


def test_metrics_scores_the_labels_run_writes(tiny_dataset, tmp_path, capsys):
    ds, paths, _ = tiny_dataset
    out_dir = tmp_path / "out"
    assert main(["run", "--labels", paths["labels"], "--bin-features", paths["xbin"],
                 "--real-features", paths["vreal"], "--k-max", "1", "--out-dir", str(out_dir),
                 *FAST, *FAST_DISC]) == 0
    labels_out = str(out_dir / "labels_out.csv")
    assert main(["metrics", "--pred", labels_out, "--truth", paths["truth"]]) == 0
    body = json.loads(capsys.readouterr().out)
    soft, _ = _load_soft(labels_out)
    assert body["accuracy"] == soft_label_accuracy(soft, ds.truth)


def test_main_builds_the_parser_once(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", functools.cache(cli._parser.__wrapped__))
    assert main(["--version"]) == 0
    assert main(["not-a-command"]) == 1
    assert len(built) == 1


def test_usage_errors_exit_one():
    assert main(["not-a-command"]) == 1
    assert main(["metrics"]) == 1  # missing required flags
    assert main(["run", "--labels", "l.csv", "--out-dir", "out", "--refresh-disagreement"]) == 1
    assert main(["--version"]) == 0


def test_the_module_runs_as_a_script(tmp_path):
    # `python -m weaksup.cli`, as README documents it, reaches main through
    # the module's __main__ guard
    src = str(Path(cli.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-m", "weaksup.cli", "--version"], capture_output=True,
                         text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": src})
    assert (out.returncode, out.stdout) == (0, f"weaksup {__version__}\n")


def test_missing_file_exits_two(capsys):
    assert main(["metrics", "--pred", "nope.csv", "--truth", "nope.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_exits_two(tiny_dataset, tmp_path, capsys):
    _, paths, _ = tiny_dataset
    argv = ["fit-gen", "--labels", paths["labels"], "--out", str(tmp_path / "m.json")]
    assert main([*argv, "--grad-tol", "-1"]) == 2
    assert "grad_tol" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    # a wrong type, a float no int can hold, a fraction, and a bool, which
    # the command line would refuse as well
    for value in ([1], float("inf"), 150.7, True):
        cfg.write_text(json.dumps({"max_iters": value}))
        assert main([*argv, "--config", str(cfg)]) == 2
        assert "option 'max_iters'" in capsys.readouterr().err
    # a --[no-] flag takes only JSON true/false; "false" would have turned it on
    model, soft = str(tmp_path / "model.json"), str(tmp_path / "soft.csv")
    main(["fit-gen", "--labels", paths["labels"], "--out", model, *FAST])
    main(["label", "--labels", paths["labels"], "--model", model, "--out", soft])
    disc = str(tmp_path / "disc.json")
    argv = ["train-disc", "--real-features", paths["vreal"], "--soft-labels", soft,
            "--out", disc, "--config", str(cfg), *FAST_DISC]
    cfg.write_text(json.dumps({"standardize": "false"}))
    assert main(argv) == 2
    assert "option 'standardize' expects bool, got 'false'" in capsys.readouterr().err
    cfg.write_text(json.dumps({"standardize": False}))
    assert main(argv) == 0
    assert json.loads(Path(disc).read_text())["preprocess"]["standardize"] is False


@pytest.mark.parametrize("text, message", [
    ("{", "Expecting property name enclosed in double quotes"),
    ("[1]", "expected a JSON object"),
], ids=["not json", "list"])
def test_a_config_file_that_is_not_a_json_object_exits_two(text, message, tiny_dataset,
                                                             tmp_path, capsys):
    _, paths, _ = tiny_dataset
    cfg, model = tmp_path / "cfg.json", tmp_path / "m.json"
    cfg.write_text(text)
    argv = ["fit-gen", "--labels", paths["labels"], "--config", str(cfg), "--out", str(model)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: config file {cfg}: {message}")
    assert not model.exists()


@pytest.mark.parametrize("argv, message", [
    (["fit-gen", "--labels", "{labels}", "--bin-features", "{xbin}", "--selected", "0,x"],
     "expected comma-separated integers, got '0,x'"),
    (["simulate-recovery", "--kappa", "0.4,abc", "--n", "100"],
     "expected comma-separated numbers, got '0.4,abc'"),
    (["simulate-recovery", "--kappa", "0.4", "--n", "100,1e3"],
     "expected comma-separated integers, got '100,1e3'"),
], ids=["selected", "kappa", "n"])
def test_a_bad_comma_list_token_exits_two(argv, message, tiny_dataset, tmp_path, capsys):
    _, paths, _ = tiny_dataset
    out = tmp_path / "out"
    assert main([a.format(**paths) for a in argv] + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_config_string_is_read_through_the_options_type(tiny_dataset, tmp_path):
    # as the command line reads --max-iters 150; a string that int() refuses exits 2
    _, paths, _ = tiny_dataset
    cfg, model = tmp_path / "cfg.json", tmp_path / "m.json"
    argv = ["fit-gen", "--labels", paths["labels"], "--config", str(cfg), "--out", str(model)]
    cfg.write_text(json.dumps({"max_iters": "150", "grad_tol": "1e-5"}))
    assert main(argv) == 0
    config = json.loads(model.read_text())["config"]
    assert config["max_iters"] == 150 and config["grad_tol"] == 1e-5
    cfg.write_text(json.dumps({"max_iters": "150.5"}))
    assert main(argv) == 2


def test_config_file_and_flag_precedence(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iters": 150, "seed": 11}))
    model = str(tmp_path / "m.json")
    code = main(
        ["fit-gen", "--labels", paths["labels"], "--config", str(cfg),
         "--seed", "99", "--out", model]
    )
    assert code == 0
    body = json.loads(Path(model).read_text())
    assert body["config"]["max_iters"] == 150  # from file
    assert body["config"]["seed"] == 99  # flag wins


def test_unknown_config_key_exits_two_naming_it(tiny_dataset, tmp_path, capsys):
    _, paths, _ = tiny_dataset
    cfg = tmp_path / "cfg.json"
    model = str(tmp_path / "m.json")
    argv = ["fit-gen", "--labels", paths["labels"], "--config", str(cfg), "--out", model]
    # keys of other subcommands are accepted, and ignored by fit-gen
    cfg.write_text(json.dumps({"max_iters": 150, "disc-l2": 0.5, "k_max": 2, "trials": 3}))
    assert main(argv) == 0
    capsys.readouterr()
    for key in ("learning_rate", "disc-learning-rate", "refresh_disagreement", "max_iter", "help",
                "config"):
        cfg.write_text(json.dumps({"max_iters": 150, key: 0.1}))
        assert main(argv) == 2
        assert f"unknown option {key!r}" in capsys.readouterr().err


def test_pipeline_run_rejects_swapped_binary_feature_ids(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset

    def dataset(xbin):
        with open(paths["labels"]) as lf, open(xbin) as bf, open(paths["vreal"]) as rf:
            return wdata.Dataset(
                labels=wdata.load_label_matrix(lf),
                bin_features=wdata.load_binary_features(bf),
                real_features=wdata.load_real_features(rf),
            )

    config = RunConfig(k_max=1)
    run(dataset(paths["xbin"]), config)
    with pytest.raises(wdata.DataError, match="row 3 is '2' in labels but '4' in bin_features"):
        run(dataset(_swap_rows(paths["xbin"], tmp_path / "swapped.csv")), config)


def test_socratic_seed_env_default(tiny_dataset, tmp_path, monkeypatch, capsys):
    _, paths, _ = tiny_dataset
    monkeypatch.setenv("SOCRATIC_SEED", "1234")
    assert main(["metrics", "--pred", paths["truth"], "--truth", paths["truth"]]) == 0
    capsys.readouterr()
    model = str(tmp_path / "m.json")
    assert main(["fit-gen", "--labels", paths["labels"], "--out", model, *FAST]) == 0
    assert json.loads(Path(model).read_text())["config"]["seed"] == 1234


def test_zero_one_encoding_flag(tmp_path):
    path = tmp_path / "x01.csv"
    path.write_text("object_id,f_1,f_2\n0,0,1\n1,1,0\n")
    labels = tmp_path / "l.csv"
    labels.write_text("object_id,lf_1\n0,1\n1,-1\n")
    model = str(tmp_path / "m.json")
    code = main(
        ["fit-gen", "--labels", str(labels), "--selected", "0", "--bin-features",
         str(path), "--encoding", "zero_one", "--out", model, *FAST]
    )
    assert code == 0


def test_repeated_runs_byte_identical(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"rec_{name}.csv"
        main(
            ["simulate-recovery", "--kappa", "0.5", "--n", "150", "--trials", "4",
             "--p", "10", "--seed", "21", "--out", str(out)]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _swap_rows(src: str, dst, a: int = 3, b: int = 5) -> str:
    """Copy a CSV with body rows a and b swapped (row 1 is the first object)."""
    lines = Path(src).read_text().splitlines(keepends=True)
    lines[a], lines[b] = lines[b], lines[a]
    Path(dst).write_text("".join(lines))
    return str(dst)


# each case: the argv of one subcommand, built from the fixture paths `p`, the
# prepared model/soft-label files and a `swapped(path)` copy of one input
ID_SWAP_CASES = {
    "fit-gen": lambda p, swapped: [
        "fit-gen", "--labels", p["labels"], "--selected", "0",
        "--bin-features", swapped(p["xbin"]), *FAST],
    "label": lambda p, swapped: [
        "label", "--labels", p["labels"], "--model", p["aug"],
        "--bin-features", swapped(p["xbin"]), "--out", p["out"]],
    "train-disc": lambda p, swapped: [
        "train-disc", "--real-features", swapped(p["vreal"]), "--soft-labels", p["soft"],
        *FAST_DISC],
    "diff": lambda p, swapped: [
        "diff", "--bin-features", p["xbin"], "--gen-labels", p["soft"],
        "--disc-labels", swapped(p["truth"])],
    "run": lambda p, swapped: [
        "run", "--labels", p["labels"], "--bin-features", p["xbin"],
        "--real-features", swapped(p["vreal"]), "--out-dir", p["out_dir"]],
    "run-truth": lambda p, swapped: [
        "run", "--labels", p["labels"], "--bin-features", p["xbin"],
        "--real-features", p["vreal"], "--truth", swapped(p["truth"]),
        "--out-dir", p["out_dir"]],
    "check-conditions": lambda p, swapped: [
        "check-conditions", "--features", swapped(p["xbin"]),
        "--disagreement", p["dis"], "--support", "0"],
    "metrics": lambda p, swapped: [
        "metrics", "--pred", swapped(p["truth"]), "--truth", p["truth"]],
}


@pytest.mark.parametrize("case", sorted(ID_SWAP_CASES))
def test_swapped_rows_exit_two_naming_the_row(case, tiny_dataset, tmp_path, capsys):
    ds, paths, _ = tiny_dataset
    p = dict(paths, aug=str(tmp_path / "aug.json"), soft=str(tmp_path / "soft.csv"),
             out=str(tmp_path / "out.csv"), out_dir=str(tmp_path / "run"),
             dis=str(tmp_path / "dis.csv"))
    assert main(["fit-gen", "--labels", p["labels"], "--out", str(tmp_path / "m.json"), *FAST]) == 0
    assert main(["label", "--labels", p["labels"], "--model", str(tmp_path / "m.json"),
                 "--out", p["soft"]]) == 0
    assert main(["fit-gen", "--labels", p["labels"], "--selected", "0", "--bin-features",
                 p["xbin"], "--out", p["aug"], *FAST]) == 0
    Path(p["dis"]).write_text(
        "object_id,disagreement\n" + "".join(f"{i},0.5\n" for i in range(ds.n))
    )
    argv = ID_SWAP_CASES[case](p, lambda src: _swap_rows(src, tmp_path / "swapped.csv"))
    # the same command on the unswapped file succeeds
    unswapped = ID_SWAP_CASES[case](p, lambda src: src)
    assert main(unswapped) == 0
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "object ids differ: row 3 is " in err and "'2'" in err and "'4'" in err


def test_simulate_e2e_rejects_zero_trials(tmp_path, capsys):
    out = tmp_path / "e2e.csv"
    assert main(["simulate-e2e", "--trials", "0", "--out", str(out)]) == 2
    assert "error: trials must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_a_job_count_below_one_exits_two_writing_nothing(jobs, tmp_path, capsys):
    out, dump = tmp_path / "out.csv", tmp_path / "dump"
    argv = ["simulate-e2e", "--trials", "1", "--n", "300", "--p", "6", "--q-disc", "3",
            "--k-max", "1", "--jobs", jobs, "--dump-data", str(dump), "--out", str(out)]
    assert main(argv) == 2
    assert "error: jobs must be at least 1" in capsys.readouterr().err
    assert not dump.exists() and not out.exists()
    argv = ["simulate-recovery", "--kappa", "0.4", "--n", "200", "--trials", "1",
            "--jobs", jobs, "--out", str(out)]
    assert main(argv) == 2
    assert "error: jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_check_conditions_rejects_a_repeated_support_column(tiny_dataset, tmp_path, capsys):
    ds, paths, _ = tiny_dataset
    dis = tmp_path / "dis.csv"
    dis.write_text("object_id,disagreement\n" + "".join(f"{i},0.5\n" for i in range(ds.n)))
    argv = ["check-conditions", "--features", paths["xbin"], "--disagreement", str(dis)]
    assert main([*argv, "--support", "1,0,1"]) == 2
    assert "error: support names column 1 more than once" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1.5", "nan"])
def test_check_conditions_rejects_a_delta_outside_0_1(tiny_dataset, tmp_path, capsys, delta):
    ds, paths, _ = tiny_dataset
    dis = tmp_path / "dis.csv"
    dis.write_text("object_id,disagreement\n" + "".join(f"{i},0.5\n" for i in range(ds.n)))
    out = tmp_path / "conditions.json"
    argv = ["check-conditions", "--features", paths["xbin"], "--disagreement", str(dis),
            "--support", "0,1", "--delta", delta, "--out", str(out)]
    assert main(argv) == 2
    assert "error: delta must lie in (0,1)" in capsys.readouterr().err
    assert not out.exists()


def test_csv_module_error_exits_two(tmp_path, capsys):
    # csv.reader refuses a field above its 131,072-character limit
    labels = tmp_path / "big.csv"
    labels.write_text("object_id,lf_1,lf_2\n" + "a" * 140_000 + ",1,-1\nb,1,1\n")
    assert main(["fit-gen", "--labels", str(labels), "--out", str(tmp_path / "model.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "field larger than field limit" in err
    assert not (tmp_path / "model.json").exists()


def test_run_with_a_bad_grid_size_exits_two_before_any_fit(
    tiny_dataset, tmp_path, capsys, monkeypatch
):
    _, paths, _ = tiny_dataset
    calls, fit = [], cli.pipeline.fit_sp
    monkeypatch.setattr(cli.pipeline, "fit_sp", lambda *a, **k: calls.append(a) or fit(*a, **k))
    out_dir = tmp_path / "out"
    argv = ["run", "--labels", paths["labels"], "--bin-features", paths["xbin"],
            "--real-features", paths["vreal"], "--grid-size", "1", "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert "error: grid_size must be at least 2" in capsys.readouterr().err
    assert calls == [] and not out_dir.exists()


def test_run_names_the_fit_that_failed(tiny_dataset, tmp_path, capsys):
    ds, paths, _ = tiny_dataset
    huge = tmp_path / "huge.csv"  # the real features scaled by 1e200
    with open(huge, "w") as f:
        f.write("object_id," + ",".join(f"v_{j}" for j in range(ds.real_features.q)) + "\n")
        for i, row in enumerate(ds.real_features.values * 1e200):
            f.write(f"{i}," + ",".join(repr(float(v)) for v in row) + "\n")
    argv = ["run", "--labels", paths["labels"], "--bin-features", paths["xbin"],
            "--real-features", str(huge), "--out-dir", str(tmp_path / "out")]
    with np.errstate(all="ignore"):
        assert main(argv) == 2
    assert ("error: discriminative fit at K = 0: non-finite objective or derivative at "
            "iteration 0\n") in capsys.readouterr().err


def test_non_finite_or_zero_tolerance_exits_two_writing_nothing(tiny_dataset, tmp_path, capsys):
    ds, paths, _ = tiny_dataset
    model, soft, hard = (str(tmp_path / f) for f in ("model.json", "soft.csv", "hard.csv"))
    main(["fit-gen", "--labels", paths["labels"], "--out", model, *FAST])
    main(["label", "--labels", paths["labels"], "--model", model, "--out", soft])
    with open(hard, "w") as f:
        wdata.save_hard_labels(ds.truth, None, f)
    out = tmp_path / "out.json"
    for argv, option in [
        (["fit-gen", "--labels", paths["labels"], "--grad-tol", "nan"], "grad_tol"),
        (["train-disc", "--real-features", paths["vreal"], "--soft-labels", soft,
          "--disc-grad-tol", "inf"], "grad_tol"),
        (["diff", "--bin-features", paths["xbin"], "--gen-labels", soft,
          "--disc-labels", hard, "--lasso-tol", "0"], "lasso_tol"),
    ]:
        assert main([*argv, "--out", str(out)]) == 2
        assert f"error: {option} must be finite and positive" in capsys.readouterr().err
        assert not out.exists()
