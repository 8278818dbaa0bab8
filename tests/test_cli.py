import json
from pathlib import Path

import numpy as np
import pytest

from weaksup import data as wdata
from weaksup.cli import main
from weaksup.synth import E2EScenario, gen_e2e


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


def test_usage_errors_exit_one():
    assert main(["not-a-command"]) == 1
    assert main(["metrics"]) == 1  # missing required flags
    assert main(["--version"]) == 0


def test_missing_file_exits_two(capsys):
    assert main(["metrics", "--pred", "nope.csv", "--truth", "nope.csv"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_config_value_exits_two(tiny_dataset, tmp_path):
    _, paths, _ = tiny_dataset
    code = main(
        ["fit-gen", "--labels", paths["labels"], "--learning-rate", "-1",
         "--out", str(tmp_path / "m.json")]
    )
    assert code == 2


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
