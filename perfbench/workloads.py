"""The four benchmark workloads.

Each workload builds its inputs from the workload seed with the `synth`
generators (`setup`), runs one operation the way a user would (`op`), and
checks the operation's output (`check`).  `check` returns a fingerprint of
the output, which must be identical for every op of a run, the quality
metric (label accuracy against the planted truth, or the recovered
fraction), and a list of failed checks.

Why each workload was chosen, with the layer shares measured when the
benchmark was defined, is in README.md beside this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import weaksup.cli
import weaksup.pipeline
import weaksup.synth
from weaksup import data, discmodel, genmodel
from weaksup.data import Dataset
from weaksup.metrics import soft_label_accuracy
from weaksup.pipeline import RunConfig
from weaksup.synth import E2EScenario, RecoveryScenario


def _digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


@contextmanager
def _capture(module, attr: str, into: list):
    """Collect the return values of `module.attr` while the block runs."""
    fn = getattr(module, attr)

    def capturing(*args, **kwargs):
        result = fn(*args, **kwargs)
        into.append(result)
        return result

    setattr(module, attr, capturing)
    try:
        yield
    finally:
        setattr(module, attr, fn)


@dataclass
class Check:
    fingerprint: str
    quality: float
    problems: list[str]


class PlantedLoop:
    """Blind (agreement-tracked) loop on the planted-subset scenario; every
    seed fits K = 1..3 because patience equals k_max."""

    name = "planted-loop"
    unit = "objects"
    quality_name = "label_acc"

    def __init__(self, smoke: bool):
        self.scenario = dict(n=1_000 if smoke else 10_000, m=5, p=20)
        self.config = RunConfig(k_max=3, patience=3)
        self.items = self.scenario["n"]

    def describe(self) -> str:
        return f"pipeline.run on E2EScenario({self.scenario}), k_max=3, patience=3, no truth"

    def setup(self, seed: int, work: Path):
        ds = weaksup.synth.gen_e2e(E2EScenario(seed=seed, **self.scenario))
        blind = Dataset(labels=ds.labels, bin_features=ds.bin_features, real_features=ds.real_features)
        return blind, ds.truth

    def op(self, inputs):
        return weaksup.pipeline.run(inputs[0], self.config)

    def check(self, inputs, report) -> Check:
        problems = []
        first = report.iterations[1].selected[:1] if len(report.iterations) > 1 else ()
        if first != (0,):
            problems.append(f"first path entry is {first}, not the planted indicator column 0")
        if len(report.iterations) != self.config.k_max + 1:
            problems.append(f"evaluated K up to {len(report.iterations) - 1}, not {self.config.k_max}")
        labels = report.final_labels
        return Check(_digest(labels.expected.tobytes()), soft_label_accuracy(labels, inputs[1]), problems)


class WidePath:
    """Dev-tracked loop with P = 1000 binary features; the full LASSO path
    dominates the op."""

    name = "wide-path"
    unit = "objects"
    quality_name = "label_acc"

    def __init__(self, smoke: bool):
        self.scenario = dict(n=500, m=20, p=100) if smoke else dict(n=5_000, m=20, p=1_000)
        self.config = RunConfig(k_max=1)
        self.items = self.scenario["n"]

    def describe(self) -> str:
        return f"pipeline.run on E2EScenario({self.scenario}), k_max=1, truth supplied"

    def setup(self, seed: int, work: Path):
        return weaksup.synth.gen_e2e(E2EScenario(seed=seed, **self.scenario))

    def op(self, dataset):
        paths: list = []
        with _capture(weaksup.pipeline, "regularization_path", paths):
            report = weaksup.pipeline.run(dataset, self.config)
        return report, paths

    def check(self, dataset, result) -> Check:
        report, paths = result
        problems = []
        bound = 10 * self.config.lasso_tol
        worst = max((f.kkt_residual for p in paths for f in p.fits), default=float("inf"))
        if not worst <= bound:
            problems.append(f"path KKT residual {worst:.3g} exceeds {bound:.3g}")
        labels = report.final_labels
        return Check(_digest(labels.expected.tobytes()), soft_label_accuracy(labels, dataset.truth), problems)


class CliFiles:
    """The step-by-step file workflow through `cli.main`:
    fit-gen -> label -> train-disc -> check-conditions -> simulate-recovery."""

    name = "cli-files"
    unit = "objects"
    quality_name = "label_acc"

    def __init__(self, smoke: bool):
        self.n = 2_000 if smoke else 50_000
        self.items = self.n
        # a small recovery grid, so that the CLI run also times `synth`
        self.recovery = ["--kappa", "0.2,0.4,0.6", "--n", "250,500" if smoke else "250,500,1000",
                         "--trials", "1" if smoke else "5", "--p", "100", "--s-size", "3"]

    def describe(self) -> str:
        return (f"cli.main fit-gen, label, train-disc, check-conditions on CSV files, "
                f"N={self.n}, M=5, Q=5, P=20; simulate-recovery {' '.join(self.recovery)}")

    def setup(self, seed: int, work: Path):
        work.mkdir(parents=True, exist_ok=True)
        ds = weaksup.synth.gen_e2e(E2EScenario(n=self.n, m=5, p=20, seed=seed))
        x, target, support = weaksup.synth.gen_recovery(
            RecoveryScenario(kappa=0.4, n=self.n, p=20, s_size=3, seed=seed)
        )
        with open(work / "labels.csv", "w") as f:
            data.save_label_matrix(ds.labels, f)
        with open(work / "real.csv", "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["object_id"] + [f"v_{j + 1}" for j in range(ds.real_features.q)])
            for i, row in enumerate(ds.real_features.values.tolist()):
                w.writerow([str(i)] + [repr(v) for v in row])
        with open(work / "features.csv", "w") as f:
            data.save_binary_features(x, f)
        with open(work / "disagreement.csv", "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["object_id", "disagreement"])
            for i, v in enumerate(target.values.tolist()):
                w.writerow([str(i), repr(v)])
        w = str(work)
        steps = [
            ["fit-gen", "--labels", f"{w}/labels.csv", "--out", f"{w}/model.json"],
            ["label", "--labels", f"{w}/labels.csv", "--model", f"{w}/model.json",
             "--out", f"{w}/soft.csv"],
            ["train-disc", "--real-features", f"{w}/real.csv", "--soft-labels", f"{w}/soft.csv",
             "--out", f"{w}/disc.json"],
            ["check-conditions", "--features", f"{w}/features.csv",
             "--disagreement", f"{w}/disagreement.csv",
             "--support", ",".join(str(j) for j in support), "--out", f"{w}/conditions.json"],
            ["simulate-recovery", *self.recovery, "--seed", str(seed), "--jobs", "1",
             "--out", f"{w}/recovery.csv"],
        ]
        return work, steps, ds.truth

    def op(self, inputs):
        _, steps, _ = inputs
        return [weaksup.cli.main(argv) for argv in steps]

    def check(self, inputs, codes) -> Check:
        work, steps, truth = inputs
        problems = [f"{argv[0]} exited {code}" for argv, code in zip(steps, codes) if code != 0]
        outputs = ["model.json", "soft.csv", "disc.json", "conditions.json", "recovery.csv"]
        with open(work / "model.json") as f:
            genmodel.load_params(f)
        with open(work / "disc.json") as f:
            discmodel.load_params(f)
        with open(work / "conditions.json") as f:
            if "satisfied" not in json.load(f):
                problems.append("conditions.json has no 'satisfied' block")
        with open(work / "soft.csv") as f:
            soft, ids = data.load_soft_labels(f)
        if soft.n != self.n or ids != tuple(str(i) for i in range(self.n)):
            problems.append("soft labels do not cover the objects in order")
        with open(work / "recovery.csv", newline="") as f:
            cells = list(csv.DictReader(f))
        if len(cells) != 3 * len(self.recovery[3].split(",")):
            problems.append(f"recovery.csv has {len(cells)} cells")
        fingerprint = _digest(*((work / name).read_bytes() for name in outputs))
        return Check(fingerprint, soft_label_accuracy(soft, truth), problems)


class RecoveryGrid:
    """The paper's support-recovery experiment over a (kappa, n) grid."""

    name = "recovery-grid"
    unit = "trials"
    quality_name = "recovered_fraction"

    def __init__(self, smoke: bool):
        self.kappas = [0.2, 0.4, 0.6]
        self.ns = [250, 500] if smoke else [250, 500, 1000, 2000, 5000]
        self.trials = 1 if smoke else 20
        self.items = len(self.kappas) * len(self.ns) * self.trials

    def describe(self) -> str:
        return (f"synth.run_recovery_experiment(kappas={self.kappas}, ns={self.ns}, "
                f"trials={self.trials}, p=100, s_size=3, jobs=1)")

    def setup(self, seed: int, work: Path):
        return seed

    def op(self, seed):
        return weaksup.synth.run_recovery_experiment(
            self.kappas, self.ns, trials=self.trials, p=100, s_size=3, seed=seed, jobs=1
        )

    def check(self, seed, cells) -> Check:
        problems = []
        if len(cells) != len(self.kappas) * len(self.ns):
            problems.append(f"{len(cells)} cells returned")
        if any(c.conditions_ok_fraction != 1.0 for c in cells):
            problems.append("path policy reported failed preconditions")
        recovered = [c.recovered_fraction for c in cells]
        if recovered[-1] != 1.0:
            problems.append(f"largest (kappa, n) cell recovered only {recovered[-1]}")
        fingerprint = _digest(repr([(c.kappa, c.n, c.trials, c.recovered_fraction,
                                     c.containment_fraction) for c in cells]).encode())
        return Check(fingerprint, float(np.mean(recovered)), problems)


WORKLOADS = {w.name: w for w in (PlantedLoop, WidePath, CliFiles, RecoveryGrid)}
