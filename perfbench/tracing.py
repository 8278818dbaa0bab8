"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each weaksup layer in the
namespace where the caller looks them up: `pipeline` and `synth` bind their
callees with `from ... import`, so those names are replaced on the calling
module; `cli` reaches its callees through module attributes, so those are
replaced on the defining module.  The program's own code is not changed.

Each span records its layer name, start, end, parent span and op id.  Spans
stay in memory; `to_json` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# span name -> the (module, attribute) bindings that callers reach it through
BINDINGS: dict[str, list[tuple[str, str]]] = {
    "pipeline.run": [("pipeline", "run")],
    "genmodel.fit_sp": [("pipeline", "fit_sp"), ("genmodel", "fit_sp")],
    "genmodel.fit_aug": [("pipeline", "fit_aug"), ("genmodel", "fit_aug")],
    "genmodel.label": [
        ("pipeline", "label_sp"), ("pipeline", "label_aug"),
        ("genmodel", "label_sp"), ("genmodel", "label_aug"),
    ],
    "discmodel.fit_disc": [("pipeline", "fit_disc"), ("discmodel", "fit_disc")],
    "discmodel.predict": [("pipeline", "predict"), ("discmodel", "predict")],
    "diffmodel.disagreement": [("pipeline", "disagreement"), ("diffmodel", "disagreement")],
    "diffmodel.regularization_path": [
        ("pipeline", "regularization_path"), ("synth", "regularization_path"),
        ("diffmodel", "regularization_path"),
    ],
    "diffmodel.select_features": [
        ("pipeline", "select_features"), ("synth", "select_features"),
        ("diffmodel", "select_features"),
    ],
    "diffmodel.lasso_fit": [("synth", "lasso_fit"), ("diffmodel", "lasso_fit")],
    "data.load": [
        ("data", "load_label_matrix"), ("data", "load_binary_features"),
        ("data", "load_real_features"), ("data", "load_soft_labels"),
        ("data", "load_hard_labels"), ("data", "load_vector"),
    ],
    "data.save": [
        ("data", "save_soft_labels"), ("data", "save_label_matrix"),
        ("data", "save_binary_features"), ("data", "save_hard_labels"),
    ],
    "theory.check_conditions": [("theory", "check_conditions"), ("synth", "check_conditions")],
    "synth.gen_recovery": [("synth", "gen_recovery")],
    "synth.run_recovery_experiment": [("synth", "run_recovery_experiment")],
    "cli.main": [("cli", "main")],
}

# layers whose peak allocation is measured, in a separate op with tracemalloc on
ALLOC_LAYERS = ("genmodel.fit_aug", "diffmodel.regularization_path", "data.load")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    info: object = None  # counter inputs, read after the op; never written out
    peak_alloc: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(f) -> int:
    return os.fstat(f.fileno()).st_size


def _record_info(span: Span, args, result) -> None:
    """Keep what the counters need; the counters are computed after the op."""
    if span.name == "genmodel.fit_aug":
        span.info = args[:3]  # labels, features, selected
    elif span.name in ("diffmodel.regularization_path", "pipeline.run"):
        span.info = result
    elif span.name == "diffmodel.select_features":
        span.info = (args[0], args[1])  # path, k
    elif span.name == "data.load":
        span.info = _file_size(args[0])
    elif span.name == "data.save":
        args[-1].flush()
        span.info = _file_size(args[-1])


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    timed_ops: list[int] = field(default_factory=list)
    alloc_op: int | None = None
    _op: int = -1
    _alloc: bool = False

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self._op, parent, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            measure_alloc = self._alloc and name in ALLOC_LAYERS and not tracemalloc.is_tracing()
            if measure_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if measure_alloc:
                    span.peak_alloc = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            _record_info(span, args, result)
            return result

        return wrapper

    @contextmanager
    def active(self, op: int, alloc: bool = False):
        """Install the wrappers for one op and restore the originals after.
        With `alloc`, the op measures peak allocations instead of times."""
        self._op, self._alloc = op, alloc
        if alloc:
            self.alloc_op = op
        else:
            self.timed_ops.append(op)
        saved = []
        try:
            for name, bindings in BINDINGS.items():
                for mod_name, attr in bindings:
                    mod = importlib.import_module(f"weaksup.{mod_name}")
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, fn))
            yield
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self._alloc = False

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


def _unique_rows(labels, features, selected) -> int:
    rows = np.concatenate([labels.votes.T, features.values[:, list(selected)]], axis=1)
    return int(np.unique(rows, axis=0).shape[0])


def _op_metrics(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one op from its spans (times in seconds)."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_time[s.name] = self_time.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.parent is not None:
            self_time[all_spans[s.parent].name] -= s.duration

    aug = [s.info for s in spans if s.name == "genmodel.fit_aug"]
    row_terms = sum(lab.n * lab.m * (1 + len(sel)) for lab, _, sel in aug)
    rows = sum(lab.n for lab, _, _ in aug)
    unique = sum(_unique_rows(*a) for a in aug)

    paths = [s.info for s in spans if s.name == "diffmodel.regularization_path"]
    used_k: dict[int, int] = {}
    for s in spans:
        if s.name == "diffmodel.select_features":
            path, k = s.info
            used_k[id(path)] = max(used_k.get(id(path), 0), k)
    fitted = sum(len(p.lambdas) for p in paths)
    useful = 0
    for p in paths:
        k = min(used_k.get(id(p), 0), len(p.entry_order))
        if k:
            useful += p.lambdas.index(p.entry_lambdas[k - 1]) + 1

    runs = [s.info for s in spans if s.name == "pipeline.run"]
    return {
        "genmodel.fit_aug.s": total.get("genmodel.fit_aug", 0.0),
        "genmodel.fit_aug.calls": calls.get("genmodel.fit_aug", 0),
        "genmodel.fit_aug.row_terms": row_terms,
        "genmodel.fit_aug.unique_row_ratio": unique / rows if rows else 0.0,
        "genmodel.fit_sp.s": total.get("genmodel.fit_sp", 0.0),
        "genmodel.label.s": total.get("genmodel.label", 0.0),
        "discmodel.fit_disc.s": total.get("discmodel.fit_disc", 0.0),
        "discmodel.predict.s": total.get("discmodel.predict", 0.0),
        "diffmodel.regularization_path.s": total.get("diffmodel.regularization_path", 0.0),
        "diffmodel.regularization_path.calls": calls.get("diffmodel.regularization_path", 0),
        "diffmodel.regularization_path.grid_points": fitted,
        "diffmodel.regularization_path.useful_grid_ratio": useful / fitted if fitted else 0.0,
        "data.load.s": total.get("data.load", 0.0),
        "data.load.bytes": sum(s.info for s in spans if s.name == "data.load"),
        "data.save.s": total.get("data.save", 0.0),
        "data.save.bytes": sum(s.info for s in spans if s.name == "data.save"),
        "theory.check_conditions.s": total.get("theory.check_conditions", 0.0),
        "synth.gen_recovery.s": total.get("synth.gen_recovery", 0.0),
        "synth.gen_recovery.calls": calls.get("synth.gen_recovery", 0),
        "pipeline.run.s": total.get("pipeline.run", 0.0),
        "pipeline.run.self_s": self_time.get("pipeline.run", 0.0),
        "pipeline.k_evaluated": sum(len(r.iterations) - 1 for r in runs),
        "cli.main.self_s": self_time.get("cli.main", 0.0),
    }


def layer_metrics(
    tracer: Tracer, untraced_walls: list[float], traced_walls: list[float]
) -> dict[str, tuple[float, str]]:
    """Medians over the traced ops, peak allocations from the alloc op, and
    the tracing overhead (median traced minus median untraced op time), as
    name -> (value, unit)."""
    by_op: dict[int, list[Span]] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = [_op_metrics(by_op.get(op, []), tracer.spans) for op in tracer.timed_ops]
    out = {name: statistics.median(m[name] for m in per_op) for name in per_op[0]}

    def peak_mb(name: str) -> float:
        return max((s.peak_alloc for s in by_op.get(tracer.alloc_op, []) if s.name == name), default=0) / 2**20

    out["genmodel.fit_aug.peak_alloc_mb"] = peak_mb("genmodel.fit_aug")
    out["diffmodel.regularization_path.peak_alloc_mb"] = peak_mb("diffmodel.regularization_path")
    out["data.load.peak_alloc_mb"] = peak_mb("data.load")
    out["trace.op_s"] = statistics.median(traced_walls)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return {name: (value, unit_of(name)) for name, value in out.items()}


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"

