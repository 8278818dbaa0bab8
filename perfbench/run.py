#!/usr/bin/env python3
"""weaksup benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload planted-loop --seed 0 --seconds 34 --trace 0

Run from the root of a source tree; the program is imported from `src/`.
The run builds the workload's inputs from --seed, runs one untimed warm-up
op, then runs ops one after another (a closed loop with one caller) for
about --seconds seconds and checks every op's output.  With --trace 0 it
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced ops, runs one more op with allocation
tracking, and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it, starting with '#', are for people.

--workload all runs every workload, each in a fresh process, with the same
flags.  --smoke shrinks every workload so that the whole set runs in seconds.
"""

import os

# Pinned before numpy loads: BLAS threads beyond the cores oversubscribe a
# small machine and make timings noisy.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import weaksup; print(time.perf_counter() - t)"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else "unknown"
    return ref


def _import_seconds() -> float:
    """Seconds to import weaksup in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs and checks ops; every op's output must match the first one's."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.fingerprint = None
        self.quality = None

    def run(self) -> float | None:
        """One op; returns its wall time, or None if it raised or failed a check."""
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = self.workload.op(self.inputs)
            wall = time.perf_counter() - start
            check = self.workload.check(self.inputs, result)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if self.fingerprint is None:
            self.fingerprint, self.quality = check.fingerprint, check.quality
        elif check.fingerprint != self.fingerprint:
            check.problems.append("output differs from the first op of this run")
        if check.problems:
            print(f"perfbench: op {self.attempted}: " + "; ".join(check.problems), file=sys.stderr)
            self.failed += 1
            return None
        return wall


def timed_loop(runner: Runner, seconds: float, modes: list, min_each: int) -> list[list[float]]:
    """Run ops, cycling through `modes`, until each mode has `min_each`
    timed ops and the next op would end past `seconds`.  A mode maps an op
    id to the context manager the op runs in; returns the walls per mode."""
    walls: list[list[float]] = [[] for _ in modes]
    start = time.perf_counter()
    while True:
        i = runner.attempted % len(modes)
        with modes[i](runner.attempted):
            wall = runner.run()
        if wall is not None:
            walls[i].append(wall)
        done = [w for ws in walls for w in ws]
        elapsed = time.perf_counter() - start
        if runner.failed >= 3 and (not done or elapsed > seconds):
            return walls  # ops keep failing; stop rather than spin
        if min(map(len, walls)) >= min_each and elapsed + statistics.median(done) > seconds:
            return walls


def _run_all(names: list[str], args) -> int:
    """Run every workload in its own fresh process with the same flags."""
    codes = []
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        codes.append(subprocess.run(cmd + ["--smoke"] * args.smoke).returncode)
    return max(codes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not (SRC / "weaksup" / "__init__.py").is_file():
        return _fail(f"no weaksup sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy as np
    import weaksup

    if Path(weaksup.__file__).resolve().parent != SRC / "weaksup":
        return _fail(f"imported weaksup from {weaksup.__file__}, not from {SRC}")
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    try:
        import_s = [_import_seconds() for _ in range(1 if args.smoke else SETUP_REPEATS)]
    except (subprocess.SubprocessError, ValueError, IndexError) as e:
        return _fail(f"importing weaksup failed: {e}")
    workload = WORKLOADS[args.workload](args.smoke)
    work = WORK / f"{workload.name}-{os.getpid()}"

    env = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": THREADS,
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
    }
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {workload.name}: {workload.describe()}")

    try:
        build_s = []
        for _ in range(1 if args.smoke else SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.setup(args.seed, work)
            build_s.append(time.perf_counter() - start)
        setup_s = statistics.median(import_s) + statistics.median(build_s)

        runner = Runner(workload, inputs)
        runner.run()  # warm-up: untimed, but checked and counted
        if args.trace:
            tracer = Tracer()
            untraced, traced = timed_loop(runner, args.seconds, [_untraced, tracer.active], 2)
            with tracer.active(runner.attempted, alloc=True):
                runner.run()
        else:
            (untraced,) = timed_loop(runner, args.seconds, [_untraced], 3)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not untraced or (args.trace and not traced):
        return _fail(f"{runner.failed} of {runner.attempted} ops failed; nothing measured")
    print(f"# ops: {runner.attempted} attempted, {runner.failed} failed, "
          f"error_rate {runner.failed / runner.attempted:.4f}")
    if args.trace:
        metrics = layer_metrics(tracer, untraced, traced)
        WORK.mkdir(exist_ok=True)
        trace_file = WORK / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "spans": tracer.to_json()}) + "\n")
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
    else:
        wall_s = statistics.median(untraced)
        print(f"# wall_s is the median of {len(untraced)} ops "
              f"(min {min(untraced):.4f} s, max {max(untraced):.4f} s)")
        print(f"# items_per_s counts {workload.unit}: {workload.items} per op")
        print(f"# quality is {workload.quality_name}, deterministic for a seed")
        metrics = {
            "wall_s": (wall_s, "s"),
            "items_per_s": (workload.items / wall_s, "items/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (_max_rss_mb(), "MB"),
            "quality": (runner.quality, "fraction"),
        }
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


@contextmanager
def _untraced(op: int):
    yield


if __name__ == "__main__":
    sys.exit(main())
