"""End-to-end and per-layer benchmark of the nvcdd CLI.

Run from the root of an nvcdd checkout:

    python3 nvbench/run.py --workload ramsey_mp --seed 7 --seconds 30 --trace 0

One process, one client, closed loop: the workload's CLI operations run
in-process through ``nvcdd.cli.main`` as one pass, and the next pass starts
when the previous one has finished, until ``--seconds`` are used (at least
MIN_PASSES passes).  Every output is written to a scratch directory under
``nvbench/_out`` and checked against the committed references in ``out/``
(see workloads.py).

``--trace 0`` reports the end-to-end metrics: median set-up time of a
fresh interpreter, wall and CPU time of the fastest pass, and peak RSS.  ``--trace
1`` alternates untraced and traced passes (see spans.py) and reports the
per-layer metrics; the traced outputs must be bit-identical to the
untraced ones.

The last line of standard output is the result object; the line before it
holds the details (machine, per-pass times, failures, absent hooks).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_RUNS = 5
SUBPROCESS_TIMEOUT_S = 120
MAX_FAILURES_REPORTED = 10

# What every CLI invocation pays before its command runs.  The child
# prints how long importing the CLI took, package __init__ included.
SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, "src")
from nvcdd import cli
print(time.perf_counter() - start)
cli.resolve_config(cli.load_config(sys.argv[1]))
"""
# Modules whose cumulative import time -X importtime reports.
IMPORTED_MODULES = ("nvcdd.fitting", "nvcdd.pulse_sim")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# From the traced passes: *.share is self time over the traced pass wall
# time; pulse_sim.shots_per_s is shot-points over the time inside
# pulse_sim.simulate; trace.coverage_frac is the time inside the cli spans
# over the pass wall time; trace.overhead_frac compares the median traced
# and untraced passes.  check.* are 0 on correct code, so they cannot be
# end-to-end metrics with a relative bound.
PER_LAYER = {
    "cli.self_s": "s",
    "cli.config.self_s": "s",
    "cli.config.calls": "count",
    "pulse_sim.simulate.self_s": "s",
    "pulse_sim.sample.self_s": "s",
    "pulse_sim.sample.calls": "count",
    "pulse_sim.sample.shots": "count",
    "pulse_sim.sample.share": "ratio",
    "pulse_sim.hamiltonian.self_s": "s",
    "pulse_sim.hamiltonian.bytes_computed": "bytes",
    "pulse_sim.propagate.self_s": "s",
    "pulse_sim.propagate.calls": "count",
    "pulse_sim.propagate.matrices": "count",
    "pulse_sim.propagate.bytes_computed": "bytes",
    "pulse_sim.propagate.share": "ratio",
    "pulse_sim.run_batch.self_s": "s",
    "pulse_sim.io.self_s": "s",
    "pulse_sim.shots_per_s": "1/s",
    "fitting.nlls_fit.self_s": "s",
    "fitting.nlls_fit.calls": "count",
    "fitting.converged_frac": "ratio",
    "models.evaluate.self_s": "s",
    "models.evaluate.calls": "count",
    "dephasing.self_s": "s",
    "nvcdd.cli.import_s": "s",
    "nvcdd.fitting.import_s": "s",
    "nvcdd.pulse_sim.import_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
    "trace.hooks_absent": "count",
    "check.fail_frac": "ratio",
    "check.max_abs_dev": "population",
}


class Runner:
    """Runs passes of one workload and keeps the failure accounting."""

    def __init__(self, cli_main, workload, seed: int, out_dir: Path):
        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        # Output of the first pass, with what its check found wrong.
        self.first: dict[str, tuple[bytes, str | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.max_abs_dev = 0.0

    def passes(self, seconds: float, minimum: int, hooks=None) -> list:
        """Back-to-back passes for about `seconds`: (wall, cpu, recorder).

        With hooks, every second pass is traced, so that traced and
        untraced passes see the same machine load; the first pass is
        untraced and the traced ones must reproduce its outputs.
        """
        results = []
        start = time.perf_counter()
        while len(results) < minimum or (
                time.perf_counter() - start
                + median(r[0] for r in results) <= seconds):
            traced = hooks is not None and len(results) % 2 == 1
            results.append(self._pass(hooks if traced else None))
        return results

    def _pass(self, hooks):
        recorder = None
        with hooks or contextlib.nullcontext():
            if hooks is not None:
                recorder = hooks.recorder = spans.Recorder()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            errors = [self._invoke(op, recorder) for op in self.workload.ops]
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        for op, error in zip(self.workload.ops, errors):
            self._check(op, error)
        return wall, cpu, recorder

    def _invoke(self, op, recorder) -> str | None:
        """Run one CLI operation; returns why it failed, or None."""
        sink = io.StringIO()
        if recorder is not None:
            recorder.begin("cli")
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                code = self.cli_main.main(list(op.argv), prog_name="nvcdd",
                                          standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            return traceback.format_exc(limit=-3)
        finally:
            if recorder is not None:
                recorder.end()
        if code not in (None, 0):
            return f"exit code {code}: {sink.getvalue()[-500:]}"
        return None

    def _check(self, op, error: str | None) -> None:
        self.attempted += 1
        problems = [error] if error else []
        for output in op.outputs:
            path = self.out_dir / output.name
            try:
                produced = path.read_bytes()
                path.unlink()   # the next pass must write it again
            except OSError:
                problems.append(f"{output.name}: not written")
                continue
            if output.name in self.first:
                first, problem = self.first[output.name]
                if produced != first:
                    problem = "differs from the first pass"
            else:
                problem, dev = workloads.check(output, produced,
                                               self.workload, self.seed)
                self.max_abs_dev = max(self.max_abs_dev, dev)
                self.first[output.name] = produced, problem
            if problem:
                problems.append(f"{output.name}: {problem}")
        if problems:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_REPORTED:
                self.failures.append({"op": op.name, "problems": problems})


def measure_setup(config: str, importtime: bool):
    """Set up SETUP_RUNS fresh interpreters as the CLI does.

    Returns the wall time of each and the median import time of the CLI
    and, with importtime, of each module in IMPORTED_MODULES.
    """
    flags = ["-X", "importtime"] if importtime else []
    walls = []
    imports = {name: [] for name in ("nvcdd.cli", *IMPORTED_MODULES)}
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE, config],
                              capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr[-2000:]}")
        imports["nvcdd.cli"].append(float(proc.stdout))
        for line in proc.stderr.splitlines():
            # import time: self [us] | cumulative | imported package
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[2].strip() in IMPORTED_MODULES:
                imports[fields[2].strip()].append(int(fields[1]) * 1e-6)
    return walls, {name: median(v) if v else 0.0
                   for name, v in imports.items()}


def layer_metrics(recorder: spans.Recorder, wall: float) -> dict:
    """Per-layer numbers of one traced pass."""
    own = recorder.self_times()
    total = recorder.total_times()
    counts = recorder.counts
    fits = counts["fitting.nlls_fit.calls"]
    simulate = total["pulse_sim.simulate"]
    out = {f"{layer}.self_s": own[layer] for layer in (
        "cli", "cli.config", "pulse_sim.simulate", "pulse_sim.sample",
        "pulse_sim.hamiltonian", "pulse_sim.propagate", "pulse_sim.run_batch",
        "pulse_sim.io", "fitting.nlls_fit", "models.evaluate", "dephasing")}
    for name in ("cli.config.calls", "pulse_sim.sample.calls",
                 "pulse_sim.sample.shots", "pulse_sim.hamiltonian.bytes_computed",
                 "pulse_sim.propagate.calls", "pulse_sim.propagate.matrices",
                 "pulse_sim.propagate.bytes_computed", "fitting.nlls_fit.calls",
                 "models.evaluate.calls"):
        out[name] = counts[name]
    out["pulse_sim.sample.share"] = own["pulse_sim.sample"] / wall
    out["pulse_sim.propagate.share"] = own["pulse_sim.propagate"] / wall
    out["pulse_sim.shots_per_s"] = (counts["pulse_sim.shot_points"] / simulate
                                    if simulate else 0.0)
    out["fitting.converged_frac"] = counts["fitting.converged"] / fits \
        if fits else 0.0
    out["trace.coverage_frac"] = recorder.root_time() / wall
    return out


def machine() -> dict:
    import numpy
    import scipy

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            record[lib] = {key: deps[lib].get(key) for key in
                           ("name", "version", "openblas configuration")}
    except (TypeError, KeyError) as exc:
        record["blas"] = f"unavailable: {exc!r}"
    return record


def tail(values) -> dict | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    for percentile in (99, 90):
        if len(values) * (100 - percentile) >= 1000:
            return {"percentile": percentile,
                    "value": statistics.quantiles(values, n=100)[percentile - 1]}
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED,
                        help="CLI seed; outputs are compared with the "
                             "committed references at seed "
                             f"{workloads.REFERENCE_SEED}")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [f for f in workloads.REQUIRED_FILES if not Path(f).is_file()]
    if missing:
        print("nvbench: run from the root of an nvcdd checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    out_dir = BENCH_DIR / "_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, out_dir)

    try:
        setup_walls, import_s = measure_setup(workload.config,
                                              bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"nvbench: {exc}", file=sys.stderr)
        return 1
    from nvcdd import cli

    runner = Runner(cli.main, workload, args.seed, out_dir)
    details = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "machine": machine()}
    if args.trace:
        hooks = spans.Hooks()
        results = runner.passes(args.seconds, 2 * MIN_TRACED_PASSES, hooks)
        plain = [r for r in results if r[2] is None]
        traced = [r for r in results if r[2] is not None]
        per_pass = [layer_metrics(rec, wall) for wall, _, rec in traced]
        values = {name: median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        plain_wall = median(w for w, _, _ in plain)
        traced_wall = median(w for w, _, _ in traced)
        values.update({
            f"{name}.import_s": seconds for name, seconds in import_s.items()})
        values.update({
            "trace.wall_s": traced_wall,
            "trace.overhead_frac": traced_wall / plain_wall - 1.0,
            "trace.hooks_absent": len(hooks.absent),
            "check.fail_frac": runner.failed / runner.attempted,
            "check.max_abs_dev": runner.max_abs_dev,
        })
        units = PER_LAYER
        details["hooks_absent"] = sorted(hooks.absent)
        details["traced_pass_wall_s"] = [w for w, _, _ in traced]
    else:
        plain = runner.passes(args.seconds, MIN_PASSES)
        values = {
            "setup_s": median(setup_walls),
            # The fastest pass: other tenants' load on a shared machine
            # comes and goes within a run and only ever slows a pass, so
            # the fast end of many short passes follows the program's own
            # cost, while the median follows the neighbours' load.
            "wall_s": min(w for w, _, _ in plain),
            "cpu_s": min(c for _, c, _ in plain),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        details["setup_s_samples"] = setup_walls
    walls = [w for w, _, _ in plain]
    details.update({
        "passes": len(walls),
        "pass_wall_s": walls,
        "pass_wall_s_median": median(walls),
        "pass_wall_s_tail": tail(walls),
        "pass_cpu_s": [c for _, c, _ in plain],
        "reference": ("committed out/" if args.seed == workloads.REFERENCE_SEED
                      or not workload.seed_dependent
                      else "validity and pass-to-pass identity"),
        "max_abs_dev": runner.max_abs_dev,
        "failures": runner.failures,
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
