#!/usr/bin/env python3
"""Benchmark polamp end to end (``--trace 0``) or per module (``--trace 1``).

Run from the root of a checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

One invocation runs one workload in this fresh process, as a closed loop
from one thread: the next op starts when the previous one has finished.
Inputs come from ``--seed`` alone. Every op's output is checked against the
benchmark's own oracles, after the op's timer has stopped.

``--trace 0`` prints the end-to-end metrics: the median and tail op time,
the set-up time of a fresh interpreter, peak memory, and the share of ops
that passed. ``--trace 1`` spends half of ``--seconds`` untraced and half
with spans around every public polamp function, and prints the per-module
metrics and the tracing overhead. The next-to-last stdout line is a JSON
record with provenance and sizes; the last is the result:

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

See README.md in this directory for why each workload exists and which
end-to-end metric each per-module metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
from tracing import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("verify", "chain_shallow", "chain_deep", "scalar_api")

END_TO_END = {
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

SUITES = (
    "amplitude_oracle",
    "hermiticity",
    "orthonormality",
    "chaining",
    "probability_forms",
    "periodicity",
    "observable_closed_forms",
    "operator_oracle_triangle",
    "eigen_residual",
    "expectation_consistency",
    "standard_limits",
)

PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.sloc": "lines" for layer in LAYERS},
    "amplitudes.lanes": "count",
    "operators.lanes": "count",
    "closedforms.lanes": "count",
    **{f"verify.{suite}_s": "s" for suite in SUITES},
    "verify.collect_errata_s": "s",
    "simulate.sample_s": "s",
    "simulate.trials": "count",
    "simulate.sample_bytes": "B",
    "simulate.exact_distribution_s": "s",
    "simulate.sequences": "count",
    "cli.output_lines": "count",
    "cli.output_bytes": "B",
    "setup.numpy_import_s": "s",
    "setup.polamp_import_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Per-layer metrics that are counts computed from arguments or output,
#: not measured times.
COMPUTED = [
    name
    for name in PER_LAYER
    if name.endswith((".calls", ".lanes", ".sloc", "_lines", "_bytes"))
    or name in ("simulate.trials", "simulate.sequences")
]

#: Per-layer metric -> key of the inclusive span time it reports.
SPAN_TOTALS = {
    **{f"verify.{suite}_s": f"verify.suite_{suite}.total_s" for suite in SUITES},
    "verify.collect_errata_s": "verify.collect_errata.total_s",
    "simulate.sample_s": "simulate.sample.total_s",
    "simulate.exact_distribution_s": "simulate.exact_distribution.total_s",
}

#: What a user pays before the first command: a fresh interpreter that
#: imports polamp and builds the CLI parser.
SETUP_CODE = "import polamp.cli; polamp.cli.build_parser()"
SETUP_RUNS = 15
IMPORTTIME_RUNS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int, help="workload seed (inputs)")
    parser.add_argument("--seconds", required=True, type=float, help="measured loop length")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--small", action="store_true", help="tiny per-op sizes and few set-up runs (smoke test)"
    )
    parser.add_argument("--spans", type=Path, help="with --trace 1, write every span here (JSON lines)")
    return parser.parse_args(argv)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class SetupTimer:
    """Times fresh interpreters running SETUP_CODE, spread over the op loop.

    Host contention comes in episodes of seconds, so samples taken in one
    burst would all share one episode; spread over the loop, their median
    sees the whole run. The first interpreter also byte-compiles the
    sources and is not counted.

    No timeout: with one, ``subprocess`` polls for the child's exit in
    sleeps of up to 50 ms, which would quantize the times.
    """

    def __init__(self, runs: int, seconds: float):
        self.runs, self.seconds = runs, seconds
        self.cmd = [sys.executable, "-c", SETUP_CODE]
        self.env = _env()
        self.samples: list[float] = []
        self._once()
        self.start = time.perf_counter()

    def _once(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, check=True, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def due(self) -> None:
        """Take the samples whose share of the loop has elapsed."""
        elapsed = time.perf_counter() - self.start
        while len(self.samples) < min(self.runs, elapsed * self.runs / self.seconds):
            self.samples.append(self._once())

    def finish(self) -> list[float]:
        while len(self.samples) < self.runs:
            self.samples.append(self._once())
        return self.samples


def import_times(runs: int) -> tuple[list[float], list[float]]:
    """(numpy, polamp without numpy) cumulative import seconds from ``-X importtime``."""
    cmd = [sys.executable, "-X", "importtime", "-c", SETUP_CODE]
    env = _env()
    numpy_s, polamp_s = [], []
    for _ in range(runs):
        proc = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=60)
        numpy_us, polamp_us = 0, 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[1].strip().isdigit():
                continue
            name = fields[2][1:]
            top_level = not name.startswith(" ")
            if name.strip() == "numpy":
                numpy_us = int(fields[1])
            elif top_level and name.startswith("polamp"):
                polamp_us += int(fields[1])
        numpy_s.append(numpy_us / 1e6)
        polamp_s.append((polamp_us - numpy_us) / 1e6)
    return numpy_s, polamp_s


def run_ops(workload, seconds: float, tracer=None, between=None):
    """Closed loop for ``seconds``; returns per-op times, output sizes and
    errors. ``between`` runs after each op's check, outside its timing."""
    times, sizes, errors = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        inputs = workload.next_input()
        if tracer is not None:
            tracer.op = len(times)
        t0 = time.perf_counter()
        try:
            out = workload.run(inputs)
            error = None
        except (Exception, SystemExit) as exc:
            out, error = None, f"{workload.name}: {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.op = -1
        if out is not None:
            try:
                error = workload.check(inputs, out)
            except Exception as exc:
                error = f"{workload.name}: check raised {type(exc).__name__}: {exc}"
        sizes.append((getattr(out, "lines", 0), getattr(out, "nbytes", 0)))
        if error is not None:
            errors.append(error)
        out = None  # the next op should not run beside this one's output
        if between is not None:
            between()
        if time.perf_counter() >= deadline:
            return times, sizes, errors


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with at least ten ops beyond it.

    Below 22 ops no rank above the median has ten ops beyond it; the tail is
    then the median rank (the upper one for an even count).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n


def sloc(layer: str) -> int:
    lines = (SRC / "polamp" / f"{layer}.py").read_text().splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.lstrip().startswith("#"))


def provenance(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "polamp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            cpu_model = next(
                (ln.split(":", 1)[1].strip() for ln in cpuinfo if ln.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "workload_seed": seed,
    }


def measure(args, workload, record: dict) -> tuple[dict, int, list[str]]:
    """Metrics, ops attempted and the error of every failed op."""
    warm = run_ops(workload, 0.0)  # one checked, untimed op: lazy imports and caches
    errors = warm[2]
    attempted = 1
    if not args.trace:
        timer = SetupTimer(2 if args.small else SETUP_RUNS, args.seconds)
        times, _, errs = run_ops(workload, args.seconds, between=timer.due)
        setup = timer.finish()
        errors += errs
        attempted += len(times)
        tail_s, tail_pct = tail(times)
        metrics = {
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - len(errors)) / attempted,
        }
        record.update(
            timed_ops=len(times),
            tail_percentile=tail_pct,
            setup_runs=len(setup),
            op_times_s=times,
            setup_times_s=setup,
        )
        return metrics, attempted, errors

    numpy_s, polamp_s = import_times(2 if args.small else IMPORTTIME_RUNS)
    half = args.seconds / 2
    untraced, _, errs = run_ops(workload, half)
    errors += errs
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, sizes, errs = run_ops(workload, half, tracer)
    finally:
        tracer.uninstall()
    errors += errs
    attempted += len(untraced) + len(traced)

    per_op = tracer.reduce(len(traced))
    per_op["cli.output_lines"] = [lines for lines, _ in sizes]
    per_op["cli.output_bytes"] = [nbytes for _, nbytes in sizes]
    for metric, key in SPAN_TOTALS.items():
        per_op[metric] = per_op.get(key, [0.0])
    metrics = {}
    for name in PER_LAYER:
        if name in per_op:
            middle = statistics.median_low if name in COMPUTED else statistics.median
            metrics[name] = float(middle(per_op[name]))
        elif name.endswith(".sloc"):
            metrics[name] = sloc(name.removesuffix(".sloc"))
        else:
            metrics[name] = 0.0
    metrics["setup.numpy_import_s"] = statistics.median(numpy_s)
    metrics["setup.polamp_import_s"] = statistics.median(polamp_s)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    record.update(
        untraced_ops=len(untraced),
        traced_ops=len(traced),
        spans=len(tracer.start),
        importtime_runs=len(numpy_s),
        computed=COMPUTED,
    )
    if args.spans is not None:
        with open(args.spans, "w") as out:
            for op, layer, fn, parent, start, end in tracer.spans():
                out.write(
                    json.dumps(
                        {"op": op, "name": f"{layer}.{fn}", "parent": parent, "start": start, "end": end}
                    )
                    + "\n"
                )
    return metrics, attempted, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "polamp" / "__init__.py").is_file():
        print(f"error: no polamp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import polamp

    if not Path(polamp.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported polamp from {polamp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
    record.update(provenance(args.seed))
    record["loadavg_1m_start"] = os.getloadavg()[0]
    workdir = Path(tempfile.mkdtemp(prefix=".bench-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir, args.small)
        record["per_op"] = workload.sizes
        metrics, attempted, errors = measure(args, workload, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(errors)
    record["loadavg_1m_end"] = os.getloadavg()[0]
    record["fail_ratio"] = failed / attempted
    record["first_errors"] = errors[:5]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
