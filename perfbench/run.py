"""Benchmark of the bdris package: one workload, one seed, one run.

    python3 perfbench/run.py --workload bench-fc --seed 1 --seconds 30 --trace 0

Runs rounds of the workload closed-loop until ``--seconds`` of measured
wall time have passed, checks every op's outputs, prints each metric by name
with its unit and an ``env`` line, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs the rounds untraced, runs the same rounds
again with every layer boundary traced, and reports the per-layer
metrics; the wall-time difference of the two passes is the tracing
overhead.  ``--smoke`` runs two rounds of a tiny size (the self-test).

The package is imported from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os
import sys

# Pin every BLAS to one thread before numpy loads: results differ in
# their last digits across BLAS thread counts, and timings with them.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("bench-fc", "bench-blocks", "qml-beam")
SETUP_PROBES = 9
SMOKE_ROUNDS = 2
# Printed per op kind only: on a shared host the tail follows bursts of
# host load more than the program, so it is no end-to-end metric.
TAIL_PERCENTILE = 90
COMPONENTS = ("optim.ao.gain_ratio", "optim.qnm.gain_ratio", "optim.fp.rate_ratio", "qml.val_cross_entropy")
COMPONENT_UNITS = {"qml.val_cross_entropy": "nats"}

# A fresh interpreter doing the workload's set-up: import the package and
# numpy, parse the workload config, build the surfaces.
SETUP_PROBE = (
    "import sys, pathlib; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.Workload(sys.argv[3], sys.argv[4] == '1', pathlib.Path('.bench_out'))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="two rounds at a tiny size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def load_package():
    """Import bdris from this checkout's source tree, or exit 2."""
    if not (SRC / "bdris" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bdris

    if not Path(bdris.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: bdris imported from {bdris.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "load_1m_start": os.getloadavg()[0],
    }


def setup_seconds(name: str, smoke: bool) -> float:
    """Median wall time of fresh interpreters doing the workload's set-up."""
    command = [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name, "1" if smoke else "0"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # a blocking wait: Popen.wait with a timeout polls in steps of up to 50 ms
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL) as probe:
            code = probe.wait()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
    return statistics.median(times)


def run_rounds(workload, seed: int, seconds: float, count: int | None = None) -> list:
    """Closed loop of rounds: ``count`` of them, or as many as fit in ``seconds``.

    A round starts only if a round of the mean length so far still fits,
    so the measured time never overshoots by a whole round.
    """
    from workloads import round_seed

    rounds = []
    measured = 0.0
    while count is None or len(rounds) < count:
        if count is None and rounds and measured * (len(rounds) + 1) / len(rounds) > seconds:
            break
        result = workload.run_round(round_seed(seed, workload.name, len(rounds)))
        measured += result.wall_s
        rounds.append(result)
    return rounds


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile * len(ordered) / 100), 1) - 1]


def by_kind(rounds, field: str = "op_seconds") -> dict[str, list]:
    """One field of every op, per op kind (e.g. every AO solve at N = 128)."""
    kinds: dict[str, list] = {}
    for r in rounds:
        for kind, value in zip(r.op_kinds, getattr(r, field)):
            kinds.setdefault(kind, []).append(value)
    return kinds


def end_to_end(rounds, setup_s: float) -> tuple[dict, list[str]]:
    ok = [flag for r in rounds for flag in r.op_ok]
    wall = sum(r.wall_s for r in rounds)
    cpu = sum(r.cpu_s for r in rounds)
    # The median over kinds of each kind's median: a pooled median of a
    # mix of solve kinds falls between two kinds and jumps with their extremes.
    typical = statistics.median(statistics.median(v) for v in by_kind(rounds).values())
    metrics = {
        "setup_s": (setup_s, "s"),
        # the median round: a burst of host load slows a few rounds, not the run
        "ops_per_cpu_s": (statistics.median(len(r.op_seconds) / r.cpu_s for r in rounds), "1/s"),
        "op_cpu_ms_p50": (typical * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (sum(ok) / len(ok), "frac"),
        "quality_ratio": (statistics.fmean(r.quality for r in rounds), "ratio"),
    }
    notes = [f"rounds {len(rounds)}, ops {len(ok)}, measured {wall:.3f} s wall, {cpu:.3f} s cpu"]
    return metrics, notes


def kind_medians(rounds) -> list[str]:
    iterations = by_kind(rounds, "op_iterations")
    return [
        f"  {kind}: {statistics.median(v) * 1e3:.3f} ms cpu median,"
        f" {nearest_rank(v, TAIL_PERCENTILE) * 1e3:.3f} ms p{TAIL_PERCENTILE} of {len(v)},"
        f" {statistics.fmean(iterations[kind]):.2f} iterations mean"
        for kind, v in by_kind(rounds).items()
    ]


def per_layer(untraced, traced, tracer) -> tuple[dict, list[str]]:
    from tracing import ALGORITHM_NAMES

    wall_untraced = sum(r.wall_s for r in untraced)
    wall_traced = sum(r.wall_s for r in traced)
    metrics = tracer.metrics(wall_traced)
    for name in COMPONENTS:
        values = [r.components[name] for r in traced if name in r.components]
        metrics[name] = (statistics.fmean(values) if values else 0.0, COMPONENT_UNITS.get(name, "ratio"))
    metrics["harness.bytes_written"] = (sum(r.bytes_written for r in traced), "bytes")
    metrics["trace.overhead_frac"] = ((wall_traced - wall_untraced) / wall_untraced, "frac")
    notes = [f"rounds {len(traced)}, untraced {wall_untraced:.3f} s, traced {wall_traced:.3f} s"]
    for name, (calls, total, self_s) in tracer.stats.items():
        if calls:
            notes.append(f"  span {name}: calls {calls}, total {total:.4f} s, self {self_s:.4f} s")
    untraced_kinds = by_kind(untraced)
    for algo in ALGORITHM_NAMES:
        calls, total, self_s = tracer.stats[f"optim.{algo}"]
        if calls:
            plain = sum(sum(v) for kind, v in untraced_kinds.items() if kind.startswith(algo + "@"))
            notes.append(
                f"  optim.{algo}: self {self_s:.4f} s + traced children {total - self_s:.4f} s"
                f" = total {total:.4f} s wall; untraced solves {plain:.4f} s cpu"
            )
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    from tracing import Tracer
    from workloads import Workload

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        count = SMOKE_ROUNDS if args.smoke else None
        workload = Workload(args.workload, args.smoke, out_dir)
        if args.trace == 0:
            setup_s = setup_seconds(args.workload, args.smoke)
            rounds = untraced = run_rounds(workload, args.seed, args.seconds, count)
            metrics, notes = end_to_end(rounds, setup_s)
        else:
            untraced = run_rounds(workload, args.seed, args.seconds, count)
            tracer = Tracer()
            tracer.install()
            try:
                rounds = run_rounds(workload, args.seed, args.seconds, len(untraced))
            finally:
                tracer.restore()
            metrics, notes = per_layer(untraced, rounds, tracer)
            rounds = untraced + rounds
        env["load_1m_end"] = os.getloadavg()[0]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    ok = [flag for r in rounds for flag in r.op_ok]
    failed = ok.count(False)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes + kind_medians(untraced):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and len(ok) > 0,
        "attempted": len(ok),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
