"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

For every workload it checks that
  * the untraced and the traced run print every metric BENCHMARK.json
    names, with the unit given there, and report no failed op;
  * two traced runs with one seed agree exactly on every metric that does
    not depend on timing (quality ratios, iteration and call counts);
  * a traced run with another seed changes those metrics.
It also checks that the benchmark exits non-zero without printing a
result when the package source is missing.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# metrics whose values do not depend on timing
DETERMINISTIC_SUFFIXES = (
    ".calls", ".count", ".iterations", ".retractions", ".accept_ratio", ".converged_frac",
    ".tangent_per_iter", ".gain_ratio", ".rate_ratio", ".val_cross_entropy", "ok_frac", "quality_ratio",
)


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    # as the benchmark is run: by a path relative to the checkout root
    command = [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        command.append("--smoke")
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(workload: str, seed: int, trace: int) -> dict:
    done = run(workload, seed, trace)
    if done.returncode != 0:
        fail(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def deterministic(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if k.endswith(DETERMINISTIC_SUFFIXES)}


def check_names(workload: str, trace: int, result: dict, declared: list[dict]) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace {trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} trace {trace}: {result['failed']} of {result['attempted']} ops failed")
    metrics = result["metrics"]
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            fail(f"{workload} trace {trace}: {metric['name']} [{metric['unit']}] printed as {got}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        fail(f"{workload} trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")


def check_missing_source(workload: str) -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        done = run(workload, 0, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it
    lines = done.stdout.strip().splitlines()
    if done.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"without the source tree the benchmark exited {done.returncode} with {lines[-1:]}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_names(workload, 0, result_of(workload, 1, 0), spec["end_to_end"])
        first = result_of(workload, 1, 1)
        check_names(workload, 1, first, spec["per_layer"])
        again = deterministic(result_of(workload, 1, 1)["metrics"])
        if deterministic(first["metrics"]) != again:
            fail(f"{workload}: same seed, different non-timing metrics")
        if deterministic(result_of(workload, 2, 1)["metrics"]) == again:
            fail(f"{workload}: another seed left every non-timing metric unchanged")
        print(f"ok {workload}")
    check_missing_source(spec["workloads"][0]["name"])
    print("ok missing source tree exits non-zero without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
