"""The benchmark's workloads: inputs, one timed round, and output checks.

Every workload is single-process and closed-loop: rounds run one after
another, each on fresh inputs derived from the run seed and the round
index, and the next round starts when the previous one has returned.
An op is one optimizer solve on the bench workloads and one training
epoch on ``qml-beam``.  Ops are timed in CPU time of this process
(``time.process_time``), from outside at the public names the package
calls through (``bdris.optim.ALGORITHMS`` for solves,
``bdris.harness.train_hybrid`` and ``bdris.qml.hybrid_logits`` for
epochs).  Output checks run after a round's timed part and count
failures instead of raising.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from bdris import harness, optim, qml
from bdris.architectures import BdRisArchitecture, validate
from bdris.manifold import BlockStructure

from tracing import ALGORITHM_NAMES, Patches, first_realization

VALIDATE_TOL = 1e-8

BENCH_FC = """\
experiment = beamforming-bench
seed = {seed}
trials = 1
element_counts = {element_counts}
algorithms = rzf,fp,ao,qnm
output_dir = {out}

[optimizer]
max_iterations = {max_iterations}
"""

BENCH_BLOCKS = """\
experiment = beamforming-bench
seed = {seed}
trials = 1
element_counts = {element_counts}
algorithms = rzf,fp,ao,qnm

[optimizer]
max_iterations = {max_iterations}
"""

QML_BEAM = """\
experiment = qml-beam
seed = {seed}
output_dir = {out}

[qml]
num_qubits = {num_qubits}
num_layers = 2
num_samples = {num_samples}
epochs = {epochs}
"""

# full size and smoke size (the benchmark's self-test) of each workload
SIZES = {
    "bench-fc": (
        {"element_counts": "32,64,128", "max_iterations": 40},
        {"element_counts": "8,16", "max_iterations": 20},
    ),
    "bench-blocks": (
        {"element_counts": "256", "max_iterations": 30, "groups": 64},
        {"element_counts": "16", "max_iterations": 10, "groups": 4},
    ),
    "qml-beam": (
        {"num_qubits": 6, "num_samples": 400, "epochs": 100},
        {"num_qubits": 3, "num_samples": 40, "epochs": 5},
    ),
}
NAMES = tuple(SIZES)


def round_seed(seed: int, workload: str, index: int) -> int:
    """Config seed of one round: a pure function of (run seed, workload, round)."""
    digest = hashlib.sha256(f"perfbench/{seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Solve(NamedTuple):
    """One optimizer call seen at ``bdris.optim.ALGORITHMS``."""

    algorithm: str
    n: int
    arch: BdRisArchitecture
    seconds: float
    result: optim.OptimizerResult


@dataclass
class Round:
    """What one round measured and what its checks found."""

    wall_s: float
    cpu_s: float
    op_seconds: list[float]
    op_kinds: list[str]
    op_iterations: list[int]
    op_ok: list[bool]
    quality: float
    components: dict[str, float] = field(default_factory=dict)
    bytes_written: int = 0


class Workload:
    """Builds inputs from the seed, runs rounds, checks outputs."""

    def __init__(self, name: str, smoke: bool, out_dir: Path):
        self.name = name
        self.sizes = SIZES[name][1 if smoke else 0]
        self.out_dir = out_dir
        self.rounds_started = 0
        self.template = {"bench-fc": BENCH_FC, "bench-blocks": BENCH_BLOCKS, "qml-beam": QML_BEAM}[name]
        cfg = self.parse(0, out_dir)  # set-up: the config grammar and the surfaces
        if name == "bench-blocks":
            n = cfg.element_counts[0]
            groups = self.sizes["groups"]
            self.archs = (
                BdRisArchitecture.diagonal(),
                BdRisArchitecture.group_connected(BlockStructure((n // groups,) * groups)),
            )
            self.ops_per_round = len(cfg.algorithms) * len(self.archs)
        elif name == "bench-fc":
            self.ops_per_round = len(cfg.algorithms) * len(cfg.element_counts)
        else:
            self.ops_per_round = cfg.qml.epochs

    def parse(self, seed: int, out: Path):
        text = self.template.format(seed=seed, out=out.as_posix(), **self.sizes)
        return harness.parse_config_text(text)

    def run_round(self, seed: int) -> Round:
        # A fresh directory per round: on ext4, truncating a file written
        # moments before waits for its delayed blocks to reach the disk,
        # which would make the measurement depend on the disk.
        out = self.out_dir / f"round-{self.rounds_started}"
        self.rounds_started += 1
        try:
            if self.name == "qml-beam":
                return self._qml_round(seed, out)
            return self._bench_round(seed, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    # -- bench workloads -------------------------------------------------

    def _bench_round(self, seed: int, out: Path) -> Round:
        solves = []
        patches = Patches()
        for name in ALGORITHM_NAMES:
            patches.set_item(optim.ALGORITHMS, name, _timed_solver(name, optim.ALGORITHMS[name], solves))
        try:
            start, start_cpu = time.perf_counter(), time.process_time()
            cfg = self.parse(seed, out)
            if self.name == "bench-fc":
                written = harness.run(cfg, threads=1)
            else:
                run_cfg = replace(cfg.optimizer, seed=cfg.seed)
                tables = [
                    optim.benchmark(
                        list(cfg.algorithms), list(cfg.element_counts), cfg.trials, run_cfg,
                        cfg.scenario, arch=arch, threads=1,
                    )
                    for arch in self.archs
                ]
            wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        finally:
            patches.restore()
        if self.name == "bench-fc":
            header_ok = _header_matches_schema(out)
            rows = _csv_rows(out / "results.csv")
            bytes_written = sum(p.stat().st_size for p in written)
        else:
            header_ok = True
            rows = [(r["algorithm"], r["N"], r["sum_rate_bps_hz"]) for table in tables for r in table]
            bytes_written = 0
        aligned = (
            header_ok
            and len(solves) == len(rows) == self.ops_per_round
            and all(row[:2] == solve[:2] for row, solve in zip(rows, solves))
        )
        rates = [row[2] for row in rows]
        ok = [aligned and _solve_ok(s.arch, s.result, rate) for s, rate in zip(solves, rates)]
        ok += [False] * max(0, self.ops_per_round - len(ok))
        quality, components = _bench_quality(solves, rates) if aligned else (0.0, {})
        surface = "" if self.name == "bench-fc" else "/{}"
        return Round(
            wall_s=wall,
            cpu_s=cpu,
            op_seconds=[s.seconds for s in solves],
            op_kinds=[f"{s.algorithm}@{s.n}" + surface.format(s.arch.kind.value) for s in solves],
            op_iterations=[s.result.iterations for s in solves],
            op_ok=ok,
            quality=quality,
            components=components,
            bytes_written=bytes_written,
        )

    # -- qml-beam ----------------------------------------------------------

    def _qml_round(self, seed: int, out: Path) -> Round:
        epochs = EpochClock()
        patches = Patches()
        patches.set_attr(harness, "train_hybrid", epochs.wrap_training(harness.train_hybrid))
        patches.set_attr(qml, "hybrid_logits", epochs.wrap_logits(qml.hybrid_logits))
        try:
            start, start_cpu = time.perf_counter(), time.process_time()
            cfg = self.parse(seed, out)
            written = harness.run(cfg, threads=1)
            wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        finally:
            patches.restore()
        header_ok = _header_matches_schema(out)
        ok = [header_ok and _epoch_ok(rows) for rows in epochs.rows_per_epoch()]
        ok += [False] * max(0, self.ops_per_round - len(ok))
        val = [row for row in epochs.trace if row["split"] == "val"]
        cross_entropy = val[-1]["cross_entropy"] if val else math.inf
        quality = cfg.qml.num_beams * math.exp(-cross_entropy)
        latencies = epochs.latencies()
        return Round(
            wall_s=wall,
            cpu_s=cpu,
            op_seconds=latencies,
            op_kinds=["epoch"] * len(latencies),
            op_iterations=[1] * len(latencies),
            op_ok=ok,
            quality=quality,
            components={"qml.val_cross_entropy": cross_entropy},
            bytes_written=sum(p.stat().st_size for p in written),
        )


def _timed_solver(name, solver, solves):
    clock = time.process_time

    def timed(realizations, arch, cfg):
        start = clock()
        result = solver(realizations, arch, cfg)
        elapsed = clock() - start
        solves.append(Solve(name, first_realization(realizations).num_elements, arch, elapsed, result))
        return result

    return timed


class EpochClock:
    """Epoch boundaries of ``train_hybrid`` in CPU time, seen from outside.

    Each epoch ends with one ``hybrid_logits`` call per split (train, then
    validation), so the second call of each pair closes an epoch.  If the
    call pattern differs, every epoch is given the mean epoch time.
    """

    def __init__(self):
        self.start = self.end = 0.0
        self.marks: list[float] = []
        self.epochs = 0
        self.trace: list[dict] = []
        self.inside = False

    def wrap_training(self, train):
        def timed(dataset, model, epochs, learning_rate, rng):
            self.epochs = epochs
            self.inside = True
            self.start = time.process_time()
            try:
                trained, trace = train(dataset, model, epochs, learning_rate, rng)
            finally:
                self.end = time.process_time()
                self.inside = False
            self.trace = trace
            return trained, trace

        return timed

    def wrap_logits(self, logits):
        def timed(model, features):
            out = logits(model, features)
            if self.inside:
                self.marks.append(time.process_time())
            return out

        return timed

    def latencies(self) -> list[float]:
        if len(self.marks) == 2 * self.epochs:
            bounds = [self.start] + self.marks[1::2]
            return [b - a for a, b in zip(bounds, bounds[1:])]
        return [(self.end - self.start) / max(self.epochs, 1)] * self.epochs

    def rows_per_epoch(self) -> list[list[dict]]:
        by_epoch: dict[int, list[dict]] = {}
        for row in self.trace:
            by_epoch.setdefault(row["epoch"], []).append(row)
        return [by_epoch.get(e, []) for e in range(1, self.epochs + 1)]


# -- output checks ---------------------------------------------------------

def _header_matches_schema(out_dir: Path) -> bool:
    try:
        results = (out_dir / "results.csv").read_text(encoding="utf-8").splitlines()
        schema = (out_dir / "schema.txt").read_text(encoding="utf-8").splitlines()
    except OSError:
        return False
    return bool(results) and bool(schema) and results[0] == schema[0]


def _csv_rows(path: Path) -> list[tuple[str, int, float]]:
    """(algorithm, N, sum rate) of every results.csv row."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    algo, n, rate = (header.index(c) for c in ("algorithm", "N", "sum_rate_bps_hz"))
    return [
        (cells[algo], int(cells[n]), float(cells[rate]))
        for cells in (line.split(",") for line in lines[1:] if line)
    ]


def _solve_ok(arch, result, rate) -> bool:
    theta = np.asarray(result.theta)
    trace = np.asarray(result.objective_trace, dtype=float)
    try:
        valid = validate(theta, arch, VALIDATE_TOL).valid
    except ValueError:
        return False
    return bool(
        valid
        and np.all(np.isfinite(theta))
        and trace.size >= 1
        and np.all(np.isfinite(trace))
        and np.all(np.diff(trace) >= 0.0)
        and math.isfinite(result.wall_time_s)
        and math.isfinite(rate)
    )


def _epoch_ok(rows: list[dict]) -> bool:
    if len(rows) != 2:
        return False
    for row in rows:
        if not math.isfinite(row["cross_entropy"]):
            return False
        if not all(0.0 <= row[key] <= 1.0 for key in ("acc_delta0", "acc_delta1", "acc_delta2")):
            return False
    return True


def _bench_quality(solves, rates) -> tuple[float, dict[str, float]]:
    """Geometric mean of the optimizers' gains over RZF at the largest N.

    AO and QNM are scored on their own objective (channel gain) and FP on
    its own (sum rate), each divided by RZF's on the same channels and
    surface.
    """
    n_max = max(s.n for s in solves)
    at_max = {(s.algorithm, s.arch): (s.result, rate) for s, rate in zip(solves, rates) if s.n == n_max}
    ratios: dict[str, list[float]] = {
        "optim.ao.gain_ratio": [], "optim.qnm.gain_ratio": [], "optim.fp.rate_ratio": [],
    }
    for arch in dict.fromkeys(s.arch for s in solves):
        rzf, rzf_rate = at_max[("rzf", arch)]
        gain = rzf.objective_trace[-1]
        for algo in ("ao", "qnm"):
            ratios[f"optim.{algo}.gain_ratio"].append(at_max[(algo, arch)][0].objective_trace[-1] / gain)
        ratios["optim.fp.rate_ratio"].append(at_max[("fp", arch)][1] / rzf_rate)
    every = [r for values in ratios.values() for r in values]
    quality = math.exp(sum(math.log(r) for r in every) / len(every))
    return quality, {k: sum(v) / len(v) for k, v in ratios.items()}
