"""Config-driven experiment runner.

Three experiment shapes, all reproducible from (config, seed):

* ``power-comparison`` -- received power at a single backscatter tag for the
  conventional diagonal surface versus the fully-connected one, swept over
  element counts.
* ``beamforming-bench`` -- the four design algorithms swept over element
  counts with mobility-driven channels; sum rate and wall time per trial.
* ``qml-beam`` -- hybrid beam-prediction training curves on the synthetic
  position-to-beam dataset.

Configs are flat ``key = value`` lines with optional ``[section]`` headers
(sections: channel, optimizer, qml).  Unknown keys are errors; every default
is materialized into ``config.resolved`` next to the results.

Every output file format lives here, and every value in them is written by
``csv_line``.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .architectures import diagonal_single_tag_amplitude, fully_connected_single_tag_amplitude
from .channel import ChannelRealization, ScenarioConfig, path_loss_linear, sample_fading
from .errors import ConfigError, InvalidInput, check_counts, check_integers
from .manifold import random_unitary
from .optim import ALGORITHMS, OptimizerConfig, benchmark
from .qml import (
    MAX_QUBITS,
    SyntheticBeamDataset,
    confusion_matrix,
    generate_synthetic_dataset,
    hybrid_predictions,
    init_hybrid_model,
    train_hybrid,
)
from .seeding import derive_seed, derived_rng

EXPERIMENTS = ("power-comparison", "beamforming-bench", "qml-beam")
ALGORITHM_NAMES = tuple(ALGORITHMS)


@dataclass(frozen=True)
class QmlSettings:
    num_qubits: int = 4
    num_layers: int = 2
    num_beams: int = 4
    num_samples: int = 200
    noise_sigma: float = 0.01
    epochs: int = 200
    learning_rate: float = 8.0

    def __post_init__(self):
        if not 1 <= self.num_qubits <= MAX_QUBITS:
            raise InvalidInput(f"num_qubits must be in [1, {MAX_QUBITS}]")
        check_counts(num_qubits=self.num_qubits, num_layers=self.num_layers, num_beams=self.num_beams,
                     num_samples=self.num_samples, epochs=self.epochs)
        # one sample per beam, and an 80/20 split that leaves a validation sample
        if self.num_samples < max(self.num_beams, 3):
            raise InvalidInput("num_samples must be >= num_beams and >= 3")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidInput("learning_rate must be positive and finite")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidInput("noise_sigma must be >= 0 and finite")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    trials: int = 200
    element_counts: tuple[int, ...] = (8, 16, 32, 64)
    algorithms: tuple[str, ...] = ALGORITHM_NAMES
    include_random_baseline: bool = False
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    qml: QmlSettings = field(default_factory=QmlSettings)
    output_dir: str = "results"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment '{self.experiment}'")
        try:
            check_integers(seed=self.seed)
            check_counts(trials=self.trials)
            for n in self.element_counts:
                check_counts(element_counts=n)
        except InvalidInput as exc:
            raise ConfigError(str(exc)) from exc
        if self.experiment != "qml-beam" and not self.element_counts:
            raise ConfigError("element_counts must be non-empty")
        for name in ("element_counts", "algorithms"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} must not repeat an entry")
        bad = [a for a in self.algorithms if a not in ALGORITHM_NAMES]
        if bad:
            raise ConfigError(f"unknown algorithms: {','.join(bad)}")
        if self.experiment == "beamforming-bench" and not self.algorithms:
            raise ConfigError("algorithms must be non-empty")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 bits")


# --------------------------------------------------------------------------
# output text

def csv_line(*values) -> str:
    """The values comma-joined: the one place a value becomes output text.

    A float gets 17 significant digits, which read back as the same
    float64; a boolean is ``true``/``false``; anything else is ``str``.
    """

    def cell(v) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        return f"{v:.17g}" if isinstance(v, float) else str(v)

    return ",".join(cell(v) for v in values)


PLOT_COLUMNS = ("figure", "series", "x", "y")
POWER_COLUMNS = ("N", "ris_type", "trial", "received_power_dbm")
BENCHMARK_COLUMNS = ("algorithm", "N", "trial", "sum_rate_bps_hz", "wall_time_s", "iterations", "converged")
TRACE_COLUMNS = ("epoch", "split", "cross_entropy", "acc_delta0", "acc_delta1", "acc_delta2")
REALIZATION_COLUMNS = ("link_type", "device", "row", "col", "re", "im")


def _table(columns, rows) -> list[str]:
    """A header line, then one line per row of values."""
    return [csv_line(*columns)] + [csv_line(*row) for row in rows]


def dataset_csv_rows(dataset: SyntheticBeamDataset) -> list[str]:
    """Feature columns, then the beam label."""
    header = [f"feature_{i}" for i in range(dataset.features.shape[1])] + ["label"]
    return _table(header, ([*feat, label] for feat, label in zip(dataset.features, dataset.labels)))


def load_dataset_csv(lines, num_beams: int) -> SyntheticBeamDataset:
    body = [line for line in lines[1:] if line.strip()]
    features = np.array([[float(v) for v in line.split(",")[:-1]] for line in body])
    labels = np.array([int(line.split(",")[-1]) for line in body])
    return SyntheticBeamDataset(features, labels, num_beams)


def realization_csv_rows(realization: ChannelRealization) -> list[str]:
    """One row per complex entry of a channel realization.

    Vector links use col = 0 and row = the antenna/element index; the
    backbone matrix uses device = -1.
    """
    rows = []
    for link, vectors in (("direct", realization.direct), ("ris_device", realization.ris_device)):
        rows += [(link, dev, i, 0, v.real, v.imag) for (dev, i), v in np.ndenumerate(vectors)]
    rows += [("bs_ris", -1, r, c, v.real, v.imag) for (r, c), v in np.ndenumerate(realization.bs_ris)]
    return _table(REALIZATION_COLUMNS, rows)


def write_realization_csv(realization: ChannelRealization, path) -> None:
    _write(Path(path), realization_csv_rows(realization))


# --------------------------------------------------------------------------
# config grammar

def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _parse_str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


# top-level key -> parser; the order is the order of config.resolved
_TOP_KEYS = {
    "experiment": str.strip,
    "seed": int,
    "trials": int,
    "element_counts": _parse_int_list,
    "algorithms": _parse_str_list,
    "include_random_baseline": _parse_bool,
    "output_dir": str.strip,
}

# [channel] key -> attribute path inside ScenarioConfig; an int step indexes
# a position vector.  The order is the order of config.resolved.
_CHANNEL_PATHS = {
    "reference_loss_db": ("pathloss", "reference_loss_db"),
    "reference_distance_m": ("pathloss", "reference_distance_m"),
    "exponent_device_bs": ("pathloss", "exponent_device_bs"),
    "exponent_device_ris": ("pathloss", "exponent_device_ris"),
    "exponent_bs_ris": ("pathloss", "exponent_bs_ris"),
    "bs_ris_rician_k_db": ("fading", "bs_ris_rician_k_db"),
    "device_links_rician_k_db": ("fading", "device_links_rician_k_db"),
    "los_probability": ("fading", "los_probability"),
    "num_devices": ("num_devices",),
    "num_bs_antennas": ("num_bs_antennas",),
    "noise_power_dbm": ("noise_power_dbm",),
    "tx_snr_db": ("tx_snr_db",),
    "speed_min_mps": ("speed_min_mps",),
    "speed_max_mps": ("speed_max_mps",),
    "dt_s": ("dt_s",),
    "snapshots": ("snapshots",),
    "steps_per_snapshot": ("steps_per_snapshot",),
    "bs_x": ("geometry", "bs_position", 0),
    "bs_y": ("geometry", "bs_position", 1),
    "bs_z": ("geometry", "bs_position", 2),
    "ris_x": ("geometry", "ris_position", 0),
    "ris_y": ("geometry", "ris_position", 1),
    "ris_z": ("geometry", "ris_position", 2),
    "area_x_min": ("geometry", "device_area", "x_min"),
    "area_x_max": ("geometry", "device_area", "x_max"),
    "area_y_min": ("geometry", "device_area", "y_min"),
    "area_y_max": ("geometry", "device_area", "y_max"),
}

# section -> (ExperimentConfig field, its type, {key: attribute path}); the
# [optimizer] and [qml] keys are the dataclass fields (the seed is top-level).
_SECTIONS = {
    "channel": ("scenario", ScenarioConfig, _CHANNEL_PATHS),
    "optimizer": (
        "optimizer",
        OptimizerConfig,
        {f.name: (f.name,) for f in fields(OptimizerConfig) if f.name != "seed"},
    ),
    "qml": ("qml", QmlSettings, {f.name: (f.name,) for f in fields(QmlSettings)}),
}

# experiment-specific defaults materialized during resolution
_EXPERIMENT_DEFAULTS = {
    "power-comparison": {"trials": 200, "element_counts": (8, 16, 32, 64)},
    "beamforming-bench": {"trials": 50, "element_counts": (16, 32, 64, 128)},
    "qml-beam": {"trials": 1, "element_counts": ()},
}


def _get(obj, path: tuple):
    for step in path:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def _override(obj, overrides: dict):
    """``obj`` with ``{path: value}`` applied; each object on a path is rebuilt once.

    Nested objects are rebuilt before their parent and in field order, so
    values that are only valid together (a moved device area and the sites
    it must keep clear of) are checked together, and the fault reported
    first does not depend on the order of the keys in the config.
    """
    if () in overrides:
        return overrides[()]
    children: dict = {}
    for (step, *rest), value in overrides.items():
        children.setdefault(step, {})[tuple(rest)] = value
    if isinstance(obj, np.ndarray):
        out = obj.copy()
        for index, sub in children.items():
            out[index] = _override(out[index], sub)
        return out
    changes = {
        f.name: _override(getattr(obj, f.name), children[f.name])
        for f in fields(obj)
        if f.name in children
    }
    return replace(obj, **changes)


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and fully validate a config; unknown keys are errors."""
    errors: list[str] = []
    top: dict = {}
    # fresh per parse, so that no two configs share a position array
    defaults = {name: cls() for name, (_, cls, _) in _SECTIONS.items()}
    overrides: dict[str, dict] = {name: {} for name in _SECTIONS}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section '{name}'")
                current = None
            else:
                current = name
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value'")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if current is None:
            if key not in _TOP_KEYS:
                errors.append(f"line {lineno}: unknown key '{key}'")
                continue
            parser = _TOP_KEYS[key]
        else:
            paths = _SECTIONS[current][2]
            if key not in paths:
                errors.append(f"line {lineno}: unknown key '{key}' in [{current}]")
                continue
            parser = int if isinstance(_get(defaults[current], paths[key]), int) else float
        try:
            parsed = parser(value)
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for '{key}': {exc}")
            continue
        if current is None:
            top[key] = parsed
        else:
            overrides[current][paths[key]] = parsed
    if "experiment" not in top:
        errors.append("experiment missing")
    if errors:
        raise ConfigError("; ".join(errors))
    try:
        sections = {
            field_name: _override(defaults[name], overrides[name])
            for name, (field_name, _, _) in _SECTIONS.items()
        }
        settings = {**_EXPERIMENT_DEFAULTS.get(top["experiment"], {}), **top}
        return ExperimentConfig(**settings, **sections)
    except (InvalidInput, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc


def validate_config(path) -> ExperimentConfig:
    """Parse a config file; raises ConfigError listing every problem."""
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def resolved_config_text(cfg: ExperimentConfig) -> str:
    """Every setting made explicit, in a stable order; a list is one comma-joined value."""

    def line(key, value):
        return f"{key} = {csv_line(*value) if isinstance(value, tuple) else csv_line(value)}"

    lines = [line(key, getattr(cfg, key)) for key in _TOP_KEYS]
    for name, (field_name, _, paths) in _SECTIONS.items():
        section = getattr(cfg, field_name)
        lines += ["", f"[{name}]"]
        lines += [line(key, _get(section, path)) for key, path in paths.items()]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# experiments

def _power_comparison_trial(cfg: ExperimentConfig, trial: int) -> list[tuple]:
    """Single-tag received powers for every element count, nested draws.

    The trial draws the largest surface once and reads smaller surfaces as
    prefixes, which keeps the power gap between architectures smooth in N
    (common random numbers across the sweep).
    """
    rng = derived_rng(cfg.seed, "power-comparison", trial)
    s = cfg.scenario
    n_max = max(cfg.element_counts)
    position = s.geometry.device_area.sample(rng)
    point = np.array([position[0], position[1], 0.0])
    d_ris = float(np.linalg.norm(point - s.geometry.ris_position))
    gain_tag = path_loss_linear(d_ris, s.pathloss.exponent_device_ris, s.pathloss)
    gain_src = path_loss_linear(s.geometry.bs_ris_distance_m, s.pathloss.exponent_bs_ris, s.pathloss)
    los = rng.uniform() < s.fading.los_probability
    k_db = s.fading.device_links_rician_k_db if los else -np.inf
    b_full = np.sqrt(gain_tag) * sample_fading(1, n_max, k_db, rng)[0]
    c_full = np.sqrt(gain_src) * sample_fading(1, n_max, s.fading.bs_ris_rician_k_db, rng)[0]
    tx_power_dbm = s.noise_power_dbm + s.tx_snr_db
    rows = []
    for n in cfg.element_counts:
        b, c = b_full[:n], c_full[:n]
        amp_diag = diagonal_single_tag_amplitude(b, c)
        amp_full = fully_connected_single_tag_amplitude(b, c)
        rows.append((n, "diagonal", trial, tx_power_dbm + 20.0 * np.log10(amp_diag)))
        rows.append((n, "fully_connected", trial, tx_power_dbm + 20.0 * np.log10(amp_full)))
        if cfg.include_random_baseline:
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
            amp_rd = abs(np.vdot(b, phases * c))
            amp_rf = abs(np.vdot(b, random_unitary(n, rng).entries @ c))
            rows.append((n, "diagonal_random", trial, tx_power_dbm + 20.0 * np.log10(amp_rd)))
            rows.append((n, "fully_connected_random", trial, tx_power_dbm + 20.0 * np.log10(amp_rf)))
    return rows


def run_power_comparison(cfg: ExperimentConfig) -> dict:
    rows = [row for t in range(cfg.trials) for row in _power_comparison_trial(cfg, t)]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    plot = [csv_line(*PLOT_COLUMNS)]
    for kind in sorted({r[1] for r in rows}):
        for n in cfg.element_counts:
            values = [r[3] for r in rows if r[0] == n and r[1] == kind]
            plot.append(csv_line("received_power", kind, n, np.mean(values)))
    child_seeds = [derive_seed(cfg.seed, "power-comparison", t) for t in range(cfg.trials)]
    return {"results": _table(POWER_COLUMNS, rows), "plotspec": plot, "child_seeds": child_seeds}


def run_beamforming_bench(cfg: ExperimentConfig, threads: int = 1, no_timing: bool = False) -> dict:
    run_cfg = replace(cfg.optimizer, seed=cfg.seed)
    table = benchmark(
        list(cfg.algorithms), list(cfg.element_counts), cfg.trials, run_cfg, cfg.scenario,
        threads=threads,
    )
    columns = [c for c in BENCHMARK_COLUMNS if not (no_timing and c == "wall_time_s")]
    summary = ["ordinal checks:"]

    def mean_time(algo, n):
        return float(np.mean([r["wall_time_s"] for r in table if r["algorithm"] == algo and r["N"] == n]))

    def mean_rate(algo, n):
        return float(np.mean([r["sum_rate_bps_hz"] for r in table if r["algorithm"] == algo and r["N"] == n]))

    # the cost ordering reads wall times, so it is left out with them
    if "rzf" in cfg.algorithms and not no_timing:
        ok = all(
            mean_time("rzf", n) <= min(mean_time(a, n) for a in cfg.algorithms)
            for n in cfg.element_counts
        )
        summary.append(f"rzf_cheapest_at_every_N: {'pass' if ok else 'fail'}")
    if "qnm" in cfg.algorithms and not no_timing:
        n_max = max(cfg.element_counts)
        ok = mean_time("qnm", n_max) >= max(mean_time(a, n_max) for a in cfg.algorithms)
        summary.append(f"qnm_costliest_at_max_N: {'pass' if ok else 'fail'}")
    for algo in cfg.algorithms:
        rates = [mean_rate(algo, n) for n in cfg.element_counts]
        ok = all(b >= a for a, b in zip(rates, rates[1:]))
        summary.append(f"{algo}_rate_nondecreasing_in_N: {'pass' if ok else 'fail'}")
        per_device = mean_rate(algo, max(cfg.element_counts)) / cfg.scenario.num_devices
        summary.append(f"{algo}_mean_rate_per_device_at_max_N: {csv_line(per_device)}")
    summary.append("solve block sizes (AO and QNM solve each block on its exact compression to the links' span):")
    for algo in cfg.algorithms:
        for n in cfg.element_counts:
            sizes = sorted({r["block_size"] for r in table if r["algorithm"] == algo and r["N"] == n})
            summary.append(f"{algo}_block_size_at_N_{n}: {csv_line(*sizes)}")
    plot = [csv_line(*PLOT_COLUMNS)]
    for algo in cfg.algorithms:
        for n in cfg.element_counts:
            plot.append(csv_line("sum_rate", algo, n, mean_rate(algo, n)))
    if not no_timing:
        for algo in cfg.algorithms:
            for n in cfg.element_counts:
                plot.append(csv_line("wall_time", algo, n, mean_time(algo, n)))
    child_seeds = [
        derive_seed(cfg.seed, "bench-channel", n, t)
        for n in cfg.element_counts
        for t in range(cfg.trials)
    ]
    return {
        "results": _table(columns, ([row[c] for c in columns] for row in table)),
        "plotspec": plot,
        "summary": summary,
        "child_seeds": child_seeds,
        "rows": table,
    }


def run_qml_beam(cfg: ExperimentConfig) -> dict:
    q = cfg.qml
    dataset = generate_synthetic_dataset(
        q.num_samples, q.num_beams, q.noise_sigma, derived_rng(cfg.seed, "qml-beam", "dataset")
    )
    model = init_hybrid_model(
        q.num_qubits, q.num_layers, dataset.features.shape[1], q.num_beams,
        derived_rng(cfg.seed, "qml-beam", "model"),
    )
    trained, trace = train_hybrid(
        dataset, model, q.epochs, q.learning_rate, derived_rng(cfg.seed, "qml-beam", "split")
    )
    predictions = hybrid_predictions(trained, dataset.features)
    counts = confusion_matrix(predictions, dataset.labels, q.num_beams)
    plot = [csv_line(*PLOT_COLUMNS)]
    for row in trace:
        plot.append(csv_line("cross_entropy", row["split"], row["epoch"], row["cross_entropy"]))
        plot.append(csv_line("acc_delta0", row["split"], row["epoch"], row["acc_delta0"]))
    histogram = [f"beam_{i}: {int(c)}" for i, c in enumerate(dataset.class_counts())]
    child_seeds = [
        derive_seed(cfg.seed, "qml-beam", role) for role in ("dataset", "model", "split")
    ]
    return {
        "results": _table(TRACE_COLUMNS, ([row[c] for c in TRACE_COLUMNS] for row in trace)),
        "plotspec": plot,
        "confusion": [csv_line(*row) for row in counts],
        "dataset": dataset_csv_rows(dataset),
        "summary": ["per-beam sample counts:"] + histogram,
        "child_seeds": child_seeds,
    }


# --------------------------------------------------------------------------
# files and orchestration

# schema.txt is the results header, a blank line, then these notes
_SCHEMA_NOTES = {
    "power-comparison": [
        "results.csv: one row per (N, ris_type, trial); received_power_dbm is",
        "the tag's backscatter illumination under the closed-form optimal",
        "surface configuration of that type.",
        "plotspec.csv: figure,series,x,y with per-(series, N) mean powers.",
    ],
    "beamforming-bench": [
        "results.csv: one row per (algorithm, N, trial).  sum_rate_bps_hz is",
        "the snapshot-averaged downlink sum rate of the returned matrix; the",
        "per-device rate is sum_rate divided by the device count (also in",
        "summary.txt).  wall_time_s covers the optimizer call only and is",
        "omitted under --no-timing.",
        "plotspec.csv: figure,series,x,y with per-(algorithm, N) means.",
        "summary.txt: ordinal pass/fail checks and per-device rates.",
    ],
    "qml-beam": [
        "results.csv: one row per (epoch, split) with cross-entropy (nats)",
        "and distance accuracies at delta 0/1/2.",
        "confusion.csv: num_beams x num_beams counts, true beams as rows,",
        "computed over the full dataset with the trained model.",
        "dataset.csv: feature columns then the beam label.",
        "plotspec.csv: figure,series,x,y across epochs per split.",
    ],
}


# the variables that set the thread count of the common BLAS builds
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _environment_lines(threads: int) -> list[str]:
    """``key: value`` lines naming what shapes the numbers: interpreter, numpy, BLAS, CPUs, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        nproc = os.cpu_count()
    return [
        f"python: {platform.python_version()}",
        f"numpy: {np.__version__}",
        f"blas: {blas_text}",
        *(f"{var}: {os.environ.get(var, 'unset')}" for var in BLAS_THREAD_VARS),
        f"nproc: {nproc}",
        f"threads: {threads}",
    ]


def _write(path: Path, lines_or_text) -> None:
    text = lines_or_text if isinstance(lines_or_text, str) else "\n".join(lines_or_text) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def run(
    cfg: ExperimentConfig,
    threads: int = 1,
    no_timing: bool = False,
    strict: bool = False,
) -> list[Path]:
    """Execute one experiment and write its artifact files.

    Returns the written paths.  Raises RuntimeError when strict mode
    escalates optimizer non-convergence; ``cfg`` was validated when it was
    built.  ``threads`` runs beamforming-bench trials in a thread pool.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if threads > 1 and cfg.experiment == "beamforming-bench" and not no_timing:
        print(
            "warning: timing columns produced with more than one thread; "
            "use --threads 1 (or --no-timing) for comparable timings",
            file=sys.stderr,
        )
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if cfg.experiment == "power-comparison":
        outputs = run_power_comparison(cfg)
    elif cfg.experiment == "beamforming-bench":
        outputs = run_beamforming_bench(cfg, threads, no_timing)
        if strict:
            stragglers = sum(not row["converged"] for row in outputs["rows"])
            if stragglers:
                raise RuntimeError(f"{stragglers} optimizer runs did not converge")
    else:
        outputs = run_qml_beam(cfg)
    written = []
    for name, key in (
        ("results.csv", "results"),
        ("plotspec.csv", "plotspec"),
        ("summary.txt", "summary"),
        ("confusion.csv", "confusion"),
        ("dataset.csv", "dataset"),
    ):
        if key in outputs:
            _write(out / name, outputs[key])
            written.append(out / name)
    _write(out / "schema.txt", [outputs["results"][0], ""] + _SCHEMA_NOTES[cfg.experiment])
    _write(out / "config.resolved", resolved_config_text(cfg))
    manifest = [
        f"tool: bdris {__version__}",
        f"experiment: {cfg.experiment}",
        f"seed: {cfg.seed}",
        f"started_utc: {started}",
        *_environment_lines(threads),
        "child seeds:",
    ] + [f"  {i}: {seed}" for i, seed in enumerate(outputs["child_seeds"])]
    _write(out / "manifest.txt", manifest)
    written += [out / "schema.txt", out / "config.resolved", out / "manifest.txt"]
    return written
