"""Experiment runner: config grammar, determinism, schemas, CLI behavior."""

import ast
import dataclasses
import functools
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdris.architectures import BdRisArchitecture
from bdris.channel import ScenarioConfig, scenario_realizations
from bdris.cli import main as cli_main
from bdris.errors import ConfigError, InvalidInput
from bdris.harness import (
    _SECTIONS,
    BLAS_THREAD_VARS,
    ExperimentConfig,
    QmlSettings,
    csv_line,
    parse_config_text,
    resolved_config_text,
    run,
    run_beamforming_bench,
    run_power_comparison,
    run_qml_beam,
    validate_config,
)
from bdris.optim import ALGORITHMS

POWER_CFG = """\
experiment = power-comparison
trials = 20
element_counts = 4,8
"""

BENCH_CFG = """\
experiment = beamforming-bench
trials = 2
element_counts = 2,4
algorithms = rzf,ao

[channel]
snapshots = 2
steps_per_snapshot = 2

[optimizer]
max_iterations = 25
"""

QML_CFG = """\
experiment = qml-beam

[qml]
num_samples = 40
epochs = 3
num_qubits = 2
num_layers = 1
"""


class TestConfigGrammar:
    def test_defaults_resolve(self):
        cfg = parse_config_text("experiment = power-comparison\n")
        assert cfg.trials == 200
        assert cfg.element_counts == (8, 16, 32, 64)
        assert cfg.seed == 0

    def test_empty_file_is_missing_experiment(self):
        with pytest.raises(ConfigError, match="experiment missing"):
            parse_config_text("")

    def test_misspelled_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'trails'"):
            parse_config_text("experiment = power-comparison\ntrails = 10\n")

    def test_unknown_section_key_reports_line(self):
        text = "experiment = qml-beam\n[qml]\nnum_samples = 10\nbogus = 1\n"
        with pytest.raises(ConfigError, match="line 4: unknown key 'bogus'"):
            parse_config_text(text)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# hi\n\nexperiment = qml-beam  # inline\n")
        assert cfg.experiment == "qml-beam"

    def test_channel_override_lands_in_resolved(self):
        cfg = parse_config_text(
            "experiment = power-comparison\n[channel]\nexponent_device_ris = 2.2\n"
        )
        assert "exponent_device_ris = 2.2" in resolved_config_text(cfg)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config_text("experiment = nope\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(ConfigError, match="line 2: bad value for 'trials'"):
            parse_config_text("experiment = power-comparison\ntrials = lots\n")

    def test_resolved_text_reparses_identically(self):
        cfg = parse_config_text(POWER_CFG)
        again = parse_config_text(resolved_config_text(cfg))
        assert resolved_config_text(again) == resolved_config_text(cfg)

    def test_validate_config_reads_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(POWER_CFG)
        assert validate_config(path).trials == 20


def _walk(obj, path):
    for step in path:
        obj = obj[step] if isinstance(step, int) else getattr(obj, step)
    return obj


def _leaf_paths(obj, prefix=()):
    """Every scalar inside a nested dataclass; position vectors by index."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaf_paths(getattr(obj, f.name), prefix + (f.name,))
    elif isinstance(obj, np.ndarray):
        for i in range(obj.size):
            yield prefix + (i,)
    else:
        yield prefix


SECTION_KEYS = [
    (section, key, path)
    for section, (_, _, paths) in _SECTIONS.items()
    for key, path in paths.items()
]
EXPERIMENT_KEYS = [k for k in SECTION_KEYS if k[0] in ("channel", "qml")]

# a small run of each experiment: (top-level lines, {section: {key: value}})
SMALL_RUNS = {
    "power-comparison": ("trials = 3\nelement_counts = 2,4\ninclude_random_baseline = true\n", {}),
    "beamforming-bench": (
        "trials = 1\nelement_counts = 4\nalgorithms = rzf,ao\n", {"optimizer": {"max_iterations": "3"}}
    ),
    "qml-beam": ("", {"qml": {"num_samples": "12", "epochs": "2"}}),
}


def _small_run_outputs(experiment, moved_section=None, moved=()):
    """Non-timing outputs of the small run, with the ``moved`` key = value pairs set."""
    top, sections = SMALL_RUNS[experiment]
    if moved_section:
        sections = {**sections, moved_section: {**sections.get(moved_section, {}), **dict(moved)}}
    text = f"experiment = {experiment}\n{top}" + "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items()
    )
    cfg = parse_config_text(text)
    if experiment == "power-comparison":
        out = run_power_comparison(cfg)
    elif experiment == "beamforming-bench":
        out = run_beamforming_bench(cfg, no_timing=True)
    else:
        out = run_qml_beam(cfg)
    return {k: out[k] for k in ("results", "plotspec", "summary", "confusion", "dataset") if k in out}


@functools.cache
def _small_run_defaults(experiment):
    return _small_run_outputs(experiment)


def _assert_unknown_key(tmp_path, capsys, section, line):
    """``line`` in ``[section]`` is a parser ConfigError and exit 1 from the CLI."""
    key = line.split(" = ")[0]
    text = f"experiment = beamforming-bench\n[{section}]\n{line}\n"
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config_text(text)
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


class TestConfigKeys:
    """Every key is declared once and round-trips through config.resolved."""

    @staticmethod
    def _override_lines(section, key, path):
        """A valid config text that sets ``key`` away from its default."""
        attr, cls, _ = _SECTIONS[section]
        default = _walk(cls(), path)
        value = default + 1 if isinstance(default, int) else float(default) + 0.25
        return attr, value, f"{key} = {value!r}"

    @pytest.mark.parametrize(
        "section,key,path", SECTION_KEYS, ids=[f"{s}.{k}" for s, k, _ in SECTION_KEYS]
    )
    def test_key_lands_and_resolves(self, section, key, path):
        attr, value, lines = self._override_lines(section, key, path)
        cfg = parse_config_text(f"experiment = beamforming-bench\n[{section}]\n{lines}\n")
        landed, default = _walk(getattr(cfg, attr), path), _walk(_SECTIONS[section][1](), path)
        assert landed == value and landed != default and type(landed) is type(default)
        text = resolved_config_text(cfg)
        shown = f"{value:.17g}" if isinstance(value, float) else str(value)
        assert f"\n{key} = {shown}\n" in text
        assert resolved_config_text(parse_config_text(text)) == text

    @pytest.mark.parametrize(
        "section,key,path", EXPERIMENT_KEYS, ids=[f"{s}.{k}" for s, k, _ in EXPERIMENT_KEYS]
    )
    def test_key_changes_an_output(self, section, key, path):
        """A key that no experiment reads is dead: moving it must change some non-timing output."""
        _, _, lines = self._override_lines(section, key, path)
        moved = [line.split(" = ") for line in lines.splitlines()]
        assert any(
            _small_run_outputs(experiment, section, moved) != _small_run_defaults(experiment)
            for experiment in SMALL_RUNS
        ), f"{section}.{key} changes no experiment's output"

    def test_removed_carrier_key_is_config_fault(self, tmp_path, capsys):
        _assert_unknown_key(tmp_path, capsys, "channel", "carrier_hz = 2400000000.0")

    def test_removed_backbone_distance_key_is_config_fault(self, tmp_path, capsys):
        _assert_unknown_key(tmp_path, capsys, "channel", "bs_ris_distance_m = 100")

    def test_channel_keys_cover_scenario_once(self):
        paths = list(_SECTIONS["channel"][2].values())
        assert sorted(paths, key=str) == sorted(_leaf_paths(ScenarioConfig()), key=str)

    def test_resolved_lists_every_key_in_table_order(self):
        text = resolved_config_text(parse_config_text("experiment = qml-beam\n"))
        keys = [line.split(" = ")[0] for line in text.splitlines() if " = " in line]
        top = [f.name for f in dataclasses.fields(ExperimentConfig)
               if f.name not in ("scenario", "optimizer", "qml")]
        assert keys[: len(top)] == top
        assert keys[len(top):] == [key for _, key, _ in SECTION_KEYS]

    def test_moved_bs_with_matching_distance_parses(self):
        """The backbone distance is derived, so a moved BS carries its own."""
        cfg = parse_config_text("experiment = power-comparison\n[channel]\nbs_x = 50\n")
        assert cfg.scenario.geometry.bs_position[0] == 50.0
        assert cfg.scenario.geometry.bs_ris_distance_m == 50.0

    def test_moved_bs_scales_the_backbone_power(self):
        """bs_x reaches the power comparison only through the derived backbone distance.

        Halving the distance raises every received power by 10 * exponent_bs_ris * log10(2) dB.
        """
        default = _small_run_defaults("power-comparison")["results"]
        moved = _small_run_outputs("power-comparison", "channel", [("bs_x", "50.0")])["results"]
        shift = 10.0 * ScenarioConfig().pathloss.exponent_bs_ris * np.log10(2.0)
        assert len(moved) == len(default) > 1
        for old, new in zip(default[1:], moved[1:]):
            assert new.rsplit(",", 1)[0] == old.rsplit(",", 1)[0]
            assert float(new.rsplit(",", 1)[1]) - float(old.rsplit(",", 1)[1]) == pytest.approx(shift, abs=1e-9)

    def test_configs_share_no_position_array(self):
        a = parse_config_text("experiment = qml-beam\n")
        b = parse_config_text("experiment = qml-beam\n")
        assert a.scenario.geometry.bs_position is not b.scenario.geometry.bs_position


# line-search and stopping settings that became module constants of bdris.optim
REMOVED_OPTIMIZER_KEYS = [
    "armijo_c = 0.001",
    "backtrack_factor = 0.25",
    "max_backtracks = 10",
    "initial_step = 2.0",
    "stationarity_tolerance = 0.001",
    "fp_inner_theta_steps = 5",
]
# a value for every [optimizer] key that a small solve must notice
CHANGED_OPTIMIZER_VALUES = {"max_iterations": 3, "objective_tolerance": 1e-2, "lbfgs_memory": 1}


class TestOptimizerKeys:
    @pytest.mark.parametrize(
        "line", REMOVED_OPTIMIZER_KEYS, ids=[line.split(" = ")[0] for line in REMOVED_OPTIMIZER_KEYS]
    )
    def test_removed_key_is_config_fault(self, tmp_path, capsys, line):
        _assert_unknown_key(tmp_path, capsys, "optimizer", line)

    def test_every_key_changes_a_solve(self):
        """A key that no solver reads is dead: changing it must move some solver's output."""
        assert set(CHANGED_OPTIMIZER_VALUES) == set(_SECTIONS["optimizer"][2])
        reals = scenario_realizations(ScenarioConfig(), 8, np.random.default_rng(11))

        def outputs(section_text):
            cfg = parse_config_text(f"experiment = beamforming-bench\nseed = 12\n[optimizer]\n{section_text}")
            run_cfg = dataclasses.replace(cfg.optimizer, seed=cfg.seed)
            results = [ALGORITHMS[a](reals, BdRisArchitecture.fully_connected(), run_cfg) for a in ("fp", "ao", "qnm")]
            return [(r.theta.tobytes(), r.objective_trace, r.iterations) for r in results]

        default = outputs("")
        for key, value in CHANGED_OPTIMIZER_VALUES.items():
            assert outputs(f"{key} = {value!r}\n") != default, key


class TestPowerComparison:
    def test_rows_and_dominance(self):
        cfg = parse_config_text(POWER_CFG)
        out = run_power_comparison(cfg)
        lines = out["results"]
        assert lines[0] == "N,ris_type,trial,received_power_dbm"
        assert len(lines) == 1 + 2 * 2 * 20  # kinds * N * trials
        powers = {}
        for line in lines[1:]:
            n, kind, trial, dbm = line.split(",")
            powers[(int(n), kind, int(trial))] = float(dbm)
        for n in (4, 8):
            for t in range(20):
                assert powers[(n, "fully_connected", t)] >= powers[(n, "diagonal", t)]

    def test_deterministic(self):
        cfg = parse_config_text(POWER_CFG)
        assert run_power_comparison(cfg)["results"] == run_power_comparison(cfg)["results"]

    def test_random_baseline_rows_optional(self):
        cfg = parse_config_text(POWER_CFG + "include_random_baseline = true\n")
        lines = run_power_comparison(cfg)["results"]
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert kinds == {"diagonal", "fully_connected", "diagonal_random", "fully_connected_random"}


class TestRunArtifacts:
    def test_power_files_written(self, tmp_path):
        cfg = parse_config_text(POWER_CFG + f"output_dir = {tmp_path}/out\n")
        written = run(cfg)
        names = {p.name for p in written}
        assert names == {"results.csv", "plotspec.csv", "schema.txt", "config.resolved", "manifest.txt"}
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        schema_first = (tmp_path / "out" / "schema.txt").read_text().splitlines()[0]
        assert header == schema_first

    def test_bench_schema_and_summary(self, tmp_path):
        cfg = parse_config_text(f"output_dir = {tmp_path}/out\n" + BENCH_CFG)
        run(cfg)
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        assert header == "algorithm,N,trial,sum_rate_bps_hz,wall_time_s,iterations,converged"
        assert header == (tmp_path / "out" / "schema.txt").read_text().splitlines()[0]
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "rzf_cheapest_at_every_N" in summary
        assert "rate_nondecreasing_in_N" in summary

    def test_bench_no_timing_drops_column(self, tmp_path):
        cfg = parse_config_text(f"output_dir = {tmp_path}/out\n" + BENCH_CFG)
        run(cfg, no_timing=True)
        header = (tmp_path / "out" / "results.csv").read_text().splitlines()[0]
        assert "wall_time_s" not in header
        assert header == (tmp_path / "out" / "schema.txt").read_text().splitlines()[0]

    def test_qml_files(self, tmp_path):
        cfg = parse_config_text(f"output_dir = {tmp_path}/out\n" + QML_CFG)
        written = run(cfg)
        names = {p.name for p in written}
        assert {"results.csv", "confusion.csv", "dataset.csv", "plotspec.csv"} <= names
        lines = (tmp_path / "out" / "results.csv").read_text().splitlines()
        assert lines[0] == "epoch,split,cross_entropy,acc_delta0,acc_delta1,acc_delta2"
        assert lines[0] == (tmp_path / "out" / "schema.txt").read_text().splitlines()[0]
        assert len(lines) == 1 + 2 * 3
        confusion = (tmp_path / "out" / "confusion.csv").read_text().splitlines()
        total = sum(int(v) for row in confusion for v in row.split(","))
        assert total == 40

    def test_byte_identical_reruns(self, tmp_path):
        for experiment, text in (("power", POWER_CFG), ("bench", BENCH_CFG), ("qml", QML_CFG)):
            cfg_a = parse_config_text(f"output_dir = {tmp_path}/{experiment}_a\n" + text)
            cfg_b = parse_config_text(f"output_dir = {tmp_path}/{experiment}_b\n" + text)
            run(cfg_a, no_timing=True)
            run(cfg_b, no_timing=True)
            for name in (
                "results.csv", "plotspec.csv", "summary.txt", "confusion.csv", "dataset.csv",
                "schema.txt", "config.resolved",
            ):
                if not (tmp_path / f"{experiment}_a" / name).exists():
                    assert not (tmp_path / f"{experiment}_b" / name).exists(), (experiment, name)
                    continue
                a = (tmp_path / f"{experiment}_a" / name).read_bytes()
                b = (tmp_path / f"{experiment}_b" / name).read_bytes().replace(
                    f"{experiment}_b".encode(), f"{experiment}_a".encode()
                )
                assert a == b, (experiment, name)

    @pytest.mark.parametrize("no_timing", [False, True], ids=["timing", "no_timing"])
    def test_cost_ordering_lines_only_with_timing(self, tmp_path, no_timing):
        """Both checks read wall times, so --no-timing leaves them out of summary.txt."""
        text = BENCH_CFG.replace("algorithms = rzf,ao", "algorithms = rzf,ao,qnm")
        cfg = parse_config_text(f"output_dir = {tmp_path}/out\n" + text)
        run(cfg, no_timing=no_timing)
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        checks = [line.split(": ")[0] for line in summary]
        for check in ("rzf_cheapest_at_every_N", "qnm_costliest_at_max_N"):
            assert (check in checks) is not no_timing, check
        assert "qnm_rate_nondecreasing_in_N" in checks

    def test_strict_mode_escalates_nonconvergence(self, tmp_path):
        text = BENCH_CFG.replace("max_iterations = 25", "max_iterations = 1")
        cfg = parse_config_text(f"output_dir = {tmp_path}/out\n" + text)
        with pytest.raises(RuntimeError, match="did not converge"):
            run(cfg, strict=True)

    def test_manifest_lists_child_seeds(self, tmp_path):
        cfg = parse_config_text(POWER_CFG + f"output_dir = {tmp_path}/out\n")
        run(cfg)
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "seed: 0" in manifest
        assert manifest.count("\n  ") == 20  # one child seed per trial

    def test_manifest_records_environment(self, tmp_path):
        cfg = parse_config_text(POWER_CFG + f"output_dir = {tmp_path}/out\n")
        run(cfg, threads=3)
        lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
        fields = dict(line.split(": ", 1) for line in lines if not line.startswith(" ") and ": " in line)
        assert fields["python"] == platform.python_version()
        assert fields["numpy"] == np.__version__
        assert fields["blas"]
        assert all(fields[var] == os.environ.get(var, "unset") for var in BLAS_THREAD_VARS)
        assert int(fields["nproc"]) >= 1
        assert fields["threads"] == "3"


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(QML_CFG)
        code = cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_missing_config_exit_one(self, capsys):
        assert cli_main(["run", "--config", "/nonexistent.cfg"]) == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_bad_key_exit_one(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("experiment = power-comparison\ntrails = 10\n")
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and "trails" in err

    def test_seed_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(POWER_CFG)
        cli_main(["run", "--config", str(path), "--seed", "7", "--out-dir", str(tmp_path / "o")])
        resolved = (tmp_path / "o" / "config.resolved").read_text()
        assert "seed = 7" in resolved

    def test_strict_exit_two(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text(BENCH_CFG.replace("max_iterations = 25", "max_iterations = 1"))
        code = cli_main(
            ["run", "--config", str(path), "--strict", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: runtime:")


# the RIS moved into the device area
NEAR_RIS = "[channel]\nris_x = 120\n"


class TestExperimentConfigValidation:
    def test_trials_positive(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="power-comparison", trials=0)

    def test_element_counts_required_for_ris_experiments(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="beamforming-bench", element_counts=())

    def test_qml_needs_no_element_counts(self):
        cfg = ExperimentConfig(experiment="qml-beam", element_counts=())
        assert cfg.experiment == "qml-beam"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("experiment = power-comparison\nelement_counts = 0,4\n", "element_counts must be an integer >= 1"),
            ("experiment = beamforming-bench\nelement_counts = -2\n", "element_counts must be an integer >= 1"),
            ("experiment = beamforming-bench\nalgorithms =\n", "algorithms must be non-empty"),
            ("experiment = power-comparison\nelement_counts = 4,4\n", "element_counts must not repeat"),
            ("experiment = beamforming-bench\nelement_counts = 8,16,8\n", "element_counts must not repeat"),
            ("experiment = beamforming-bench\nalgorithms = ao,ao\n", "algorithms must not repeat"),
            (f"experiment = power-comparison\n{NEAR_RIS}", "within 0.000 m of the RIS"),
            (f"experiment = beamforming-bench\n{NEAR_RIS}", "within 0.000 m of the RIS"),
        ],
        ids=["zero-count", "negative-count", "no-algorithms", "repeated-count", "repeated-count-bench",
             "repeated-algorithm", "devices-at-ris-power", "devices-at-ris-bench"],
    )
    def test_degenerate_sweep_is_config_fault(self, tmp_path, capsys, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: config:")
        assert not (tmp_path / "o").exists()


class TestQmlSettingsValidation:
    @pytest.mark.parametrize(
        "lines,message",
        [
            ("num_qubits = 13", r"num_qubits must be in \[1, 12\]"),
            ("num_qubits = 0", r"num_qubits must be in \[1, 12\]"),
            ("num_layers = 0", "num_layers must be an integer >= 1"),
            ("num_beams = 0", "num_beams must be an integer >= 1"),
            ("epochs = 0", "epochs must be an integer >= 1"),
            ("num_samples = 2\nnum_beams = 1", "num_samples must be >= num_beams and >= 3"),
            ("num_samples = 5\nnum_beams = 6", "num_samples must be >= num_beams and >= 3"),
            ("learning_rate = 0", "learning_rate must be positive"),
            ("learning_rate = -1", "learning_rate must be positive"),
            ("noise_sigma = -0.1", "noise_sigma must be >= 0"),
            ("learning_rate = inf", "learning_rate must be positive and finite"),
            ("learning_rate = nan", "learning_rate must be positive and finite"),
            ("noise_sigma = inf", "noise_sigma must be >= 0 and finite"),
            ("noise_sigma = nan", "noise_sigma must be >= 0 and finite"),
            ("feature_dim = 2", "unknown key 'feature_dim'"),
        ],
        ids=["qubits-over-cap", "no-qubits", "no-layers", "no-beams", "no-epochs", "two-samples",
             "fewer-samples-than-beams", "zero-rate", "negative-rate", "negative-noise", "infinite-rate",
             "nan-rate", "infinite-noise", "nan-noise", "feature-dim"],
    )
    def test_fault_is_config_error(self, tmp_path, capsys, lines, message):
        text = f"experiment = qml-beam\n[qml]\n{lines}\n"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)
        path = tmp_path / "exp.cfg"
        path.write_text(text)
        assert cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: config:")

    def test_smallest_valid_settings_run(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "experiment = qml-beam\n[qml]\nnum_qubits = 1\nnum_layers = 1\nnum_beams = 3\n"
            "num_samples = 3\nepochs = 1\nnoise_sigma = 0\nlearning_rate = 0.5\n"
        )
        assert cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 0
        rows = (tmp_path / "o" / "results.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["train", "val"]

    def test_twelve_qubits_parse(self):
        assert parse_config_text("experiment = qml-beam\n[qml]\nnum_qubits = 12\n").qml.num_qubits == 12


class TestThreadWarnings:
    def test_bench_with_threads_and_timing_warns(self, tmp_path, capsys):
        cfg = parse_config_text(f"output_dir = {tmp_path}/o\n" + BENCH_CFG)
        run(cfg, threads=2)
        assert "timing columns produced with more than one thread" in capsys.readouterr().err

    def test_no_warning_with_no_timing(self, tmp_path, capsys):
        cfg = parse_config_text(f"output_dir = {tmp_path}/o\n" + BENCH_CFG)
        run(cfg, threads=2, no_timing=True)
        assert "warning" not in capsys.readouterr().err


class TestCsvLine:
    """``csv_line`` is the one output format; 17 significant digits round-trip float64."""

    EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, 1.7e308, -1.7e308,
                   float("inf"), float("-inf"), 0.1, 1.0 / 3.0]

    def test_floats_round_trip_exactly(self):
        draws = np.random.default_rng(12)
        values = list(draws.standard_normal(500) * 10.0 ** draws.integers(-300, 300, 500))
        values += list(draws.random(500)) + self.EDGE_FLOATS
        for value in values:
            back = float(csv_line(value))
            assert back == value and np.signbit(back) == np.signbit(value), value

    def test_cells(self):
        assert csv_line(True, False) == "true,false"
        assert csv_line(7, -3, np.int64(12)) == "7,-3,12"
        assert csv_line(np.float64(0.1), 0.1) == "0.10000000000000001,0.10000000000000001"
        assert csv_line(1.0, -0.0, float("-inf")) == "1,-0,-inf"
        assert csv_line("rzf", 4, 2.5) == "rzf,4,2.5"
        assert csv_line() == ""

    def test_only_csv_line_formats_floats(self):
        """``:.17g`` appears in ``src/bdris`` only inside ``csv_line``."""
        src = Path(__file__).resolve().parents[1] / "src" / "bdris"
        harness = ast.parse((src / "harness.py").read_text(encoding="utf-8"))
        (func,) = [n for n in harness.body if isinstance(n, ast.FunctionDef) and n.name == "csv_line"]
        found = [
            (path.name, lineno)
            for path in sorted(src.glob("*.py"))
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if ":.17g" in line
        ]
        assert found and all(
            name == "harness.py" and func.lineno <= lineno <= func.end_lineno for name, lineno in found
        ), found


PARSE_GUARDS = [
    pytest.param("experiment = qml-beam\n[nosuch]\n", "unknown section 'nosuch'", id="unknown_section"),
    pytest.param("experiment = qml-beam\njust words\n", "expected 'key = value'", id="no_equals"),
    pytest.param("experiment = power-comparison\ninclude_random_baseline = maybe\n",
                 "bad value for 'include_random_baseline'", id="bad_bool"),
    pytest.param("experiment = beamforming-bench\nalgorithms = rzf,nope\n", "unknown algorithms: nope",
                 id="unknown_algorithm"),
    pytest.param(f"experiment = qml-beam\nseed = {2**64}\n", "seed must fit in 64 bits", id="seed_65_bits"),
    pytest.param("experiment = beamforming-bench\n[optimizer]\nobjective_tolerance = nan\n",
                 "objective_tolerance must be finite", id="nan_tolerance"),
    pytest.param("experiment = beamforming-bench\n[optimizer]\nobjective_tolerance = inf\n",
                 "objective_tolerance must be finite", id="inf_tolerance"),
    pytest.param("experiment = beamforming-bench\n[channel]\ntx_snr_db = nan\n", "tx_snr_db must be finite",
                 id="nan_tx_snr"),
    pytest.param("experiment = power-comparison\n[channel]\nnoise_power_dbm = -inf\n",
                 "noise_power_dbm must be finite", id="infinite_noise_power"),
    *(
        pytest.param(f"experiment = power-comparison\n[channel]\n{line}\n", message, id=line.replace(" = ", "="))
        for line, message in [
            ("dt_s = 0", "dt_s must be positive"),
            ("dt_s = -0.1", "dt_s must be positive"),
            ("dt_s = nan", "dt_s must be finite"),
            ("dt_s = inf", "dt_s must be finite"),
            ("speed_max_mps = inf", "speed_max_mps must be finite"),
            ("speed_min_mps = nan", "speed range"),
            ("bs_ris_rician_k_db = nan", "bs_ris_rician_k_db must not be NaN"),
            ("device_links_rician_k_db = nan", "device_links_rician_k_db must not be NaN"),
            ("exponent_device_ris = nan", "exponent_device_ris must be finite"),
            ("exponent_bs_ris = inf", "exponent_bs_ris must be finite"),
            ("reference_loss_db = inf", "reference_loss_db must be finite"),
            ("reference_distance_m = nan", "reference_distance_m must be finite"),
            ("bs_x = nan", "positions must be finite"),
            ("ris_z = inf", "positions must be finite"),
            ("bs_ris_distance_m = nan", "unknown key 'bs_ris_distance_m'"),
            ("area_x_min = nan", "x_min must be finite"),
            ("area_y_max = inf", "y_max must be finite"),
        ]
    ),
]


@pytest.mark.parametrize("text,message", PARSE_GUARDS)
def test_parse_guard(text, message, tmp_path, capsys):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert cli_main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: config:")


@pytest.mark.parametrize("line", ["bs_ris_rician_k_db = inf", "bs_ris_rician_k_db = -inf",
                                  "device_links_rician_k_db = inf", "device_links_rician_k_db = -inf"])
def test_infinite_rician_k_parses(line):
    """K = +inf dB is pure line of sight and -inf dB pure Rayleigh: both are valid settings."""
    key, _, value = line.partition(" = ")
    cfg = parse_config_text(f"experiment = power-comparison\n[channel]\n{line}\n")
    assert getattr(cfg.scenario.fading, key) == float(value)


def test_cli_zero_threads_is_config_fault(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(QML_CFG)
    assert cli_main(["run", "--config", str(path), "--threads", "0", "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.strip() == "error: config: threads must be >= 1"


# counts that the config parser cannot produce, set on the dataclasses directly
COUNT_GUARDS = [
    pytest.param(lambda: ExperimentConfig(experiment="power-comparison", trials=2.5), ConfigError,
                 "trials must be an integer >= 1", id="fractional_trials"),
    pytest.param(lambda: ExperimentConfig(experiment="power-comparison", trials=True), ConfigError,
                 "trials must be an integer >= 1", id="boolean_trials"),
    pytest.param(lambda: ExperimentConfig(experiment="beamforming-bench", element_counts=(16.5,)), ConfigError,
                 "element_counts must be an integer >= 1", id="fractional_element_count"),
    pytest.param(lambda: ExperimentConfig(experiment="power-comparison", seed=1.5), ConfigError,
                 "seed must be an integer, got 1.5", id="fractional_seed"),
    pytest.param(lambda: ExperimentConfig(experiment="power-comparison", seed=True), ConfigError,
                 "seed must be an integer, got True", id="boolean_seed"),
    pytest.param(lambda: QmlSettings(num_layers=2.5), InvalidInput, "num_layers must be an integer >= 1",
                 id="fractional_layers"),
    pytest.param(lambda: QmlSettings(epochs=True), InvalidInput, "epochs must be an integer >= 1",
                 id="boolean_epochs"),
    pytest.param(lambda: QmlSettings(num_qubits=2.0), InvalidInput, "num_qubits must be an integer >= 1",
                 id="float_qubits"),
]


@pytest.mark.parametrize("build,error,message", COUNT_GUARDS)
def test_count_guard(build, error, message):
    with pytest.raises(error, match=message):
        build()


def _cli_process(tmp_path, text):
    """``python -m bdris.cli run`` on ``text`` in a fresh interpreter: (exit code, stderr)."""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "bdris.cli", "run", "--config", str(path), "--out-dir", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stderr


def test_cli_process_reports_a_removed_key(tmp_path):
    code, err = _cli_process(tmp_path, "experiment = power-comparison\n[channel]\nbs_ris_distance_m = 100\n")
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: config: ")
    assert "unknown key 'bs_ris_distance_m'" in lines[0]
    assert not (tmp_path / "o").exists()


def test_cli_process_runs_a_tiny_qml_config(tmp_path):
    code, err = _cli_process(tmp_path, QML_CFG)
    assert (code, err) == (0, "")
    assert (tmp_path / "o" / "results.csv").read_text().startswith("epoch,split,")
