"""The names the benchmark's tracer rebinds must exist on the package.

``perfbench/tracing.py`` wraps public module attributes and the entries of
``bdris.optim.ALGORITHMS`` by name.  Renaming one of them would otherwise
only show up when the benchmark runs with ``--trace``.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bdris import optim, qml
from bdris.architectures import BdRisArchitecture
from bdris.channel import ScenarioConfig, scenario_realizations
from bdris.manifold import BlockStructure

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bdris_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module,attr", [(m, a) for _, m, a in tracing.SPANS], ids=[f"{m}.{a}" for _, m, a in tracing.SPANS]
)
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_traced_algorithms_resolve():
    assert set(tracing.ALGORITHM_NAMES) <= set(optim.ALGORITHMS)


@pytest.mark.parametrize(
    "arch",
    [
        BdRisArchitecture.diagonal(),
        BdRisArchitecture.group_connected(BlockStructure((2, 2, 2, 2))),
        BdRisArchitecture.fully_connected(),
    ],
    ids=["diag", "groups", "full"],
)
@pytest.mark.parametrize("name", ["ao", "qnm", "fp"])
def test_feasible_set_calls_through_optim_namespace(name, arch, monkeypatch):
    """The tracer counts retractions and tangent projections by rebinding these two names.

    If the feasible set stopped looking them up in ``bdris.optim``, the
    per-layer counters would silently read zero.  FP makes no tangent
    projection.  AO and QNM project only their first iterate; their steps
    use the closed-form retraction, which calls neither name.
    """
    calls = {"polar_factor": 0, "skew_part": 0}
    for attr in calls:
        original = getattr(optim, attr)

        def counting(*args, _attr=attr, _original=original):
            calls[_attr] += 1
            return _original(*args)

        monkeypatch.setattr(optim, attr, counting)
    reals = scenario_realizations(ScenarioConfig(), 8, np.random.default_rng(3))
    optim.ALGORITHMS[name](reals, arch, optim.OptimizerConfig(seed=4, max_iterations=5))
    assert calls["polar_factor"] > 0
    if name != "fp":
        assert calls["skew_part"] > 0


def test_effective_channel_span_counts_scoring_only(monkeypatch):
    """The tracer's ``architectures.effective_channel_matrix`` span sees ``mean_sum_rate`` only.

    The function lives in ``bdris.channel`` (the span keeps its old name).
    The tracer rebinds the name in ``bdris.optim``, where ``mean_sum_rate``
    looks it up; every optimizer, FP included, computes its channels on
    block stacks with ``channel.CascadedChannels`` and never calls it.
    ``optim.benchmark`` scores its rows on the results' blocks, not with
    ``mean_sum_rate``, so on the bench workloads this span reads zero calls.
    """
    calls = []
    original = optim.effective_channel_matrix

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(optim, "effective_channel_matrix", counting)
    reals = scenario_realizations(ScenarioConfig(), 8, np.random.default_rng(3))
    for name, solver in optim.ALGORITHMS.items():
        theta = solver(reals, BdRisArchitecture.diagonal(), optim.OptimizerConfig(seed=4, max_iterations=5)).theta
        assert not calls, name
    optim.benchmark(sorted(optim.ALGORITHMS), [8], 1, optim.OptimizerConfig(seed=4, max_iterations=5),
                    arch=BdRisArchitecture.diagonal())
    assert not calls
    optim.mean_sum_rate(theta, reals)
    assert len(calls) == 1


def test_training_calls_logits_twice_per_epoch(monkeypatch):
    """perfbench's EpochClock closes an epoch on every second ``bdris.qml.hybrid_logits`` call.

    Each epoch must call it once on the training split, then once on the
    validation split (told apart here by row count); any other pattern
    makes the benchmark report the mean epoch time for every epoch.
    """
    rows = []
    original = qml.hybrid_logits

    def counting(model, features):
        rows.append(len(features))
        return original(model, features)

    monkeypatch.setattr(qml, "hybrid_logits", counting)
    data = qml.generate_synthetic_dataset(10, 2, 0.01, np.random.default_rng(5))
    model = qml.init_hybrid_model(2, 1, 2, 2, np.random.default_rng(6))
    qml.train_hybrid(data, model, 3, 0.5, np.random.default_rng(7))
    assert rows == [8, 2] * 3
