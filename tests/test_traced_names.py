"""The names the benchmark's tracer rebinds must exist on the package.

``perfbench/tracing.py`` wraps public module attributes and the entries of
``bdris.optim.ALGORITHMS`` by name.  Renaming one of them would otherwise
only show up when the benchmark runs with ``--trace``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from bdris import optim

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
