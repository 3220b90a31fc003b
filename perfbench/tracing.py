"""Per-layer spans recorded from outside the package.

The tracer rebinds the public names that callers look up at run time
(module attributes and the entries of ``bdris.optim.ALGORITHMS``) with
wrappers that time each call.  A span's self time is its duration minus
the durations of the traced spans it caused.  Spans are aggregated per
name as they close, because a diagonal QNM solve at N = 256 makes a few
hundred thousand calls into ``manifold``; only the counters are kept.
"""

from __future__ import annotations

import time

# (span name, module, attribute): every call site inside the package
# reaches these functions through the named module attribute.
SPANS = (
    ("harness.parse_config_text", "bdris.harness", "parse_config_text"),
    ("harness.run", "bdris.harness", "run"),
    ("optim.benchmark", "bdris.harness", "benchmark"),
    ("optim.benchmark", "bdris.optim", "benchmark"),
    ("channel.scenario_realizations", "bdris.optim", "scenario_realizations"),
    ("manifold.polar_factor", "bdris.optim", "polar_factor"),
    ("manifold.skew_part", "bdris.optim", "skew_part"),
    ("optim.mean_sum_rate", "bdris.optim", "mean_sum_rate"),
    ("architectures.effective_channel_matrix", "bdris.optim", "effective_channel_matrix"),
    ("qml.generate_synthetic_dataset", "bdris.harness", "generate_synthetic_dataset"),
    ("qml.train_hybrid", "bdris.harness", "train_hybrid"),
    ("qml.hybrid_logits", "bdris.qml", "hybrid_logits"),
)
ALGORITHM_NAMES = ("rzf", "fp", "ao", "qnm")
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS)) + tuple(
    f"optim.{a}" for a in ALGORITHM_NAMES
)


class _NeverRaised(Exception):
    """Default for spans that count no exception type."""


class Patches:
    """Rebinds attributes and dict entries; ``restore`` undoes them in reverse."""

    def __init__(self):
        self._undo = []

    def set_attr(self, owner, attr, value):
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        while self._undo:
            setter, owner, key, old = self._undo.pop()
            setter(owner, key, old)


def blocks_per_retraction(arch, n: int) -> int:
    """Blocks that one feasible-set projection or tangent projection visits."""
    kind = arch.kind.value
    if kind == "diagonal":
        return n
    if kind == "group-connected":
        return len(arch.structure.group_sizes)
    return 1


def first_realization(realizations):
    """The optimizers take one ChannelRealization or a sequence of them."""
    return realizations if hasattr(realizations, "num_elements") else realizations[0]


class Tracer:
    """Aggregated spans plus the optimizer work counters derived from them."""

    def __init__(self):
        self.stack: list[list[float]] = []  # child time accumulated per open span
        self.stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}  # calls, total_s, self_s
        self.rank_deficient = 0
        # per algorithm: iterations, converged, retractions, tangent projections
        self.work = {a: [0, 0, 0.0, 0.0] for a in ALGORITHM_NAMES}
        self._patches = Patches()

    def _span(self, name, fn, counted_error=_NeverRaised):
        stat = self.stats[name]
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except counted_error:
                tracer.rank_deficient += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def _algorithm(self, name, fn):
        span = self._span(f"optim.{name}", fn)
        polar = self.stats["manifold.polar_factor"]
        skew = self.stats["manifold.skew_part"]
        work = self.work[name]

        def traced(realizations, arch, cfg, *args, **kwargs):
            polar_before, skew_before = polar[0], skew[0]
            result = span(realizations, arch, cfg, *args, **kwargs)
            blocks = blocks_per_retraction(arch, first_realization(realizations).num_elements)
            work[0] += result.iterations
            work[1] += bool(result.converged)
            work[2] += (polar[0] - polar_before) / blocks
            work[3] += (skew[0] - skew_before) / blocks
            return result

        return traced

    def install(self):
        import importlib

        from bdris import optim
        from bdris.errors import RankDeficient

        for name, module, attr in SPANS:
            owner = importlib.import_module(module)
            error = RankDeficient if name == "manifold.polar_factor" else _NeverRaised
            self._patches.set_attr(owner, attr, self._span(name, getattr(owner, attr), error))
        for name in ALGORITHM_NAMES:
            self._patches.set_item(optim.ALGORITHMS, name, self._algorithm(name, optim.ALGORITHMS[name]))

    def restore(self):
        self._patches.restore()

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics; span times are shares of the traced wall time."""
        out = {}
        for name in SPAN_NAMES:
            calls, total, self_s = self.stats[name]
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_frac"] = (total / wall_s, "frac")
            out[f"{name}.self_frac"] = (self_s / wall_s, "frac")
        out["manifold.rank_deficient.count"] = (self.rank_deficient, "count")
        for name in ALGORITHM_NAMES:
            iterations, converged, retractions, tangents = self.work[name]
            calls = self.stats[f"optim.{name}"][0]
            out[f"optim.{name}.iterations"] = (iterations, "count")
            out[f"optim.{name}.converged_frac"] = (converged / calls if calls else 0.0, "frac")
            out[f"optim.{name}.retractions"] = (retractions, "count")
            out[f"optim.{name}.accept_ratio"] = (iterations / retractions if retractions else 0.0, "ratio")
        iterations, _, _, tangents = self.work["qnm"]
        out["optim.qnm.tangent_per_iter"] = (tangents / iterations if iterations else 0.0, "ratio")
        return out
