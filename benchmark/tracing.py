"""Spans around the public functions of each biphoton layer.

Nothing in the package is edited.  install() replaces, in each layer
module, every public name bound to a plain function of a biphoton layer
(its own functions and the ones it imports, such as cli.delay_scan,
symmetry.chsh or sources.normalize) with a wrapper that records a span,
and uninstall() puts the originals back.  Calls resolve those names
through module globals at call time, so the spans nest the way the calls
do.  Bindings are discovered, not listed: a binding a later refactor
removes drops its span, and the metrics that read it report zero calls.

Core is the data layer: its functions are traced where other layers
bind them, not where core calls itself, so core.normalize includes the
norm it computes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import types
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "sources", "core", "beamsplitter", "correlation", "symmetry", "oracle")
ROOT = "bench.command"

#: Counts recorded from a traced call's result: name -> (key, extractor).
_PROBES = {"oracle.discretize": ("captured_norm", lambda result: result.captured_norm)}


class Tracer:
    """Spans kept in memory: name, start, end, parent index, command id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.commands: list[int] = []
        self.values: list[tuple[int, str, float]] = []
        self.command_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.commands.append(self.command_id)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self._stack.pop()

    def record(self, index: int, key: str, value: float) -> None:
        self.values.append((index, key, float(value)))

    def to_json(self) -> dict:
        return {
            "columns": ["name", "start_s", "end_s", "parent", "command"],
            "spans": [list(row) for row in zip(
                self.names, self.starts, self.ends, self.parents, self.commands)],
            "values": [list(row) for row in self.values],
        }


def _traced(fn, name: str, tracer: Tracer):
    probe = _PROBES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if probe is not None and hasattr(result, probe[0]):
            tracer.record(index, probe[0], probe[1](result))
        return result

    return wrapper


def _layer_of(fn) -> str | None:
    package, _, module = getattr(fn, "__module__", "").rpartition(".")
    return module if package == "biphoton" and module in LAYERS else None


def install(tracer: Tracer) -> list[tuple[types.ModuleType, str, object]]:
    """Wrap every traced binding; returns what uninstall() restores."""
    patches = []
    for layer in LAYERS:
        module = importlib.import_module(f"biphoton.{layer}")
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or not isinstance(value, types.FunctionType):
                continue
            owner = _layer_of(value)
            if owner is None or (owner == "core" and layer == "core"):
                continue
            patches.append((module, attr, value))
            setattr(module, attr, _traced(value, f"{owner}.{value.__name__}", tracer))
    return patches


def uninstall(patches) -> None:
    for module, attr, value in patches:
        setattr(module, attr, value)


def _median_over_callers(per_command: dict[int, float]) -> float:
    return statistics.median(per_command.values()) if per_command else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-command figures from the spans, keyed by metric name.

    For a function span F: `F_s` is the median over the commands that
    called F of F's inclusive time per command, and `F.calls` the median
    call count.  For a layer L: `L.self_s` is the median per command of
    the time spent in L's own code, spans of other layers excluded, and
    `L.share` that self time summed over all commands as a fraction of
    the command time; `L.incl_share` is the same fraction for the time
    spent inside L's spans, calls L makes into other layers included.
    `sources.build_state_s` is the time the other layers spend calling
    into sources.  `oracle.captured_norm` is the mean share of the
    state's norm that each discretization keeps.
    """
    n = len(tracer.names)
    durations = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    child_time = [0.0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            child_time[parent] += durations[i]
    inclusive: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    layer_self: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    entered: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
    command_time = 0.0
    for i, name in enumerate(tracer.names):
        cmd = tracer.commands[i]
        layer = name.partition(".")[0]
        if name == ROOT:
            command_time += durations[i]
        inclusive[name][cmd] += durations[i]
        calls[name][cmd] += 1
        layer_self[layer][cmd] += durations[i] - child_time[i]
        parent = tracer.parents[i]
        if parent < 0 or tracer.names[parent].partition(".")[0] != layer:
            entered[layer][cmd] += durations[i]

    metrics: dict[str, float] = {}
    for name in inclusive:
        metrics[f"{name}_s"] = _median_over_callers(inclusive[name])
        metrics[f"{name}.calls"] = _median_over_callers(calls[name])
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _median_over_callers(layer_self[layer])
        total = sum(layer_self[layer].values())
        metrics[f"{layer}.share"] = total / command_time if command_time > 0 else 0.0
        metrics[f"{layer}.incl_share"] = inclusive_share(tracer, (layer,))
    metrics["sources.build_state_s"] = _median_over_callers(entered["sources"])
    captured = [v for _, key, v in tracer.values if key == "captured_norm"]
    metrics["oracle.captured_norm"] = statistics.fmean(captured) if captured else 0.0
    return metrics


def inclusive_share(tracer: Tracer, layers) -> float:
    """Fraction of the command time spent inside spans of any of layers."""
    n = len(tracer.names)
    inside = [False] * n  # some ancestor is a span of layers
    covered = command_time = 0.0
    for i, name in enumerate(tracer.names):
        duration = tracer.ends[i] - tracer.starts[i]
        parent = tracer.parents[i]
        if parent >= 0:
            inside[i] = inside[parent] or tracer.names[parent].partition(".")[0] in layers
        if name == ROOT:
            command_time += duration
        elif name.partition(".")[0] in layers and not inside[i]:
            covered += duration
    return covered / command_time if command_time > 0 else 0.0
