"""Spans recorded at the boundaries between hpda's modules, and the per-layer
metrics derived from them.

Only public names are wrapped: every function one hpda module imports from
another (``hpda.cli.simulate``, ``hpda.hierarchy.verify_pda``, ...) and the
entry points the benchmark calls itself.  Calls inside a module are not
layer boundaries and stay unwrapped; private helpers are never wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator

LAYERS = ("cli", "pda", "hierarchy", "simulation", "analysis")

# Replay spans time the public stages of simulate one by one.  They are kept
# out of the layers' self time, calls and errors, which describe the op.
REPLAY = "bench.replay"
OP = "bench.op"

BUSY = (
    "cli.main",
    "pda.mn_pda",
    "pda.verify_pda",
    "hierarchy.parse_hpda",
    "hierarchy.load_hpda",
    "hierarchy.verify_hpda",
    "hierarchy.build_grouping",
    "hierarchy.build_hybrid",
    "hierarchy.loads_from_hpda",
    "simulation.simulate",
    "simulation.library",
    "simulation.place",
    "simulation.server_delivery",
    "simulation.mirror_delivery",
    "simulation.decode_user",
    "analysis.search_min_r1",
    "analysis.compare_sweep",
)
STAGES = (
    "simulation.library",
    "simulation.place",
    "simulation.server_delivery",
    "simulation.mirror_delivery",
    "simulation.decode_user",
)

# Every per-layer metric a traced run prints, with its unit.
PER_LAYER = (
    *((f"{name}.busy_s", "s") for name in BUSY),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.calls", "count") for layer in LAYERS),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    ("hierarchy.cells", "count"),
    ("hierarchy.mutants_rejected_ratio", "ratio"),
    ("simulation.server_signals", "count"),
    ("simulation.mirror_signals", "count"),
    ("simulation.xor_terms", "count"),
    ("simulation.xor_bytes", "bytes"),
    ("simulation.xor_terms_per_s", "1/s"),
    ("simulation.decoded_ratio", "ratio"),
    ("simulation.stage_gap_s", "s"),
    ("analysis.grid_points", "count"),
    ("analysis.grid_points_per_s", "1/s"),
    ("trace.overhead_s", "s"),
)


def span_name(fn: Callable) -> str:
    """``<layer>.<function>`` for a function defined in ``hpda.<layer>``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    error: str | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Keeps spans in memory; ``write`` saves them when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.simulate_calls: list[tuple[tuple, dict, object]] = []
        self.op = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        span = Span(self.op, len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            span.end_ns = time.perf_counter_ns()

    def wrap(self, fn: Callable, name: str | None = None) -> Callable:
        name = name or span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "simulation.simulate":
                self.simulate_calls.append((args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every hpda function imported across modules, then restore it."""
        patched = []
        for layer in LAYERS:
            mod = importlib.import_module(f"hpda.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("hpda.")
                    and obj.__module__ != mod.__name__
                ):
                    patched.append((mod, attr, obj))
        try:
            for mod, attr, obj in patched:
                setattr(mod, attr, self.wrap(obj))
            yield
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def write(self, path: Path) -> None:
        with path.open("w") as sink:
            for span in self.spans:
                sink.write(json.dumps(asdict(span)) + "\n")


def replay_simulate(api, args: tuple, kwargs: dict, result) -> tuple[int, int, bool]:
    """Re-run one simulate call through its public stages, each its own span.

    Returns (users decoded, users, transcript identical to the simulate call's).
    """
    bound = inspect.signature(api.simulate).bind(*args, **kwargs)
    bound.apply_defaults()
    h, n_files, packet_bytes, d, seed = bound.args
    if d is None:
        d = importlib.import_module("hpda.simulation").worst_case_demand(h.k1, h.k2, n_files)
    lib = api.library(n_files, h.f, packet_bytes, seed)
    cache = api.place(h, lib)
    server = api.server_delivery(h, lib, d)
    mirrors = {
        k1: tuple(api.mirror_delivery(h, lib, d, k1, server)) for k1 in range(1, h.k1 + 1)
    }
    decoded = sum(
        api.decode_user(h, cache, list(mirrors[k1]), k1, k2, d) == lib.file(d.demand(k1, k2))
        for k1 in range(1, h.k1 + 1)
        for k2 in range(1, h.k2 + 1)
    )
    t = result.transcript
    same = tuple(server) == t.server_signals and mirrors == t.mirror_signals
    return decoded, h.k1 * h.k2, same


def layer_metrics(
    spans: list[Span],
    traced_s: list[float],
    untraced_s: list[float],
    counts: dict[str, int],
    computed: dict[str, float],
) -> dict[str, float]:
    """Per-op busy and self times, counts and ratios, named as in PER_LAYER.

    ``traced_s`` and ``untraced_s`` are op times; the traced ops cover whole
    passes, so the per-op work in ``computed`` applies to them too.
    """
    child_ns = [0] * len(spans)
    in_replay = [False] * len(spans)
    for span in spans:  # a parent is always recorded before its children
        if span.parent is not None:
            child_ns[span.parent] += span.duration_ns
            parent = spans[span.parent]
            in_replay[span.id] = in_replay[parent.id] or parent.name == REPLAY
    busy = dict.fromkeys(BUSY, 0)
    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    for span in spans:
        if span.name in busy:
            busy[span.name] += span.duration_ns
        if span.layer in self_ns and not in_replay[span.id]:
            self_ns[span.layer] += span.duration_ns - child_ns[span.id]
            calls[span.layer] += 1
            errors[span.layer] += span.error is not None

    n = len(traced_s)
    metrics = {f"{name}.busy_s": ns / 1e9 / n for name, ns in busy.items()}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9 / n
        metrics[f"{layer}.calls"] = calls[layer] / n
        metrics[f"{layer}.errors"] = errors[layer] / n
    metrics.update(computed)
    metrics["simulation.server_signals"] = counts["server_signals"] / n
    metrics["simulation.mirror_signals"] = counts["mirror_signals"] / n
    simulate_s = metrics["simulation.simulate.busy_s"]
    search_s = metrics["analysis.search_min_r1.busy_s"]
    metrics["simulation.xor_terms_per_s"] = (
        computed["simulation.xor_terms"] / simulate_s if simulate_s else 0.0
    )
    metrics["analysis.grid_points_per_s"] = (
        computed["analysis.grid_points"] / search_s if search_s else 0.0
    )
    metrics["simulation.decoded_ratio"] = (
        counts["decoded"] / counts["users"] if counts["users"] else 0.0
    )
    metrics["hierarchy.mutants_rejected_ratio"] = (
        counts["rejected"] / counts["mutants"] if counts["mutants"] else 0.0
    )
    metrics["simulation.stage_gap_s"] = (
        sum(metrics[f"{stage}.busy_s"] for stage in STAGES) - simulate_s if simulate_s else 0.0
    )
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return metrics
