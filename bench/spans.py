"""In-memory span tracer wrapped around the public functions of each ctsg layer.

``Tracer.install`` replaces every public function defined in a layer module
with a wrapper that records a span (name, start, end, parent, run id), and
patches every ``ctsg`` module namespace that imported the function by name,
so calls between layers are traced as well. ``uninstall`` restores the
originals; an untraced run therefore executes the unmodified program.

Spans stay in memory until ``write`` is called at exit. A span's self time
is its duration minus the durations of its direct children. All traced
calls happen on the calling thread: the simulator's worker threads run only
private functions, so spans never overlap except by nesting, and the self
times of the spans under one root add up to the root's duration.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import inspect
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable

LAYERS = (
    "example_games",
    "model",
    "matrix_game",
    "shapley",
    "solver",
    "truncation",
    "simulate",
    "io",
    "cli",
)


def _path_arg(args: tuple, kwargs: dict, position: int) -> str:
    return str(kwargs["path"] if "path" in kwargs else args[position])


# Counts taken at the boundary of a traced call, from its result and arguments.
# Each returns a number (run_ladder: a pair) stored with the span; the time it
# takes is charged to the caller, not to the traced function.
_COUNTERS: dict[str, Callable[[Any, tuple, dict], Any]] = {
    "matrix_game.solve_matrix_game": lambda r, a, k: int(r.status == "degenerate-optimal"),
    "solver.solve": lambda r, a, k: r[2].iterations,
    "truncation.run_ladder": lambda r, a, k: (len(r.levels), sum(e.iterations for e in r.levels)),
    "simulate.estimate_value": lambda r, a, k: r.paths,
    "simulate.deviation_gain": lambda r, a, k: r.n_candidates,
    "io.ladder_to_csv": lambda r, a, k: len(r),
}
for _name in ("save_model", "save_certificate", "save_value_grid", "save_policies"):
    _COUNTERS[f"io.{_name}"] = lambda r, a, k: os.path.getsize(_path_arg(a, k, -1))
for _name in ("load_model", "load_certificate", "load_value_grid", "load_policies"):
    _COUNTERS[f"io.{_name}"] = lambda r, a, k: os.path.getsize(_path_arg(a, k, 0))


class Tracer:
    """Records spans for one process. Not thread-safe by design (see module doc)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (name index, start, end, parent span index or -1, run id, count)
        self.spans: list[tuple[int, float, float, int, int, Any]] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        idx = self._name_index(name)
        counter = _COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)  # type: ignore[arg-type]
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, tracer.run_id, 0)
            if counter is not None:
                spans[me] = (idx, start, end, parent, tracer.run_id, counter(result, args, kwargs))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer in all ctsg namespaces."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ctsg.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ctsg" and not mod_name.startswith("ctsg."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """A span recorded from the benchmark's own code (layer ``bench``)."""
        idx = self._name_index(name)
        parent = self._stack[-1] if self._stack else -1
        me = len(self.spans)
        self.spans.append(None)  # type: ignore[arg-type]
        self._stack.append(me)
        start = time.perf_counter()
        try:
            yield me
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[me] = (idx, start, end, parent, self.run_id, 0)

    def self_times(self, first: int = 0, last: int | None = None) -> list[float]:
        """Self time of each span in ``spans[first:last]`` (a closed subtree range)."""
        last = len(self.spans) if last is None else last
        own = [s[2] - s[1] for s in self.spans[first:last]]
        for s in self.spans[first:last]:
            if s[3] >= first:
                own[s[3] - first] -= s[2] - s[1]
        return own

    def write(self, path: Path) -> None:
        """Write every span as gzip CSV: name, start, end, parent, run_id, count, self_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "run_id", "count", "self_s"])
            for s, self_s in zip(self.spans, own):
                out.writerow([self.names[s[0]], repr(s[1]), repr(s[2]), s[3], s[4], s[5], repr(self_s)])


def layer_metrics(tracer: Tracer, first: int, last: int) -> dict[str, float]:
    """Per-layer figures from the spans ``first..last-1`` (one traced round).

    The round's root span is ``spans[first]``; every self time below
    comes from that subtree, so the layer self times add up to its wall.
    """
    spans = tracer.spans[first:last]
    own = tracer.self_times(first, last)
    names = tracer.names
    total: dict[str, float] = {}  # inclusive duration per function
    self_s: dict[str, float] = {}  # self time per function
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    ladder_levels = 0
    for s, o in zip(spans, own):
        name = names[s[0]]
        total[name] = total.get(name, 0.0) + (s[2] - s[1])
        self_s[name] = self_s.get(name, 0.0) + o
        calls[name] = calls.get(name, 0) + 1
        count = s[5]
        if name == "truncation.run_ladder":
            ladder_levels += count[0]
            count = count[1]
        counts[name] = counts.get(name, 0) + count

    def layer_self(layer: str, keep: Callable[[str], bool] = lambda f: True) -> float:
        return sum(v for n, v in self_s.items() if n.split(".", 1)[0] == layer and keep(n.split(".", 1)[1]))

    def io_is_read(fn: str) -> bool:
        return fn.startswith("load_") or "_from_" in fn

    games = calls.get("matrix_game.solve_matrix_game", 0)
    lp_busy = total.get("matrix_game.solve_matrix_game", 0.0)
    io_names = [n for n in calls if n.startswith("io.")]
    return {
        "matrix_game.games": games,
        "matrix_game.busy_s": layer_self("matrix_game"),
        "matrix_game.us_per_game": 1e6 * lp_busy / games if games else 0.0,
        "matrix_game.degenerate": counts.get("matrix_game.solve_matrix_game", 0),
        "shapley.field_calls": calls.get("shapley.game_value_field", 0),
        "shapley.field_self_s": self_s.get("shapley.game_value_field", 0.0),
        "shapley.integrate_s": total.get("shapley.integrate_backward", 0.0),
        "shapley.self_s": layer_self("shapley"),
        "solver.iterations": counts.get("solver.solve", 0),
        "solver.self_s": layer_self("solver"),
        "truncation.levels": ladder_levels,
        "truncation.build_s": layer_self("truncation", lambda f: f != "run_ladder"),
        "truncation.iterations": counts.get("truncation.run_ladder", 0),
        "truncation.self_s": layer_self("truncation"),
        "simulate.estimate_calls": calls.get("simulate.estimate_value", 0),
        "simulate.paths": counts.get("simulate.estimate_value", 0),
        "simulate.estimate_busy_s": total.get("simulate.estimate_value", 0.0),
        "simulate.deviation_candidates": counts.get("simulate.deviation_gain", 0),
        "simulate.deviation_self_s": self_s.get("simulate.deviation_gain", 0.0),
        "simulate.self_s": layer_self("simulate"),
        "io.write_s": layer_self("io", lambda f: not io_is_read(f)),
        "io.bytes_written": sum(counts[n] for n in io_names if not io_is_read(n[3:])),
        "io.read_s": layer_self("io", io_is_read),
        "io.bytes_read": sum(counts[n] for n in io_names if io_is_read(n[3:])),
        "model.validate_s": self_s.get("model.validate_generator", 0.0),
        "model.check_s": layer_self("model", lambda f: f != "validate_generator"),
        "example_games.build_s": layer_self("example_games"),
        "cli.self_s": layer_self("cli"),
        "bench.self_s": layer_self("bench"),
        "trace.wall_s": spans[0][2] - spans[0][1],
        "trace.spans": len(spans),
    }
