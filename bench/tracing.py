"""In-memory span tracing of qfridge's public functions, from outside.

:class:`Tracer` replaces each traced function under every name a qfridge
module binds it to (``qfridge.dynamics.transition_channels`` is the name
``build_generator`` calls, ``qfridge.spectrum.transition_channels`` the
defining one), records one span per call with its parent, and restores the
originals on exit.  Self time is a span's duration minus the time its child
spans cover.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

#: The layers and the public functions traced in each, as ``module.function``.
LAYER_FUNCTIONS = (
    "spectrum.transition_channels",
    "spectrum.eigensystem",
    "spectrum.build_hamiltonian",
    "spectrum.check_nondegenerate",
    "reservoirs.channel_rates",
    "reservoirs.background_rates",
    "reservoirs.warn_if_markov_strained",
    "dynamics.build_generator",
    "dynamics.build_population_matrix",
    "dynamics.invariant_components",
    "dynamics.steady_states_numeric",
    "dynamics.propagate",
    "dynamics.branch_weights",
    "matrixcore.null_space",
    "matrixcore.dm_validate",
    "thermo.build_report",
    "thermo.heat_current",
    "cli.parse_config",
    "cli.sweep_th",
    "cli.scan_filters",
    "cli.run_steady",
    "cli.emit_csv",
    "cli.format_scan_table",
)

MODULES = ("qfridge", "qfridge.matrixcore", "qfridge.spectrum", "qfridge.reservoirs",
           "qfridge.dynamics", "qfridge.thermo", "qfridge.cli")

#: Work counts taken from return values: span name -> (counter, extractor).
RESULT_COUNTERS = {
    "dynamics.propagate": ("steps", lambda result: result.steps),
    "dynamics.steady_states_numeric": ("states", len),
}

ROOT_SPAN = "bench.workload"


class Tracer:
    """Context manager: while active, every call of a traced function is a
    span ``(id, parent, name, start_ns, end_ns, failed)``."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int, bool]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [id, name, start_ns, child_ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name,
                            time.perf_counter_ns(), 0])

    def exit(self, failed: bool = False) -> None:
        end = time.perf_counter_ns()
        sid, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((sid, parent[0] if parent else -1, name, start, end, failed))
        self.calls[name] += 1
        self.failed[name] += failed
        self.self_ns[name] += duration - child_ns

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        self.enter(name)
        try:
            yield
        except BaseException:
            self.exit(failed=True)
            raise
        self.exit()

    # -- patching ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(failed=True)
                raise
            self.exit()
            if counter is not None:
                self.counters[f"{name}.{counter[0]}"] += counter[1](result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(m) for m in MODULES]
        for name in LAYER_FUNCTIONS:
            module, func = name.split(".")
            original = getattr(importlib.import_module(f"qfridge.{module}"), func)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(func) is original:
                    self._patched.append((mod, func, original))
                    setattr(mod, func, wrapper)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        for mod, func, original in reversed(self._patched):
            setattr(mod, func, original)
        self._patched.clear()
        return False

    # -- results ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans, each with its parent, as JSON."""
        fields = ("id", "parent", "name", "start_ns", "end_ns", "failed")
        payload = {"fields": fields, "spans": sorted(self.spans)}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")
