"""Per-layer host-time ledger, recorded from outside the program.

The ledger wraps public functions of each ``repro`` layer for the
duration of one traced operation and restores the originals afterwards;
nothing inside ``src/`` knows it exists.  Two kinds of boundary:

* **coarse** boundaries (app build, runtime construction and start,
  ``Environment.run``, result reduction, monitor ticks) become spans
  kept in memory with a parent link, start/end and self time;
* **per-call** boundaries (operator kernels, channel sends, trace
  emits, metric lookups, graph queries, snapshots) run thousands to
  millions of times per operation, so they fold into ``(count, total,
  self)`` per name and the trace stays bounded.

A boundary's self time is its duration minus the time covered by the
wrapped calls nested inside it.  ``StorageClient.write``/``read`` are
process generators whose duration is simulated waiting, not host work,
so they are counted (calls and bytes) but never timed.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path
from typing import Any

CLOCK = time.perf_counter


class Ledger:
    """Spans, per-call aggregates and untimed counts for one operation."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.calls: dict[str, list[float]] = {}  # name -> [count, total_s, self_s]
        self.counts: dict[str, int] = {}
        # One frame per wrapped call in progress: [child_seconds, span_id].
        self._stack: list[list[Any]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------
    def _timed(self, name: str, fn: Any, span: bool) -> Any:
        stack = self._stack
        spans = self.spans
        agg = self.calls.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][1] if stack else None
            if span:
                sid = len(spans)
                record = {"id": sid, "parent": parent, "name": name}
                spans.append(record)
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]
                if span:
                    record.update(start=t0, end=t1, self=dt - frame[0])

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_gen(self, prefix: str, fn: Any) -> Any:
        counts = self.counts
        sig = inspect.signature(fn)
        calls, nbytes = f"{prefix}_calls", f"{prefix}_bytes"
        counts.setdefault(calls, 0)
        counts.setdefault(nbytes, 0)
        is_write = "size" in sig.parameters

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[calls] += 1
            if is_write:
                counts[nbytes] += int(sig.bind(*args, **kwargs).arguments["size"])
            obj = yield from fn(*args, **kwargs)
            if not is_write:
                counts[nbytes] += int(obj.size)
            return obj

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, span: bool = False) -> None:
        self._patch(owner, attr, self._timed(name, owner.__dict__[attr], span))

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary; call :meth:`remove` to undo."""
        from repro.apps import APPS
        from repro.cluster.channel import Channel
        from repro.dsps.graph import QueryGraph
        from repro.dsps.operator import Operator
        from repro.dsps.runtime import DSPSRuntime
        from repro.harness import sweep
        from repro.monitor.plane import MonitorPlane
        from repro.observability.tracer import Tracer
        from repro.simulation.core import Environment
        from repro.storage.shared import StorageClient
        from repro.telemetry.registry import MetricRegistry

        for module in sorted(set(APPS.values()), key=lambda m: m.__name__):
            self.wrap(module, "build", "apps.build", span=True)
        self.wrap(DSPSRuntime, "__init__", "dsps.runtime.init", span=True)
        self.wrap(DSPSRuntime, "start", "dsps.runtime.start", span=True)
        self.wrap(Environment, "run", "simulation.run", span=True)
        self.wrap(MonitorPlane, "tick", "monitor.tick", span=True)
        self.wrap(sweep, "reduce_result", "harness.reduce", span=True)

        self.wrap(QueryGraph, "connect", "dsps.graph.connect")
        self.wrap(QueryGraph, "in_edges", "dsps.graph.edge_query")
        self.wrap(QueryGraph, "out_edges", "dsps.graph.edge_query")
        self.wrap(Channel, "send", "cluster.channel.send")
        self.wrap(Channel, "offer", "cluster.channel.offer")
        self.wrap(Tracer, "emit", "observability.emit")
        for attr in ("counter", "gauge", "histogram"):
            self.wrap(MetricRegistry, attr, "telemetry.lookup")
        # Operator methods are wrapped where each class defines them, so
        # an override in a concrete class is timed as well as the base.
        operator_methods = {
            "on_tuple": "apps.on_tuple",
            "snapshot": "dsps.operator.snapshot",
            "restore": "dsps.operator.restore",
            "state_size": "state.size",
        }
        for cls in _subclasses(Operator):
            for attr, name in operator_methods.items():
                if attr in cls.__dict__:
                    self.wrap(cls, attr, name)

        self._patch(StorageClient, "write",
                    self._counted_gen("storage.write", StorageClient.__dict__["write"]))
        self._patch(StorageClient, "read",
                    self._counted_gen("storage.read", StorageClient.__dict__["read"]))

    def remove(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def layer_values(self) -> dict[str, float]:
        """Flat per-layer numbers: ``<name>_calls`` (count), ``<name>_s``
        (total host seconds), the untimed counts, and the self time of
        the simulation run (kernel plus everything unwrapped inside it)."""
        out: dict[str, float] = dict(self.counts)
        for name, (count, total, self_s) in self.calls.items():
            out[f"{name}_calls"] = count
            out[f"{name}_s"] = total
            if name == "simulation.run":
                out["simulation.self_s"] = self_s
        return out

    def dump(self) -> dict[str, Any]:
        """JSON-ready record of the operation: spans relative to the first
        span's start, per-call aggregates and counts."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        spans = [
            {**s, "start": s["start"] - origin, "end": s["end"] - origin}
            for s in self.spans
        ]
        return {
            "spans": spans,
            "calls": {
                name: {"count": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(self.calls.items())
            },
            "counts": dict(sorted(self.counts.items())),
        }


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def write_spans(path: Path, records: list[dict[str, Any]]) -> None:
    """Write the traced operations' ledgers as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"operations": records}, indent=1, sort_keys=True) + "\n")
