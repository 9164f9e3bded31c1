"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Each operation is one closed-loop simulated job: the next one starts
only when the previous one has returned.  ``run()`` is the timed part
(construction, ``env.run`` and result reduction); ``check()`` runs
after the clock stops and turns the job's outputs into an
:class:`Outcome`.  Every problem a check finds makes the operation a
failed one; no check is ever skipped.

Why these two (see README.md for the layer table and sizing notes):

* ``fig-cell`` is the unit of work behind the figure suite and the
  headline claims: kernel, HAU tuple path, channels and app kernels.
* ``ckpt-recovery`` is dominated by snapshot/restore, the storage model,
  recovery and the observability stack, which fig-cell barely touches.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Outcome:
    """What one operation produced, reduced to checkable facts."""

    tuples: int  # HAU tuples processed: the numerator of tuples_per_s
    # Deterministic counters and simulated outputs; every operation of a
    # run must reproduce them exactly.
    signature: dict[str, Any]
    problems: list[str] = field(default_factory=list)


def _sim_outputs(throughput: float, percentiles: dict[str, float]) -> dict[str, float]:
    return {
        "metrics.sim_throughput": throughput,
        "metrics.sim_latency_p50": percentiles.get("p50", 0.0),
        "metrics.sim_latency_p99": percentiles.get("p99", 0.0),
    }


def _chain(replicas: int, count: int, interval: float, size: int,
           state_window: int | None = None) -> dict[str, Any]:
    """Aligned chain S -> W -> A -> K, ``replicas`` HAUs per stage."""
    worker: dict[str, Any] = {"kind": "map", "replicas": replicas, "size": size}
    if state_window is not None:
        worker["state_window"] = state_window
    return {
        "stages": [
            {"name": "S", "kind": "source", "replicas": replicas,
             "count": count, "interval": interval, "size": size},
            {"name": "W", **worker},
            {"name": "A", **worker},
            {"name": "K", "kind": "sink", "replicas": replicas},
        ],
        "edges": [
            {"src": "S", "dst": "W", "pairing": "aligned"},
            {"src": "W", "dst": "A", "pairing": "aligned"},
            {"src": "A", "dst": "K", "pairing": "aligned"},
        ],
    }


def _sink_counts(runtime: Any) -> dict[str, int]:
    return {
        hau_id: hau.operators[0].received_count
        for hau_id, hau in sorted(runtime.haus.items())
        if hau.is_sink
    }


def _exactly_once(runtime: Any, count: int) -> list[str]:
    """Each aligned sink K<i> must receive exactly source S<i>'s count."""
    wrong = {k: n for k, n in _sink_counts(runtime).items() if n != count}
    if not wrong:
        return []
    shown = ", ".join(f"{k}={n}" for k, n in sorted(wrong.items())[:5])
    return [f"{len(wrong)} sink(s) did not receive exactly {count} tuples: {shown}"]


@contextmanager
def _delivery_log(into: dict[str, list[int]]) -> Iterator[None]:
    """Record, per sink, the routing keys its committed state has consumed.

    A sink's ``received_count`` at delivery is the tuple's position in its
    output, so a rollback to a checkpoint simply overwrites the undone
    suffix.  Counts alone cannot see a replay that loses one tuple and
    re-sends another; the key sequence can.
    """
    from repro.dsps.operator import SinkOperator

    original = SinkOperator.__dict__["on_tuple"]

    def on_tuple(self: Any, port: int, tup: Any) -> Any:
        keys = into.setdefault(self.name, [])
        del keys[self.received_count:]
        keys.append(tup.key)
        return original(self, port, tup)

    SinkOperator.on_tuple = on_tuple
    try:
        yield
    finally:
        SinkOperator.on_tuple = original


def _same_keys_as_sources(runtime: Any, delivered: dict[str, list[int]]) -> list[str]:
    """Each aligned sink K<i> must deliver S<i>'s key sequence, in order."""
    wrong = []
    for hau_id, hau in sorted(runtime.haus.items()):
        if not hau.is_source:
            continue
        sink = "K" + hau_id[1:]
        expected = [emit.key for _delay, emit in hau.source_operator.generate()]
        got = delivered.get(sink, [])[: runtime.haus[sink].operators[0].received_count]
        if got != expected:
            wrong.append(sink)
    if not wrong:
        return []
    return [f"{len(wrong)} sink(s) delivered a different tuple sequence than their "
            f"source generated: {', '.join(wrong[:5])}"]


def _result_signature(result: Any, payload: dict[str, Any]) -> dict[str, Any]:
    """The deterministic facts of an ExperimentResult and its reduced payload."""
    return {
        "digest": payload["digest"],
        "simulation.events_popped": payload["kernel"]["events_popped"],
        "simulation.pool_hits": payload["kernel"]["pool_hits"],
        "simulation.pool_misses": payload["kernel"]["pool_misses"],
        "dsps.hau.tuples_processed": sum(
            h.tuples_processed for h in result.runtime.haus.values()),
        "observability.trace_events": len(result.tracer.events),
        "monitor.ticks": result.monitor.ticks if result.monitor is not None else 0,
        "core.rounds_completed": payload["rounds_completed"],
        "core.recoveries": len(result.scheme.recoveries),
        "core.ckpt_critical_path_sim_s": (payload["critical_path"] or {}).get(
            "max_seconds", 0.0),
        "core.recovery_sim_s": (payload["recovery"] or {}).get("total", 0.0),
        **_sim_outputs(payload["throughput"], payload["latency_percentiles"]),
    }


@contextmanager
def _capture(module: Any, attr: str, into: dict[str, Any]) -> Iterator[None]:
    """Keep the return value of ``module.attr`` while the block runs."""
    original = getattr(module, attr)

    def keep(*args: Any, **kwargs: Any) -> Any:
        into[attr] = value = original(*args, **kwargs)
        return value

    setattr(module, attr, keep)
    try:
        yield
    finally:
        setattr(module, attr, original)


class FigCell:
    """One fast-mode Fig. 12/13 cell: bcp, ms-src+ap+aa, 3 checkpoints,
    entered through the public sweep function so it gets the sweep's own
    app parameters and aa warm-up, with the cache and process pool off."""

    name = "fig-cell"
    # Sim seconds measured. The sweep's default (150 s) makes a 4-8 s op,
    # too few per run for a steady figure on a shared host; at 30 s the
    # cell keeps its 3 rounds, aa warm-up and state scaling (window/600).
    WINDOW = 30.0

    def __init__(self, seed: int):
        self.model_seed = 1 + random.Random(seed).randrange(1000)
        self.inputs = {"app": "bcp", "scheme": "ms-src+ap+aa", "checkpoints": 3,
                       "window": self.WINDOW, "seed": self.model_seed}

    def run(self) -> dict[str, Any]:
        from repro.harness import figures, sweep

        captured: dict[str, Any] = {}
        with _capture(sweep, "run_experiment", captured), _capture(sweep, "run_cell", captured):
            captured["sweep"] = figures.fig12_fig13_sweep(
                apps=["bcp"], schemes=["ms-src+ap+aa"], checkpoint_counts=[3],
                window=self.WINDOW, seed=self.model_seed, use_cache=False, jobs=1,
            )
        return captured

    def check(self, out: dict[str, Any]) -> Outcome:
        result, payload = out["run_experiment"], out["run_cell"]
        [cell] = out["sweep"].cells
        problems = []
        if cell.rounds_completed < 1:
            problems.append("no checkpoint round completed")
        if cell.throughput <= 0:
            problems.append("no tuples reached the probe stage")
        sig = _result_signature(result, payload)
        return Outcome(sig["dsps.hau.tuples_processed"], sig, problems)


class CkptRecovery:
    """A 32-HAU stateful chain under ms-src+ap with checkpoints while input
    flows and one mid-stream rack burst; trace, telemetry and the monitor
    plane on; the run ends with ``reduce_result``."""

    name = "ckpt-recovery"
    # Sized for a ~1 s op, so a run holds dozens of them.
    REPLICAS = 8
    COUNT = 200  # tuples per source: 1600 in all
    INTERVAL = 0.08  # input flows for the first 16 sim seconds
    # The horizon must outlast the replay's drain tail: with the same
    # bursts and checkpoint count, an 18 s horizon left tuples
    # undelivered and 22 s drained them all; 42 s leaves margin.  Never
    # shorten it to hide a loss.
    WARMUP, WINDOW = 2.0, 40.0
    CHECKPOINTS = 8  # at 4.5, 9.5, 14.5, ... sim s: two before the burst

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.model_seed = 1 + rng.randrange(1000)
        # rack0 hosts the storage node and controller: bursts hit the others
        self.rack = rng.choice(["rack1", "rack2", "rack3"])
        self.failure_at = round(12.0 + 2.0 * rng.random(), 3)
        self.topology = _chain(self.REPLICAS, self.COUNT, self.INTERVAL, 4096,
                               state_window=512)
        self.inputs = {"haus": 4 * self.REPLICAS, "count": self.COUNT, "rack": self.rack,
                       "failure_at": self.failure_at, "seed": self.model_seed}

    def run(self) -> dict[str, Any]:
        from repro.failures.injector import FailurePlan, PlannedFailure
        from repro.harness import sweep
        from repro.harness.experiment import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(
            app="synth", scheme="ms-src+ap", n_checkpoints=self.CHECKPOINTS,
            window=self.WINDOW, warmup=self.WARMUP, seed=self.model_seed,
            workers=16, spares=8, racks=4, enable_recovery=True,
            app_params={"topology": self.topology}, batch_quantum=0.0,
            monitor_period=1.0,
        )
        burst = PlannedFailure(at=self.failure_at, kind="rack", target=self.rack,
                               cause="rack-burst")
        delivered: dict[str, list[int]] = {}
        with _delivery_log(delivered):
            result = run_experiment(cfg, failure_plan=FailurePlan([burst]),
                                    trace=True, telemetry=True)
        payload = sweep.reduce_result(
            result, sweep.CellSpec(config=cfg, failure_trace=(burst,)))
        return {"result": result, "payload": payload, "delivered": delivered}

    def check(self, out: dict[str, Any]) -> Outcome:
        result, payload = out["result"], out["payload"]
        problems = _exactly_once(result.runtime, self.COUNT)
        problems += _same_keys_as_sources(result.runtime, out["delivered"])
        recoveries = result.scheme.recoveries
        if len(recoveries) != 1:
            problems.append(f"expected one recovery, saw {len(recoveries)}")
        if payload["rounds_completed"] < 1:
            problems.append("no checkpoint round completed")
        sig = _result_signature(result, payload)
        return Outcome(sig["dsps.hau.tuples_processed"], sig, problems)


WORKLOADS = {w.name: w for w in (FigCell, CkptRecovery)}
