"""One benchmark process: set up a workload, then run timed operations.

Started by ``run.py`` with a pinned environment; prints one JSON line.

Set-up is everything before the first timed operation: interpreter
start and imports (measured from the moment the parent spawned this
process), input generation, and one warm-up operation whose time is
discarded but whose outputs are still checked.

``--trace 0`` runs untraced operations until ``--budget`` host seconds
have been measured (at least one when the budget is positive), each
right after one reference op: fixed pure-Python work that shares no
code with the program, so its time tracks only the host's speed.
``--trace 1`` alternates an untraced and a traced operation, at least
one pair, so the traced run yields both the per-layer ledger and the
tracing overhead against untraced operations of the same process.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

from ledger import Ledger, write_spans
from workloads import WORKLOADS


REF_STEPS = 100_000  # about 0.1 s on a quiet 2-vCPU Xeon VM


class _Event:
    __slots__ = ("time", "proc", "value")

    def __init__(self, time: float, proc: int, value: int):
        self.time, self.proc, self.value = time, proc, value


def reference_op() -> float:
    """Time a fixed amount of interpreter work of the simulator's kind:
    a heap of timed events, one object allocated per event, and
    generator processes that keep dict state.  Returns host seconds.

    The collector is off while it runs, so its time does not depend on
    how many objects the program keeps alive."""

    def process(k: int) -> Any:
        seen: dict[int, int] = {}
        while True:
            event = yield
            seen[event.value % 97] = seen.get(event.value % 97, 0) + k

    procs = []
    for k in range(64):
        proc = process(k)
        next(proc)
        procs.append(proc)
    heap = [(0.0, k, k) for k in range(64)]
    heapq.heapify(heap)
    gc.disable()
    try:
        t0 = time.perf_counter()
        for step in range(REF_STEPS):
            when, _seq, k = heapq.heappop(heap)
            procs[k].send(_Event(when, k, step))
            heapq.heappush(heap, (when + 1.0 + step % 5, step + 64, k))
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_op(workload: Any, kind: str, ledger: Ledger | None = None) -> dict[str, Any]:
    """Run, time and check one operation; an exception is a failed op."""
    gc.collect()  # the previous op's garbage is not this op's cost
    record: dict[str, Any] = {"kind": kind}
    try:
        try:
            if ledger is not None:
                ledger.install()
            t0 = time.perf_counter()
            out = workload.run()
            record["wall_s"] = time.perf_counter() - t0
        finally:
            if ledger is not None:
                ledger.remove()
        outcome = workload.check(out)
        del out
    except Exception:  # a crashing operation is reported, never skipped
        record["problems"] = [traceback.format_exc()]
        return record
    record.update(tuples=outcome.tuples, signature=outcome.signature,
                  problems=outcome.problems)
    if ledger is not None:
        record["layers"] = ledger.layer_values()
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() when it started this process")
    parser.add_argument("--spans", default=None, help="where to write the traced ledgers")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    ops = [run_op(workload, "warmup")]
    setup_s = time.monotonic() - args.spawned_at

    ledgers: list[dict[str, Any]] = []
    measured = 0.0
    while measured < args.budget:
        if args.trace:
            untraced = run_op(workload, "untraced")
            ledger = Ledger()
            traced = run_op(workload, "traced", ledger)
            ledgers.append(ledger.dump())
            ops += [untraced, traced]
            batch = [untraced, traced]
        else:
            ref_s = reference_op()
            batch = [run_op(workload, "timed")]
            batch[0]["ref_s"] = ref_s
            ops += batch
        if any("wall_s" not in op for op in batch):
            break  # the program crashed; more of the same proves nothing
        measured += sum(op["wall_s"] for op in batch)
    if args.spans and ledgers:
        write_spans(Path(args.spans), ledgers)

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "inputs": workload.inputs,
        "ops": ops,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
