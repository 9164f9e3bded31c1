"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fig-cell --seed 3 --seconds 36 --trace 0

Run from the repository root.  Workloads: ``fig-cell`` and
``ckpt-recovery`` (see perfbench/README.md).  The seed makes every
input: topology, failure plan and model seed.

``--trace 0`` measures the end-to-end metrics: set-up is repeated in
``SETUPS`` fresh processes and its median reported, and the timed
operations are spread over those processes until ``--seconds`` host
seconds have been measured.  Each timed operation follows a reference
op, and the reported times are scaled to the reference host speed
(``host_scale``).  ``--trace 1`` is one process that
alternates untraced and traced operations and reports the per-layer
ledger plus the tracing overhead.

Every operation's outputs are checked, and every deterministic counter
must repeat exactly across all operations of the run; an operation that
breaks either is a failed one.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Details (per-op
times, quartiles, digests, simulated outputs) go to
``.perfbench-out/``, traced ledgers included.  Metric names and units
are the ones ``BENCHMARK.json`` at the root declares.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workloads import WORKLOADS

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
SETUPS = 3  # processes per untraced run: the samples behind setup_s
# The reference op's time on a quiet host (worker.reference_op): the
# end-to-end times are host times scaled by REF_SECONDS / measured.
REF_SECONDS = 0.1
RUN_TIMEOUT = 170.0  # host seconds for all of a run's processes together

# The measured program is pinned: harness.experiment reads REPRO_FULL and
# REPRO_BATCH_QUANTUM at import, so an ambient shell value would silently
# change the workload.  The sweep must not hit a result cache or fan out.
PINNED_ENV = {
    "REPRO_FULL": "0",
    "REPRO_BATCH_QUANTUM": "0",
    "REPRO_SCHED": "heap",
    "REPRO_JOBS": "1",
    "REPRO_SAN": "0",
    "REPRO_CACHE_DIR": str(OUT / "cache"),
    "REPRO_BUNDLE_DIR": "",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spawn(workload: str, seed: int, budget: float, trace: int, spans: Path | None,
          deadline: float) -> dict:
    """Run one worker process to completion and return its JSON record."""
    env = {**os.environ, **PINNED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--budget", repr(budget), "--trace", str(trace),
           "--spawned-at", repr(time.monotonic())]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # subprocess.run kills and reaps the child if it overruns
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def judge(ops: list[dict]) -> list[str]:
    """Mark every failed op; return one line per failure.

    An op fails if it raised, if its own checks failed, if its
    deterministic signature differs from the run's first op, or (traced
    ops) if its ledger counts differ from the first traced op's."""
    failures = []
    first = next((op for op in ops if "signature" in op), None)
    first_traced = next((op for op in ops if "layers" in op), None)
    counts = [k for k in (first_traced or {}).get("layers", {}) if not k.endswith("_s")]
    for i, op in enumerate(ops):
        problems = list(op.get("problems", []))
        if "signature" in op and op["signature"] != first["signature"]:
            moved = sorted(k for k in op["signature"]
                           if op["signature"][k] != first["signature"].get(k))
            problems.append(f"deterministic outputs moved between ops: {moved}")
        if "layers" in op:
            moved = sorted(k for k in counts
                           if op["layers"].get(k) != first_traced["layers"][k])
            if moved:
                problems.append(f"layer counts moved between traced ops: {moved}")
        op["failed"] = bool(problems)
        failures += [f"op {i} ({op['kind']}): {p.strip()}" for p in problems]
    return failures


def median(ops: list[dict], key: Any) -> float:
    return statistics.median(key(op) for op in ops)


def declared(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json declares under ``kind``, with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def host_scale(timed: list[dict]) -> float:
    """REF_SECONDS over the run's mean reference-op time: multiplying a
    host time by it gives seconds at the reference host speed."""
    return REF_SECONDS * len(timed) / sum(op["ref_s"] for op in timed)


def end_to_end(children: list[dict], timed: list[dict]) -> dict[str, dict]:
    """Times in seconds at the reference host speed (see host_scale).

    A shared host's speed drifts by tens of percent over minutes; every
    timed op follows a reference op, so the run's op time over its
    reference time cancels that drift.  Host seconds are kept in the
    detail file."""
    scale = host_scale(timed)
    wall_s = scale * statistics.fmean(op["wall_s"] for op in timed)
    return declared("end_to_end", {
        "wall_s": wall_s,
        "setup_s": scale * statistics.median(c["setup_s"] for c in children),
        "tuples_per_s": timed[0]["tuples"] / wall_s,  # the same in every op
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    })


def per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, dict]:
    """Counts from the first traced op (they repeat exactly), host times
    as medians over the traced ops, plus the derived rates and ratios."""
    first = traced[0]
    values = {**first["signature"], **first["layers"]}
    for name in first["layers"]:
        if name.endswith("_s"):
            values[name] = median(traced, lambda op, k=name: op["layers"][k])
    hits, misses = values["simulation.pool_hits"], values["simulation.pool_misses"]
    values["simulation.pool_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    run_s = values["simulation.run_s"]
    values["simulation.events_per_s"] = values["simulation.events_popped"] / run_s
    values["bench.untraced_wall_s"] = median(untraced, lambda op: op["wall_s"])
    values["bench.traced_wall_s"] = median(traced, lambda op: op["wall_s"])
    values["bench.trace_overhead"] = (
        values["bench.traced_wall_s"] / values["bench.untraced_wall_s"] - 1.0)
    return declared("per_layer", values)


def report(workload: str, seed: int, children: list[dict], ops: list[dict],
           metrics: dict[str, dict], failures: list[str]) -> None:
    """Human-readable lines above the result, and the detail file."""
    timed = [op for op in ops if op["kind"] in ("timed", "untraced") and "wall_s" in op]
    walls = [op["wall_s"] for op in timed]
    q1, q2, q3 = quartiles(walls)
    sig = next((op["signature"] for op in ops if "signature" in op), {})
    print(f"{workload} seed={seed} inputs={json.dumps(children[0]['inputs'], sort_keys=True)}")
    print(f"  host s per op: min {min(walls):.4f}  q1 {q1:.4f}  median {q2:.4f}  "
          f"q3 {q3:.4f}  n={len(walls)}")
    print(f"  host setup s per process: {[round(c['setup_s'], 4) for c in children]}")
    refs = [op["ref_s"] for op in timed if "ref_s" in op]
    scale = host_scale(timed) if refs and len(refs) == len(timed) else None
    if scale is not None:
        print(f"  reference op: median {statistics.median(refs):.4f} s, "
              f"host scale {scale:.4f}")
    print(f"  digest {sig.get('digest', '-')}")
    for name in sorted(metrics):
        print(f"  {name:34s} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
    for line in failures:
        print(f"  FAILED {line}")
    OUT.mkdir(parents=True, exist_ok=True)
    detail = {"workload": workload, "seed": seed, "processes": children,
              "host_wall_s": {"min": min(walls), "q1": q1, "median": q2, "q3": q3,
                              "n": len(walls)},
              "reference_s": refs, "host_scale": scale,
              "metrics": metrics, "failures": failures}
    trace = "1" if any(op["kind"] == "traced" for op in ops) else "0"
    path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing "
              "(run from the repository root)", file=sys.stderr)
        return 2

    # A SIGTERM becomes SystemExit, on which subprocess.run kills and
    # reaps the running worker before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    children = []
    deadline = time.monotonic() + RUN_TIMEOUT
    try:
        if args.trace:
            spans = OUT / f"{args.workload}-seed{args.seed}-spans.json"
            children.append(spawn(args.workload, args.seed, args.seconds, 1, spans, deadline))
        else:
            # Process j measures until the run's total reaches j/SETUPS of
            # the budget, so the timed ops spread over the processes.
            measured = 0.0
            for j in range(1, SETUPS + 1):
                budget = args.seconds * j / SETUPS - measured
                child = spawn(args.workload, args.seed, budget, 0, None, deadline)
                measured += sum(op.get("wall_s", 0.0) for op in child["ops"]
                                if op["kind"] == "timed")
                children.append(child)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark process failed: {exc}", file=sys.stderr)
        return 1

    ops = [op for child in children for op in child["ops"]]
    failures = judge(ops)
    completed = [op for op in ops if "signature" in op]  # ran and was checked
    if args.trace:
        untraced = [op for op in completed if op["kind"] == "untraced"]
        traced = [op for op in completed if op["kind"] == "traced"]
        if not untraced or not traced:
            print("no traced/untraced operation completed", file=sys.stderr)
            return 1
        metrics = per_layer(untraced, traced)
    else:
        timed = [op for op in completed if op["kind"] == "timed"]
        if not timed:
            print("no timed operation completed", file=sys.stderr)
            return 1
        metrics = end_to_end(children, timed)

    report(args.workload, args.seed, children, ops, metrics, failures)
    failed = sum(op["failed"] for op in ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
