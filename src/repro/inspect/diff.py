"""The diff engine: attribute run-to-run deltas to phases and HAUs.

``diff_bundles(a, b)`` compares two RunBundles and explains *where* the
difference lives: every checkpoint-time / latency / critical-path delta
is broken down by phase span (token-wait, safepoint-wait, snapshot,
disk-io), by individual HAU, and by critical-path hop kind, then ranked
as signed **top movers**.  ``diff_reports(a, b)`` does the cell-level
equivalent for two ``BENCH_headline`` or campaign reports.

Conventions (the antisymmetry contract, tested in
``tests/test_inspect.py``):

* ``a`` is the baseline, ``b`` the candidate; every ``delta`` is
  ``b - a`` (positive = the candidate is bigger/slower).
* ``diff(b, a)`` is the exact mirror of ``diff(a, b)``: ``a``/``b``
  blocks swap, every ``delta`` negates, rankings keep the same order
  (ties and magnitudes are sign-insensitive).

Everything here is a pure function of its inputs — same bundles in,
byte-identical diff out — which is what lets CI print an attributed
perf delta on every PR without a flake budget.
"""

from __future__ import annotations

from typing import Any

from repro.profiling.spans import PHASES

# Ranked movers are capped (per dimension union) so a 10k-HAU diff stays
# readable; the full per-dimension tables remain in the diff body.
DEFAULT_TOP = 10


def _entry(va: float | None, vb: float | None) -> dict[str, Any]:
    """One compared quantity; ``delta`` is None when either side lacks it."""
    delta = None
    if va is not None and vb is not None:
        delta = vb - va
    return {"a": va, "b": vb, "delta": delta}


def _num(mapping: dict[str, Any] | None, key: str) -> float | None:
    if not mapping:
        return None
    value = mapping.get(key)
    return float(value) if isinstance(value, (int, float)) else None


def _dim_entries(
    a_vals: dict[str, float], b_vals: dict[str, float]
) -> dict[str, dict[str, Any]]:
    """Union-keyed delta entries; absent side reads 0.0 (a phase that
    never happened contributed zero seconds, not "unknown")."""
    out: dict[str, dict[str, Any]] = {}
    for key in sorted(set(a_vals) | set(b_vals)):
        out[key] = _entry(a_vals.get(key, 0.0), b_vals.get(key, 0.0))
    return out


def _hop_totals(cp: dict[str, Any] | None) -> tuple[dict[str, float], dict[str, float]]:
    """Critical-path seconds aggregated by hop kind and by hop subject."""
    kinds: dict[str, float] = {}
    subjects: dict[str, float] = {}
    for hops in (cp or {}).get("hops", {}).values():
        for hop in hops:
            kinds[hop["kind"]] = kinds.get(hop["kind"], 0.0) + hop["seconds"]
            subjects[hop["subject"]] = subjects.get(hop["subject"], 0.0) + hop["seconds"]
    return kinds, subjects


def _hau_totals(phases: dict[str, Any] | None) -> dict[str, float]:
    """Per-HAU total phase-span seconds (all phases summed)."""
    out: dict[str, float] = {}
    for hau, buckets in ((phases or {}).get("per_hau") or {}).items():
        out[hau] = sum(buckets.get(p, 0.0) for p in PHASES)
    return out


def _alert_totals(section: dict[str, Any] | None) -> dict[str, float]:
    """Alert counts keyed ``slo:action`` from a bundle's alerts.json."""
    summary = ((section or {}).get("alerts") or {}).get("summary") or {}
    out: dict[str, float] = {}
    for slo, bucket in (summary.get("by_slo") or {}).items():
        for action in ("fired", "resolved"):
            count = bucket.get(action, 0)
            if count:
                out[f"{slo}:{action}"] = float(count)
    return out


def _alert_summary(section: dict[str, Any] | None) -> dict[str, float | None]:
    alerts = (section or {}).get("alerts") or {}
    summary = alerts.get("summary") or {}
    return {
        "fired": _num(summary, "fired"),
        "resolved": _num(summary, "resolved"),
        "active": _num(summary, "active"),
        "health_transitions": float(len((section or {}).get("health_timeline") or [])),
    }


def _straggler_keys(timeline: dict[str, Any] | None) -> list[str]:
    return sorted(
        f"{s['round']}:{s['hau']}" for s in (timeline or {}).get("stragglers", [])
    )


def top_movers(
    diff: dict[str, Any], limit: int = DEFAULT_TOP
) -> list[dict[str, Any]]:
    """Rank the attribution dimensions of a bundle diff by |delta|.

    Returns ``[{dimension, name, a, b, delta}]`` sorted by descending
    magnitude (ties: dimension, then name — fully deterministic).  Zero
    and incomparable deltas never appear: a mover always *moved*.
    """
    rows: list[dict[str, Any]] = []
    for dimension, table in (
        ("phase", diff.get("phases", {})),
        ("hau", diff.get("haus", {})),
        ("hop", diff.get("hops", {})),
        ("hop-subject", diff.get("hop_subjects", {})),
        ("alert", diff.get("alerts", {})),
    ):
        for name, entry in table.items():
            delta = entry.get("delta")
            if delta:
                rows.append(
                    {
                        "dimension": dimension,
                        "name": name,
                        "a": entry["a"],
                        "b": entry["b"],
                        "delta": delta,
                    }
                )
    rows.sort(key=lambda r: (-abs(r["delta"]), r["dimension"], r["name"]))
    return rows[:limit]


def _meta(bundle: dict[str, Any]) -> dict[str, Any]:
    manifest = bundle["manifest"]
    return {
        "bundle_id": manifest.get("bundle_id"),
        "digest": manifest.get("digest"),
        **(manifest.get("meta") or {}),
    }


def diff_bundles(
    a: dict[str, Any], b: dict[str, Any], limit: int = DEFAULT_TOP
) -> dict[str, Any]:
    """Compare two in-memory bundles (see :func:`~repro.inspect.bundle.read_bundle`)."""
    af, bf = a["files"], b["files"]
    a_meta, b_meta = _meta(a), _meta(b)
    am, bm = af["metrics.json"], bf["metrics.json"]
    a_pct = am.get("latency_percentiles") or {}
    b_pct = bm.get("latency_percentiles") or {}
    acp, bcp = af["critical_paths.json"], bf["critical_paths.json"]
    a_kinds, a_subjects = _hop_totals(acp)
    b_kinds, b_subjects = _hop_totals(bcp)
    a_phases = (af["phases.json"] or {}).get("totals") or {}
    b_phases = (bf["phases.json"] or {}).get("totals") or {}
    a_strag = _straggler_keys(af["timeline.json"])
    b_strag = _straggler_keys(bf["timeline.json"])
    a_alerts = af.get("alerts.json")
    b_alerts = bf.get("alerts.json")
    a_asum, b_asum = _alert_summary(a_alerts), _alert_summary(b_alerts)

    diff: dict[str, Any] = {
        "kind": "bundle-diff",
        "a": a_meta,
        "b": b_meta,
        # The determinism digest covers the workload's physics only; the
        # monitoring plane rides outside it (that's what makes it a pure
        # observer), so "identical" must also compare the alert sections
        # or a monitor-only change would short-circuit the explainer.
        "identical": bool(
            a_meta.get("digest") is not None
            and a_meta.get("digest") == b_meta.get("digest")
            and a_alerts == b_alerts
        ),
        "same_workload": all(
            a_meta.get(k) == b_meta.get(k) for k in ("app", "scheme", "n_checkpoints")
        ),
        "metrics": {
            "throughput": _entry(_num(am, "throughput"), _num(bm, "throughput")),
            "latency": _entry(_num(am, "latency"), _num(bm, "latency")),
            "latency_p50": _entry(_num(a_pct, "p50"), _num(b_pct, "p50")),
            "latency_p95": _entry(_num(a_pct, "p95"), _num(b_pct, "p95")),
            "latency_p99": _entry(_num(a_pct, "p99"), _num(b_pct, "p99")),
            "rounds_completed": _entry(
                _num(am, "rounds_completed"), _num(bm, "rounds_completed")
            ),
        },
        "checkpoint": {
            "critical_path_max": _entry(_num(acp, "max_seconds"), _num(bcp, "max_seconds")),
            "critical_path_mean": _entry(
                _num(acp, "mean_seconds"), _num(bcp, "mean_seconds")
            ),
        },
        "alert_summary": {
            key: _entry(a_asum[key], b_asum[key]) for key in sorted(a_asum)
        },
        "alerts": _dim_entries(_alert_totals(a_alerts), _alert_totals(b_alerts)),
        "phases": _dim_entries(a_phases, b_phases),
        "haus": _dim_entries(_hau_totals(af["phases.json"]), _hau_totals(bf["phases.json"])),
        "hops": _dim_entries(a_kinds, b_kinds),
        "hop_subjects": _dim_entries(a_subjects, b_subjects),
        "stragglers": {
            "a": a_strag,
            "b": b_strag,
            "appeared": sorted(set(b_strag) - set(a_strag)),
            "disappeared": sorted(set(a_strag) - set(b_strag)),
        },
    }
    diff["top_movers"] = top_movers(diff, limit=limit)
    return diff


# -- report-level diffs (BENCH_headline / campaign) ---------------------------

# Per-cell quantities a headline-report diff compares (higher = slower
# for all but throughput; the explainer knows the sign convention).
CELL_METRICS = (
    "throughput",
    "latency",
    "latency_p99",
    "critical_path_seconds",
    "rounds_completed",
)

SCENARIO_METRICS = ("throughput", "latency", "critical_path_max", "rounds_completed")


def _report_rows(report: dict[str, Any]) -> tuple[str, dict[str, dict[str, Any]]]:
    """``(kind, {row_key: row})`` for either supported report shape."""
    if "cells" in report:
        rows = {
            f"{c['app']}/{c['scheme']}@{c['n_checkpoints']}": c
            for c in report["cells"]
        }
        return "headline", rows
    if "scenarios" in report:
        return "campaign", {r["id"]: r for r in report["scenarios"]}
    raise ValueError("not a BENCH_headline or campaign report (no 'cells'/'scenarios')")


def diff_reports(
    a: dict[str, Any], b: dict[str, Any], limit: int = DEFAULT_TOP
) -> dict[str, Any]:
    """Cell-by-cell (or scenario-by-scenario) report diff with ranked movers.

    Mirrors the bundle-diff conventions: ``delta = b - a`` everywhere,
    and ``diff_reports(b, a)`` is the sign-flipped mirror.
    """
    a_kind, a_rows = _report_rows(a)
    b_kind, b_rows = _report_rows(b)
    if a_kind != b_kind:
        raise ValueError(f"cannot diff a {a_kind} report against a {b_kind} report")
    metrics = CELL_METRICS if a_kind == "headline" else SCENARIO_METRICS
    rows: dict[str, dict[str, Any]] = {}
    for key in sorted(set(a_rows) | set(b_rows)):
        ra, rb = a_rows.get(key), b_rows.get(key)
        rows[key] = {
            "in_a": ra is not None,
            "in_b": rb is not None,
            "metrics": {m: _entry(_num(ra, m), _num(rb, m)) for m in metrics},
        }
    movers: list[dict[str, Any]] = []
    for key, row in rows.items():
        for metric, entry in row["metrics"].items():
            delta = entry.get("delta")
            if not delta:
                continue
            # |relative| change against the larger side: comparable
            # across metrics with very different scales, and symmetric
            # in a/b (so the mirror contract extends to rankings).
            base = max(abs(entry["a"]), abs(entry["b"]))
            movers.append(
                {
                    "row": key,
                    "metric": metric,
                    "a": entry["a"],
                    "b": entry["b"],
                    "delta": delta,
                    "magnitude": abs(delta) / base if base else abs(delta),
                }
            )
    movers.sort(key=lambda r: (-r["magnitude"], r["row"], r["metric"]))
    return {
        "kind": f"{a_kind}-report-diff",
        "rows": rows,
        "top_movers": movers[:limit],
    }
