"""Render DESIGN.md's vocabulary tables from the declarations in code.

Each vocabulary the design document tabulates is declared once, in the
module that owns it, together with the text its table shows:

* trace kinds — ``repro.observability.tracer.KINDS`` / ``DYNAMIC_PREFIXES``
* metrics — ``repro.telemetry.registry.METRICS``
* SLO kinds — ``repro.monitor.slo.SLO_DECLARATIONS``
* health states — ``repro.monitor.health.HEALTH_STATES``
* scenario fields — ``repro.scenarios.schema.TOP_LEVEL_FIELDS`` (the
  ``failures`` row lists ``repro.failures.injector.FAILURE_KINDS``)
* run-bundle phases — ``repro.profiling.spans.PHASES``

DESIGN.md marks each table with ``<!-- BEGIN GENERATED name -->`` …
``<!-- END GENERATED name -->``; :func:`render` replaces every block's
body with the table built from the declarations, so the document cannot
drift from the code.  ``python -m repro.analysis.doctables`` rewrites
DESIGN.md in place; the tier-1 suite fails when the committed file
differs from what :func:`render` produces.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterable
from pathlib import Path

from repro.failures.injector import DEGRADATION_KINDS, FAILURE_KINDS
from repro.monitor.health import HEALTH_STATES
from repro.monitor.slo import SLO_DECLARATIONS
from repro.observability.tracer import DYNAMIC_PREFIXES, KINDS
from repro.profiling.spans import PHASES
from repro.scenarios.schema import TOP_LEVEL_FIELDS
from repro.telemetry.registry import METRICS

DESIGN_PATH = Path(__file__).resolve().parents[3] / "DESIGN.md"


def _code(token: str) -> str:
    return f"`{token}`"


def _table(header: tuple[str, ...], rows: Iterable[tuple[str, ...]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for row in rows:
        # A literal pipe would split the cell, even inside backticks.
        lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")
    return "\n".join(lines)


def trace_kinds() -> str:
    rows = [(_code(kind), meaning) for kind, meaning in KINDS.items()]
    rows += [
        (_code(prefix + "*"), "dynamic namespace: kinds built at run time, forwarded verbatim")
        for prefix in DYNAMIC_PREFIXES
    ]
    return _table(("kind", "meaning"), rows)


def metric_schema() -> str:
    rows = [
        (_code(name), kind, _code(labels) if labels else "—", emitted_by)
        for name, (kind, labels, emitted_by) in METRICS.items()
    ]
    return _table(("metric", "kind", "labels", "emitted by"), rows)


def slo_kinds() -> str:
    rows = [
        (_code(kind), f"{bound} s", signal)
        for kind, (bound, signal) in SLO_DECLARATIONS.items()
    ]
    return _table(("kind", "default bound", "signal"), rows)


def health_states() -> str:
    rows = [(_code(state), meaning) for state, meaning in HEALTH_STATES.items()]
    return _table(("state", "meaning"), rows)


def scenario_fields() -> str:
    rows: list[tuple[str, str, str]] = []
    for name, (shape, notes) in TOP_LEVEL_FIELDS.items():
        if name == "failures":
            notes += (
                f"; kinds {', '.join(map(_code, FAILURE_KINDS))}"
                f" (degradation kinds: {', '.join(map(_code, DEGRADATION_KINDS))})"
            )
        rows.append((_code(name), shape, notes))
    return _table(("field", "shape", "notes"), rows)


def bundle_phases() -> str:
    return f"`phases.json` phases, in causal order: {', '.join(map(_code, PHASES))}."


TABLES: dict[str, Callable[[], str]] = {
    "trace-kinds": trace_kinds,
    "metric-schema": metric_schema,
    "slo-kinds": slo_kinds,
    "health-states": health_states,
    "scenario-fields": scenario_fields,
    "bundle-phases": bundle_phases,
}


def render(text: str) -> str:
    """``text`` with every generated block rebuilt from the declarations.

    Raises ``ValueError`` unless each block in :data:`TABLES` appears
    exactly once.
    """
    for name, build in TABLES.items():
        begin, end = f"<!-- BEGIN GENERATED {name} -->", f"<!-- END GENERATED {name} -->"
        start = text.find(begin)
        stop = text.find(end, start)
        if start < 0 or stop < 0 or text.count(begin) != 1 or text.count(end) != 1:
            raise ValueError(f"expected one {begin} … {end} block")
        text = text[:start] + f"{begin}\n\n{build()}\n\n{end}" + text[stop + len(end) :]
    return text


def main() -> int:
    text = DESIGN_PATH.read_text(encoding="utf-8")
    rendered = render(text)
    if rendered != text:
        DESIGN_PATH.write_text(rendered, encoding="utf-8")
        print(f"rewrote {DESIGN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
