"""Each vocabulary is declared once in code; these tests hold the rest of
the repo to the declarations.

* DESIGN.md's vocabulary tables must equal what
  ``repro.analysis.doctables.render`` builds from the declarations.
* Every trace-emit and metric call site under ``src/repro`` must name a
  declared trace kind (``tracer.KINDS`` / ``DYNAMIC_PREFIXES``) or a
  declared metric of the same kind (``telemetry.registry.METRICS``), and
  every declared name must have a call site.  Not every kind is emitted
  by any one test run, so this is checked on the source, not at run time.
* Every profiling span kind is a trace kind.
"""

from __future__ import annotations

import ast
import textwrap
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.analysis.astutil import const_str, receiver_tail
from repro.analysis.doctables import DESIGN_PATH, render
from repro.observability.tracer import DYNAMIC_PREFIXES, KINDS
from repro.telemetry.registry import METRICS
from repro.telemetry.sampler import SERIES_METRICS

REPO = Path(__file__).resolve().parents[1]

# Receiver tails that identify the metric registry / tracer handle at a
# call site (``env.telemetry.counter``, ``self._telem.histogram``,
# ``self.registry.gauge``, ``env.trace.emit``, ``self.tracer.emit`` ...).
TELEMETRY_RECEIVERS = frozenset({"telemetry", "telem", "_telem", "registry", "_registry"})
TRACER_RECEIVERS = frozenset({"trace", "tracer", "_trace", "_tracer"})
METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

# The only call sites allowed a computed first argument, as (path under
# the root, enclosing function): the sampler's loop over SERIES_METRICS
# and MetricsHub.record_event's ``"metrics." + kind``.
DYNAMIC_SITES = frozenset(
    {
        ("src/repro/telemetry/sampler.py", "_record"),
        ("src/repro/metrics/collectors.py", "record_event"),
    }
)


@dataclass
class CallSites:
    #: (``"emit"`` or the metric factory, constant name) -> first location
    named: dict[tuple[str, str], str] = field(default_factory=dict)
    #: allowlisted computed names: (``"emit"`` or factory, constant prefix, location)
    dynamic: list[tuple[str, str | None, str]] = field(default_factory=list)
    #: computed names outside DYNAMIC_SITES
    unlisted: list[str] = field(default_factory=list)


class _Collector(ast.NodeVisitor):
    def __init__(self, relpath: str, sites: CallSites):
        self.relpath = relpath
        self.sites = sites
        self.scope: list[str] = []

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        tail = receiver_tail(func)
        if func.attr == "emit" and tail in TRACER_RECEIVERS:
            factory = "emit"
        elif func.attr in METRIC_FACTORIES and tail in TELEMETRY_RECEIVERS:
            factory = func.attr
        else:
            return
        where = f"{self.relpath}:{node.lineno}"
        arg = node.args[0]
        name = const_str(arg)
        if name is not None:
            self.sites.named.setdefault((factory, name), where)
        elif (self.relpath, self.scope[-1] if self.scope else "") in DYNAMIC_SITES:
            prefix = const_str(arg.left) if isinstance(arg, ast.BinOp) else None
            self.sites.dynamic.append((factory, prefix, where))
        else:
            self.sites.unlisted.append(
                f"{where}: computed name `{ast.unparse(arg)}` outside the allowlisted sites"
            )


def call_site_names(root: Path) -> CallSites:
    """The trace-emit and metric call sites of every module under
    ``<root>/src/repro``."""
    sites = CallSites()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        relpath = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=relpath)
        _Collector(relpath, sites).visit(tree)
    return sites


def vocabulary_problems(sites, kinds, dynamic_prefixes, metrics, series) -> list[str]:
    """Disagreements between call sites and declarations, both directions."""
    problems = list(sites.unlisted)
    emitted = {name: where for (fac, name), where in sites.named.items() if fac == "emit"}
    created = {key: where for key, where in sites.named.items() if key[0] != "emit"}
    used_prefixes = set()
    for factory, prefix, where in sites.dynamic:
        if factory != "emit":
            for name in series:
                created.setdefault((factory, name), where)
        elif prefix in dynamic_prefixes:
            used_prefixes.add(prefix)
        else:
            problems.append(f"{where}: computed trace kinds under undeclared prefix `{prefix}`")

    for kind, where in sorted(emitted.items()):
        if kind not in kinds:
            problems.append(f"{where}: trace kind `{kind}` is emitted but not declared")
    problems += [f"trace kind `{k}` is declared but never emitted" for k in kinds if k not in emitted]
    problems += [
        f"dynamic prefix `{p}` is declared but never emitted"
        for p in dynamic_prefixes
        if p not in used_prefixes
    ]
    for (factory, name), where in sorted(created.items()):
        if name not in metrics:
            problems.append(f"{where}: metric `{name}` is created but not declared")
        elif metrics[name][0] != factory:
            problems.append(
                f"{where}: metric `{name}` is declared a {metrics[name][0]} "
                f"but created with .{factory}()"
            )
    used = {name for _, name in created}
    problems += [f"metric `{m}` is declared but never created" for m in metrics if m not in used]
    return problems


# ---------------------------------------------------------------------------
# the live tree
# ---------------------------------------------------------------------------


def test_design_md_tables_are_up_to_date():
    text = DESIGN_PATH.read_text(encoding="utf-8")
    assert render(text) == text, (
        "DESIGN.md's generated tables are stale; run `python -m repro.analysis.doctables`"
    )


def test_call_site_names_match_declared_vocabularies():
    sites = call_site_names(REPO)
    assert sites.named, "the call-site walk found nothing; receiver sets out of date?"
    assert vocabulary_problems(sites, KINDS, DYNAMIC_PREFIXES, METRICS, SERIES_METRICS) == []


def test_repo_span_kinds_match_tracer_kinds():
    from repro.profiling import SPAN_KINDS

    assert set(SPAN_KINDS) <= set(KINDS)


# ---------------------------------------------------------------------------
# drift cases on fixture trees
# ---------------------------------------------------------------------------

FIXTURE_KINDS = {"ckpt.start": "a round began", "ckpt.done": "a round ended"}
FIXTURE_METRICS = {
    "ms_good_total": ("counter", "", ""),
    "ms_series_depth": ("gauge", "hau", ""),
}
FIXTURE_SERIES = ("ms_series_depth",)

CLEAN_FILES = {
    "src/repro/m.py": """\
        def run(env, trace):
            trace.emit("ckpt.start", t=0.0)
            trace.emit("ckpt.done", t=1.0)
            env.telemetry.counter("ms_good_total").inc()
        """,
    "src/repro/metrics/collectors.py": """\
        class MetricsHub:
            def record_event(self, time, kind):
                self.tracer.emit("metrics." + kind, t=time)
        """,
    "src/repro/telemetry/sampler.py": """\
        class Sampler:
            def _record(self, metric, hau_id, value):
                self.registry.gauge(metric, hau=hau_id).set(value)
        """,
}


def fixture_problems(tmp_path, edits=None):
    """Problems in the clean fixture tree with ``edits`` (relpath -> new
    source) applied."""
    for relpath, text in {**CLEAN_FILES, **(edits or {})}.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return vocabulary_problems(
        call_site_names(tmp_path), FIXTURE_KINDS, ("metrics.",), FIXTURE_METRICS, FIXTURE_SERIES
    )


def test_call_sites_clean_fixture_has_no_problems(tmp_path):
    assert fixture_problems(tmp_path) == []


_M = "src/repro/m.py"
_RUN = "def run(env, trace, name, kind):\n"
_OK = (
    '    trace.emit("ckpt.start", t=0.0)\n'
    '    trace.emit("ckpt.done", t=1.0)\n'
    '    env.telemetry.counter("ms_good_total").inc()\n'
)


@pytest.mark.parametrize(
    "edits, expected",
    [
        pytest.param(
            {_M: _RUN + _OK + '    trace.emit("ckpt.rogue", t=2.0)\n'},
            "trace kind `ckpt.rogue` is emitted but not declared",
            id="undeclared-emit",
        ),
        pytest.param(
            {_M: _RUN + _OK + '    env.telemetry.gauge("ms_rogue_bytes").set(1)\n'},
            "metric `ms_rogue_bytes` is created but not declared",
            id="undeclared-metric",
        ),
        pytest.param(
            {_M: _RUN + _OK.replace('    trace.emit("ckpt.done", t=1.0)\n', "")},
            "trace kind `ckpt.done` is declared but never emitted",
            id="declared-kind-never-emitted",
        ),
        pytest.param(
            {_M: _RUN + _OK.replace('    env.telemetry.counter("ms_good_total").inc()\n', "")},
            "metric `ms_good_total` is declared but never created",
            id="declared-metric-never-created",
        ),
        pytest.param(
            {_M: _RUN + _OK + '    env.telemetry.histogram("ms_good_total").observe(1)\n'},
            "metric `ms_good_total` is declared a counter but created with .histogram()",
            id="metric-kind-mismatch",
        ),
        pytest.param(
            {_M: _RUN + _OK + "    env.telemetry.counter(name).inc()\n"},
            "computed name `name` outside the allowlisted sites",
            id="dynamic-metric-outside-allowlist",
        ),
        pytest.param(
            {_M: _RUN + _OK + "    trace.emit(kind, t=2.0)\n"},
            "computed name `kind` outside the allowlisted sites",
            id="dynamic-kind-outside-allowlist",
        ),
        pytest.param(
            {
                "src/repro/metrics/collectors.py": CLEAN_FILES[
                    "src/repro/metrics/collectors.py"
                ].replace('"metrics." + kind', '"stats." + kind')
            },
            "computed trace kinds under undeclared prefix `stats.`",
            id="undeclared-dynamic-prefix",
        ),
    ],
)
def test_call_site_drift_is_reported(tmp_path, edits, expected):
    problems = fixture_problems(tmp_path, edits)
    assert any(expected in p for p in problems), problems


def test_call_sites_ignore_other_receivers(tmp_path):
    edited = _RUN + _OK + '    geiger.counter("clicks").inc()\n    bus.emit("anything")\n'
    assert fixture_problems(tmp_path, {_M: edited}) == []


# ---------------------------------------------------------------------------
# render(): drift in a generated block never survives a re-render
# ---------------------------------------------------------------------------

DESIGN = DESIGN_PATH.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param(
            "| `hau.start` |",
            "| `hau.ghost` | a kind nothing declares |\n| `hau.start` |",
            id="stale-row",
        ),
        pytest.param(
            "| `ms_alerts_active` | gauge | — | currently-firing SLO alerts |\n",
            "",
            id="missing-row",
        ),
        pytest.param("| `latency-p99` | 1.0 s |", "| `latency-p99` | 2.0 s |", id="edited-cell"),
        pytest.param("| `seed` | int |", "| `seed` | string |", id="edited-field-shape"),
        pytest.param(
            "`partition`, `straggler` (degradation",
            "`partition`, `straggler`, `quake` (degradation",
            id="undeclared-failure-kind",
        ),
        pytest.param(
            "| `recovering` | recovery/handoff",
            "| `rebooting` | recovery/handoff",
            id="renamed-health-state",
        ),
        pytest.param(
            "`phases.json` phases, in causal order: `token-wait`,",
            "`phases.json` phases, in causal order: `token-wait`, `gc-pause`,",
            id="edited-phase-list",
        ),
    ],
)
def test_render_rewrites_drifted_blocks(old, new):
    assert old in DESIGN
    drifted = DESIGN.replace(old, new, 1)
    assert render(drifted) != drifted
    assert render(drifted) == render(DESIGN)


@pytest.mark.parametrize(
    "marker",
    [
        pytest.param("<!-- BEGIN GENERATED trace-kinds -->", id="begin-marker"),
        pytest.param("<!-- END GENERATED scenario-fields -->", id="end-marker"),
    ],
)
def test_render_raises_on_a_missing_marker(marker):
    with pytest.raises(ValueError, match="GENERATED"):
        render(DESIGN.replace(marker, ""))
