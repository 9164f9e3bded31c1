"""Tests for repro.analysis (repro-lint): rules, engine, baseline, CLI.

Each rule gets at least one seeded-violation fixture (must fire) and
false-positive guards (must stay quiet).  The engine plumbing (inline
suppression, alias resolution, syntax-error reporting), the baseline
round-trip and the CLI exit-code / JSON-report contracts are covered
separately.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.baseline import (
    Baseline,
    baseline_from_findings,
    load_baseline,
    write_baseline,
)
from repro.analysis.cli import list_rules_text, main
from repro.analysis.engine import (
    AnalysisConfig,
    import_aliases,
    parse_suppressions,
    run_analysis,
)
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.registry import Rule, all_rules, get_rule, register

import ast


def run_fixture(tmp_path, files, rule_ids=None, dirs=("src",)):
    """Materialise ``files`` under ``tmp_path`` and run the analysis."""
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text), encoding="utf-8")
    config = AnalysisConfig(
        root=tmp_path,
        dirs=dirs,
        rule_ids=tuple(rule_ids) if rule_ids else None,
    )
    return run_analysis(config)


def rules_of(project):
    return [f.rule for f in project.findings]


# ---------------------------------------------------------------------------
# DET001 — wall-clock calls
# ---------------------------------------------------------------------------


def test_det001_flags_time_time(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import time

            def tick(env):
                return time.time()
            """
        },
        rule_ids=["DET001"],
    )
    assert rules_of(project) == ["DET001"]
    assert "time.time" in project.findings[0].message


def test_det001_resolves_import_aliases(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            from time import perf_counter as pc
            from datetime import datetime

            def stamp():
                return pc(), datetime.now()
            """
        },
        rule_ids=["DET001"],
    )
    msgs = [f.message for f in project.findings]
    assert len(msgs) == 2
    assert any("time.perf_counter" in m for m in msgs)
    assert any("datetime.datetime.now" in m for m in msgs)


def test_det001_ignores_non_wall_clock_receivers(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def tick(env, clock):
                now = env.now
                t = clock.time()       # not the time module
                env.timeout(1.0)
                return now, t
            """
        },
        rule_ids=["DET001"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# DET002 — global random module / legacy numpy global RNG
# ---------------------------------------------------------------------------


def test_det002_flags_random_imports_and_numpy_global(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import random
            from random import choice
            import numpy as np

            def jitter():
                np.random.seed(7)
                return random.random() + np.random.uniform()
            """
        },
        rule_ids=["DET002"],
    )
    # import random, from random import, np.random.seed, np.random.uniform
    assert rules_of(project) == ["DET002"] * 4


def test_det002_allows_generator_construction_and_named_streams(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import numpy as np

            def make(registry):
                rng = np.random.default_rng(0)
                stream = registry.stream("arrivals")
                return rng.normal() + stream.choice([1, 2])
            """
        },
        rule_ids=["DET002"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# DET003 — unordered iteration in export paths
# ---------------------------------------------------------------------------


def test_det003_flags_set_iteration_in_export_path(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def build(items):
                out = [x for x in {1, 2, 3}]
                for x in set(items):
                    out.append(x)
                return out
            """
        },
        rule_ids=["DET003"],
    )
    assert rules_of(project) == ["DET003"] * 2


def test_det003_flags_dict_view_in_serializer(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def to_payload(d):
                return [k for k in d.keys()]
            """
        },
        rule_ids=["DET003"],
    )
    assert rules_of(project) == ["DET003"]
    assert "d.keys()" in project.findings[0].message


def test_det003_ignores_dict_view_outside_serializer(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def fill(d):
                for k, v in d.items():
                    d[k] = v + 1
            """
        },
        rule_ids=["DET003"],
    )
    assert project.findings == []


def test_det003_ignores_sorted_and_order_insensitive_wraps(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/telemetry/x.py": """\
            def to_payload(d):
                a = [k for k in sorted(d.keys())]
                b = sorted(v for k, v in d.items())
                c = sum(v for v in d.values())
                return a, b, c
            """
        },
        rule_ids=["DET003"],
    )
    assert project.findings == []


def test_det003_scoped_to_export_paths_only(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/repro/dsps/x.py": """\
            def to_payload(d):
                return [k for k in d.keys()] + [x for x in {1, 2}]
            """
        },
        rule_ids=["DET003"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# SIM001 — process generators yield engine events only
# ---------------------------------------------------------------------------


def test_sim001_flags_literal_yield_in_driven_generator(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def worker(env):
                yield 1
                yield env.timeout(1.0)

            def main(env):
                env.process(worker(env))
            """
        },
        rule_ids=["SIM001"],
    )
    assert rules_of(project) == ["SIM001"]
    assert "worker" in project.findings[0].message
    assert project.findings[0].line == 2


def test_sim001_flags_bare_yield_and_spawn_and_process_ctor(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def a(env):
                yield

            def b(env):
                yield "tick"

            def main(env, sched):
                sched.spawn(a(env))
                Process(env, b(env))
            """
        },
        rule_ids=["SIM001"],
    )
    assert rules_of(project) == ["SIM001"] * 2


def test_sim001_allows_return_yield_idiom_and_event_yields(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def hook(env):
                return
                yield

            def worker(env):
                yield env.timeout(1.0)
                yield from hook(env)

            def main(env):
                env.process(hook(env))
                env.process(worker(env))
            """
        },
        rule_ids=["SIM001"],
    )
    assert project.findings == []


def test_sim001_ignores_undriven_generators(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            def plain_iterator():
                yield 1
                yield 2
            """
        },
        rule_ids=["SIM001"],
    )
    assert project.findings == []


# ---------------------------------------------------------------------------
# PROTO001 — scheme hook protocol / operator save-restore pairing
# ---------------------------------------------------------------------------


def test_proto001_flags_generator_hook_overridden_as_plain(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class BadScheme(CheckpointScheme):
                def on_emit(self, hau, tup):
                    return tup
            """
        },
        rule_ids=["PROTO001"],
    )
    assert rules_of(project) == ["PROTO001"]
    assert "on_emit" in project.findings[0].message
    assert "yield from" in project.findings[0].message


def test_proto001_flags_yield_in_plain_hook(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class BadScheme(SchemeHooks):
                def on_hau_started(self, hau):
                    yield hau
            """
        },
        rule_ids=["PROTO001"],
    )
    assert rules_of(project) == ["PROTO001"]
    assert "on_hau_started" in project.findings[0].message


def test_proto001_flags_missing_initiate_round(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class HalfVariant(MeteorShowerBase):
                def write_checkpoint(self, hau, reason):
                    yield from ()
            """
        },
        rule_ids=["PROTO001"],
    )
    assert any("initiate_round" in f.message for f in project.findings)


def test_proto001_abstract_intermediate_not_flagged(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class AbstractVariant(MeteorShowerBase):
                pass

            class Concrete(AbstractVariant):
                def initiate_round(self, reason):
                    yield from ()
            """
        },
        rule_ids=["PROTO001"],
    )
    assert project.findings == []


def test_proto001_return_yield_idiom_is_a_generator(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class GoodScheme(CheckpointScheme):
                def on_emit(self, hau, tup):
                    return
                    yield
            """
        },
        rule_ids=["PROTO001"],
    )
    assert project.findings == []


def test_proto001_operator_snapshot_without_restore(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            class HalfOp(Operator):
                def snapshot(self):
                    return {}

            class FullOp(Operator):
                def snapshot(self):
                    return {}

                def restore(self, blob):
                    pass
            """
        },
        rule_ids=["PROTO001"],
    )
    assert rules_of(project) == ["PROTO001"]
    assert "HalfOp" in project.findings[0].message
    assert "restore" in project.findings[0].message


# ---------------------------------------------------------------------------
# engine plumbing
# ---------------------------------------------------------------------------


def test_inline_suppression_single_rule_and_all(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import time

            def tick():
                a = time.time()  # repro-lint: disable=DET001
                b = time.time()  # repro-lint: disable=all
                return a + b
            """
        },
        rule_ids=["DET001"],
    )
    assert project.findings == []
    assert project.inline_suppressed == 2


def test_inline_suppression_does_not_hide_other_rules(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import time

            def tick():
                return time.time()  # repro-lint: disable=DET002
            """
        },
        rule_ids=["DET001"],
    )
    assert rules_of(project) == ["DET001"]


def test_syntax_error_reported_as_e000(tmp_path):
    project = run_fixture(tmp_path, {"src/broken.py": "def f(:\n    pass\n"})
    assert [f.rule for f in project.findings] == ["E000"]
    assert "syntax error" in project.findings[0].message


def test_parse_suppressions_and_import_aliases():
    supp = parse_suppressions("x = 1\ny = 2  # repro-lint: disable=A1, B2\n")
    assert supp == {2: {"A1", "B2"}}
    tree = ast.parse(
        "import numpy as np\nfrom time import monotonic as mono\nimport os.path\n"
    )
    aliases = import_aliases(tree)
    assert aliases["np"] == "numpy"
    assert aliases["mono"] == "time.monotonic"
    assert aliases["os"] == "os"


def test_findings_sort_and_fingerprint_line_independent():
    a = Finding("DET001", Severity.ERROR, "src/a.py", 10, 1, "msg")
    b = Finding("DET001", Severity.ERROR, "src/a.py", 2, 1, "msg")
    assert sort_findings([a, b]) == [b, a]
    # fingerprint ignores line/col: moving a violation keeps it baselined
    assert a.fingerprint() == b.fingerprint()
    c = Finding("DET002", Severity.ERROR, "src/a.py", 10, 1, "msg")
    assert a.fingerprint() != c.fingerprint()


def test_registry_rejects_duplicates_and_lists_sorted():
    assert [cls.id for cls in all_rules()] == sorted(cls.id for cls in all_rules())
    assert get_rule("DET001").id == "DET001"
    with pytest.raises(ValueError):

        @register
        class Dup(Rule):  # noqa: F811 - intentionally conflicting id
            id = "DET001"


# ---------------------------------------------------------------------------
# baseline round-trip
# ---------------------------------------------------------------------------


def violation_files():
    return {
        "src/m.py": """\
        import time

        def tick():
            return time.time()
        """
    }


def test_baseline_round_trip_suppresses_recorded_findings(tmp_path):
    project = run_fixture(tmp_path, violation_files(), rule_ids=["DET001"])
    assert len(project.findings) == 1
    baseline = baseline_from_findings(project.findings)
    path = tmp_path / "baseline.json"
    write_baseline(baseline, path)
    loaded = load_baseline(path)
    kept, suppressed = loaded.apply(project.findings)
    assert kept == [] and suppressed == 1
    # file is stable JSON with sorted keys
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert list(doc["suppressions"]) == sorted(doc["suppressions"])


def test_baseline_is_count_aware():
    f = Finding("DET001", Severity.ERROR, "src/a.py", 1, 1, "msg")
    g = Finding("DET001", Severity.ERROR, "src/a.py", 9, 1, "msg")  # same fingerprint
    baseline = baseline_from_findings([f])
    kept, suppressed = baseline.apply([f, g])
    assert suppressed == 1 and len(kept) == 1


def test_load_baseline_missing_file_and_bad_version(tmp_path):
    assert load_baseline(tmp_path / "nope.json").counts == {}
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99, "suppressions": {}}')
    with pytest.raises(ValueError):
        load_baseline(bad)


def test_load_baseline_accepts_bare_count_entries(tmp_path):
    p = tmp_path / "b.json"
    p.write_text('{"version": 1, "suppressions": {"abcd": 2}}')
    assert load_baseline(p).counts == {"abcd": 2}


def test_baseline_apply_empty_is_identity():
    f = Finding("DET001", Severity.ERROR, "src/a.py", 1, 1, "msg")
    kept, suppressed = Baseline().apply([f])
    assert kept == [f] and suppressed == 0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def write_repo(tmp_path, files):
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text), encoding="utf-8")


def test_cli_exit_zero_on_clean_repo(tmp_path, capsys):
    write_repo(tmp_path, {"src/m.py": "def f():\n    return 1\n"})
    assert main(["--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "repro-lint:" in out and "0 finding(s)" in out


def test_cli_exit_one_on_violation(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    assert main(["--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "src/m.py:4" in out


def test_cli_exit_two_on_bad_root_and_bad_baseline(tmp_path, capsys):
    assert main(["--root", str(tmp_path / "missing")]) == 2
    write_repo(tmp_path, {"src/m.py": "x = 1\n"})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--root", str(tmp_path), "--baseline", str(bad)]) == 2


def test_cli_json_report_schema(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    assert main(["--root", str(tmp_path), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {
        "version",
        "dirs",
        "extra_dirs",
        "files_scanned",
        "rules",
        "findings",
        "counts",
        "suppressed_baseline",
        "suppressed_inline",
        "stale_baseline",
    }
    assert doc["counts"] == {"DET001": 1}
    (finding,) = doc["findings"]
    assert set(finding) == {
        "rule",
        "severity",
        "path",
        "line",
        "col",
        "message",
        "fingerprint",
    }
    assert doc["rules"] == [cls.id for cls in all_rules()]


def test_cli_output_writes_json_regardless_of_format(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    report = tmp_path / "report.json"
    assert main(["--root", str(tmp_path), "--output", str(report)]) == 1
    doc = json.loads(report.read_text())
    assert doc["counts"] == {"DET001": 1}


def test_cli_write_baseline_then_suppress(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    baseline = tmp_path / "baseline.json"
    assert main(["--root", str(tmp_path), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_cli_rules_filter(tmp_path, capsys):
    write_repo(
        tmp_path,
        {
            "src/m.py": """\
            import time
            import random

            def f():
                return time.time() + random.random()
            """
        },
    )
    assert main(["--root", str(tmp_path), "--rules", "DET002"]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out and "DET001" not in out


def test_cli_list_rules_covers_every_rule(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for cls in all_rules():
        assert cls.id in out
        assert cls.title in out
    assert "repro-lint rules" in out


def test_list_rules_text_contains_rationale_and_suppress_hint():
    text = list_rules_text()
    assert "why:" in text and "suppress:" in text


def test_cli_bad_flag_returns_two(capsys):
    assert main(["--no-such-flag"]) == 2


def test_cli_include_dirs_extends_scope(tmp_path, capsys):
    write_repo(
        tmp_path,
        {
            "src/m.py": "def f():\n    return 1\n",
            "tests/t.py": """\
            import os

            def helper(path):
                return os.listdir(path)
            """,
        },
    )
    # default scope: tests/ invisible
    assert main(["--root", str(tmp_path)]) == 0
    capsys.readouterr()
    # opted in: the DET005 in tests/ fires
    assert main(["--root", str(tmp_path), "--include-dirs", "tests"]) == 1
    out = capsys.readouterr().out
    assert "tests/t.py" in out and "DET005" in out


def test_cli_github_format(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    assert main(["--root", str(tmp_path), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=src/m.py,line=4," in out
    assert "title=DET001::" in out


def test_cli_call_graph_export(tmp_path, capsys):
    write_repo(
        tmp_path,
        {
            "src/m.py": """\
            def helper():
                return 1

            def entry():
                return helper()
            """
        },
    )
    graph_json = tmp_path / "graph.json"
    assert main(["--root", str(tmp_path), "--call-graph", str(graph_json)]) == 0
    doc = json.loads(graph_json.read_text())
    assert doc["version"] == 1
    assert {fn["qualname"] for fn in doc["functions"]} == {"m.helper", "m.entry"}
    graph_dot = tmp_path / "graph.dot"
    assert main(["--root", str(tmp_path), "--call-graph", str(graph_dot)]) == 0
    assert graph_dot.read_text().startswith("digraph callgraph {")


def test_cli_stale_baseline_lifecycle(tmp_path, capsys):
    write_repo(tmp_path, violation_files())
    baseline = tmp_path / "baseline.json"
    assert main(["--root", str(tmp_path), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()

    # fix the violation: the baselined fingerprint goes stale
    write_repo(tmp_path, {"src/m.py": "def f():\n    return 1\n"})
    assert main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "stale baseline" in out

    assert (
        main(["--root", str(tmp_path), "--baseline", str(baseline), "--format", "json"])
        == 0
    )
    doc = json.loads(capsys.readouterr().out)
    (entry,) = doc["stale_baseline"]
    assert entry["rule"] == "DET001"
    assert entry["unused_count"] == 1

    # rewriting the baseline prunes the stale fingerprint (the old
    # baseline must be loaded for the prune count to be known)
    assert (
        main(
            [
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--write-baseline",
                str(baseline),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "1 stale fingerprint(s) pruned" in out
    assert json.loads(baseline.read_text())["suppressions"] == {}


# ---------------------------------------------------------------------------
# the repo itself stays clean
# ---------------------------------------------------------------------------


def test_repo_is_clean_under_strict(capsys):
    """The acceptance gate: the real tree, tests included, lints clean
    with no baseline (every finding gates the exit code)."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    assert main(["--root", str(root), "--include-dirs", "tests"]) == 0
