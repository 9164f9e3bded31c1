"""Tests for the interprocedural flow rules (DET004, DET005, PUR001).

Each rule gets a violation fixture (must fire) and a suppression fixture
(inline disable must silence it) — for DET004 both the seed-line and the
sink-line disables are exercised, since the seed-line veto travels
through the call graph.
"""

from __future__ import annotations

import textwrap

from repro.analysis.engine import AnalysisConfig, run_analysis


def run_fixture(tmp_path, files, rule_ids=None, dirs=("src",)):
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
# DET004 — transitive nondeterminism reaching an export sink
# ---------------------------------------------------------------------------

DET004_FILES = {
    "src/pkg/cfg.py": """\
    import os

    def read_knob():
        return os.environ.get("KNOB", "")
    """,
    "src/pkg/out.py": """\
    from pkg.cfg import read_knob

    def to_json(run):
        return {"knob": read_knob(), "run": run}
    """,
}


def test_det004_fires_on_transitive_environ_to_serializer(tmp_path):
    project = run_fixture(tmp_path, DET004_FILES, rule_ids=["DET004"])
    assert rules_of(project) == ["DET004"]
    f = project.findings[0]
    assert f.path == "src/pkg/out.py"
    assert "read_knob" in f.message
    assert "environ" in f.message


def test_det004_not_fired_for_direct_seed_in_sink(tmp_path):
    # A wall-clock call directly inside the sink is DET001 territory;
    # DET004 only reports *transitive* chains.
    project = run_fixture(
        tmp_path,
        {
            "src/pkg/out.py": """\
            import time

            def to_json(run):
                return {"t": time.time(), "run": run}
            """
        },
        rule_ids=["DET004"],
    )
    assert rules_of(project) == []


def test_det004_sink_line_suppression(tmp_path):
    files = dict(DET004_FILES)
    files["src/pkg/out.py"] = """\
    from pkg.cfg import read_knob

    def to_json(run):  # repro-lint: disable=DET004
        return {"knob": read_knob(), "run": run}
    """
    project = run_fixture(tmp_path, files, rule_ids=["DET004"])
    assert rules_of(project) == []
    assert project.inline_suppressed == 1


def test_det004_seed_line_suppression_vetoes_whole_chain(tmp_path):
    files = dict(DET004_FILES)
    files["src/pkg/cfg.py"] = """\
    import os

    def read_knob():
        return os.environ.get("KNOB", "")  # repro-lint: disable=DET004
    """
    project = run_fixture(tmp_path, files, rule_ids=["DET004"])
    assert rules_of(project) == []


# ---------------------------------------------------------------------------
# DET005 — unsorted filesystem enumeration
# ---------------------------------------------------------------------------


def test_det005_fires_on_bare_listdir(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import os

            def load_all(path):
                return [open(path + "/" + n) for n in os.listdir(path)]
            """
        },
        rule_ids=["DET005"],
    )
    assert rules_of(project) == ["DET005"]
    assert "os.listdir" in project.findings[0].message


def test_det005_quiet_when_sorted(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import os
            from pathlib import Path

            def load_all(path):
                names = sorted(os.listdir(path))
                files = sorted(Path(path).glob("*.json"))
                return names, files
            """
        },
        rule_ids=["DET005"],
    )
    assert rules_of(project) == []


def test_det005_suppression(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/m.py": """\
            import os

            def load_all(path):
                return os.listdir(path)  # repro-lint: disable=DET005
            """
        },
        rule_ids=["DET005"],
    )
    assert rules_of(project) == []
    assert project.inline_suppressed == 1


# ---------------------------------------------------------------------------
# PUR001 — scheme hooks / snapshot paths reaching nondeterminism
# ---------------------------------------------------------------------------

# The flow rules skip depth-0 seeds for kinds the per-file rules own
# (wall-clock / global-rng / fs-order), so the fixtures route the
# nondeterminism through a helper.
PUR001_HOOK_FILES = {
    "src/pkg/scheme.py": """\
    import random

    def _coin():
        return random.random() < 0.5

    class SchemeHooks:
        pass

    class MyScheme(SchemeHooks):
        def on_control(self, hau, token):
            if _coin():
                yield None
    """,
}


def test_pur001_fires_on_nondeterministic_scheme_hook(tmp_path):
    project = run_fixture(tmp_path, PUR001_HOOK_FILES, rule_ids=["PUR001"])
    assert rules_of(project) == ["PUR001"]
    f = project.findings[0]
    assert "on_control" in f.message
    assert "global" in f.message


def test_pur001_fires_on_snapshot_reaching_nondeterminism(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/pkg/op.py": """\
            import time

            def _stamp():
                return time.time()

            class Operator:
                pass

            class Windowed(Operator):
                def snapshot(self):
                    return {"at": _stamp()}
            """
        },
        rule_ids=["PUR001"],
    )
    assert rules_of(project) == ["PUR001"]
    assert "snapshot" in project.findings[0].message


def test_pur001_quiet_on_direct_seed_in_hook(tmp_path):
    # Direct global-RNG use inside the hook body is DET002 territory.
    project = run_fixture(
        tmp_path,
        {
            "src/pkg/scheme.py": """\
            import random

            class SchemeHooks:
                pass

            class MyScheme(SchemeHooks):
                def on_control(self, hau, token):
                    if random.random() < 0.5:
                        yield None
            """
        },
        rule_ids=["PUR001"],
    )
    assert rules_of(project) == []


def test_pur001_quiet_on_pure_hook(tmp_path):
    project = run_fixture(
        tmp_path,
        {
            "src/pkg/scheme.py": """\
            class SchemeHooks:
                pass

            class MyScheme(SchemeHooks):
                def on_control(self, hau, token):
                    yield None
            """
        },
        rule_ids=["PUR001"],
    )
    assert rules_of(project) == []


def test_pur001_hook_line_suppression(tmp_path):
    files = {
        "src/pkg/scheme.py": """\
        import random

        def _coin():
            return random.random() < 0.5

        class SchemeHooks:
            pass

        class MyScheme(SchemeHooks):
            def on_control(self, hau, token):  # repro-lint: disable=PUR001
                if _coin():
                    yield None
        """
    }
    project = run_fixture(tmp_path, files, rule_ids=["PUR001"])
    assert rules_of(project) == []
    assert project.inline_suppressed == 1


def test_pur001_seed_line_suppression(tmp_path):
    files = {
        "src/pkg/scheme.py": """\
        import random

        def _coin():
            return random.random() < 0.5  # repro-lint: disable=PUR001

        class SchemeHooks:
            pass

        class MyScheme(SchemeHooks):
            def on_control(self, hau, token):
                if _coin():
                    yield None
        """
    }
    project = run_fixture(tmp_path, files, rule_ids=["PUR001"])
    assert rules_of(project) == []
