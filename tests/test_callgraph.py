"""Tests for the project call graph (repro.analysis.callgraph):
module naming, call resolution, taint seeds, sink facts, traversal and
the JSON/DOT exports."""

from __future__ import annotations

import json
import textwrap

from repro.analysis.engine import AnalysisConfig, run_analysis
from repro.analysis.callgraph import METHOD_FANOUT_LIMIT, module_name


def build_graph(tmp_path, files):
    for rel, text in files.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text), encoding="utf-8")
    project = run_analysis(AnalysisConfig(root=tmp_path, dirs=("src",), rule_ids=()))
    assert project.callgraph is not None
    return project.callgraph


def test_module_name_strips_src_and_init():
    assert module_name("src/repro/core/base.py") == "repro.core.base"
    assert module_name("src/repro/core/__init__.py") == "repro.core"
    assert module_name("benchmarks/bench_fig5.py") == "benchmarks.bench_fig5"


def test_local_and_imported_call_resolution(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/helpers.py": """\
            def helper():
                return 1
            """,
            "src/pkg/main.py": """\
            from pkg.helpers import helper

            def local():
                return 2

            def entry():
                local()
                helper()
            """,
        },
    )
    entry = graph.nodes["pkg.main.entry"]
    assert set(entry.edges) == {"pkg.main.local", "pkg.helpers.helper"}


def test_self_method_resolves_through_ancestry(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": """\
            class Base:
                def shared(self):
                    return 1

            class Child(Base):
                def run(self):
                    return self.shared()
            """,
        },
    )
    assert graph.nodes["pkg.m.Child.run"].edges == ("pkg.m.Base.shared",)
    assert graph.ancestors("Child") == {"Base"}


def test_constructor_call_resolves_to_init(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": """\
            class Widget:
                def __init__(self):
                    self.x = 1

            def make():
                return Widget()
            """,
        },
    )
    assert graph.nodes["pkg.m.make"].edges == ("pkg.m.Widget.__init__",)


def test_method_fanout_cap(tmp_path):
    # One `obj.frob()` call site against many same-named methods: beyond
    # the cap the name is too generic to link.
    classes = "\n\n".join(
        f"class C{i}:\n    def frob(self):\n        return {i}"
        for i in range(METHOD_FANOUT_LIMIT + 1)
    )
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": classes
            + "\n\ndef entry(obj):\n    return obj.frob()\n",
        },
    )
    assert graph.nodes["pkg.m.entry"].edges == ()


def test_taint_seeds_collected(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": """\
            import os
            import time

            def tainted(path):
                t = time.time()
                v = os.environ.get("X")
                names = os.listdir(path)
                ordered = sorted(os.listdir(path))
                pid = id(path)
                return t, v, names, ordered, pid
            """,
        },
    )
    seeds = {(s.kind, s.detail) for s in graph.nodes["pkg.m.tainted"].seeds}
    assert ("wall-clock", "time.time") in seeds
    assert ("environ", "os.environ") in seeds
    assert ("process-id", "id()") in seeds
    # the bare listdir seeds; the sorted()-wrapped one is laundered
    fs = [s for s in graph.nodes["pkg.m.tainted"].seeds if s.kind == "fs-order"]
    assert len(fs) == 1


def test_sink_facts(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": """\
            def to_json(obj):
                return obj

            def observe(env, hau):
                env.trace.emit("kind", hau=hau)
                env.telemetry.counter("ms_x_total").inc()
            """,
        },
    )
    assert graph.nodes["pkg.m.to_json"].sinks == ("serializer",)
    assert set(graph.nodes["pkg.m.observe"].sinks) == {"trace-event", "telemetry"}


def test_taint_paths_shortest_chain_and_skip_direct(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": """\
            import time

            def deep():
                return time.time()

            def mid():
                return deep()

            def sink():
                time.sleep(1)
                return mid()
            """,
        },
    )
    paths = graph.taint_paths("pkg.m.sink")
    by_holder = {chain[-1]: chain for _seed, chain in paths}
    # direct seed in sink itself plus the transitive one through mid
    assert by_holder["pkg.m.sink"] == ["pkg.m.sink"]
    assert by_holder["pkg.m.deep"] == ["pkg.m.sink", "pkg.m.mid", "pkg.m.deep"]

    skipped = graph.taint_paths("pkg.m.sink", skip_direct=frozenset({"wall-clock"}))
    holders = {chain[-1] for _seed, chain in skipped}
    assert holders == {"pkg.m.deep"}


def test_taint_paths_seed_veto(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": """\
            import os

            def cfg():
                return os.environ.get("X")

            def sink():
                return cfg()
            """,
        },
    )
    assert graph.taint_paths("pkg.m.sink") != []
    assert graph.taint_paths("pkg.m.sink", seed_ok=lambda node, seed: False) == []


def test_exports_json_and_dot(tmp_path):
    graph = build_graph(
        tmp_path,
        {
            "src/pkg/m.py": """\
            import time

            def to_json(obj):
                return time.time()
            """,
        },
    )
    doc = json.loads(graph.to_json())
    assert doc["version"] == 1
    names = {fn["qualname"] for fn in doc["functions"]}
    assert "pkg.m.to_json" in names
    dot = graph.to_dot()
    assert dot.startswith("digraph callgraph {")
    # seeded + sink node carries both decorations
    assert '"pkg.m.to_json" [color="red", peripheries="2"];' in dot
