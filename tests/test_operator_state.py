"""The operator snapshot/restore contract (repro.dsps.operator).

Snapshots copy every declared state container one level deep and share
its elements with the live state, so container elements are values: an
operator replaces them, never mutates them in place.  These tests pin
what is copied, what is shared, what is still deep-copied, and that the
``REPRO_SAN=1`` guard catches an operator breaking the rule.
"""

from __future__ import annotations

from collections import deque
from copy import deepcopy
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import ClusterSpec
from repro.core import MSSrcAP
from repro.dsps import DSPSRuntime, QueryGraph, RuntimeConfig, StreamApplication
from repro.dsps.operator import Operator, _copy_state
from repro.dsps.testing import IntervalSource, VerifySink, WindowSum, make_chain_graph
from repro.sanitize import SanitizerError, state_guard
from repro.simulation import Environment


@dataclass
class Cell:
    value: int


class Box:
    """A user object held directly as state (not inside a container)."""

    def __init__(self, items):
        self.items = items


class PoolOp(Operator):
    state_attrs = ("pool", "table", "tags", "count", "label")

    def __init__(self):
        super().__init__(name="pool")
        self.pool = [Cell(1), Cell(2)]
        self.table = {"a": Cell(10)}
        self.tags = {"x", "y"}
        self.count = 3
        self.label = "start"

    def add(self, v):
        self.pool.append(Cell(v))

    def replace_first(self, v):
        self.pool[0] = Cell(v)  # replaces the element: allowed

    def bump_first(self):
        self.pool[0].value += 1  # mutates a shared element: not allowed


class OpaqueOp(Operator):
    state_attrs = ("arr", "box", "queue")

    def __init__(self):
        super().__init__(name="opaque")
        self.arr = np.arange(4)
        self.box = Box([1, 2])
        self.queue = deque([Cell(1)])


def state_of(op):
    return {attr: getattr(op, attr) for attr in op.state_attrs}


@pytest.fixture
def state_sanitizer():
    """The state guard installed for one test, leaving whatever was
    active before (the suite may itself run under REPRO_SAN=1)."""
    was = state_guard.installed()
    state_guard.uninstall()
    state_guard.install()
    try:
        yield
    finally:
        state_guard.uninstall()
        if was:
            state_guard.install()


# -- what is copied and what is shared ----------------------------------------


@pytest.mark.parametrize("value", [7, 10**30, 2.5, True, "s", b"b", None])
def test_immutable_scalars_are_returned_as_is(value):
    assert _copy_state(value) is value


def test_containers_are_copied_and_elements_shared():
    op = PoolOp()
    snap = op.snapshot()
    assert snap["pool"] is not op.pool and snap["pool"] == op.pool
    assert all(a is b for a, b in zip(snap["pool"], op.pool))
    assert snap["table"] is not op.table
    assert snap["table"]["a"] is op.table["a"]
    assert snap["tags"] is not op.tags and snap["tags"] == op.tags
    assert {id(t) for t in snap["tags"]} == {id(t) for t in op.tags}


def test_numpy_arrays_and_unknown_objects_are_deep_copied():
    op = OpaqueOp()
    snap = op.snapshot()
    assert snap["arr"] is not op.arr
    assert snap["box"] is not op.box and snap["box"].items is not op.box.items
    # any container but a plain list/dict/set is deep-copied too
    assert snap["queue"][0] is not op.queue[0]
    op.arr[0] = 99
    op.box.items.append(3)
    op.queue[0].value = 5
    assert snap["arr"].tolist() == [0, 1, 2, 3]
    assert snap["box"].items == [1, 2]
    assert snap["queue"][0].value == 1


# -- snapshot isolation ---------------------------------------------------------


def test_mutating_live_state_after_snapshot_leaves_snapshot_unchanged():
    op = PoolOp()
    snap = op.snapshot()
    op.add(3)
    op.replace_first(100)
    op.table["b"] = Cell(20)
    op.tags.add("z")
    op.count += 1
    op.label = "later"
    assert [c.value for c in snap["pool"]] == [1, 2]
    assert set(snap["table"]) == {"a"}
    assert snap["tags"] == {"x", "y"}
    assert (snap["count"], snap["label"]) == (3, "start")


def test_restoring_twice_from_one_snapshot_gives_equal_state():
    op = PoolOp()
    snap = op.snapshot()
    op.add(3)
    op.restore(snap)
    first = deepcopy(state_of(op))
    op.add(4)
    op.replace_first(50)
    op.table.clear()
    op.count = 0
    op.restore(snap)
    assert state_of(op) == first


def test_appends_after_restore_do_not_leak_into_the_snapshot():
    op = PoolOp()
    snap = op.snapshot()
    op.restore(snap)
    assert op.pool is not snap["pool"] and op.table is not snap["table"]
    op.add(3)
    op.table["b"] = Cell(20)
    op.tags.add("z")
    assert len(snap["pool"]) == 2
    assert set(snap["table"]) == {"a"}
    assert snap["tags"] == {"x", "y"}


# -- the REPRO_SAN=1 value-element guard ---------------------------------------


def test_sanitizer_trips_on_in_place_element_mutation(state_sanitizer):
    op = PoolOp()
    snap = op.snapshot()
    op.bump_first()  # also edits snap["pool"][0]: the element is shared
    with pytest.raises(SanitizerError, match=r"PoolOp\.pool"):
        op.restore(snap)


def test_sanitizer_accepts_replaced_elements(state_sanitizer):
    op = PoolOp()
    snap = op.snapshot()
    op.replace_first(100)
    op.add(3)
    op.table["a"] = Cell(11)
    op.restore(snap)
    op.add(4)
    op.restore(snap)
    assert [c.value for c in op.pool] == [1, 2]


def test_sanitizer_skips_unpicklable_state(state_sanitizer):
    class Local:  # function-local: pickle cannot name it
        value = 0

    op = PoolOp()
    op.pool = [Local()]
    snap = op.snapshot()
    op.restore(snap)  # unchecked, but must not crash
    assert op.pool[0] is snap["pool"][0]


def test_sanitizer_fingerprint_map_is_bounded(state_sanitizer, monkeypatch):
    monkeypatch.setattr(state_guard, "_SNAPSHOT_CAP", 4)
    op = PoolOp()
    for _ in range(10):
        op.snapshot()
    assert len(state_guard._fingerprints) == 4


def test_uninstall_restores_plain_snapshot_and_restore():
    was = state_guard.installed()
    state_guard.uninstall()
    plain = (Operator.__dict__["snapshot"], Operator.__dict__["restore"])
    try:
        state_guard.install()
        assert Operator.__dict__["snapshot"] is not plain[0]
        state_guard.uninstall()
        assert (Operator.__dict__["snapshot"], Operator.__dict__["restore"]) == plain
        assert not state_guard._fingerprints
    finally:
        if was:
            state_guard.install()


def run_chain(graph, holder, fail):
    """Run a chain graph under MS-src+ap (one checkpoint at 1 s), killing
    ``agg`` at 1.8 s when ``fail``; returns the sink log and scheme."""
    env = Environment()
    scheme = MSSrcAP(checkpoint_times=[1.0], enable_recovery=True)
    rt = DSPSRuntime(
        env,
        StreamApplication(name="t", graph=graph),
        scheme,
        RuntimeConfig(seed=7, cluster=ClusterSpec(workers=6, spares=6, racks=2)),
    )
    rt.start()
    if fail:
        def killer():
            yield env.timeout(1.8)
            rt.haus["agg"].node.fail("injected")

        env.process(killer())
    env.run(until=40.0)
    return holder["sink"].payload_log, scheme


def test_guarded_recovery_run_is_exactly_once(state_sanitizer):
    """A real rollback restores checkpointed snapshots under the guard
    and still delivers the failure-free output."""
    clean, _ = run_chain(*make_chain_graph(), fail=False)
    failed, scheme = run_chain(*make_chain_graph(), fail=True)
    assert len(scheme.recoveries) == 1
    assert state_guard._fingerprints  # snapshots were fingerprinted
    assert failed == clean


class BumpingWindowSum(WindowSum):
    """Edits the oldest pooled tuple in place: breaks the rule."""

    def on_tuple(self, port, tup):
        if self.pool:
            self.pool[0].seq += 1
        return super().on_tuple(port, tup)


def test_guard_fails_a_recovery_that_restores_a_mutated_snapshot(state_sanitizer):
    """The check fires inside the recovery process; the error must reach
    the caller of ``env.run`` rather than silently end that process."""
    holder = {}

    def make_sink():
        holder["sink"] = VerifySink()
        return [holder["sink"]]

    g = QueryGraph()
    g.add_hau("src", lambda: [IntervalSource(count=60, interval=0.05, size=50_000)],
              is_source=True)
    g.add_hau("agg", lambda: [BumpingWindowSum(window=5)])
    g.add_hau("sink", make_sink, is_sink=True)
    g.connect("src", "agg")
    g.connect("agg", "sink")
    with pytest.raises(SanitizerError, match=r"BumpingWindowSum\.pool"):
        run_chain(g, holder, fail=True)


def test_only_sanitizer_errors_escape_a_process(state_sanitizer):
    env = Environment()

    def raising(exc):
        yield env.timeout(1.0)
        raise exc

    quiet = env.process(raising(ValueError("model error")))
    env.run()
    assert quiet.triggered and not quiet.ok  # parked on the process, as before
    env.process(raising(SanitizerError("tripwire")))
    with pytest.raises(SanitizerError, match="tripwire"):
        env.run()
