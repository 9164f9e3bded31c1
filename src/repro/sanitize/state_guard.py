"""Operator-state guards: cross-HAU isolation and snapshot value elements.

The determinism contract (operator snapshots replayable from simulation
state) silently assumes each operator's state is mutated only by the HAU
that hosts it.  Nothing enforces that: a scheme, a test harness, or a
mis-wired graph can share an operator instance between HAUs and the runs
still "work" — until recovery restores one HAU's snapshot over another's
live state.

Under ``REPRO_SAN=1`` this module:

* wraps the HAU runtime's process-loop generator methods
  (``_main_loop`` / ``_source_loop`` / ``_receiver``) in a trampoline
  that pushes the host's ``hau_id`` around **each resumption** of the
  generator (a plain push/pop around creation would be wrong — the
  kernel interleaves generators, they do not finish LIFO);
* installs an ``Operator.__setattr__`` guard: a write to a declared
  ``state_attrs`` attribute while some *other* HAU's loop is running
  raises :class:`~repro.sanitize.SanitizerError` at the write site.

Writes outside any tracked loop (setup, recovery drivers, tests
constructing operators) are unconstrained — the guard only fires on a
provable cross-host mutation.

It also checks the value-element rule of ``Operator.snapshot``: a
snapshot copies each state container but shares its elements with the
live state, so an element edited in place after ``snapshot()`` silently
rewrites the snapshot.  The sanitized ``snapshot()`` records a pickle
fingerprint of every attribute; the sanitized ``restore()`` re-pickles
the snapshot and raises :class:`~repro.sanitize.SanitizerError`, naming
the operator class and attribute, if any fingerprint changed.

Both checks fire inside simulated processes (HAU loops, the recovery
driver), and the kernel turns an exception escaping a process into a
quiet process failure that nothing may be waiting on.  So the guard also
wraps ``Process.fail``: a :class:`~repro.sanitize.SanitizerError` is
re-raised out of the kernel instead of being parked on the process.
"""

from __future__ import annotations

from collections import OrderedDict
import functools
import pickle
from typing import Any

from repro.sanitize import SanitizerError

# The innermost tracked HAU at the current instant.  A list, not a
# single slot: a wrapped generator can (transitively) construct and
# drive another wrapped generator within one resumption.
_hau_stack: list[str] = []

_WRAPPED_LOOPS = ("_main_loop", "_source_loop", "_receiver")


def current_hau() -> str | None:
    """The hau_id whose loop is executing right now, or None."""
    return _hau_stack[-1] if _hau_stack else None


class _HauTrampoline:
    """Generator proxy tracking which HAU's code is on the stack.

    The kernel only needs the generator protocol's ``send`` / ``throw``
    / ``close``; each resumption brackets the delegate with a push/pop
    of the owning ``hau_id``, so nested ``yield from`` chains (process
    loop -> scheme hook -> emit) are attributed to their host while
    *other* HAUs' interleaved resumptions are not.
    """

    __slots__ = ("_gen", "_hau_id")

    def __init__(self, gen: Any, hau_id: str):
        self._gen = gen
        self._hau_id = hau_id

    def send(self, value: Any) -> Any:
        _hau_stack.append(self._hau_id)
        try:
            return self._gen.send(value)
        finally:
            _hau_stack.pop()

    def throw(self, exc: BaseException) -> Any:
        _hau_stack.append(self._hau_id)
        try:
            return self._gen.throw(exc)
        finally:
            _hau_stack.pop()

    def close(self) -> None:
        self._gen.close()

    def __iter__(self) -> "_HauTrampoline":
        return self

    def __next__(self) -> Any:
        return self.send(None)


def _wrap_loop(method: Any) -> Any:
    @functools.wraps(method)
    def wrapper(self, *args: Any, **kwargs: Any) -> _HauTrampoline:
        return _HauTrampoline(method(self, *args, **kwargs), self.hau_id)

    wrapper._repro_san_original = method
    return wrapper


def _guarded_setattr(self, name: str, value: Any) -> None:
    if name in type(self).state_attrs and _hau_stack:
        ctx = getattr(self, "ctx", None)
        owner = ctx.hau_id if ctx is not None else None
        running = _hau_stack[-1]
        if owner is not None and running != owner:
            raise SanitizerError(
                f"cross-HAU state write: {type(self).__name__}.{name} belongs "
                f"to HAU {owner!r} but was written while HAU {running!r} was "
                "running — operator state must only be mutated by its host "
                "(shared operator instance, or a scheme reaching across HAUs)"
            )
    object.__setattr__(self, name, value)


# -- snapshot value-element guard ----------------------------------------------

# Snapshot dicts seen by the sanitized snapshot(), keyed by id().  Entries
# hold the snapshot strongly to rule out id reuse; the cap bounds what is
# kept alive (a restore from an evicted snapshot is simply not checked).
_SNAPSHOT_CAP = 4096
_fingerprints: "OrderedDict[int, tuple[dict[str, Any], dict[str, bytes | None]]]" = (
    OrderedDict()
)


def _fingerprint(value: Any) -> bytes | None:
    """Pickle bytes of ``value``; None when it cannot be pickled (e.g. an
    instance of a function-local class), which leaves it unchecked."""
    try:
        return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return None


def _remember(snap: dict[str, Any]) -> None:
    # id() is a lookup key only; it never reaches the returned snapshot.
    key = id(snap)  # repro-lint: disable=DET004
    _fingerprints[key] = (snap, {a: _fingerprint(v) for a, v in snap.items()})
    while len(_fingerprints) > _SNAPSHOT_CAP:
        _fingerprints.popitem(last=False)


def _verify(op: Any, snap: dict[str, Any]) -> None:
    entry = _fingerprints.get(id(snap))
    if entry is None or entry[0] is not snap:
        return
    for attr, before in entry[1].items():
        if before is not None and _fingerprint(snap.get(attr)) != before:
            raise SanitizerError(
                f"snapshot changed before restore: {type(op).__name__}.{attr} "
                "differs from what snapshot() recorded — snapshots share "
                "state-container elements with the live state, so elements "
                "must be replaced, never mutated in place"
            )


def _wrap_snapshot(method: Any) -> Any:
    @functools.wraps(method)
    def snapshot(self) -> dict[str, Any]:
        snap = method(self)
        _remember(snap)
        return snap

    return snapshot


def _wrap_restore(method: Any) -> Any:
    @functools.wraps(method)
    def restore(self, snap: dict[str, Any]) -> None:
        _verify(self, snap)
        method(self, snap)

    return restore


def _wrap_fail(method: Any) -> Any:
    @functools.wraps(method)
    def fail(self, exception: BaseException, delay: float = 0.0) -> Any:
        if isinstance(exception, SanitizerError):
            raise exception
        return method(self, exception, delay)

    return fail


_originals: dict[str, Any] = {}
_SETATTR_KEY = "Operator.__setattr__"
_STATE_METHODS = {"snapshot": _wrap_snapshot, "restore": _wrap_restore}


def installed() -> bool:
    return bool(_originals)


def install() -> None:
    """Wrap the runtime loops and snapshot/restore, and guard operator
    state writes (idempotent)."""
    if _originals:
        return
    from repro.dsps.hau import HAURuntime
    from repro.dsps.operator import Operator
    from repro.simulation.core import Process

    for name in _WRAPPED_LOOPS:
        _originals[name] = getattr(HAURuntime, name)
        setattr(HAURuntime, name, _wrap_loop(_originals[name]))
    # Process inherits fail() from Event; the wrapper goes in Process's
    # own dict and uninstall deletes it again.
    Process.fail = _wrap_fail(Process.fail)
    # Operator defines no __setattr__ of its own; remember whether one
    # existed in the class dict so uninstall can delete rather than
    # restore.
    _originals[_SETATTR_KEY] = Operator.__dict__.get("__setattr__")
    Operator.__setattr__ = _guarded_setattr
    for name, wrap in _STATE_METHODS.items():
        _originals[f"Operator.{name}"] = Operator.__dict__[name]
        setattr(Operator, name, wrap(_originals[f"Operator.{name}"]))


def uninstall() -> None:
    """Remove the wrappers and the setattr guard (test support)."""
    if not _originals:
        return
    from repro.dsps.hau import HAURuntime
    from repro.dsps.operator import Operator
    from repro.simulation.core import Process

    for name in _WRAPPED_LOOPS:
        setattr(HAURuntime, name, _originals[name])
    del Process.fail
    prior = _originals[_SETATTR_KEY]
    if prior is None:
        del Operator.__setattr__
    else:
        Operator.__setattr__ = prior
    for name in _STATE_METHODS:
        setattr(Operator, name, _originals[f"Operator.{name}"])
    _originals.clear()
    _hau_stack.clear()
    _fingerprints.clear()
