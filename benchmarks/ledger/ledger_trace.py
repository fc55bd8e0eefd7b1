"""Span recording for the ledger's traced runs.

A traced run replaces selected class attributes of the running program
(sync methods, coroutines, classmethods) with thin wrappers that record
one span per call: ``[name, start_ns, end_ns, parent, session, units]``.
Parents link through a :mod:`contextvars` variable, so a span opened in
a coroutine parents every wrapped call it awaits, and a task spawned
under it (the decode coalescer's flush task) inherits it.  Each
accepted connection runs in its own task, so the first wrapped call in
a task claims a fresh session id that the task's later calls share.

Spans stay in memory and are written out once, when the program ends;
:func:`summarize` turns them into per-name counts, inclusive and self
time (duration minus the spans it parents) and unit totals.

Clock: :func:`time.monotonic_ns` is ``CLOCK_MONOTONIC`` on Linux, one
clock for every process on the host, so the driver can cut server spans
to its own measurement window.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time
from pathlib import Path
from typing import Callable

_SESSION: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "ledger_session", default=None
)
_PARENT: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "ledger_parent", default=None
)


def _second_len(args: tuple) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _tow_units(args: tuple) -> int:
    """Elements hashed: |S| times the sketch count l."""
    return _second_len(args) * args[0].n_sketches


#: (module, "Class.attr", span name, units of work per call or None).
#: Store operations keep their class in the span name: a cluster store
#: calls the plain store underneath, and the ledger reads the outer one.
SERVER_TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.service.store", "SetStore.snapshot",
     "store.SetStore.snapshot", None),
    ("repro.service.store", "SetStore.apply_diff",
     "store.SetStore.apply_diff", None),
    ("repro.cluster.router", "ClusterStore.snapshot",
     "store.ClusterStore.snapshot", None),
    ("repro.cluster.router", "ClusterStore.apply_diff",
     "store.ClusterStore.apply_diff", None),
    ("repro.cluster.router", "ClusterStore.decode_remote",
     "cluster.router.decode_remote", None),
    ("repro.estimators.tow", "ToWEstimator.sketch",
     "estimators.tow.sketch", _tow_units),
    ("repro.core.sessions", "BobSession.__init__",
     "core.sessions.bob_init", _second_len),
    ("repro.core.sessions", "BobSession.begin_reply",
     "core.sessions.begin_reply", None),
    ("repro.core.sessions", "BobSession.finish_reply",
     "core.sessions.finish_reply", None),
    ("repro.core.params", "PBSParams.from_d", "core.params.from_d", None),
    ("repro.service.scheduler", "DecodeCoalescer.decode",
     "service.scheduler.decode", None),
    ("repro.bch.codec", "BCHCodec.decode_many", "bch.decode_many",
     _second_len),
    ("repro.cluster.journal", "JournalBackend.record_diff",
     "cluster.storage.record_diff", None),
    ("repro.cluster.sqlite", "SqliteBackend.record_diff",
     "cluster.storage.record_diff", None),
    ("repro.cluster.replication", "ShardReplication.wait_durable",
     "cluster.replication.wait_durable", None),
]

#: The client side of a session, timed inside the driver process.
CLIENT_TARGETS: list[tuple[str, str, str, Callable | None]] = [
    ("repro.service.client", "ClientConnection.connect",
     "client.connect", None),
    ("repro.estimators.tow", "ToWEstimator.sketch", "client.tow.sketch",
     _tow_units),
    ("repro.core.sessions", "AliceSession.build_sketch_message",
     "client.alice_encode", None),
    ("repro.core.sessions", "AliceSession.handle_reply",
     "client.alice_decode", None),
]


class SpanRecorder:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._sessions = itertools.count(1)
        self._undo: list[tuple[type, str, object]] = []

    # -- wrappers ---------------------------------------------------------------
    def install(self, targets) -> None:
        for module_name, qualname, name, units in targets:
            owner_name, attr = qualname.split(".")
            owner = getattr(importlib.import_module(module_name), owner_name)
            self.wrap(owner, attr, name, units)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def wrap(self, owner: type, attr: str, name: str,
             units: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr]
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if binder is not None else raw

        if inspect.iscoroutinefunction(fn):
            async def wrapper(*args, **kwargs):
                span, token = self._open(name, args, units)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(span, token)
        else:
            def wrapper(*args, **kwargs):
                span, token = self._open(name, args, units)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(span, token)

        functools.update_wrapper(wrapper, fn)
        setattr(owner, attr, binder(wrapper) if binder else wrapper)
        self._undo.append((owner, attr, raw))

    def _open(self, name: str, args: tuple, units: Callable | None):
        session = _SESSION.get()
        if session is None:
            session = next(self._sessions)
            _SESSION.set(session)
        span = [name, time.monotonic_ns(), 0, _PARENT.get(), session,
                units(args) if units is not None else 0]
        # list.append is atomic, so spans from executor threads are safe
        self.spans.append(span)
        return span, _PARENT.set(span)

    @staticmethod
    def _close(span: list, token) -> None:
        span[2] = time.monotonic_ns()
        _PARENT.reset(token)

    # -- output -----------------------------------------------------------------
    def rows(self) -> list[list]:
        """Spans as plain rows, the parent as an index into the list."""
        index = {id(span): pos for pos, span in enumerate(self.spans)}
        return [
            [name, start, end,
             index.get(id(parent), -1) if parent is not None else -1,
             session, units]
            for name, start, end, parent, session, units in self.spans
        ]

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps({"spans": self.rows()}))


def load_rows(path: str | Path) -> list[list]:
    return json.loads(Path(path).read_text())["spans"]


def _kept(rows: list[list], start_ns: int, end_ns: int) -> list[int]:
    """Positions of the finished spans that started inside the window."""
    return [
        pos for pos, row in enumerate(rows)
        if start_ns <= row[1] <= end_ns and row[2] >= row[1]
    ]


def wait_ms(rows: list[list], start_ns: int, end_ns: int, outer: str,
            inner: str) -> float:
    """Total ms of the ``outer`` spans not spent in the ``inner`` span
    that served each one.

    Built for the decode coalescer: every ``decode`` call of a batch
    waits on one shared ``decode_many``, which only the first
    submitter's span parents, so self time would charge the batch as
    waiting to every other member.  Here each ``outer`` span subtracts
    the last ``inner`` span that ran inside it: the batch that released
    it.
    """
    kept = [rows[pos] for pos in _kept(rows, start_ns, end_ns)]
    inners = sorted((row[2], row[1]) for row in kept if row[0] == inner)
    ends = [end for end, _start in inners]
    total = 0
    for name, start, end, *_rest in kept:
        if name != outer:
            continue
        served = 0
        for k in range(bisect.bisect_right(ends, end) - 1, -1, -1):
            if inners[k][0] < start:
                break
            if inners[k][1] >= start:
                served = inners[k][0] - inners[k][1]
                break
        total += end - start - served
    return total / 1e6


def summarize(rows: list[list], start_ns: int, end_ns: int) -> dict:
    """Per span name: count, inclusive ms, self ms and units, for the
    finished spans that started inside ``[start_ns, end_ns]``."""
    keep = _kept(rows, start_ns, end_ns)
    child_ns: dict[int, int] = {}
    for pos in keep:
        parent = rows[pos][3]
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (
                rows[pos][2] - rows[pos][1]
            )
    out: dict[str, dict] = {}
    for pos in keep:
        name, start, end, _parent, _session, units = rows[pos]
        entry = out.setdefault(
            name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "units": 0}
        )
        duration = end - start
        entry["count"] += 1
        entry["total_ms"] += duration / 1e6
        entry["self_ms"] += max(0, duration - child_ns.get(pos, 0)) / 1e6
        entry["units"] += units
    return out
