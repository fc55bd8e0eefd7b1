"""Cross-process trace spans in Chrome trace-event format.

One reconciliation session touches up to three processes: the client,
the server parent, and (in proc mode) the shard-worker subprocess that
decodes and commits.  To see that session as a single tree, the client
mints a random 64-bit *trace id* at connect time, the id rides the
HELLO frame and every proc-executor RPC body, and each
process appends its own spans to a per-process JSONL file under the
configured trace directory.  ``python -m repro.obs.trace <dir>``
merges the files into one Chrome JSON trace for
``chrome://tracing`` / `Perfetto <https://ui.perfetto.dev>`_.

Span events are the Chrome trace-event ``"ph": "X"`` (complete) form:
wall-clock ``ts`` microseconds (processes share a host clock, so spans
line up across files) with the *duration* measured on
``perf_counter`` so NTP steps cannot produce negative spans.  Span
identity and parentage live in ``args`` (``trace``/``span``/
``parent`` hex ids) since the Chrome format has no native span tree.

Tracing is configured per process (:func:`configure_tracing`) and off
by default; a disabled tracer's ``span()`` yields its parent context
unchanged, so trace ids still *propagate* through a non-tracing
middle hop at the cost of an attribute check.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from contextlib import contextmanager
from pathlib import Path
from typing import IO, NamedTuple

__all__ = [
    "TraceContext",
    "Tracer",
    "configure_tracing",
    "tracer",
    "load_events",
    "merge_trace",
]


class TraceContext(NamedTuple):
    """Identity of one span: which trace, and which node in its tree."""

    trace_id: int
    span_id: int

    def hex(self) -> str:
        return f"{self.trace_id:016x}"


def _new_id() -> int:
    """Random non-zero 64-bit id (zero means 'absent' on the wire)."""
    while True:
        value = secrets.randbits(64)
        if value:
            return value


class Tracer:
    """Per-process span writer; inert unless given a directory.

    ``max_bytes`` caps the span file: when the current file grows past
    it, the file rotates once (``trace-<role>-<pid>.jsonl`` is renamed
    to ``trace-<role>-<pid>.1.jsonl``, replacing any previous rotation)
    and writing restarts fresh — so a long-running load test keeps at
    most ~2x ``max_bytes`` of the *newest* spans per process instead of
    growing a JSONL file without bound.  The rotated name still matches
    the ``trace-*.jsonl`` merge glob, so :func:`load_events` sees both
    generations.
    """

    def __init__(
        self,
        trace_dir: str | Path | None,
        role: str,
        max_bytes: int | None = None,
    ) -> None:
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.role = role
        self.max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self._file: IO[str] | None = None
        self._written = 0

    @property
    def enabled(self) -> bool:
        return self.trace_dir is not None

    def mint(self) -> TraceContext | None:
        """A fresh root context, or None when tracing is off."""
        if self.trace_dir is None:
            return None
        return TraceContext(_new_id(), _new_id())

    def child(self, parent: TraceContext | None) -> TraceContext | None:
        """A child context under ``parent`` (same trace, new span)."""
        if self.trace_dir is None or parent is None:
            return parent
        return TraceContext(parent.trace_id, _new_id())

    @contextmanager
    def span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **args,
    ):
        """Time a block as one span; yields the block's own context.

        With tracing disabled the parent context passes through
        untouched and nothing is written — the caller can always
        forward whatever ``span()`` yields.  With tracing enabled and
        no parent (e.g. an untraced client sent trace id 0), the span
        roots a fresh trace so server-side timing is never lost.
        """
        if self.trace_dir is None:
            yield parent
            return
        if parent is None:
            ctx = TraceContext(_new_id(), _new_id())
        else:
            ctx = TraceContext(parent.trace_id, _new_id())
        ts_unix = time.time()
        start = time.perf_counter()
        try:
            yield ctx
        finally:
            self._emit(
                name, ctx, parent, ts_unix,
                time.perf_counter() - start, args,
            )

    def emit(
        self,
        name: str,
        ctx: TraceContext,
        parent: TraceContext | None,
        ts_unix: float,
        duration_s: float,
        **args,
    ) -> None:
        """Record an already-timed span (for callers that measured)."""
        if self.trace_dir is not None:
            self._emit(name, ctx, parent, ts_unix, duration_s, args)

    def _emit(self, name, ctx, parent, ts_unix, duration_s, args) -> None:
        event = {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": round(ts_unix * 1e6),
            "dur": max(0, round(duration_s * 1e6)),
            "pid": os.getpid(),
            "tid": 0,
            "args": {
                "trace": f"{ctx.trace_id:016x}",
                "span": f"{ctx.span_id:016x}",
                "parent": (
                    f"{parent.span_id:016x}" if parent is not None else ""
                ),
                "role": self.role,
                **args,
            },
        }
        if self._file is None:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            path = self._path()
            # line-buffered append: each span is one flushed JSON line,
            # so a crashed process loses at most a partial final line
            self._file = open(path, "a", buffering=1, encoding="utf-8")
            self._written = path.stat().st_size
        line = json.dumps(event, separators=(",", ":")) + "\n"
        self._file.write(line)
        self._written += len(line)
        if self.max_bytes is not None and self._written >= self.max_bytes:
            self._rotate()

    def _path(self) -> Path:
        return self.trace_dir / f"trace-{self.role}-{os.getpid()}.jsonl"

    def _rotate(self) -> None:
        """One-deep rotation: current file becomes ``.1``, writing
        restarts fresh; a previous ``.1`` (older spans) is replaced."""
        self._file.close()
        self._file = None
        self._written = 0
        path = self._path()
        rotated = path.with_name(
            f"trace-{self.role}-{os.getpid()}.1.jsonl"
        )
        try:
            os.replace(path, rotated)
        except OSError:
            pass   # rotation is best-effort; worst case the file regrows

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


#: The per-process tracer; disabled until :func:`configure_tracing`.
_TRACER = Tracer(None, "main")


def configure_tracing(
    trace_dir: str | Path | None,
    role: str = "main",
    max_bytes: int | None = None,
) -> Tracer:
    """(Re)configure this process's tracer; None disables tracing.

    ``max_bytes`` caps the span file with one-deep rotation (see
    :class:`Tracer`); None keeps the file unbounded.
    """
    global _TRACER
    _TRACER.close()
    _TRACER = Tracer(trace_dir, role, max_bytes=max_bytes)
    return _TRACER


def tracer() -> Tracer:
    """The process-wide tracer (possibly disabled)."""
    return _TRACER


def load_events(trace_dir: str | Path) -> list[dict]:
    """All span events across every per-process file, ts-ordered."""
    events: list[dict] = []
    for path in sorted(Path(trace_dir).glob("trace-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # torn final line from a killed process
    events.sort(key=lambda e: e.get("ts", 0))
    return events


def merge_trace(trace_dir: str | Path) -> dict:
    """One Chrome-format trace object covering every process's file."""
    return {
        "traceEvents": load_events(trace_dir),
        "displayTimeUnit": "ms",
    }


def _main() -> int:  # pragma: no cover - exercised via CLI smoke
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description=(
            "Merge per-process trace JSONL files into one Chrome "
            "trace JSON for chrome://tracing or Perfetto."
        ),
    )
    parser.add_argument("trace_dir", help="directory of trace-*.jsonl")
    parser.add_argument(
        "-o", "--output",
        help="output path (default: <trace_dir>/trace.json)",
    )
    opts = parser.parse_args()
    merged = merge_trace(opts.trace_dir)
    out = Path(opts.output or Path(opts.trace_dir) / "trace.json")
    out.write_text(json.dumps(merged, indent=1), encoding="utf-8")
    print(f"{len(merged['traceEvents'])} events -> {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_main())
