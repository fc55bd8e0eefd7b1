"""Run ``repro serve`` with the ledger's span wrappers installed.

Usage::

    PYTHONPATH=src python benchmarks/ledger/traced_serve.py SPANS.json serve ARGS...

Installs :data:`ledger_trace.SERVER_TARGETS` into this process, hands
the remaining arguments to :func:`repro.cli.main`, and writes the
recorded spans to ``SPANS.json`` once the server has shut down.  Shard
worker subprocesses (``--workers proc``) start from the *spawn* context
and re-import this file as ``__mp_main__``; the ``__main__`` guard keeps
them untraced, so only parent-side spans are recorded.
"""

from __future__ import annotations

import sys

from ledger_trace import SERVER_TARGETS, SpanRecorder


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced_serve.py SPANS.json serve ARGS...",
              file=sys.stderr)
        return 2
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    recorder.install(SERVER_TARGETS)
    try:
        return repro_main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
