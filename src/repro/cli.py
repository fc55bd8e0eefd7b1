"""Command-line interface: reconcile signature files, serve, or sync.

Each input file lists one element per line — either decimal or 0x-hex
32-bit signatures (the format ``sha1sum | cut`` pipelines produce after
truncation).  Five modes:

    python -m repro alice.txt bob.txt            # in-process reconcile
    python -m repro serve --set inv=bob.txt      # reconciliation server
    python -m repro sync alice.txt --set inv     # client against a server
    python -m repro rebalance --data-dir d --shards 4   # resize a data dir
    python -m repro loadgen --rate 50 --duration 30     # open-loop load test

The in-process mode reports the symmetric difference and the wire/round
cost PBS would have paid, and can compare schemes (``--scheme ddigest``).
``serve``/``sync`` run the same protocol over real sockets, many sessions
at a time (see :mod:`repro.service`).  ``rebalance`` migrates a stopped
cluster data directory to a new shard count without losing a set
(see :mod:`repro.cluster.rebalance`).  ``loadgen`` offers Poisson
traffic at a fixed rate against a running server and reports
client-side latency, shed rate, and SLO grades
(see :mod:`repro.loadgen`).
"""

from __future__ import annotations

import argparse
import asyncio
import io
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from repro.baselines import (
    DifferenceDigestProtocol,
    GrapheneProtocol,
    PinSketchProtocol,
    PinSketchWPProtocol,
)
from repro.core.elements import element_array
from repro.core.protocol import PBSProtocol

SCHEMES = {
    "pbs": PBSProtocol,
    "ddigest": DifferenceDigestProtocol,
    "graphene": GrapheneProtocol,
    "pinsketch": PinSketchProtocol,
    "pinsketch-wp": PinSketchWPProtocol,
}

DEFAULT_PORT = 7171


def load_signatures(path: Path) -> np.ndarray:
    """Parse one signature per line (decimal or 0x-hex); '#' comments ok.

    Returns the signatures as an element array
    (:mod:`repro.core.elements`).  A plain file (one decimal per line)
    takes one C-level pass.  A file that pass rejects, or that holds a
    zero, too-wide or duplicate value, goes to the per-line parser, which
    accepts it or reports the line.
    """
    text = path.read_text()
    if _plain_decimal(text):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)   # empty input
                # numpy 1.23-1.26 read a decimal >= 2^64 through float
                # and cast it in C, with only a DeprecationWarning
                warnings.simplefilter("error", DeprecationWarning)
                column = np.loadtxt(
                    io.StringIO(text), dtype=np.uint64, ndmin=2,
                    comments=None,
                )
        except (ValueError, OverflowError, DeprecationWarning):
            column = np.empty((0, 0))
        if column.shape[1] == 1:
            arr = element_array(column[:, 0])
            if len(arr) == len(column) and (
                not len(arr) or (arr[0] >= 1 and arr[-1] < 1 << 32)
            ):
                return arr
    return element_array(_parse_signature_lines(path, text))


def _plain_decimal(text: str) -> bool:
    """``text`` holds only ASCII digits, ``+``, spaces, tabs and line
    ends, and no line longer than ``int()`` reads.

    Only such text goes to ``np.loadtxt``, so what the fast path accepts
    does not depend on how a numpy release reads other tokens (``5.7``,
    ``1e3``, Unicode digits).  The per-line parser rejects a decimal with
    more digits than ``sys.get_int_max_str_digits()`` (leading zeros
    count); ``np.loadtxt`` would read it.
    """
    data = text.encode()
    if data.translate(None, b"0123456789+ \t\r\n"):
        return False
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or len(data) <= limit:
        return True
    ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
    return int(np.diff(ends, prepend=-1, append=len(data)).max()) <= limit + 1


def _parse_signature_lines(path: Path, text: str) -> set[int]:
    """The per-line parser of ``path``'s ``text``: every format, and the
    error message for every file :func:`load_signatures` rejects.

    Rejects malformed lines, values outside the nonzero 32-bit universe,
    and duplicates — each with the offending line number, so a bad export
    pipeline is caught at the door instead of silently skewing d.
    """
    seen: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = int(line, 16 if line.lower().startswith("0x") else 10)
        except ValueError:
            raise SystemExit(
                f"{path}:{line_no}: not a signature: {line!r}"
            ) from None
        if not 1 <= value < (1 << 32):
            raise SystemExit(
                f"{path}:{line_no}: {value} outside the nonzero 32-bit "
                f"universe (signatures must satisfy 1 <= v < 2^32)"
            )
        if value in seen:
            raise SystemExit(
                f"{path}:{line_no}: duplicate signature {line!r} "
                f"(first seen on line {seen[value]})"
            )
        seen[value] = line_no
    return set(seen)


class _WriteFailed(Exception):
    """``sync --write`` could not replace its file after the sync itself
    completed (the server has already merged A \\ B)."""


def _write_signatures(path: Path, values: np.ndarray) -> None:
    """Replace ``path`` with ``values``, one decimal per line.

    Write-temp / fsync / ``os.replace`` in the file's own directory (a
    symlink is followed, as a plain write would): a kill or a full disk
    mid-write leaves the old file whole, and a failed write leaves no
    temp file behind.  This needs write permission on the directory, and
    the result is a new inode with the old file's mode.
    """
    target = path.resolve()
    fd, tmp = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("".join(f"{v}\n" for v in values.tolist()))
            fh.flush()
            os.fsync(fh.fileno())
        if target.exists():
            os.chmod(tmp, target.stat().st_mode & 0o7777)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


# -- parsers ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PBS set reconciliation (Gong et al., VLDB 2020)",
    )
    parser.add_argument("file_a", nargs="?", type=Path, help="Alice's signatures")
    parser.add_argument("file_b", nargs="?", type=Path, help="Bob's signatures")
    parser.add_argument(
        "--scheme", choices=sorted(SCHEMES), default="pbs",
        help="reconciliation scheme (default: pbs)",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="round budget (0 = unlimited; default 3)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the difference"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print a machine-readable result instead of difference lines",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="run a built-in instance instead of reading files",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the reconciliation server (see repro.service)",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port, 0 = ephemeral (default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--set", dest="sets", action="append", default=[], metavar="NAME=FILE",
        help="preload (or replace) a named set from a signature file "
             "(repeatable; recovered sets not named here are kept)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard workers behind the consistent-hash router (default 1; "
             "must be explicit with --rebalance)",
    )
    parser.add_argument(
        "--workers", choices=("inline", "proc"), default="inline",
        help="shard executor: 'inline' runs shard workers as asyncio "
             "tasks on one core (default); 'proc' runs one subprocess "
             "per shard so BCH decode CPU scales across cores",
    )
    parser.add_argument(
        "--data-dir", type=Path, default=None, metavar="DIR",
        help="persist apply-diffs under DIR and recover named sets from "
             "it on startup (one subdirectory per shard)",
    )
    parser.add_argument(
        "--storage", choices=("journal", "sqlite"), default=None,
        help="per-shard storage backend (requires --data-dir): 'journal' "
             "keeps every set in RAM behind an append-only journal "
             "(default); 'sqlite' keeps sets in one WAL-mode SQLite file "
             "per shard and materializes them lazily, for stores bigger "
             "than RAM.  A directory committed to the other backend "
             "refuses to start — convert it with 'repro rebalance "
             "--storage' (or --rebalance here)",
    )
    parser.add_argument(
        "--replicas", type=int, default=0, metavar="R",
        help="keep R follower replicas per shard, fed by logical-op log "
             "shipping from the primary (requires --data-dir; default 0 "
             "= no replication).  A primary that stays down past its "
             "respawn budget fails over to its most-advanced follower",
    )
    parser.add_argument(
        "--replication", choices=("async", "quorum"), default="async",
        help="durability mode with --replicas: 'async' acks a mutation "
             "once the primary's own commit is durable (default); "
             "'quorum' holds the ack until a majority of the R+1 "
             "replicas hold it durably",
    )
    parser.add_argument(
        "--max-sessions", type=int, default=0, metavar="N",
        help="cap concurrent sessions per shard; excess is shed with a "
             "RETRY frame (default 0 = unlimited)",
    )
    parser.add_argument(
        "--max-decode-queue", type=int, default=0, metavar="N",
        help="cap queued decode submissions per shard (backpressure; "
             "default 0 = unlimited)",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync every journal append (durable against power loss, "
             "not just process crash)",
    )
    parser.add_argument(
        "--rebalance", action="store_true",
        help="before serving, migrate --data-dir to --shards shards if "
             "its committed layout differs (default: refuse to start on "
             "a topology mismatch)",
    )
    parser.add_argument(
        "--window-ms", type=float, default=2.0,
        help="decode-coalescing window in milliseconds (default 2.0; "
             "0 decodes each session separately)",
    )
    parser.add_argument(
        "--no-create", action="store_true",
        help="reject syncs against set names that were not preloaded",
    )
    parser.add_argument(
        "--metrics-every", type=float, default=0.0, metavar="SECONDS",
        help="periodically print a JSON metrics snapshot to stderr",
    )
    parser.add_argument(
        "--admin-port", type=int, default=None, metavar="PORT",
        help="also serve an admin HTTP endpoint on PORT (0 = ephemeral): "
             "/metrics (Prometheus), /healthz (liveness; non-200 while "
             "any shard worker is down), /varz (JSON snapshot), "
             "/timeseries (ring of recent metric windows)",
    )
    parser.add_argument(
        "--admin-host", default="127.0.0.1", metavar="HOST",
        help="bind address for the admin endpoint (default 127.0.0.1; "
             "the admin surface is unauthenticated, so a non-loopback "
             "HOST exposes /varz and /timeseries to that network)",
    )
    parser.add_argument(
        "--window-s", type=float, default=5.0, metavar="SECONDS",
        help="windowed-metrics interval: every SECONDS one delta window "
             "(per-second rates, delta latency quantiles) is closed into "
             "the /timeseries ring (default 5.0)",
    )
    parser.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="grade each closed window against a session-duration p99 "
             "objective of MS milliseconds; burn state rides /metrics, "
             "/varz, and /timeseries",
    )
    parser.add_argument(
        "--slo-shed-rate", type=float, default=None, metavar="FRACTION",
        help="grade each closed window against a shed-rate objective "
             "(sheds over session outcomes; e.g. 0.01)",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None, metavar="DIR",
        help="write per-process span JSONL files under DIR (server and, "
             "with --workers proc, each shard worker); merge with "
             "'python -m repro.obs.trace DIR' for chrome://tracing",
    )
    parser.add_argument(
        "--trace-max-mb", type=float, default=None, metavar="MB",
        help="rotate each per-process trace file once it passes MB "
             "megabytes (one-deep, so at most ~2xMB of the newest spans "
             "per process; default unbounded)",
    )
    parser.add_argument(
        "--log-level", default="info",
        choices=("debug", "info", "warning", "error"),
        help="log verbosity for the 'repro' component loggers "
             "(default info)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log lines as JSON objects instead of human text",
    )
    parser.add_argument(
        "--slow-op-ms", type=float, default=None, metavar="MS",
        help="WARN on storage commits / decode batches slower than MS "
             "milliseconds (default 100)",
    )
    return parser


def build_rebalance_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro rebalance",
        description="Migrate a cluster data directory to a new shard "
                    "count and/or storage backend (offline; stop the "
                    "server first). Replays every shard through its "
                    "committed backend, stages moved sets into their new "
                    "shard directories through the target backend, and "
                    "commits with an atomic manifest epoch bump — a "
                    "crash at any point leaves the old layout "
                    "recoverable and a rerun is idempotent.",
    )
    parser.add_argument(
        "--data-dir", type=Path, required=True, metavar="DIR",
        help="the cluster data directory to migrate",
    )
    parser.add_argument(
        "--shards", type=int, required=True, metavar="N",
        help="target shard count",
    )
    parser.add_argument(
        "--storage", choices=("journal", "sqlite"), default=None,
        help="also convert the shard files to this storage backend "
             "(default: keep the directory's committed backend)",
    )
    parser.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsyncs while staging (faster; a machine crash during "
             "the rebalance may then require rerunning it)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the full machine-readable move plan and outcome",
    )
    return parser


def build_sync_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sync",
        description="Sync a signature file against a reconciliation server",
    )
    parser.add_argument("file", type=Path, help="local signatures")
    parser.add_argument(
        "--set", dest="set_name", default="default",
        help="server-side set name (default: default)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument(
        "--rounds", type=int, default=0,
        help="round budget (0 = server design target; default 0)",
    )
    parser.add_argument(
        "--one-way", action="store_true",
        help="only learn the difference; do not push A \\ B to the server",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="sync N times over one connection (re-reading FILE each "
             "pass; default 1)",
    )
    parser.add_argument(
        "--interval", type=float, default=0.0, metavar="SECONDS",
        help="sleep between repeated syncs (default 0)",
    )
    parser.add_argument(
        "--retries", type=int, default=3, metavar="N",
        help="reconnect attempts (jittered backoff) when the server "
             "sheds the session with RETRY (default 3)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite FILE with the union after a successful sync",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the difference"
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print a machine-readable result instead of difference lines",
    )
    parser.add_argument(
        "--trace-dir", type=Path, default=None, metavar="DIR",
        help="write this client's span JSONL under DIR; point it at the "
             "server's --trace-dir to see one session across processes",
    )
    parser.add_argument(
        "--trace-max-mb", type=float, default=None, metavar="MB",
        help="rotate the span file once it passes MB megabytes "
             "(one-deep; default unbounded)",
    )
    return parser


def build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Open-loop load generator: offer Poisson traffic at "
                    "a target rate against a running 'repro serve', with "
                    "Zipf set popularity and per-session mutation churn. "
                    "Latency is charged from each session's intended "
                    "start (no coordinated omission); the run emits a "
                    "versioned JSON report with latency quantiles, shed "
                    "rate, convergence, a per-window timeseries, and SLO "
                    "grades.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT)
    parser.add_argument(
        "--rate", type=float, default=20.0, metavar="PER_S",
        help="offered session arrival rate, Poisson (default 20/s)",
    )
    parser.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="scheduling horizon; in-flight sessions then drain "
             "(default 10)",
    )
    parser.add_argument(
        "--sets", type=int, default=16, metavar="N",
        help="set population size (default 16)",
    )
    parser.add_argument(
        "--zipf-s", type=float, default=1.1, metavar="S",
        help="set-popularity skew exponent; 0 = uniform (default 1.1)",
    )
    parser.add_argument(
        "--diff", default="fixed:8", metavar="SPEC",
        help="mutations per session: fixed:N, uniform:LO:HI, or "
             "geometric:MEAN (default fixed:8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="random seed (fixes schedule, popularity, and churn)",
    )
    parser.add_argument(
        "--max-in-flight", type=int, default=64, metavar="N",
        help="driver-side concurrent-session cap; waiting for a slot "
             "charges the session's latency (default 64)",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=5.0, metavar="SECONDS",
        help="per-session dial + handshake deadline (default 5)",
    )
    parser.add_argument(
        "--window-s", type=float, default=2.0, metavar="SECONDS",
        help="progress/SLO window interval (default 2)",
    )
    parser.add_argument(
        "--slo-p99-ms", type=float, default=None, metavar="MS",
        help="per-window session-latency p99 objective; any breached "
             "window flips the exit code to 1",
    )
    parser.add_argument(
        "--slo-shed-rate", type=float, default=None, metavar="FRACTION",
        help="per-window shed-rate objective (e.g. 0.01)",
    )
    parser.add_argument(
        "--drain-s", type=float, default=30.0, metavar="SECONDS",
        help="wait for stragglers after the horizon before abandoning "
             "them (default 30)",
    )
    parser.add_argument(
        "--set-prefix", default="lg",
        help="server-side set name prefix (default lg)",
    )
    parser.add_argument(
        "--output", type=Path, default=None, metavar="FILE",
        help="write the JSON report to FILE (default: stdout)",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-window progress lines on stderr",
    )
    return parser


# -- subcommands --------------------------------------------------------------

def _trace_max_bytes(max_mb: float | None) -> int | None:
    """``--trace-max-mb`` to bytes for :func:`configure_tracing`."""
    return int(max_mb * 1024 * 1024) if max_mb else None


def build_check_parser() -> argparse.ArgumentParser:
    from repro.devtools.check import build_parser as build

    return build()


def cmd_check(argv: list[str]) -> int:
    """Static-analysis gate: ``repro check`` = ``python -m
    repro.devtools.check`` (exit 0 clean, 1 new findings, 2 tool
    error)."""
    from repro.devtools.check import main as check_main

    return check_main(argv)


def cmd_rebalance(argv: list[str]) -> int:
    import json as _json

    from repro.cluster.rebalance import rebalance
    from repro.errors import ReproError

    args = build_rebalance_parser().parse_args(argv)
    if args.shards < 1:
        print(f"error: --shards must be >= 1, got {args.shards}",
              file=sys.stderr)
        return 2
    try:
        result = rebalance(
            args.data_dir, args.shards,
            fsync=not args.no_fsync, storage=args.storage,
        )
    except (ReproError, OSError) as exc:
        print(f"error: cannot rebalance: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(result.to_dict(), indent=2))
    else:
        print(f"# {result.summary()}", file=sys.stderr)
    return 0


def cmd_serve(argv: list[str]) -> int:
    from repro.cluster.admission import AdmissionController
    from repro.cluster.config import ClusterConfig, open_cluster
    from repro.cluster.rebalance import rebalance
    from repro.errors import ReproError
    from repro.obs.admin import AdminServer
    from repro.obs.logs import (
        configure_logging,
        get_logger,
        set_slow_op_threshold,
    )
    from repro.obs.metrics import SloTracker, WindowedMetrics
    from repro.obs.trace import configure_tracing
    from repro.service.metrics import merged_histograms
    from repro.service.server import ReconciliationServer

    args = build_serve_parser().parse_args(argv)
    configure_logging(args.log_level, args.log_json)
    log = get_logger("serve")
    if args.slow_op_ms is not None:
        set_slow_op_threshold(args.slow_op_ms / 1000.0)
    if args.window_s <= 0:
        print(f"error: --window-s must be > 0, got {args.window_s}",
              file=sys.stderr)
        return 2
    if args.window_ms < 0:
        print(f"error: --window-ms must be >= 0, got {args.window_ms}",
              file=sys.stderr)
        return 2
    if args.trace_dir is not None:
        configure_tracing(
            args.trace_dir, role="server",
            max_bytes=_trace_max_bytes(args.trace_max_mb),
        )
    if args.rebalance and args.shards is None:
        # the default of 1 must never drive a migration: forgetting
        # --shards would silently rewrite a sharded cluster down to one
        # shard — the exact forgotten-flag mistake the manifest's
        # fail-fast default exists to catch
        print("error: --rebalance requires an explicit --shards",
              file=sys.stderr)
        return 2
    shards = args.shards if args.shards is not None else 1
    if shards < 1:
        print(f"error: --shards must be >= 1, got {shards}",
              file=sys.stderr)
        return 2
    if args.max_sessions < 0 or args.max_decode_queue < 0:
        # -1 is not "unlimited" (0 is): a negative session cap would shed
        # every connection forever, a negative decode cap crashes asyncio
        print("error: --max-sessions/--max-decode-queue must be >= 0 "
              "(0 = unlimited)", file=sys.stderr)
        return 2
    if args.fsync and args.data_dir is None:
        # accepting it silently would promise durability while journaling
        # nothing at all
        print("error: --fsync requires --data-dir", file=sys.stderr)
        return 2
    if args.storage is not None and args.data_dir is None:
        # same trap: naming a backend while persisting nothing
        print("error: --storage requires --data-dir", file=sys.stderr)
        return 2
    storage = args.storage if args.storage is not None else "journal"
    if args.replicas < 0:
        print(f"error: --replicas must be >= 0, got {args.replicas}",
              file=sys.stderr)
        return 2
    if args.replicas and args.data_dir is None:
        # a follower IS a directory; without one there is nothing to
        # replicate into
        print("error: --replicas requires --data-dir", file=sys.stderr)
        return 2
    if args.replication != "async" and not args.replicas:
        # a quorum of one (the primary alone) would silently promise
        # replicated durability while providing none
        print("error: --replication quorum requires --replicas >= 1",
              file=sys.stderr)
        return 2
    if args.rebalance:
        if args.data_dir is None:
            print("error: --rebalance requires --data-dir", file=sys.stderr)
            return 2
        # opt-in migration before binding: a mismatched layout becomes a
        # journaled move instead of the default fail-fast refusal.  A
        # directory that does not exist yet has nothing to migrate —
        # startup initializes it below, so an always-pass---rebalance
        # deploy script works on first boot too.
        if args.data_dir.exists():
            try:
                result = rebalance(args.data_dir, shards,
                                   storage=args.storage)
            except (ReproError, OSError) as exc:
                print(f"error: cannot rebalance: {exc}", file=sys.stderr)
                return 2
            if result.changed:
                log.info(result.summary())
    preload: list[tuple[str, np.ndarray]] = []
    for spec in args.sets:
        name, sep, file_spec = spec.partition("=")
        if not sep or not name:
            print(f"error: --set wants NAME=FILE, got {spec!r}", file=sys.stderr)
            return 2
        preload.append((name, load_signatures(Path(file_spec))))

    # without cluster flags: a 1-shard in-memory inline cluster
    store = open_cluster(
        args.data_dir,
        ClusterConfig(
            shards=shards,
            storage=storage,
            fsync=args.fsync,
            executor="subprocess" if args.workers == "proc" else "inline",
            replicas=args.replicas,
            replication=args.replication,
            worker_window_s=args.window_ms / 1000.0,
        ),
    )
    admission = (
        AdmissionController(
            shards=shards,
            max_sessions=args.max_sessions,
            max_decode_queue=args.max_decode_queue,
        )
        if args.max_sessions or args.max_decode_queue
        else None
    )
    server = ReconciliationServer(
        store,
        host=args.host,
        port=args.port,
        create_missing=not args.no_create,
        admission=admission,
    )

    # Windowed deltas + SLO grading over the server's own cumulative
    # counters: an asyncio ticker closes one window per --window-s into
    # the ring /timeseries serves; each closed window is graded when an
    # objective was set, and both ride the /varz snapshot.
    windowed = WindowedMetrics(interval_s=args.window_s)
    slo = SloTracker(p99_ms=args.slo_p99_ms, shed_rate=args.slo_shed_rate)

    def _window_tick() -> None:
        m = server.metrics
        window = windowed.tick(
            {
                "started": m.sessions_started,
                "sessions": m.sessions_completed,
                "failed": m.sessions_failed,
                "sheds": m.sessions_shed,
                "syncs": m.syncs_total,
            },
            merged_histograms(store.cluster_stats()),
        )
        if window is not None and slo.enabled:
            slo.grade(window)

    def _stats_args() -> tuple:
        return (
            store.stats(),
            admission.stats() if admission is not None else None,
            store.cluster_stats(),
            windowed.timeseries(),
            slo.state() if slo.enabled else None,
        )

    def _health() -> tuple[bool, dict]:
        """Liveness for /healthz: every shard must be able to take new
        sessions, and — under quorum replication — able to reach a
        write quorum (a shard that would time out every mutation is not
        healthy even though its worker is up).  Storage tail errors are
        *reported* (they describe what recovery truncated) but do not
        fail health — a shard that healed from a torn journal tail is
        serving correctly."""
        detail: dict = {
            "status": "ok",
            "active_sessions": server.metrics.active_sessions,
        }
        ok = True
        shard_list = []
        for entry in store.cluster_stats()["per_shard"]:
            shard_id = entry.get("shard", -1)
            available = store.shard_available(shard_id)
            item = {
                "shard": shard_id,
                "available": available,
                "tail_error": entry.get("tail_error", ""),
            }
            repl = entry.get("replication")
            if repl is not None:
                item["quorum_ok"] = repl["quorum_ok"]
                available = available and repl["quorum_ok"]
            shard_list.append(item)
            ok = ok and available
        detail["shards"] = shard_list
        if not ok:
            detail["status"] = "degraded"
        return ok, detail

    serving = {"up": False}   # did the server actually come up?

    async def _serve() -> None:
        import signal as _signal
        from contextlib import suppress

        loop = asyncio.get_running_loop()
        # Graceful shutdown on SIGINT *and* SIGTERM (systemd stop, docker
        # stop, CI cleanup): stop accepting, drain the shard workers,
        # reap worker subprocesses, close the journals — never leave
        # orphaned children or un-flushed WAL tails behind.
        stop = asyncio.Event()
        handled: list = []
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
                handled.append(sig)
            except (NotImplementedError, RuntimeError):
                pass   # non-Unix event loop: KeyboardInterrupt still works
        await store.start()
        heartbeat_task = None
        window_task = None
        admin = None
        # everything after store.start() runs under its try so a failed
        # bind or preload still drains the shard workers and closes the
        # journals instead of abandoning them to loop teardown
        try:
            # all at once, so each shard commits its creates in batches;
            # every create is awaited, and the first failure in --set
            # order is the one reported
            created = await asyncio.gather(
                *[store.create(name, values) for name, values in preload],
                return_exceptions=True,
            )
            for outcome in created:
                if isinstance(outcome, BaseException):
                    raise outcome
            await server.start()
            print(
                f"# serving on {server.host}:{server.port} "
                f"shards={shards} "
                f"workers={args.workers} "
                f"data_dir={args.data_dir or '-'} "
                f"storage={storage if args.data_dir else '-'} "
                f"sets={store.names() or '[]'}",
                file=sys.stderr,
                flush=True,
            )
            serving["up"] = True
            _window_tick()   # baseline; windows close from here on
            if args.admin_port is not None:
                admin = AdminServer(
                    varz=lambda: server.metrics.snapshot(*_stats_args()),
                    health=_health,
                    histograms=lambda: merged_histograms(
                        store.cluster_stats()
                    ),
                    timeseries=windowed.timeseries,
                    host=args.admin_host,
                    port=args.admin_port,
                )
                await admin.start()

            async def window_ticker() -> None:
                while True:
                    await asyncio.sleep(args.window_s)
                    _window_tick()

            # strong reference, like the heartbeat: the loop keeps
            # only weak ones
            window_task = asyncio.ensure_future(window_ticker())
            if args.metrics_every > 0:

                async def heartbeat() -> None:
                    while True:
                        await asyncio.sleep(args.metrics_every)
                        print(
                            server.metrics.to_json(*_stats_args(),
                                                   indent=None),
                            file=sys.stderr,
                            flush=True,
                        )

                # hold a strong reference: the loop keeps only weak ones
                heartbeat_task = asyncio.ensure_future(heartbeat())
            serve_task = asyncio.create_task(server.serve_forever())
            stop_task = asyncio.create_task(stop.wait())
            done, _ = await asyncio.wait(
                {serve_task, stop_task},
                return_when=asyncio.FIRST_COMPLETED,
            )
            if serve_task in done:
                stop_task.cancel()
                with suppress(asyncio.CancelledError):
                    await stop_task
                await serve_task   # propagate bind/accept errors
            else:
                log.info("shutdown signal received; draining")
                serve_task.cancel()
                with suppress(asyncio.CancelledError):
                    await serve_task
                await server.close()
        finally:
            if admin is not None:
                await admin.close()
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            if window_task is not None:
                window_task.cancel()
            await store.close()
            for sig in handled:
                loop.remove_signal_handler(sig)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except (ReproError, OSError) as exc:
        # startup failure (corrupt data dir, busy port, bad preload):
        # the usage-error convention, not a traceback + empty metrics
        print(f"error: cannot serve: {exc}", file=sys.stderr)
        return 2
    finally:
        if serving["up"]:
            print(server.metrics.to_json(*_stats_args()), file=sys.stderr)
    return 0


def cmd_sync(argv: list[str]) -> int:
    from repro.errors import ReproError
    from repro.service.client import ClientConnection
    from repro.service.wire import ServerBusy, backoff_or_raise

    args = build_sync_parser().parse_args(argv)
    if args.trace_dir is not None:
        from repro.obs.trace import configure_tracing

        configure_tracing(
            args.trace_dir, role="client",
            max_bytes=_trace_max_bytes(args.trace_max_mb),
        )
    if args.repeat < 1:
        print(f"error: --repeat must be >= 1, got {args.repeat}",
              file=sys.stderr)
        return 2
    # fail fast on a bad file before dialing; pass 1 reuses this load
    first_values = load_signatures(args.file)
    max_rounds = args.rounds if args.rounds > 0 else None

    def _connection() -> ClientConnection:
        return ClientConnection(
            args.host,
            args.port,
            set_name=args.set_name,
            seed=args.seed,
            bidirectional=not args.one_way,
        )

    async def _sync() -> bool:
        # admission control sheds with RETRY; honor it with jittered
        # backoff seeded by the server's own suggested delay.  The retry
        # budget is shared across the whole run: the server may also shed
        # a later pass of a --repeat connection (it re-admits per pass).
        attempts = 0

        async def connect_with_backoff() -> ClientConnection:
            nonlocal attempts
            while True:
                conn = _connection()
                try:
                    await conn.connect()
                    return conn
                except ServerBusy as busy:
                    await backoff_or_raise(busy, attempts, args.retries)
                    attempts += 1

        conn = await connect_with_backoff()
        all_ok = True
        try:
            pass_no = 1
            while pass_no <= args.repeat:
                # pass 1 reuses the fail-fast load; later passes re-read
                # because --write updates the file and external writers
                # may have appended signatures in the meantime
                values = (
                    first_values if pass_no == 1
                    else load_signatures(args.file)
                )
                try:
                    result = await conn.sync(values, max_rounds=max_rounds)
                except ServerBusy as busy:
                    # shed between passes; the server closed us — back
                    # off, reconnect, and redo this pass
                    await backoff_or_raise(busy, attempts, args.retries)
                    attempts += 1
                    conn = await connect_with_backoff()
                    continue
                all_ok = all_ok and result.success
                if args.write and result.success:
                    union = np.union1d(values, element_array(result.difference))
                    # one-shot CLI: this coroutine is the only work on
                    # the loop, so the inline file write stalls nobody
                    try:
                        _write_signatures(args.file, union)
                    except OSError as exc:
                        raise _WriteFailed(exc) from exc
                _print_result(
                    result, scheme="service", json_out=args.json,
                    quiet=args.quiet,
                    compact=args.repeat > 1,
                )
                if pass_no < args.repeat and args.interval > 0:
                    await asyncio.sleep(args.interval)
                pass_no += 1
        finally:
            await conn.close()
        return all_ok

    try:
        ok = asyncio.run(_sync())
    except _WriteFailed as exc:
        print(f"error: synced with {args.host}:{args.port}, but cannot "
              f"write {args.file}: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError, ReproError, asyncio.IncompleteReadError) as exc:
        print(f"error: cannot sync with {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    return 0 if ok else 1


def cmd_loadgen(argv: list[str]) -> int:
    import json as _json

    from repro.loadgen import (
        DiffSizes,
        LoadGenerator,
        LoadgenConfig,
        validate_report,
    )

    args = build_loadgen_parser().parse_args(argv)
    checks = (
        (args.rate > 0, "--rate must be > 0"),
        (args.duration > 0, "--duration must be > 0"),
        (args.sets >= 1, "--sets must be >= 1"),
        (args.zipf_s >= 0, "--zipf-s must be >= 0"),
        (args.max_in_flight >= 1, "--max-in-flight must be >= 1"),
        (args.window_s > 0, "--window-s must be > 0"),
        (args.drain_s >= 0, "--drain-s must be >= 0"),
    )
    for ok, message in checks:
        if not ok:
            print(f"error: {message}", file=sys.stderr)
            return 2
    try:
        DiffSizes(args.diff)   # die on a typo now, not mid-run
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = LoadgenConfig(
        host=args.host,
        port=args.port,
        rate=args.rate,
        duration_s=args.duration,
        sets=args.sets,
        zipf_s=args.zipf_s,
        diff=args.diff,
        seed=args.seed,
        max_in_flight=args.max_in_flight,
        set_prefix=args.set_prefix,
        connect_timeout=args.connect_timeout,
        window_s=args.window_s,
        slo_p99_ms=args.slo_p99_ms,
        slo_shed_rate=args.slo_shed_rate,
        drain_s=args.drain_s,
    )
    progress = (
        None if args.quiet
        else lambda line: print(line, file=sys.stderr, flush=True)
    )
    generator = LoadGenerator(config, progress=progress)
    try:
        report = asyncio.run(generator.run())
    except KeyboardInterrupt:
        print("error: interrupted before the report", file=sys.stderr)
        return 2
    # a malformed report is a driver bug; self-check every run so the
    # validator cannot drift from what the driver actually emits
    validate_report(report)
    payload = _json.dumps(report, indent=2)
    if args.output is not None:
        args.output.write_text(payload + "\n")
    else:
        print(payload)
    totals, rates, slo = report["totals"], report["rates"], report["slo"]
    print(
        f"# loadgen offered={rates['offered_per_s']:g}/s "
        f"achieved={rates['achieved_per_s']:.1f}/s "
        f"ok={totals['sessions']} shed={totals['sheds']} "
        f"failed={totals['failed']} abandoned={totals['abandoned']}"
        + (
            f" slo_breached={slo['windows_breached']}"
            f"/{slo['windows_graded']}"
            if slo is not None else ""
        ),
        file=sys.stderr,
    )
    if totals["scheduled"] and not totals["sessions"]:
        return 1   # nothing at all succeeded: the server was unreachable
    if slo is not None and slo["windows_breached"]:
        return 1
    return 0


def _print_result(
    result, scheme: str, json_out: bool, quiet: bool, compact: bool = False
) -> None:
    if json_out:
        # one JSON document per line under --repeat so consumers can
        # stream passes; the single-sync output stays pretty-printed
        print(result.to_json(indent=None if compact else 2))
        return
    for value in sorted(result.difference):
        print(value)
    if not quiet:
        print(
            f"# scheme={scheme} success={result.success} "
            f"rounds={result.rounds} bytes={result.total_bytes} "
            f"d={len(result.difference)}",
            file=sys.stderr,
        )


# -- entry point --------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return cmd_serve(argv[1:])
    if argv and argv[0] == "sync":
        return cmd_sync(argv[1:])
    if argv and argv[0] == "rebalance":
        return cmd_rebalance(argv[1:])
    if argv and argv[0] == "loadgen":
        return cmd_loadgen(argv[1:])
    if argv and argv[0] == "check":
        return cmd_check(argv[1:])

    args = build_parser().parse_args(argv)
    if args.selftest:
        from repro.workloads import SetPairGenerator

        pair = SetPairGenerator(seed=args.seed).generate(size_a=10_000, d=100)
        set_a, set_b = element_array(pair.a), element_array(pair.b)
    else:
        if not (args.file_a and args.file_b):
            print("error: need two signature files (or --selftest)", file=sys.stderr)
            return 2
        set_a = load_signatures(args.file_a)
        set_b = load_signatures(args.file_b)

    if args.scheme == "pbs":
        proto = PBSProtocol(
            seed=args.seed, max_rounds=args.rounds, estimator_family="fast"
        )
        result = proto.run(set_a, set_b)
    else:
        proto = SCHEMES[args.scheme](seed=args.seed)
        d = len(np.setxor1d(set_a, set_b, assume_unique=True))
        result = proto.run(set_a, set_b, estimated_d=max(1, d))

    _print_result(result, scheme=args.scheme, json_out=args.json,
                  quiet=args.quiet)
    return 0 if result.success else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
