"""The ledger's workloads, and the driver that runs them against a live server.

One run of one workload:

1. Generate the workload's sets from ``(seed, workload)`` and write them
   as signature files for ``repro serve --set``.
2. Run ``reps`` slices (:func:`run_slice`), each one server lifetime:
   spawn a fresh ``repro serve`` subprocess on a fresh data directory,
   wait for its port, and run the warm-up sessions; spawn to the end of
   the first one is one ``setup_s`` sample.  Then measure an equal share
   of the run from a single-process asyncio driver over loopback: a
   closed loop on one connection that runs a fixed number of sessions,
   or an open loop that starts sessions on a fixed schedule.  SIGTERM
   the server; it must exit 0 within :data:`SHUTDOWN_TIMEOUT_S`.

Each session is two-sided: the client presents the driver's mirror of
the server set with ``floor(d/2)`` elements removed and ``ceil(d/2)``
fresh ones added, and the driver checks the recovered difference, the
server's set size before and after, and the applied count against that
mirror.  Warm-up sessions go through the same mirror, so the mirror
always equals the server's set.  Sessions on one set are serialized in
arrival order by a FIFO lock; at most :data:`MAX_IN_FLIGHT` connections
are open at once.

Every input derives only from ``(seed, workload, stream, index)``
through :func:`rng_for`, and the server sees only the generated inputs.
"""

from __future__ import annotations

import asyncio
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ledger_trace import CLIENT_TARGETS, SpanRecorder, load_rows, summarize
from repro.service.client import ClientConnection

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
SRC = ROOT / "src"
#: everything a run writes lives under here (gitignored)
OUT_DIR = LEDGER_DIR / "out"

#: Connections in flight at once: the host's core count (2), so the
#: driver never queues more concurrent work than the machine can run.
MAX_IN_FLIGHT = 2
LOG_U = 32
#: Failure deadlines, short enough that three slices against a hung
#: server still end within the 180 s a run may take.
CONNECT_TIMEOUT_S = 10.0
SESSION_TIMEOUT_S = 30.0
#: extra time after the horizon for open-loop sessions to finish
DRAIN_S = 30.0
#: a closed-loop slice that has not finished its sessions by then fails
CLOSED_TIMEOUT_S = 40.0
STARTUP_TIMEOUT_S = 120.0
SHUTDOWN_TIMEOUT_S = 10.0

_SERVING = re.compile(rb"# serving on [^\s:]+:(\d+)")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sets: int
    set_size: int
    loop: str                  #: "closed" (one connection) or "open"
    rate: float                #: open loop: offered sessions per second
    diff: tuple                #: ("fixed", d) or ("geometric", mean d)
    zipf_s: float              #: set popularity skew; 0 = uniform
    serve_args: tuple = ()     #: "{data}" expands to the data directory
    sessions: int = 0          #: closed loop: measured sessions per run


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="bigset",
            why="4 in-memory sets of 10^5, d=200, closed loop on 1 "
                "connection: per-element Bob work (ToW, snapshot, set to "
                "array, partition) dominates",
            sets=4, set_size=100_000, loop="closed", rate=0.0,
            diff=("fixed", 200), zipf_s=0.0, sessions=39,
        ),
        Workload(
            name="smallset-durable",
            why="256 fsync-journaled quorum-replicated sets of 10^3, "
                "Zipf(1.1), d~geometric(8), open loop at 20/s: fixed "
                "per-session costs and the durable write path dominate",
            sets=256, set_size=1_000, loop="open", rate=20.0,
            diff=("geometric", 8.0), zipf_s=1.1,
            serve_args=("--data-dir", "{data}", "--fsync", "--shards", "1",
                        "--replicas", "1", "--replication", "quorum"),
        ),
        Workload(
            name="midset-proc",
            why="64 SQLite-backed sets of 10^4 on 2 worker processes, "
                "d=1000, open loop at 3/s: the worker-RPC path, the "
                "second storage backend, and per-round encode/decode",
            sets=64, set_size=10_000, loop="open", rate=3.0,
            diff=("fixed", 1000), zipf_s=0.0,
            serve_args=("--workers", "proc", "--shards", "2", "--data-dir",
                        "{data}", "--storage", "sqlite"),
        ),
    )
}


# -- seeded inputs ---------------------------------------------------------------

def rng_for(seed: int, *labels: object) -> np.random.Generator:
    """The generator for one input stream; string labels hash by CRC-32."""
    words = [
        zlib.crc32(label.encode()) if isinstance(label, str) else int(label)
        for label in labels
    ]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))


def initial_set(seed: int, wl: Workload, index: int) -> np.ndarray:
    """Set ``index``'s starting contents: sorted distinct uint32 values."""
    rng = rng_for(seed, wl.name, "set", index)
    pool = np.empty(0, dtype=np.uint64)
    while len(pool) < wl.set_size:
        draw = rng.integers(1, 1 << LOG_U, size=wl.set_size + 64,
                            dtype=np.uint64)
        pool = np.unique(np.concatenate([pool, draw]))
    return np.sort(rng.choice(pool, size=wl.set_size, replace=False))


def set_name(index: int) -> str:
    return f"s{index:04d}"


@dataclass(frozen=True)
class Plan:
    """One session, fixed before the run: which set, how big a change,
    and (open loop) its intended start offset from the run's start."""

    stream: str
    index: int
    set_index: int
    d: int
    offset_s: float = 0.0


def _zipf_cdf(n: int, s: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -s
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


def make_plan(seed: int, wl: Workload, stream: str, index: int,
              offset_s: float = 0.0) -> Plan:
    rng = rng_for(seed, wl.name, stream, index)
    if wl.zipf_s > 0:
        set_index = int(np.searchsorted(
            _zipf_cdf(wl.sets, wl.zipf_s), rng.random(), side="right"
        ))
    else:
        set_index = int(rng.integers(wl.sets))
    kind, size = wl.diff
    d = int(size) if kind == "fixed" else int(rng.geometric(1.0 / size))
    return Plan(stream, index, set_index, d, offset_s)


def slice_sessions(wl: Workload, seconds: float, share: float) -> int:
    """Measured sessions of a slice that runs ``share`` of a run of
    ``seconds``: its share of a closed loop's fixed count, or an open
    loop's arrivals at the offered rate.  Neither depends on how fast
    the server is."""
    total = wl.sessions if wl.loop == "closed" else wl.rate * seconds
    return max(1, round(total * share))


def open_schedule(seed: int, wl: Workload, stream: str, seconds: float,
                  count: int) -> list[Plan]:
    """``count`` arrivals at uniform random times (a Poisson process
    conditioned on its count), stretched so the last one arrives at the
    end of the ``seconds`` horizon.  Every seed offers the same count
    over the same span, so completions per second move only when
    sessions finish late."""
    draws = np.sort(
        rng_for(seed, wl.name, stream + "-arrivals").uniform(size=count)
    )
    offsets = draws * (seconds / draws[-1])
    return [
        make_plan(seed, wl, stream, i, float(offset))
        for i, offset in enumerate(offsets)
    ]


def session_inputs(seed: int, wl: Workload, plan: Plan, mirror: np.ndarray):
    """Client set, removed elements, fresh elements and client seed."""
    rng = rng_for(seed, wl.name, plan.stream + "-inputs", plan.index)
    n_remove = plan.d // 2
    n_fresh = plan.d - n_remove
    pick = rng.choice(len(mirror), size=n_remove, replace=False)
    removed = mirror[np.sort(pick)]
    fresh = np.empty(0, dtype=np.uint64)
    while len(fresh) < n_fresh:
        draw = np.concatenate([
            fresh,
            rng.integers(1, 1 << LOG_U, size=2 * n_fresh + 8,
                         dtype=np.uint64),
        ])
        draw = draw[~np.isin(draw, mirror)]
        _, first = np.unique(draw, return_index=True)
        fresh = draw[np.sort(first)]
    fresh = fresh[:n_fresh]
    client = np.union1d(np.delete(mirror, pick), fresh)
    return client, removed, fresh, int(rng.integers(1 << 62))


# -- one session -------------------------------------------------------------------

@dataclass
class Outcome:
    plan: Plan
    ok: bool = False
    error: str = ""
    success: bool = False
    latency_s: float = 0.0
    lag_s: float = 0.0
    rounds: int = 0
    payload_bytes: int = 0
    frames: int = 0
    framing_bytes: int = 0
    done_at: float = 0.0


def check_result(result, mirror: np.ndarray, removed: np.ndarray,
                 fresh: np.ndarray) -> str:
    """Why ``result`` disagrees with the driver's ground truth ("" = it
    agrees).  An incomplete session (``success=False``) must leave the
    server set untouched."""
    extra = result.extra
    if extra.get("server_set_size") != len(mirror):
        return (f"server set size {extra.get('server_set_size')} != "
                f"mirror {len(mirror)}")
    if not result.success:
        if extra.get("server_set_size_after") != len(mirror):
            return "incomplete session changed the server set"
        return ""
    expected = set(removed.tolist()) | set(fresh.tolist())
    if set(result.difference) != expected:
        return "wrong difference"
    if extra.get("applied") != len(fresh):
        return f"applied {extra.get('applied')} != {len(fresh)} pushed"
    if extra.get("server_set_size_after") != len(mirror) + len(fresh):
        return "server set size after push != mirror"
    return ""


class Driver:
    """Runs sessions against one server, keeping the per-set mirrors."""

    def __init__(self, seed: int, wl: Workload, port: int,
                 mirrors: list[np.ndarray]) -> None:
        self.seed = seed
        self.wl = wl
        self.port = port
        self.mirrors = mirrors

    async def session(self, plan: Plan, origin: float | None) -> Outcome:
        """One session; latency counts from ``origin`` (the intended
        start) or, when None, from the dial."""
        mirror = self.mirrors[plan.set_index]
        client, removed, fresh, client_seed = session_inputs(
            self.seed, self.wl, plan, mirror
        )
        out = Outcome(plan)
        start = time.monotonic() if origin is None else origin
        conn = ClientConnection(
            "127.0.0.1", self.port, set_name=set_name(plan.set_index),
            seed=client_seed, family="fast", log_u=LOG_U,
            connect_timeout=CONNECT_TIMEOUT_S,
        )
        try:
            result = await asyncio.wait_for(
                self._sync(conn, client), SESSION_TIMEOUT_S
            )
        except Exception as exc:   # any failure is a counted, failed session
            out.error = f"{type(exc).__name__}: {exc}"
            return out
        out.done_at = time.monotonic()
        out.latency_s = out.done_at - start
        out.success = result.success
        out.rounds = result.rounds
        out.payload_bytes = result.channel.total_bytes
        out.frames = result.channel.frames
        out.framing_bytes = result.channel.framing_bytes
        out.error = check_result(result, mirror, removed, fresh)
        out.ok = not out.error
        if out.ok and result.success:
            self.mirrors[plan.set_index] = np.union1d(mirror, fresh)
        return out

    @staticmethod
    async def _sync(conn: ClientConnection, values: np.ndarray):
        try:
            await conn.connect()
            return await conn.sync(values)
        finally:
            await conn.close()

    async def closed_loop(self, stream: str, count: int):
        """``count`` back-to-back sessions on one connection; sessions
        not started by :data:`CLOSED_TIMEOUT_S` fail.  Returns
        (outcomes, t0, t_end)."""
        outcomes: list[Outcome] = []
        t0 = time.monotonic()
        for index in range(count):
            plan = make_plan(self.seed, self.wl, stream, index)
            if time.monotonic() - t0 >= CLOSED_TIMEOUT_S:
                outcomes.append(Outcome(plan, error="not run: slice timeout"))
                continue
            outcomes.append(await self.session(plan, None))
        return outcomes, t0, _end_of(outcomes, t0)

    async def open_loop(self, plans: list[Plan], seconds: float):
        """Start each session at its intended time whatever the server
        does; returns (outcomes, t0, t_end)."""
        locks: dict[int, asyncio.Lock] = {}
        slots = asyncio.Semaphore(MAX_IN_FLIGHT)
        tasks: dict[asyncio.Task, Plan] = {}
        t0 = time.monotonic()
        for plan in plans:
            intended = t0 + plan.offset_s
            delay = intended - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            lag = time.monotonic() - intended
            lock = locks.setdefault(plan.set_index, asyncio.Lock())
            task = asyncio.create_task(
                self._scheduled(plan, intended, lag, lock, slots)
            )
            tasks[task] = plan
        done, pending = await asyncio.wait(
            tasks, timeout=max(0.0, t0 + seconds + DRAIN_S - time.monotonic())
        )
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        outcomes = [task.result() for task in done] + [
            Outcome(tasks[task], error="abandoned at drain timeout")
            for task in pending
        ]
        outcomes.sort(key=lambda o: o.plan.index)
        return outcomes, t0, _end_of(outcomes, t0)

    async def _scheduled(self, plan: Plan, intended: float, lag: float,
                         lock: asyncio.Lock,
                         slots: asyncio.Semaphore) -> Outcome:
        # the set lock first: queued sessions of one set must not hold
        # connection slots other sets could use
        async with lock:
            async with slots:
                out = await self.session(plan, intended)
        out.lag_s = lag
        return out


def _end_of(outcomes: list[Outcome], t0: float) -> float:
    return max((o.done_at for o in outcomes if o.done_at), default=t0)


# -- the server process ----------------------------------------------------------

def _proc_stat(pid: int) -> list[str] | None:
    """Fields of /proc/PID/stat after the command name, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _proc_stat(int(entry.name))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry.name))
    tree, queue = [], [root]
    while queue:
        pid = queue.pop()
        tree.append(pid)
        queue.extend(children.get(pid, []))
    return tree


def cpu_seconds(pids: list[int]) -> float:
    """utime + stime of ``pids``."""
    ticks = 0
    for pid in pids:
        fields = _proc_stat(pid)
        if fields is not None:
            ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of VmHWM (peak resident set) over ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


def _alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


@dataclass(frozen=True)
class Placement:
    """Which cores the driver and the server's event loop run on.

    The vCPUs of a shared host can run at different speeds (a busy
    sibling hyperthread); a process the scheduler moves between them
    changes speed mid-run.  Pinning the driver to one core and the
    server process to another keeps each on one speed.  Shard worker
    processes stay free to use every core, as spreading work across
    cores is what the proc executor is for.
    """

    driver: frozenset
    server: frozenset
    every: frozenset

    @classmethod
    def for_host(cls) -> "Placement | None":
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return None
        return cls(frozenset(cpus[:1]), frozenset(cpus[1:2]),
                   frozenset(cpus))


class Server:
    """One ``repro serve`` subprocess, optionally under traced_serve.py.

    Its stderr goes to a file: the shutdown metrics dump of a server
    with hundreds of sets fills a pipe and would hang the exit.
    """

    def __init__(self, wl: Workload, work: Path, set_files: list[Path],
                 traced: bool, placement: Placement | None = None) -> None:
        self.placement = placement
        self.data = work / "data"
        self.log_path = work / "serve.log"
        self.spans_path = work / "spans.json" if traced else None
        args = ["serve", "--port", "0"]
        args += [a.replace("{data}", str(self.data)) for a in wl.serve_args]
        args += [f"--set={set_name(i)}={path}"
                 for i, path in enumerate(set_files)]
        if traced:
            self.cmd = [sys.executable, str(LEDGER_DIR / "traced_serve.py"),
                        str(self.spans_path), *args]
        else:
            self.cmd = [sys.executable, "-m", "repro", *args]
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        shutil.rmtree(self.data, ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.cmd, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, env=env, cwd=ROOT,
            )
        if self.placement is not None:
            os.sched_setaffinity(self.proc.pid, self.placement.server)
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _SERVING.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                if self.placement is not None:
                    for pid in self.tree()[1:]:
                        try:
                            os.sched_setaffinity(pid, self.placement.every)
                        except OSError:
                            pass   # exited meanwhile
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.kill()
        raise RuntimeError(
            f"server did not come up; log tail:\n{self.log_tail()}"
        )

    def tree(self) -> list[int]:
        return process_tree(self.proc.pid) if self.proc else []

    def stop(self) -> int | None:
        """SIGTERM; the exit code, or None if it needed a SIGKILL."""
        if self.proc is None:
            return None
        pids = self.tree()
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        self._reap(pids)
        return code

    def kill(self) -> None:
        if self.proc is not None:
            self._reap(self.tree())

    def _reap(self, pids: list[int]) -> None:
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.02)
        for pid in pids:
            if _alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.proc.wait()
        self.proc = None

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])


# -- one run -----------------------------------------------------------------------

@dataclass
class RunOptions:
    seconds: float              #: the open loops' window over a whole run
    trace: bool = False
    #: untraced server lifetimes per run: each gives one set-up sample
    #: and measures an equal share of the run
    reps: int = 3
    max_sessions: int = 0       #: cap on measured sessions per slice
    warmup_sessions: int = 2
    placement: Placement | None = None


@dataclass
class Slice:
    """What one server lifetime measured."""

    traced: bool
    setup_s: float = 0.0
    exit_code: int | None = None
    outcomes: list[Outcome] = field(default_factory=list)
    warmup_failures: list[str] = field(default_factory=list)
    t0: float = 0.0
    t_end: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    #: traced slice: per span name summaries, and the raw span rows
    spans: dict = field(default_factory=dict)
    span_rows: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Every session right, every warm-up right, a clean exit."""
        return (all(o.ok for o in self.outcomes)
                and not self.warmup_failures and self.exit_code == 0)


def write_sets(seed: int, wl: Workload, work: Path) -> list[np.ndarray]:
    sets = [initial_set(seed, wl, i) for i in range(wl.sets)]
    (work / "sets").mkdir(parents=True, exist_ok=True)
    for i, values in enumerate(sets):
        (work / "sets" / f"{set_name(i)}.txt").write_text(
            "\n".join(map(str, values.tolist())) + "\n"
        )
    return sets


def run_slice(seed: int, wl: Workload, work: Path, sets: list[np.ndarray],
              stream: str, share: float, opts: RunOptions,
              traced: bool = False) -> Slice:
    """Spawn a fresh server, warm it up (the first warm-up session ends
    the set-up time), measure ``share`` of a run of the ``stream``
    sessions, and shut it down."""
    out = Slice(traced=traced)
    set_files = [work / "sets" / f"{set_name(i)}.txt" for i in range(wl.sets)]
    server = Server(wl, work, set_files, traced, opts.placement)
    spawned = time.monotonic()
    server.start()
    try:
        # every slice starts from the generated sets, so warm-ups (and
        # hence the set-up samples) are the same sessions in each slice
        driver = Driver(seed, wl, server.port, list(sets))
        for k in range(max(1, opts.warmup_sessions)):
            warm = asyncio.run(
                driver.session(make_plan(seed, wl, "warmup", k), None)
            )
            if k == 0:
                out.setup_s = time.monotonic() - spawned
            if not warm.ok:
                out.warmup_failures.append(warm.error)
        _measure(seed, wl, server, driver, out, stream, share, opts)
    finally:
        out.exit_code = server.stop()
    if traced:
        window = (int(out.t0 * 1e9), int(out.t_end * 1e9))
        out.span_rows["server"] = load_rows(server.spans_path)
        out.spans = summarize(out.span_rows["server"], *window)
        out.spans.update(summarize(out.span_rows["client"], *window))
    return out


def _measure(seed: int, wl: Workload, server: Server, driver: Driver,
             out: Slice, stream: str, share: float,
             opts: RunOptions) -> None:
    count = slice_sessions(wl, opts.seconds, share)
    if opts.max_sessions:
        count = min(count, opts.max_sessions)
    recorder = SpanRecorder() if out.traced else None
    if recorder is not None:
        recorder.install(CLIENT_TARGETS)
    try:
        pids = server.tree()
        cpu0 = cpu_seconds(pids)
        if wl.loop == "closed":
            run = driver.closed_loop(stream, count)
        else:
            seconds = opts.seconds * share
            run = driver.open_loop(
                open_schedule(seed, wl, stream, seconds, count), seconds
            )
        out.outcomes, out.t0, out.t_end = asyncio.run(run)
        out.cpu_s = cpu_seconds(pids) - cpu0
        out.rss_mb = peak_rss_mb(pids)
    finally:
        if recorder is not None:
            recorder.uninstall()
            out.span_rows["client"] = recorder.rows()


def run_workload(seed: int, wl: Workload,
                 opts: RunOptions) -> tuple[list[Slice], Slice | None]:
    """The untraced slices of one run and, with ``opts.trace``, the
    traced slice.  A traced run measures the same sessions twice, half
    the run each: untraced, then traced."""
    work = OUT_DIR / "work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sets = write_sets(seed, wl, work)
    if opts.trace:
        base = [run_slice(seed, wl, work, sets, "rep0", 0.5, opts)]
        traced = run_slice(seed, wl, work, sets, "rep0", 0.5, opts,
                           traced=True)
    else:
        base = [
            run_slice(seed, wl, work, sets, f"rep{k}", 1 / opts.reps, opts)
            for k in range(opts.reps)
        ]
        traced = None
    if all(piece.ok for piece in base) and (traced is None or traced.ok):
        # a failed run keeps its server logs and data for diagnosis
        shutil.rmtree(work, ignore_errors=True)
    return base, traced
