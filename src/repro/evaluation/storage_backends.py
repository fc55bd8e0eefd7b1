"""Storage backend comparison: journal files vs the SQLite store.

The journal backend replays every byte into RAM at open, so a shard's
memory is proportional to everything it has ever been asked to hold; the
SQLite backend (:mod:`repro.cluster.sqlite`) keeps the durable truth on
disk and materializes sets lazily, so memory is proportional to the
*working set*.  This driver measures both claims with real processes:

* **populate** — a fresh child process writes N sets of M elements, a
  round of apply-diffs, and a tail of :data:`REPLAY_TAIL` one-element
  diffs on one set through one shard backend, reporting write
  throughput and its own peak RSS (``ru_maxrss``);
* **serve** — a second child process opens the populated shard (the
  recovery path: the journal replays every record, diff tail included,
  so ``recover_s`` carries the per-diff replay cost), reads a small
  working set of sets bit-for-bit, and reports recovery time and peak
  RSS.

Each phase runs in its own child so ``ru_maxrss`` — a process-lifetime
high-water mark — measures exactly one backend in exactly one phase.
The headline column is the serve phase's ``rss_delta_mb`` against
``materialized_mb_est`` (what holding every element in the store's
``uint64`` arrays costs): the journal holds the whole store, plus the
transient buffers of replay; SQLite's delta tracks the working set —
that gap is the bigger-than-RAM headroom ``repro serve --storage
sqlite`` buys.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

from repro.cluster.storage import BACKEND_NAMES
from repro.evaluation.harness import ExperimentTable, scaled

COLUMNS = [
    "backend", "phase", "sets", "elements", "ok", "wall_s",
    "elems_per_s", "recover_s", "disk_mb", "rss_peak_mb", "rss_delta_mb",
    "materialized_mb_est",
]

#: Sets the serve phase actually reads — the "working set".
TOUCH_SETS = 8

#: Per-element cost of a materialized set: one ``uint64`` in the
#: store's element array.  Used only for the ``materialized_mb_est``
#: yardstick column.
BYTES_PER_ELEMENT_EST = 8

#: One-element diffs applied to the first set at the end of populate.
REPLAY_TAIL = 2000


def _values(index: int, size: int) -> range:
    # disjoint, deterministic, no RNG cost in the measured window
    return range(index << 32, (index << 32) + size)


def _tail(n_sets: int, i: int) -> int:
    """The element the ``i``-th tail diff adds (the next one removes it)."""
    return ((n_sets + TOUCH_SETS) << 32) + i


def _child_main(argv) -> None:
    """One measured phase in an isolated process; JSON on stdout."""
    import resource
    import time

    from repro.cluster.storage import open_backend
    from repro.core.elements import element_array

    backend_name, directory, phase, n_sets, set_size = (
        argv[0], argv[1], argv[2], int(argv[3]), int(argv[4]),
    )
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    out = {"ok": True, "recover_s": 0.0}
    start = time.perf_counter()
    if phase == "populate":
        backend = open_backend(backend_name, directory)
        store = backend.open_store()
        for i in range(n_sets):              # durable first, then memory
            values = element_array(_values(i, set_size))
            backend.record_create(f"set-{i:05d}", values)
            store.create(f"set-{i:05d}", values)
        for i in range(TOUCH_SETS):          # a round of real apply-diffs
            add = element_array(_values(n_sets + i, 16))
            remove = element_array(_values(i, 8))
            backend.record_diff(f"set-{i:05d}", add, remove)
            store.apply_diff(f"set-{i:05d}", add=add, remove=remove)
        for i in range(REPLAY_TAIL):         # the replay tail
            add = element_array([_tail(n_sets, i)])
            remove = element_array([_tail(n_sets, i - 1)] if i else [])
            backend.record_diff("set-00000", add, remove)
            store.apply_diff("set-00000", add=add, remove=remove)
        if not backend.compact_from_entries:
            backend.compact()                # checkpoint the WAL
        backend.close()
    elif phase == "serve":
        t0 = time.perf_counter()
        backend = open_backend(backend_name, directory)
        store = backend.open_store()         # journal: full replay here
        out["recover_s"] = time.perf_counter() - t0
        for i in range(TOUCH_SETS):          # the working set, verified
            expected = (
                set(_values(i, set_size)) - set(_values(i, 8))
            ) | set(_values(n_sets + i, 16))
            if i == 0:
                expected.add(_tail(n_sets, REPLAY_TAIL - 1))
            if store.get(f"set-{i:05d}") != expected:
                out["ok"] = False
        if len(store.names()) != n_sets:
            out["ok"] = False
        backend.close()
    else:
        raise SystemExit(f"unknown phase {phase!r}")
    out["wall_s"] = time.perf_counter() - start
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["rss_peak_kib"] = rss1
    out["rss_delta_kib"] = max(0, rss1 - rss0)
    print(json.dumps(out))


def _run_child(backend: str, directory: str, phase: str, n_sets: int,
               set_size: int) -> dict:
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.evaluation.storage_backends",
            "--child", backend, directory, phase, str(n_sets),
            str(set_size),
        ],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def _disk_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def run(n_sets: int | None = None, set_size: int | None = None,
        backends=BACKEND_NAMES) -> ExperimentTable:
    """Populate-then-serve both backends at identical scale.

    Defaults put the full materialization well past the serve child's
    baseline RSS (~150 sets x 4000 elements ~= 50 MB estimated) so the
    journal/SQLite residency gap is unambiguous; ``REPRO_SCALE`` moves
    both phases together.
    """
    n_sets = n_sets if n_sets is not None else scaled(150, minimum=24)
    set_size = set_size if set_size is not None else scaled(4000, minimum=500)
    elements = n_sets * set_size
    est_mb = elements * BYTES_PER_ELEMENT_EST / 1e6
    table = ExperimentTable(
        name="Shard storage backends: write throughput and RAM residency",
        columns=COLUMNS,
    )
    for backend in backends:
        with TemporaryDirectory(prefix=f"bench-storage-{backend}-") as tmp:
            for phase in ("populate", "serve"):
                result = _run_child(backend, tmp, phase, n_sets, set_size)
                table.add_row(
                    backend=backend,
                    phase=phase,
                    sets=n_sets,
                    elements=elements,
                    ok=result["ok"],
                    wall_s=result["wall_s"],
                    elems_per_s=(
                        elements / result["wall_s"] if result["wall_s"]
                        else 0.0
                    ),
                    recover_s=result["recover_s"],
                    disk_mb=_disk_bytes(Path(tmp)) / 1e6,
                    rss_peak_mb=result["rss_peak_kib"] / 1024,
                    rss_delta_mb=result["rss_delta_kib"] / 1024,
                    materialized_mb_est=est_mb,
                )
    table.note(
        f"{n_sets} sets x {set_size} elements (~{est_mb:.1f} MB as uint64 "
        f"arrays), plus {REPLAY_TAIL} one-element diffs on one set; one "
        f"fresh child process per (backend, phase) so ru_maxrss isolates "
        f"each measurement; the serve phase recovers the shard and reads "
        f"{TOUCH_SETS} sets bit-for-bit.  The journal backend replays "
        "every record into RAM at open (rss_delta is the store's arrays "
        "plus the transient replay buffers, so it sits above "
        "materialized_mb_est; recover_s includes the diff tail); the "
        "SQLite backend faults in only the working set, so the same data "
        "dir serves from a small, flat footprint — stores larger than "
        "RAM stay servable with `repro serve --storage sqlite`."
    )
    return table


if __name__ == "__main__":  # pragma: no cover - manual / child entry point
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        _child_main(sys.argv[2:])
    else:
        run().print()
