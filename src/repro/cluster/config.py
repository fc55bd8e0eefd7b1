"""Cluster construction: one config object for every cluster knob.

:class:`ClusterConfig` gathers every knob that shapes a cluster into a
single validated, frozen dataclass, and :func:`open_cluster` is the
front door::

    from repro.cluster import ClusterConfig, open_cluster

    config = ClusterConfig(shards=4, storage="sqlite", fsync=True)
    async with open_cluster(data_dir, config) as store:
        ...

``data_dir`` stays a positional argument rather than a config field:
the config describes *how* a cluster behaves, the data dir says *which*
durable state it owns — the same config is routinely reused across
directories (tests, benchmarks, blue/green restarts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.proc import DEFAULT_RESTART_BACKOFF_S, DEFAULT_WINDOW_S
from repro.cluster.ring import DEFAULT_VNODES
from repro.cluster.storage import BACKEND_NAMES

#: Shard executor names — where each shard worker runs: ``inline`` (on
#: the server's event loop) or ``subprocess`` (in a worker child).
EXECUTORS = ("inline", "subprocess")

#: Replication durability modes: ``async`` ships the log to followers
#: after the primary ack (default), ``quorum`` withholds the ack until
#: a majority of replicas is durable (:mod:`repro.cluster.replication`).
REPLICATION_MODES = ("async", "quorum")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that shapes a :class:`~repro.cluster.router.ClusterStore`.

    Grouped by concern — topology (``shards``, ``vnodes``), storage
    (``storage`` backend name and ``fsync``), execution (``executor``
    and the worker knobs) and replication."""

    # -- topology --
    shards: int = 1
    vnodes: int = DEFAULT_VNODES
    # -- storage --
    storage: str = "journal"
    fsync: bool = False
    # -- execution --
    executor: str = "inline"
    #: each worker's decode-coalescing window (0 = decode each
    #: session separately)
    worker_window_s: float = DEFAULT_WINDOW_S
    restart_backoff_s: float = DEFAULT_RESTART_BACKOFF_S
    # -- replication --
    #: follower replicas per shard (0 = replication off; requires a
    #: data dir — replication ships durable state, so there must be
    #: durable state to ship)
    replicas: int = 0
    #: ack durability mode: ``async`` or ``quorum``
    replication: str = "async"
    #: consecutive failed primary-worker respawns before the
    #: supervisor promotes the most-advanced follower (proc executor)
    promote_after: int = 2

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {self.vnodes}")
        if self.storage not in BACKEND_NAMES:
            raise ValueError(
                f"unknown storage backend {self.storage!r}; expected one "
                f"of " + ", ".join(BACKEND_NAMES)
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.worker_window_s < 0:
            raise ValueError(
                f"worker_window_s must be >= 0, got {self.worker_window_s}"
            )
        if self.restart_backoff_s < 0:
            raise ValueError(
                f"restart_backoff_s must be >= 0, got "
                f"{self.restart_backoff_s}"
            )
        if self.replicas < 0:
            raise ValueError(f"replicas must be >= 0, got {self.replicas}")
        if self.replication not in REPLICATION_MODES:
            raise ValueError(
                f"replication must be one of {REPLICATION_MODES}, "
                f"got {self.replication!r}"
            )
        if self.replication == "quorum" and self.replicas < 1:
            raise ValueError(
                "replication='quorum' needs at least one follower "
                "(replicas >= 1); with no followers a quorum is just "
                "the primary, which is the async mode's guarantee"
            )
        if self.promote_after < 1:
            raise ValueError(
                f"promote_after must be >= 1, got {self.promote_after}"
            )


def open_cluster(data_dir=None, config: ClusterConfig | None = None):
    """Build a :class:`~repro.cluster.router.ClusterStore`.

    ``data_dir=None`` is a memory-only cluster.  The store is returned
    un-started; use ``async with`` (or ``await store.start()``) as
    before.  Imports the router lazily so config construction stays
    cheap for tooling."""
    from repro.cluster.router import ClusterStore

    return ClusterStore(data_dir=data_dir, config=config)
