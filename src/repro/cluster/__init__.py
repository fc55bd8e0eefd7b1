"""The cluster layer: sharded, durable storage behind the service.

Pieces (bottom up):

* :mod:`repro.cluster.ring` — consistent-hash ring mapping set names to
  shards with minimal movement on resize (``diff`` computes the move
  plan between two layouts);
* :mod:`repro.cluster.storage` — the :class:`StorageBackend` contract:
  what it means to persist one shard (durable-before-visible ordering,
  iteration, staging, compaction), plus the durable-first mutation
  protocol;
* :mod:`repro.cluster.worker` — :class:`~repro.cluster.worker.
  ShardWorker`, the one shard worker (store, storage, ordered mutation
  loop, compaction) every primary and follower runs under both
  executors;
* :mod:`repro.cluster.journal` — :class:`JournalBackend`: per-shard
  append-only apply-diff journal with checksummed records and atomic
  snapshot compaction (epoch-qualified file names, offline replay
  helpers) — the in-RAM backend;
* :mod:`repro.cluster.sqlite` — :class:`SqliteBackend`: one WAL-mode
  SQLite file per shard with lazily materialized sets — the
  bigger-than-RAM backend (``repro serve --storage sqlite``);
* :mod:`repro.cluster.manifest` — the committed layout of a data
  directory (shard count, vnodes, layout epoch, storage backend);
  startup refuses a topology *or storage* mismatch instead of silently
  recovering sets empty;
* :mod:`repro.cluster.rebalance` — offline resize / backend conversion:
  replay through the committed backend, stage under the next epoch
  through the new one, commit via one atomic manifest replace
  (crash-safe, idempotent);
* :mod:`repro.cluster.config` — :class:`ClusterConfig`, every knob
  that shapes a cluster, and :func:`open_cluster`, which builds one;
* :mod:`repro.cluster.router` — :class:`ClusterStore`, the store every
  server serves from (one shard worker per shard, a shard count fixed
  for the store's lifetime; a 1-shard memory cluster is what plain
  ``repro serve`` runs);
* :mod:`repro.cluster.proc` — the ``subprocess`` shard executor: shard
  workers in child processes speaking the service framing as an
  internal RPC, so BCH decode CPU scales across cores
  (``repro serve --workers proc``);
* :mod:`repro.cluster.replication` — per-shard follower replicas fed by
  logical-op log shipping with optional quorum acks
  (``repro serve --replicas R --replication quorum``), durable replica
  cursors, and cursor-based follower promotion when a primary stays
  down;
* :mod:`repro.cluster.admission` — per-shard session/decode caps that
  shed overload with the service's RETRY frame.
"""

from repro.cluster.admission import (
    DEFAULT_RETRY_AFTER_S,
    AdmissionController,
    retry_delay,
)
from repro.cluster.config import (
    EXECUTORS,
    REPLICATION_MODES,
    ClusterConfig,
    open_cluster,
)
from repro.cluster.journal import (
    JournalBackend,
    JournalCorruptError,
    Record,
    encode_create,
    encode_diff,
    journal_filename,
    read_records,
    replay_shard,
    snapshot_filename,
    write_snapshot,
)
from repro.cluster.manifest import (
    MANIFEST_NAME,
    ClusterManifest,
    ManifestError,
    StorageMismatchError,
    TopologyMismatchError,
    load_manifest,
    write_manifest,
)
from repro.cluster.proc import (
    DEFAULT_RESTART_BACKOFF_S,
    WorkerSupervisor,
    WorkerUnavailableError,
    fork_safe_cpu_count,
)
from repro.cluster.rebalance import (
    RebalanceAborted,
    RebalanceResult,
    rebalance,
)
from repro.cluster.replication import (
    QuorumTimeoutError,
    ReplicationError,
    ShardReplication,
    elect_replica,
    probe_replica,
    quorum_size,
    read_cursor,
    write_cursor,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.router import ClusterStore
from repro.cluster.sqlite import SqliteBackend
from repro.cluster.storage import (
    BACKEND_NAMES,
    StorageBackend,
    StorageCorruptError,
    backend_class,
    open_backend,
)

__all__ = [
    "AdmissionController",
    "BACKEND_NAMES",
    "ClusterConfig",
    "ClusterManifest",
    "ClusterStore",
    "DEFAULT_RESTART_BACKOFF_S",
    "DEFAULT_RETRY_AFTER_S",
    "DEFAULT_VNODES",
    "EXECUTORS",
    "HashRing",
    "JournalBackend",
    "JournalCorruptError",
    "MANIFEST_NAME",
    "ManifestError",
    "QuorumTimeoutError",
    "REPLICATION_MODES",
    "RebalanceAborted",
    "RebalanceResult",
    "Record",
    "ReplicationError",
    "ShardReplication",
    "SqliteBackend",
    "StorageBackend",
    "StorageCorruptError",
    "StorageMismatchError",
    "TopologyMismatchError",
    "WorkerSupervisor",
    "WorkerUnavailableError",
    "backend_class",
    "elect_replica",
    "encode_create",
    "encode_diff",
    "fork_safe_cpu_count",
    "journal_filename",
    "load_manifest",
    "open_backend",
    "open_cluster",
    "probe_replica",
    "quorum_size",
    "read_cursor",
    "read_records",
    "rebalance",
    "replay_shard",
    "retry_delay",
    "snapshot_filename",
    "write_cursor",
    "write_manifest",
    "write_snapshot",
]

