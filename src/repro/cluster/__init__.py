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
  snapshot compaction (epoch-qualified file names, read-only replay
  for offline readers) — the in-RAM backend;
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
* :mod:`repro.cluster.config` — :class:`ClusterConfig`, the settings
  an operator chooses for a cluster, and :func:`open_cluster`, which
  builds one;
* :mod:`repro.cluster.router` — :class:`ClusterStore`, the store every
  server serves from (one shard worker per shard, a shard count fixed
  for the store's lifetime; a 1-shard memory cluster is what plain
  ``repro serve`` runs);
* :mod:`repro.cluster.proc` — the ``subprocess`` shard executor: shard
  workers in child processes speaking the service framing over their
  own stdin and stdout as an internal RPC, so BCH decode CPU scales
  across cores (``repro serve --workers proc``);
* :mod:`repro.cluster.replication` — per-shard follower replicas fed by
  logical-op log shipping with optional quorum acks
  (``repro serve --replicas R --replication quorum``), durable replica
  cursors, and cursor-based follower promotion when a primary stays
  down;
* :mod:`repro.cluster.admission` — per-shard session/decode caps that
  shed overload with the service's RETRY frame.
"""
