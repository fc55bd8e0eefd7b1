"""The reconciliation service: many concurrent PBS sessions over sockets.

Layers (bottom up):

* :mod:`repro.service.wire` — length-prefixed framing for the protocol
  messages, with payload-vs-framing byte accounting
  (:class:`FramedChannel`);
* :mod:`repro.service.store` — named set registry with
  snapshot-on-reconcile / apply-diff-on-completion semantics, the
  per-shard store inside :class:`~repro.cluster.router.ClusterStore`;
* :mod:`repro.service.scheduler` — the cross-session BCH decode
  coalescer that feeds :meth:`BCHCodec.decode_many` batches spanning
  sessions;
* :mod:`repro.service.metrics` — per-session and aggregate counters;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio server (one BobSession per connection, serving from a
  ``ClusterStore``) and client (one AliceSession), also reachable as
  ``repro serve`` / ``repro sync``.
"""
