"""Observability: histograms, trace spans, metrics registry, admin HTTP.

The service layers (PR 2's server, PR 3's cluster, PR 5's worker
subprocesses) report *counters* well but say nothing about latency
shape, and nothing connects one reconciliation session's work across
the client, server, and shard-worker processes.  This package is the
telemetry tier that the ROADMAP's next stage (replication cutover
timing, metrics-driven autoscaling) reads from:

* :mod:`repro.obs.histogram` — a log-linear fixed-bucket latency
  histogram (p50/p95/p99/p999 without storing samples, mergeable
  across processes);
* :mod:`repro.obs.metrics` — the process-global registry of named
  histograms that every layer records into and
  :meth:`~repro.service.metrics.ServiceMetrics.snapshot` reads from;
* :mod:`repro.obs.trace` — trace-context minting/propagation and
  Chrome-trace-event span emission (``repro serve --trace-dir``);
* :mod:`repro.obs.logs` — stdlib ``logging`` wiring with component
  loggers, an optional JSON formatter, and the slow-op threshold
  (``--log-level`` / ``--log-json``);
* :mod:`repro.obs.admin` — the live admin endpoint
  (``repro serve --admin-port``): ``/metrics`` (Prometheus text),
  ``/healthz`` (liveness, non-200 while a shard is shedding) and
  ``/varz`` (the JSON metrics snapshot).

Everything here is off (and costs nothing measurable) until switched
on: spans are no-ops without a configured trace dir, the admin server
only exists under ``--admin-port``, and histogram recording is a few
arithmetic ops on already-coarse events (sessions, batches, commits).
"""
