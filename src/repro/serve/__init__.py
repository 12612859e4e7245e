"""The compile service: an async daemon around the optimizer.

``python -m repro.serve`` starts a newline-delimited-JSON socket server
that compiles Impala-lite sources through the full pipeline and replies
with artifacts — printed Thorin IR, C source, VM bytecode listing, and
the :class:`~repro.transform.pipeline.PipelineStats` record — at any of
the three optimization levels (``none``, ``static``, ``pgo``).

The interesting parts, each in its own module:

* :mod:`.protocol` — wire format: one JSON object per line, bounded
  line length, structured error replies; and the one server-side
  transport (:class:`~repro.serve.protocol.LineServer`) that the
  daemon and the router both extend;
* :mod:`.cache` — content-addressed artifact cache keyed by
  ``sha256(source × options × profile digest)``; in-memory LRU over an
  on-disk object store;
* :mod:`.worker` — the compile job itself, executed in crash-isolated
  forked workers (:mod:`repro.core.pool`) so a segfaulting pass kills
  one request, not the server;
* :mod:`.server` — asyncio front end: admission control with load
  shedding, single-flight coalescing of identical in-flight requests,
  introspection, clean SIGTERM shutdown;
* :mod:`.client` — a small blocking client for tests, benchmarks and
  scripts; retries ``overloaded`` replies with bounded
  backoff + jitter;
* :mod:`.router` — fleet front end: consistent-hash routing on the
  cache key over pooled pipelined shard connections, dead-shard
  redispatch, fleet-wide stats aggregation;
* :mod:`.fleet` — the fleet manager behind ``--shards N``: spawns and
  supervises N shard daemons (restart-on-crash with backoff,
  staggered SIGTERM drain) around one router;
* :mod:`.smoke` — the service driver (``--shards 0`` for a daemon,
  ``N`` for a fleet) and the ``boot`` helper benchmarks and tests use.

The package imports none of them: each process loads what it runs.  The
router holds the protocol, the key derivation and its metrics, and no
compiler; the shard daemon imports the whole compiler before it forks
its worker seats, so they inherit it (DESIGN.md §4e).
"""
