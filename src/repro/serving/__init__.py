"""Serving subsystem: workload fingerprints, schedule registry, tuning service.

Three layers turn the per-run tuner into a shared, reusable system:

* :mod:`repro.serving.fingerprint` — canonical label-invariant workload
  identity and similarity embeddings,
* :mod:`repro.serving.registry` — the persistent sharded best-schedule
  database with nearest-neighbour transfer lookup,
* :mod:`repro.serving.service` — the multi-tenant tuning front end with
  request coalescing,
* :mod:`repro.serving.server` / :mod:`repro.serving.netclient` — the
  long-running asyncio network front end (newline-delimited JSON-RPC over
  TCP) with admission control, per-tenant rate limits/quotas and degraded
  load shedding, plus the bounded-retry wire client,
* :mod:`repro.serving.loadgen` — the closed-loop Zipf/burst load generator
  behind ``make serve-load``.

This package imports none of its submodules: ``repro.records`` uses the
fingerprint helpers, and the registry and service build on
``repro.records``, so an eager import here would be circular.  Each name
is imported from its own submodule.
"""
