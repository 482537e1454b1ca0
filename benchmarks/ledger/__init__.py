"""The repo's one layered performance ledger (see README.md here).

Six named workloads run through ``ExecutionBackend.run(graph, spec)``
on both backends; end-to-end metrics are taken with tracing off, a
second traced phase attributes the time to layers.  ``BENCHMARK.json``
at the repo root is the machine-readable contract for this package.
"""
