"""Pluggable execution backends (DESIGN.md §12).

The same per-node superstep protocols (:mod:`repro.exec.protocol`, and
its array image in :mod:`repro.engine.vectorized`) run on two backends:

* :mod:`repro.exec.simulator` — the deterministic in-process simulator
  (the ``Engine``), unchanged semantics for tests, chaos, and the cost
  model;
* :mod:`repro.exec.mp` — real ``multiprocessing.Process`` workers, one
  per cluster node, exchanging columnar batches over pipes, with real
  ``SIGKILL`` failures detected by heartbeat.

``repro.exec.base`` defines the shared :class:`~repro.exec.base.Transport`
frame contract and the :class:`~repro.exec.base.BackendSpec` /
:class:`~repro.exec.base.BackendRunResult` types; ``repro.exec.serialize``
is the frame codec for the four columnar batch types.

Every export resolves lazily: ``repro.cluster.network`` imports
``repro.exec.transport`` (for the extracted ``LocalHub`` queues) while
``repro.exec.protocol`` imports ``repro.cluster.network`` (for
``MessageKind``) — an eager package ``__init__`` would turn that pair
into an import cycle, and the backend modules would additionally drag
``repro.api`` back into the engine.
"""

from __future__ import annotations

__all__ = [
    "BackendError",
    "BackendRunResult",
    "BackendSpec",
    "ExecutionBackend",
    "MultiprocessingBackend",
    "NodeProtocol",
    "SimulatorBackend",
    "Transport",
]

_EXPORTS = {
    "BackendError": "repro.exec.base",
    "BackendRunResult": "repro.exec.base",
    "BackendSpec": "repro.exec.base",
    "ExecutionBackend": "repro.exec.base",
    "MultiprocessingBackend": "repro.exec.mp",
    "NodeProtocol": "repro.exec.protocol",
    "SimulatorBackend": "repro.exec.simulator",
    "Transport": "repro.exec.base",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
