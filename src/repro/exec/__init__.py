"""Pluggable execution backends (DESIGN.md §12).

The same per-node superstep protocols (:mod:`repro.exec.protocol`, and
its array image in :mod:`repro.engine.vectorized`) run on two backends:

* :mod:`repro.exec.simulator` — the deterministic in-process simulator
  (the ``Engine``), unchanged semantics for tests, chaos, and the cost
  model;
* :mod:`repro.exec.mp` — real ``multiprocessing.Process`` workers, one
  per cluster node, exchanging columnar batches over pipes, with real
  ``SIGKILL`` failures detected by heartbeat.

``repro.exec.base`` defines the :class:`~repro.exec.base.BackendSpec` /
:class:`~repro.exec.base.BackendRunResult` /
:class:`~repro.exec.base.ExecutionBackend` contracts;
``repro.exec.serialize`` is the frame codec for the columnar batch
types.

Every export resolves lazily: ``repro.engine.engine`` imports
``repro.exec.protocol``, which runs this ``__init__`` first, and the
backend modules import ``repro.api`` and through it the engine — an
eager ``__init__`` would turn that pair into an import cycle.
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
]

_EXPORTS = {
    "BackendError": "repro.exec.base",
    "BackendRunResult": "repro.exec.base",
    "BackendSpec": "repro.exec.base",
    "ExecutionBackend": "repro.exec.base",
    "MultiprocessingBackend": "repro.exec.mp",
    "NodeProtocol": "repro.exec.protocol",
    "SimulatorBackend": "repro.exec.simulator",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
