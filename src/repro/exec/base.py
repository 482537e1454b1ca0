"""Execution-backend contracts (DESIGN.md §12).

An :class:`ExecutionBackend` turns ``(graph, BackendSpec)`` into a
:class:`BackendRunResult` whose fields are directly comparable across
backends — the cross-backend differential oracle asserts bit-identical
``values`` and equal logical-message accounting between the simulator
and the multiprocessing backend.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigError

#: The ``BackendSpec.serve`` keys that are not workload arguments.
SERVE_KEYS = frozenset(
    {"policy", "route_seed", "keep_responses", "expected_supersteps"}
)


class BackendError(RuntimeError):
    """A backend cannot run the spec — unsupported feature combination
    or a wedged/failed worker outside the recoverable protocol points."""


@dataclass(frozen=True)
class BackendSpec:
    """Backend-independent job description.

    Field names and defaults mirror :func:`repro.api.make_engine`, so a
    spec maps 1:1 onto a simulator engine; the multiprocessing backend
    builds the identical engine in the parent and forks its partitions
    into worker processes.  ``failures`` schedules fail-stop events as
    ``(iteration, (ranks...), phase)`` triples — cooperative crashes on
    the simulator, real ``SIGKILL`` on the multiprocessing backend.
    """

    algorithm: str
    num_nodes: int = 4
    partition: str = "hash_edge_cut"
    ft_mode: str = "replication"
    ft_level: int = 1
    recovery: str = "rebirth"
    max_iterations: int = 30
    sync_elision: bool = True
    vectorized: bool = True
    #: Message-combining layer (DESIGN.md §15): off ships raw per-edge
    #: gather contributions instead of sender-folded partials.
    combining: bool = True
    num_standby: int = 1
    seed: int = 2014
    #: Sorted ``(key, value)`` pairs forwarded to the vertex program
    #: (e.g. ``(("source", 3),)`` for SSSP); a tuple so specs stay
    #: hashable.
    algorithm_kwargs: tuple = ()
    failures: tuple = ()
    #: Elastic-membership schedule (DESIGN.md §14): sorted
    #: ``(iteration, kind, target)`` or ``(iteration, kind, target,
    #: count)`` tuples with kind one of ``join`` / ``drain`` / ``flap``
    #: (``target`` is ignored for joins — pass ``None``).
    membership: tuple = ()
    #: Adaptive replication-floor band (replication mode only); both
    #: ``None`` keeps the static ``ft_level`` floor.
    ft_level_min: int | None = None
    ft_level_max: int | None = None
    #: Failure-detector tuning overrides; ``None`` keeps each backend's
    #: default (the simulator's ``ClusterConfig`` values, or the
    #: multiprocessing backend's wall-clock-calibrated
    #: ``MP_HEARTBEAT_*`` constants from :mod:`repro.config`).
    heartbeat_interval_s: float | None = None
    heartbeat_misses: int | None = None
    #: Sorted ``(key, value)`` pairs configuring the online
    #: read-serving layer (DESIGN.md §13); empty = no serving.  Keys
    #: mix :class:`repro.serve.workload.OpenLoopWorkload` arguments
    #: (``num_queries``, ``qps``, ``zipf_s``, ``seed``, ...) with the
    #: routing knobs ``policy`` and ``route_seed``, the cursor's
    #: ``expected_supersteps`` (defaults to ``max_iterations``) and
    #: ``keep_responses`` (default ``True``; ``False`` keeps counts and
    #: latencies but no response columns).  Any other key is a
    #: ``ConfigError``.  Both backends build the same workload and
    #: report the same ``extra["serve"]`` shape.
    serve: tuple = ()

    def serve_config(self) -> dict | None:
        """The serve kv-pairs as a dict, or ``None`` when not serving."""
        if not self.serve:
            return None
        # Deferred: ``repro.serve`` imports the engine, which imports
        # this module.
        from repro.serve.workload import WORKLOAD_KEYS

        cfg = dict(self.serve)
        unknown = sorted(set(cfg) - WORKLOAD_KEYS - SERVE_KEYS)
        if unknown:
            known = sorted(WORKLOAD_KEYS | SERVE_KEYS)
            raise ConfigError(f"unknown serve key(s) {unknown}; expected {known}")
        cfg.setdefault("expected_supersteps", self.max_iterations)
        return cfg

    def engine_kwargs(self) -> dict:
        """The :func:`repro.api.make_engine` keyword arguments."""
        return {
            "algorithm": self.algorithm,
            "num_nodes": self.num_nodes,
            "partition": self.partition,
            "ft_mode": self.ft_mode,
            "ft_level": self.ft_level,
            "recovery": self.recovery,
            "max_iterations": self.max_iterations,
            "sync_elision": self.sync_elision,
            "vectorized": self.vectorized,
            "combining": self.combining,
            "num_standby": self.num_standby,
            "seed": self.seed,
            "algorithm_kwargs": dict(self.algorithm_kwargs),
            "membership": self.membership,
            "ft_level_min": self.ft_level_min,
            "ft_level_max": self.ft_level_max,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "heartbeat_misses": self.heartbeat_misses,
        }


@dataclass
class BackendRunResult:
    """Cross-backend-comparable outcome of one job run.

    ``values`` maps every vertex gid to its committed value;
    ``msgs_by_kind`` counts logical records per message kind (string
    keys, the paper's message unit); ``total_batches`` counts physical
    transfers.  The differential oracle compares ``values``,
    ``total_msgs``, ``msgs_by_kind`` and ``syncs_elided`` exactly.
    ``failures_recovered`` counts engine recovery events, however many
    ranks each covered; ``extra["recoveries"]`` lists them.
    """

    backend: str
    values: dict[int, Any]
    iterations: int
    total_msgs: int
    total_bytes: int
    total_batches: int
    msgs_by_kind: dict[str, int]
    syncs_elided: int
    wall_s: float
    halted: bool
    failures_recovered: int = 0
    #: Physical gather records saved by combining (pre-combine minus
    #: on-the-wire; DESIGN.md §15) and the corresponding ratio.
    combined_records: int = 0
    combine_ratio: float = 1.0
    extra: dict = field(default_factory=dict)


def recoveries_report(recoveries) -> list[dict]:
    """``extra["recoveries"]``: one dict per engine recovery event
    (:class:`repro.ft.recovery.RecoveryStats`), same shape on every
    backend."""
    return [
        {
            "strategy": r.strategy,
            "at_iteration": r.at_iteration,
            "failed_nodes": list(r.failed_nodes),
            "detection_s": r.detection_s,
            "reconstruct_s": r.reconstruct_s,
            "replay_s": r.replay_s,
            "reload_s": r.reload_s,
            "recovery_bytes": r.recovery_bytes,
        }
        for r in recoveries
    ]


class ExecutionBackend(ABC):
    """Runs one :class:`BackendSpec` against a graph."""

    name = "abstract"

    @abstractmethod
    def run(self, graph, spec: BackendSpec) -> BackendRunResult:
        """Execute the job to completion and return the outcome."""

    def close(self) -> None:
        """Release backend resources (worker processes, pipes)."""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
