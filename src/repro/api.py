"""High-level façade: configure and run one graph job in a line or two.

Example
-------
>>> from repro import api
>>> from repro.graph import generators
>>> graph = generators.ring(64)
>>> result = api.run_job(graph, "pagerank", num_nodes=8, max_iterations=5)
>>> len(result.values)
64
"""

from __future__ import annotations

from typing import Any

from repro.algorithms import ALGORITHMS, AlternatingLeastSquares
from repro.cluster.cluster import Cluster
from repro.config import (
    ClusterConfig,
    EngineConfig,
    FaultToleranceConfig,
    FTMode,
    JobConfig,
    PartitionStrategy,
    RecoveryStrategy,
)
from repro.engine.engine import Engine, RunResult
from repro.engine.vertex_program import VertexProgram
from repro.errors import ConfigError
from repro.graph.graph import Graph
from repro.obs import Tracer


def make_program(algorithm: str | VertexProgram, graph: Graph,
                 **kwargs: Any) -> VertexProgram:
    """Instantiate a vertex program by name.

    ALS infers its user count from bipartite generator metadata unless
    ``num_users`` is passed explicitly.
    """
    if isinstance(algorithm, VertexProgram):
        return algorithm
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; choices: {sorted(ALGORITHMS)}")
    cls = ALGORITHMS[algorithm]
    if cls is AlternatingLeastSquares and "num_users" not in kwargs:
        # Bipartite convention: users are the vertices with out-edges
        # to higher-numbered items; fall back to a half split.
        kwargs["num_users"] = graph.num_vertices // 2
    return cls(**kwargs)


def make_engine(graph: Graph, algorithm: str | VertexProgram,
                num_nodes: int = 50,
                ft_mode: FTMode | str = FTMode.REPLICATION,
                ft_level: int = 1,
                recovery: RecoveryStrategy | str = RecoveryStrategy.REBIRTH,
                partition: PartitionStrategy | str =
                PartitionStrategy.HASH_EDGE_CUT,
                max_iterations: int = 20,
                checkpoint_interval: int = 1,
                checkpoint_in_memory: bool = False,
                safety_checkpoint_interval: int = 0,
                selfish_optimization: bool = True,
                sync_elision: bool = True,
                vectorized: bool = True,
                combining: bool = True,
                num_standby: int = 1,
                seed: int = 2014,
                data_scale: float = 1.0,
                ft_level_min: int | None = None,
                ft_level_max: int | None = None,
                heartbeat_interval_s: float | None = None,
                heartbeat_misses: int | None = None,
                membership: Any = (),
                algorithm_kwargs: dict[str, Any] | None = None,
                cluster: Cluster | None = None,
                tracer: Tracer | None = None) -> Engine:
    """Build a fully wired :class:`Engine` from keyword-level options.

    ``safety_checkpoint_interval`` (replication modes only) adds
    opt-in safety-net checkpoints every N barriers so recovery can fall
    back to checkpoint reload when more than ``ft_level`` nodes fail at
    once; ``0`` (the default) disables them.

    ``data_scale`` projects data-proportional simulated costs to the
    original dataset's scale (see
    :attr:`repro.costmodel.CostModel.data_scale`); benchmarks pass the
    stand-in's downscale factor here.

    ``ft_level_min`` / ``ft_level_max`` (replication only) open an
    adaptive replication-floor band around ``ft_level`` (DESIGN.md
    §14); ``heartbeat_interval_s`` / ``heartbeat_misses`` override the
    failure detector's tuning, and ``membership`` schedules elastic
    events as ``(iteration, kind, target)`` or
    ``(iteration, kind, target, count)`` tuples with kind one of
    ``join`` / ``drain`` / ``flap`` (an impossible one raises
    :class:`ConfigError` here).
    """
    if isinstance(ft_mode, str):
        ft_mode = FTMode(ft_mode)
    if isinstance(recovery, str):
        recovery = RecoveryStrategy(recovery)
    if isinstance(partition, str):
        partition = PartitionStrategy(partition)
    cluster_kwargs: dict[str, Any] = {}
    if heartbeat_interval_s is not None:
        cluster_kwargs["heartbeat_interval_s"] = heartbeat_interval_s
    if heartbeat_misses is not None:
        cluster_kwargs["heartbeat_misses"] = heartbeat_misses
    replication = ft_mode is FTMode.REPLICATION
    job = JobConfig(
        cluster=ClusterConfig(num_nodes=num_nodes, num_standby=num_standby,
                              seed=seed, **cluster_kwargs),
        engine=EngineConfig(partition=partition,
                            max_iterations=max_iterations,
                            sync_elision=sync_elision,
                            vectorized=vectorized,
                            combining=combining),
        ft=FaultToleranceConfig(
            mode=ft_mode,
            ft_level=ft_level if replication else 0,
            ft_level_min=ft_level_min if replication else None,
            ft_level_max=ft_level_max if replication else None,
            recovery=recovery,
            checkpoint_interval=checkpoint_interval,
            checkpoint_in_memory=checkpoint_in_memory,
            safety_checkpoint_interval=(
                safety_checkpoint_interval if replication else 0),
            selfish_optimization=selfish_optimization),
    )
    if cluster is None and data_scale != 1.0:
        from dataclasses import replace as _replace

        from repro.costmodel import DEFAULT_COST_MODEL
        model = _replace(DEFAULT_COST_MODEL, data_scale=data_scale)
        cluster = Cluster(job.cluster, cost_model=model,
                          store_in_memory=job.ft.checkpoint_in_memory)
    program = make_program(algorithm, graph, **(algorithm_kwargs or {}))
    engine = Engine(graph, program, job=job, cluster=cluster, tracer=tracer)
    engine.membership.schedule(membership)
    return engine


def run_job(graph: Graph, algorithm: str | VertexProgram,
            **options: Any) -> RunResult:
    """One-call variant of :func:`make_engine` + :meth:`Engine.run`.

    Accepts the same keyword options as :func:`make_engine`, plus
    ``failures``: a list of ``(iteration, nodes)`` or
    ``(iteration, nodes, phase)`` crash injections.
    """
    failures = options.pop("failures", ())
    engine = make_engine(graph, algorithm, **options)
    for failure in failures:
        engine.schedule_failure(*failure)
    return engine.run()
