"""The six named workloads and the metrics each one declares.

Sizes are the issue's (V = 50 000 simulator / 20 000 multiprocessing,
100 000 reads) times one stated factor, :data:`SCALE`: the benchmark
contract gives every driver run ~25 s of wall including set-up and the
oracle, and a run needs at least five repetitions, so every workload
shrinks by the same factor instead of any workload being dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: Every size below is the issue's size times this factor.
SCALE = 0.25
#: ``--quick``: V = 2 000 on the simulator, for the smoke test.
QUICK_SCALE = 0.04

BASE_QUERIES = 100_000

#: One compute-phase kill (rollback + Rebirth) and one after-commit
#: kill (no rollback): both detection paths of the paper's Algorithm 1.
KILLS = ((6, (1,), "compute"), (13, (2,), "after_commit"))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # "simulator" | "multiprocessing"
    base_vertices: int
    spec: dict = field(default_factory=dict)
    serve: bool = False


_PAGERANK = {"algorithm": "pagerank", "max_iterations": 20}

WORKLOADS = {w.name: w for w in (
    Workload(
        "pr_edgecut_sim",
        "dense frontier on the SoA edge-cut kernel, sync-batch build and "
        "barrier commit: what a kernel or commit optimisation must move",
        "simulator", 50_000,
        {**_PAGERANK, "num_nodes": 8, "partition": "hash_edge_cut"}),
    Workload(
        "pr_hybridcut_sim",
        "same graph through the GAS path (gather partials, combining, "
        "master apply, 3 rounds): a gain for one cut that costs the other "
        "shows here",
        "simulator", 50_000,
        {**_PAGERANK, "num_nodes": 8, "partition": "hybrid_cut"}),
    Workload(
        "sssp_edgecut_sim",
        "sparse moving frontier: fixed per-superstep cost (activity commit, "
        "elision, barrier) dominates, so a kernel-only change must not "
        "move it",
        "simulator", 50_000,
        {"algorithm": "sssp", "max_iterations": 60, "num_nodes": 8,
         "partition": "hash_edge_cut",
         "algorithm_kwargs": (("source", 0),)}),
    Workload(
        "pr_edgecut_mp",
        "the only real-process path: scalar NodeProtocol in 2 forked "
        "workers, codec, pipes, coordinator routing; pinned to one CPU so "
        "it times the layers, not the host scheduler",
        "multiprocessing", 20_000,
        {**_PAGERANK, "num_nodes": 2, "partition": "hash_edge_cut"}),
    Workload(
        "pr_kill_sim",
        "the recovery claim in wall-clock: exact twin of pr_edgecut_sim "
        "plus a compute-phase and an after-commit kill (rollback, Rebirth, "
        "FT repair)",
        "simulator", 50_000,
        {**_PAGERANK, "num_nodes": 8, "partition": "hash_edge_cut",
         "failures": KILLS}),
    Workload(
        "serve_kill_sim",
        "reads beside writes: exact twin of pr_kill_sim that also answers "
        "point, neighbourhood and top-K reads while supersteps and "
        "recoveries mutate the state",
        "simulator", 50_000,
        {**_PAGERANK, "num_nodes": 8, "partition": "hash_edge_cut",
         "failures": KILLS},
        serve=True),
)}

#: End-to-end metrics, tracing off: name -> (unit, regression bound,
#: workloads that declare it or None = all).  All are lower-is-better.
#: The bounds are what the shared 2-vCPU bench host can resolve (README,
#: "Noise"), not the 8 % the issue hoped for; ``BENCHMARK.json`` carries
#: the four metrics every workload emits, with these same bounds.
END_TO_END = {
    "setup_s": ("s", 0.25, None),
    "run_s": ("s", 0.25, None),
    "total_s": ("s", 0.25, None),
    "peak_rss_mb": ("MB", 0.05, None),
    "recovery_overhead_s": ("s", 0.25, ("pr_kill_sim",)),
    "read_p50_us": ("us", 0.10, ("serve_kill_sim",)),
    "read_p99_us": ("us", 0.15, ("serve_kill_sim",)),
}


def declares(metric: str, workload: str) -> bool:
    only = END_TO_END[metric][2]
    return only is None or workload in only


def scale_of(quick: bool) -> float:
    return QUICK_SCALE if quick else SCALE


def num_vertices(workload: Workload, quick: bool) -> int:
    return int(workload.base_vertices * scale_of(quick))


def num_queries(quick: bool) -> int:
    return int(BASE_QUERIES * scale_of(quick))


def make_graph(workload: Workload, seed: int, quick: bool):
    from repro.graph import generators

    return generators.power_law(num_vertices(workload, quick), alpha=2.0,
                                seed=seed, avg_degree=8.0)


def make_spec(workload: Workload, seed: int, quick: bool):
    """The ``BackendSpec`` under test; ``--seed`` reaches only the graph
    generator and the read workload."""
    from repro.exec import BackendSpec

    serve = ()
    if workload.serve:
        serve = tuple(sorted({
            "num_queries": num_queries(quick), "qps": 1e5,
            "seed": seed + 4, "zipf_s": 1.1, "neighborhood_frac": 0.05,
            "topk_frac": 0.002}.items()))
    return BackendSpec(ft_mode="replication", ft_level=1, num_standby=2,
                       serve=serve, **workload.spec)


def oracle_spec(spec):
    """The failure-free, read-free simulator twin whose final values the
    workload must reproduce bit for bit."""
    return replace(spec, failures=(), serve=())


def needs_oracle(workload: Workload) -> bool:
    return (workload.backend != "simulator" or workload.serve
            or "failures" in workload.spec)
