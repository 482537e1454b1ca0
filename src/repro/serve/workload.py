"""Seeded open-loop read workload: Poisson arrivals, Zipf-skewed keys.

Models millions-of-users query traffic against the computing graph
(DESIGN.md §13): arrivals are an open-loop Poisson process at a
configured QPS (exponential inter-arrival times — arrivals do not wait
for responses), keys follow a bounded Zipf distribution over the
vertex ids (a few hot vertices absorb most reads, the canonical web
workload shape), and a configurable slice of the queries are
neighborhood or top-K reads instead of point reads.

Everything is generated up front from one ``numpy`` PCG64 stream, so a
``(seed, qps, num_queries, ...)`` tuple names the exact same query
sequence on every backend — the determinism the routing tests and the
differential replay check depend on.  Queries are stored columnar
(arrays, not 100k objects) and served as index ranges;
:meth:`OpenLoopWorkload.query` materializes one on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Query-kind codes in the columnar ``kinds`` array.
POINT, NEIGHBORHOOD, TOPK = 0, 1, 2

KIND_NAMES = {POINT: "point", NEIGHBORHOOD: "neighborhood", TOPK: "topk"}


@dataclass(frozen=True)
class Query:
    """One materialized read request."""

    index: int
    arrival_s: float
    kind: int
    gid: int
    k: int


class OpenLoopWorkload:
    """Deterministic columnar query stream."""

    def __init__(self, num_vertices: int, num_queries: int,
                 qps: float = 10_000.0, zipf_s: float = 1.1,
                 seed: int = 0, neighborhood_frac: float = 0.0,
                 topk_frac: float = 0.0, topk_k: int = 10,
                 neighborhood_limit: int = 16):
        if num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if qps <= 0:
            raise ValueError("qps must be positive")
        self.num_vertices = num_vertices
        self.qps = qps
        self.topk_k = topk_k
        self.neighborhood_limit = neighborhood_limit
        rng = np.random.Generator(np.random.PCG64(seed))

        #: Open loop: exponential inter-arrivals at rate ``qps``.
        self.arrival_s = np.cumsum(
            rng.exponential(1.0 / qps, size=num_queries))

        # Bounded Zipf over vertex ranks by inverse-CDF sampling, then
        # a seeded permutation of rank -> vertex id so the hot keys
        # land on arbitrary partitions instead of all being low gids.
        ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
        weights = ranks ** -zipf_s
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        rank_of = np.searchsorted(cdf, rng.random(num_queries),
                                  side="right")
        vid_of_rank = rng.permutation(num_vertices)
        self.gids = vid_of_rank[rank_of].astype(np.int64)

        # Query-kind mix.
        u = rng.random(num_queries)
        self.kinds = np.full(num_queries, POINT, dtype=np.int8)
        self.kinds[u < neighborhood_frac] = NEIGHBORHOOD
        self.kinds[(u >= neighborhood_frac)
                   & (u < neighborhood_frac + topk_frac)] = TOPK

    def __len__(self) -> int:
        return int(self.arrival_s.size)

    @property
    def horizon_s(self) -> float:
        """Arrival time of the last query — the workload's duration."""
        return float(self.arrival_s[-1])

    def query(self, i: int) -> Query:
        return Query(index=i, arrival_s=float(self.arrival_s[i]),
                     kind=int(self.kinds[i]), gid=int(self.gids[i]),
                     k=self.topk_k)


#: :class:`OpenLoopWorkload` keyword arguments recognised inside a
#: :attr:`repro.exec.base.BackendSpec.serve` configuration (the other
#: keys there configure routing and the arrival cursor).
WORKLOAD_KEYS = frozenset({
    "num_queries", "qps", "zipf_s", "seed", "neighborhood_frac",
    "topk_frac", "topk_k", "neighborhood_limit",
})


def workload_from_config(num_vertices: int, cfg: dict) -> OpenLoopWorkload:
    """Build the workload a ``BackendSpec.serve`` config names.

    Both backends call this, so one spec names the same query stream
    everywhere.
    """
    kwargs = {k: v for k, v in cfg.items() if k in WORKLOAD_KEYS}
    return OpenLoopWorkload(num_vertices, **kwargs)
