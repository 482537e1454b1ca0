"""PageRank [1] — the paper's primary benchmark algorithm.

The classic damped formulation: each vertex gathers the rank mass of
its in-neighbors (rank / out-degree) and applies
``rank = (1 - d) + d * sum``.  Always active for a fixed number of
iterations, history-free (the new rank depends only on neighbors), so
the selfish-vertex optimisation applies (Section 4.4).
"""

from __future__ import annotations

import numpy as np

from repro.engine.vertex_program import (
    ApplyContext,
    VertexProgram,
    VertexView,
)


class PageRank(VertexProgram):
    """Damped PageRank over in-edges."""

    name = "pagerank"
    history_free = True
    combiner = "sum"

    def __init__(self, damping: float = 0.85):
        if not 0.0 < damping < 1.0:
            raise ValueError(f"damping must be in (0, 1), got {damping}")
        self.damping = damping

    def initial_value(self, vid: int, ctx: ApplyContext) -> float:
        return 1.0

    def initial_values(self, gids: np.ndarray,
                       ctx: ApplyContext) -> np.ndarray:
        return np.ones(len(gids))

    def initially_active(self, gids: np.ndarray) -> np.ndarray:
        return np.ones(len(gids), dtype=bool)

    def gather_init(self) -> float:
        return 0.0

    def gather(self, acc: float, src: VertexView, weight: float,
               dst_vid: int) -> float:
        if src.out_degree == 0:
            return acc
        return acc + src.value / src.out_degree

    def contribution(self, src: VertexView, weight: float,
                     dst_vid: int) -> float | None:
        if src.out_degree == 0:
            return None
        return src.value / src.out_degree

    def gather_sum(self, a: float, b: float) -> float:
        return a + b

    def kernel(self):
        from repro.algorithms.kernels import PageRankKernel
        return PageRankKernel(self.damping)

    def apply(self, vid: int, old_value: float, acc: float,
              ctx: ApplyContext) -> float:
        if acc is None:
            acc = 0.0
        return (1.0 - self.damping) + self.damping * acc

    def activates_neighbors(self, vid: int, old_value: float,
                            new_value: float, ctx: ApplyContext) -> bool:
        return True

    def stays_active(self, vid: int, old_value: float, new_value: float,
                     ctx: ApplyContext) -> bool:
        return True
