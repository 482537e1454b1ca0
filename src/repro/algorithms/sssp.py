"""Single-source shortest path over weighted edges (Table 1, RoadCA).

Event-driven: only the source is initially active; a vertex whose
tentative distance improves activates its out-neighbors.  The update
``min(old, min(src + w))`` depends on the vertex's own previous value,
so the program is *not* history-free and Imitator keeps syncing selfish
vertices for it (Section 4.4's precondition).
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.vertex_program import (
    ApplyContext,
    VertexProgram,
    VertexView,
)


class SingleSourceShortestPath(VertexProgram):
    """Bellman-Ford-style SSSP with activation-based scheduling."""

    name = "sssp"
    history_free = False
    combiner = "min"

    def __init__(self, source: int = 0):
        if source < 0:
            raise ValueError("source vertex must be non-negative")
        self.source = source

    def initial_value(self, vid: int, ctx: ApplyContext) -> float:
        return 0.0 if vid == self.source else math.inf

    def is_initially_active(self, vid: int) -> bool:
        return vid == self.source

    def initial_values(self, gids: np.ndarray,
                       ctx: ApplyContext) -> np.ndarray:
        return np.where(gids == self.source, 0.0, math.inf)

    def initially_active(self, gids: np.ndarray) -> np.ndarray:
        return gids == self.source

    def gather_init(self) -> float:
        return math.inf

    def gather(self, acc: float, src: VertexView, weight: float,
               dst_vid: int) -> float:
        candidate = src.value + weight
        return candidate if candidate < acc else acc

    def contribution(self, src: VertexView, weight: float,
                     dst_vid: int) -> float:
        return src.value + weight

    def gather_sum(self, a: float, b: float) -> float:
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def kernel(self):
        from repro.algorithms.kernels import SSSPKernel
        return SSSPKernel(self.source)

    def apply(self, vid: int, old_value: float, acc: float,
              ctx: ApplyContext) -> float:
        if acc is None:
            acc = math.inf
        return min(old_value, acc)

    def activates_neighbors(self, vid: int, old_value: float,
                            new_value: float, ctx: ApplyContext) -> bool:
        return new_value < old_value or (vid == self.source
                                         and ctx.iteration == 0)

    def stays_active(self, vid: int, old_value: float, new_value: float,
                     ctx: ApplyContext) -> bool:
        # A vertex goes quiet until a neighbor improves its distance.
        return False
