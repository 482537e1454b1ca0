"""Connected components by label min-propagation (test/example extra).

Treats edges as undirected only if the graph is symmetrised; on a
directed graph it computes forward-reachability components, which is
what the tests assert on symmetric inputs.
"""

from __future__ import annotations

import numpy as np

from repro.engine.vertex_program import (
    ApplyContext,
    VertexProgram,
    VertexView,
)


class ConnectedComponents(VertexProgram):
    """Propagate the minimum vertex id along in-edges."""

    name = "cc"
    history_free = False  # keeps its own minimum
    combiner = "min"

    def initial_value(self, vid: int, ctx: ApplyContext) -> int:
        return vid

    def initial_values(self, gids: np.ndarray,
                       ctx: ApplyContext) -> np.ndarray:
        return np.array(gids, dtype=np.int64)

    def initially_active(self, gids: np.ndarray) -> np.ndarray:
        return np.ones(len(gids), dtype=bool)

    def gather_init(self) -> int | None:
        return None

    def gather(self, acc, src: VertexView, weight: float,
               dst_vid: int):
        if acc is None:
            return src.value
        return src.value if src.value < acc else acc

    def contribution(self, src: VertexView, weight: float, dst_vid: int):
        return src.value

    def gather_sum(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def kernel(self):
        from repro.algorithms.kernels import CCKernel
        return CCKernel()

    def apply(self, vid: int, old_value: int, acc,
              ctx: ApplyContext) -> int:
        if acc is None:
            return old_value
        return min(old_value, acc)

    def activates_neighbors(self, vid: int, old_value: int, new_value: int,
                            ctx: ApplyContext) -> bool:
        return new_value != old_value or ctx.iteration == 0

    def stays_active(self, vid: int, old_value: int, new_value: int,
                     ctx: ApplyContext) -> bool:
        return False
