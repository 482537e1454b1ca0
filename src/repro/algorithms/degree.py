"""Weighted in-degree counting — a one-iteration smoke-test program.

Used by unit tests to check plumbing: after a single superstep each
vertex's value equals the sum of its in-edge weights.
"""

from __future__ import annotations

import numpy as np

from repro.engine.vertex_program import (
    ApplyContext,
    VertexProgram,
    VertexView,
)


class DegreeCount(VertexProgram):
    """Sum of in-edge weights, converging after one superstep."""

    name = "degree"
    history_free = True
    combiner = "sum"

    def initial_value(self, vid: int, ctx: ApplyContext) -> float:
        return 0.0

    def initial_values(self, gids: np.ndarray,
                       ctx: ApplyContext) -> np.ndarray:
        return np.zeros(len(gids))

    def initially_active(self, gids: np.ndarray) -> np.ndarray:
        return np.ones(len(gids), dtype=bool)

    def gather_init(self) -> float:
        return 0.0

    def gather(self, acc: float, src: VertexView, weight: float,
               dst_vid: int) -> float:
        return acc + weight

    def contribution(self, src: VertexView, weight: float,
                     dst_vid: int) -> float:
        return weight

    def gather_sum(self, a: float, b: float) -> float:
        return (a or 0.0) + (b or 0.0)

    def kernel(self):
        from repro.algorithms.kernels import DegreeKernel
        return DegreeKernel()

    def apply(self, vid: int, old_value: float, acc: float,
              ctx: ApplyContext) -> float:
        return acc or 0.0

    def activates_neighbors(self, vid, old, new, ctx) -> bool:
        return False

    def stays_active(self, vid, old, new, ctx) -> bool:
        return False
