"""Graph-parallel engine: Cyclops-style edge-cut and PowerLyra-style
vertex-cut synchronous execution with replication-aware local graphs."""

from repro.engine.vertex_program import VertexProgram, VertexView, ApplyContext
from repro.engine.state import Role, VertexSlot
from repro.engine.local_graph import LocalGraph
from repro.engine.construction import build_local_graphs, ConstructionReport
from repro.engine.engine import Engine, IterationStats, RunResult

__all__ = [
    "VertexProgram",
    "VertexView",
    "ApplyContext",
    "Role",
    "VertexSlot",
    "LocalGraph",
    "build_local_graphs",
    "ConstructionReport",
    "Engine",
    "IterationStats",
    "RunResult",
]
