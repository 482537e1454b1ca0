"""Snapshot-isolated read facade over an engine's committed state.

A :class:`CommittedView` answers point, neighborhood and top-K reads
against the value set committed at the engine's last barrier
(:attr:`~repro.engine.engine.Engine.committed_iteration`) — never
mid-superstep or uncommitted state.  Two properties make this cheap
(DESIGN.md §13):

* **Staging separation** — uncommitted superstep results live only in
  the vectorized executor's ``pend_*`` arrays (or the slots' pending
  fields on the scalar path); the committed columns / slot values are
  untouched until the barrier commit, so any read *between* the
  engine's phase hooks observes exactly the last commit.
* **Flush-free column reads** — the barrier commit dual-writes the
  committed columns and defers the slot writeback, so a point read
  takes the value straight from the array
  (:meth:`~repro.engine.vectorized.VectorizedExecutor.committed_value`)
  without forcing a whole-column
  :meth:`~repro.engine.vectorized.VectorizedExecutor.flush`.

The view reads *state*; replica selection (which copy answers) is the
router's job (:mod:`repro.serve.router`).
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any

from repro.engine.vectorized import NO_COLUMN, top_masters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


class CommittedView:
    """Reads of the last committed superstep's values."""

    def __init__(self, engine: "Engine"):
        self.engine = engine

    @property
    def superstep(self) -> int:
        """The superstep every read through this view reflects
        (``-1`` = initial values, before the first commit)."""
        return self.engine.committed_iteration

    # -- point reads ----------------------------------------------------

    def read(self, gid: int, node: int | None = None) -> Any:
        """Committed value of ``gid`` from the copy on ``node``
        (default: its master)."""
        if node is None:
            node = self.engine.master_node_of[gid]
        return self.engine.committed_value_at(node, gid)

    # -- neighborhood reads ---------------------------------------------

    def out_neighbors(self, gid: int, limit: int = 0) -> list[int]:
        """Out-neighbor gids from the static graph topology
        (``limit`` > 0 caps power-law hubs)."""
        nbrs = self.engine.graph.out_neighbors(gid)
        if limit and nbrs.size > limit:
            nbrs = nbrs[:limit]
        return [int(n) for n in nbrs]

    # -- top-K ----------------------------------------------------------

    def top_k(self, k: int, largest: bool = True) -> list[tuple[int, Any]]:
        """The K masters with the extreme committed values.

        Masters only (each vertex counted once), alive nodes only;
        vectorized column fast path per node, slot fallback otherwise.
        Ties break toward the lower gid, matching the per-node heaps.
        Returns ``[(gid, value), ...]`` best-first.
        """
        engine = self.engine
        vec = engine._vec
        per_node: list[list[tuple[Any, int]]] = []
        for node in engine.cluster.alive_workers():
            lg = engine.local_graphs[node]
            cols = vec.committed_columns(node) if vec is not None \
                else NO_COLUMN
            if cols is not NO_COLUMN:
                # Deterministic (value, gid) selection so the column
                # path and the slot fallback pick identical K sets
                # under value ties.
                per_node.append(top_masters(*cols, k, largest))
            else:
                items = [(slot.value, slot.gid)
                         for slot in lg.iter_masters()]
                pick = heapq.nlargest if largest else heapq.nsmallest
                per_node.append(pick(k, items, key=lambda t: (t[0], -t[1])))
        merged: list[tuple[Any, int]] = [t for part in per_node
                                         for t in part]
        merged.sort(key=(lambda t: (-t[0], t[1])) if largest
                    else (lambda t: (t[0], t[1])))
        return [(gid, value) for value, gid in merged[:k]]
