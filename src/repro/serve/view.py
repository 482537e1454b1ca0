"""Snapshot-isolated read facade over an engine's committed state.

A :class:`CommittedView` answers point, neighborhood and top-K reads
against the value set committed at the engine's last barrier
(:attr:`~repro.engine.engine.Engine.committed_iteration`) — never
mid-superstep or uncommitted state.  Two properties make this cheap
(DESIGN.md §13):

* **Staging separation** — uncommitted superstep results live only in
  the vectorized executor's ``pend_*`` arrays (or the slots' pending
  fields on the scalar path); the committed columns are untouched until
  the barrier commit, so any read *between* the engine's phase hooks
  observes exactly the last commit.
* **One copy** — each node's committed columns are the only store of
  its values (a slot is a view of them), so a point read is one column
  element and a top-K one selection over the masters' column slice; a
  read builds no image and stamps no slot.

The view reads *state*; replica selection (which copy answers) is the
router's job (:mod:`repro.serve.router`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine.vectorized import top_masters

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

        Masters only (each vertex counted once), alive nodes only; each
        node's masters are found in its cached image, else by
        ``SlotArray.masters`` (a read never builds an image nor stamps a
        slot).  Ties break toward the lower gid.  Returns
        ``[(gid, value), ...]`` best-first.
        """
        engine = self.engine
        per_node: list[list[tuple[Any, int]]] = []
        for node in engine.cluster.alive_workers():
            lg = engine.local_graphs[node]
            topo = lg.cached_topology
            if topo is None:
                pos, gids = lg.slots.masters()
                gids = np.asarray(gids, dtype=np.int64)
            else:
                pos = np.flatnonzero(topo.is_master)
                gids = topo.gids[pos]
            per_node.append(top_masters(gids, lg.values[pos], k, largest))
        merged: list[tuple[Any, int]] = [t for part in per_node
                                         for t in part]
        merged.sort(key=(lambda t: (-t[0], t[1])) if largest
                    else (lambda t: (t[0], t[1])))
        return [(gid, value) for value, gid in merged[:k]]
