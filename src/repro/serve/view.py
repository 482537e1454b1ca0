"""Snapshot-isolated read facade over an engine's committed state.

Every read answers from the value set committed at the engine's last
barrier (:attr:`~repro.engine.engine.Engine.committed_iteration`) —
never mid-superstep or uncommitted state.  A point read is one element
of a node's committed value column, which the server reads inline; a
:class:`CommittedView` answers the neighbourhood topology and top-K.
Two properties make this cheap (DESIGN.md §13):

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
        #: The last committed snapshot's top-K and its cache key.
        self._top_key: tuple | None = None
        self._top: list[tuple[int, Any]] = []

    # -- neighborhood reads ---------------------------------------------

    def out_neighbors(self, gid: int, limit: int = 0) -> list[int]:
        """Out-neighbor gids from the static graph topology
        (``limit`` > 0 caps power-law hubs)."""
        nbrs = self.engine.graph.out_neighbors(gid)
        if limit and nbrs.size > limit:
            nbrs = nbrs[:limit]
        return nbrs.tolist()

    # -- top-K ----------------------------------------------------------

    def top_k(self, k: int) -> list[tuple[int, Any]]:
        """The K masters with the largest committed values.

        Masters only (each vertex counted once), alive nodes only; each
        node's masters are found in its cached image, else by
        ``SlotArray.masters`` (a read never builds an image nor stamps a
        slot).  Ranked by :func:`merge_top`.  Returns ``[(gid, value),
        ...]`` best-first.

        One ranking per committed snapshot: the result is cached under
        ``(k, committed_iteration, alive workers, membership_epoch)``,
        except while recovery or a selfish recompute writes master
        values without a commit.
        """
        engine = self.engine
        cluster = engine.cluster
        alive = cluster.alive_workers()
        if engine.in_recovery or engine.selfish_read_fence:
            return self._rank(alive, k)
        key = (k, engine.committed_iteration, tuple(alive),
               cluster.membership_epoch)
        if key != self._top_key:
            self._top = self._rank(alive, k)
            self._top_key = key
        return list(self._top)

    def _rank(self, alive: list[int], k: int) -> list[tuple[int, Any]]:
        """The uncached ranking over ``alive`` nodes' masters."""
        engine = self.engine
        per_node: list[list[tuple[Any, int]]] = []
        for node in alive:
            lg = engine.local_graphs[node]
            topo = lg.cached_topology
            if topo is None:
                pos, gids = lg.slots.masters()
                gids = np.asarray(gids, dtype=np.int64)
            else:
                pos = np.flatnonzero(topo.is_master)
                gids = topo.gids[pos]
            per_node.append(top_masters(gids, lg.values[pos], k))
        return merge_top(per_node, k)


def merge_top(parts, k: int) -> list[tuple[int, Any]]:
    """The top-K ranking: merge per-node ``(value, gid)`` lists
    (:func:`~repro.engine.vectorized.top_masters`) into the K
    ``(gid, value)`` pairs with the largest values, best-first, ties
    toward the lower gid.  mp's coordinator merges its workers' lists
    with it too."""
    merged = [t for part in parts for t in part]
    merged.sort(key=lambda t: (-t[0], t[1]))
    return [(gid, value) for value, gid in merged[:k]]
