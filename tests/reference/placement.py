"""The per-row copy writer, one replica at a time: the oracle of
``place_replicas`` in ``repro.ft._recovery_common`` (imported by tests
only).

:func:`create_replica` packs a 1-row batch on the master's node
(:func:`_replica_row`), places it with a 1-row ``place_rows``, registers
the position in the master's metadata and every mirror's copy, drops the
master's image and books one ``RECOVERY`` message.  Called once per gid
in order, it must leave exactly what one batched ``place_replicas``
call leaves.  (The old code verbatim, but that the row's size is read
through ``RecoveryBatch.row_nbytes``.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.network import Message, MessageKind
from repro.engine.messages import RecoveryBatch
from repro.ft._recovery_common import (last_committed_iteration,
                                       metadata_copies, pack_rows,
                                       place_rows)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import Engine


def create_replica(engine: "Engine", gid: int,
                   node: int) -> tuple[int, int]:
    """Create a plain replica of ``gid`` on ``node`` from its master.

    Used when migrated edges, or a moved master's in-edges, land on a
    node with no local copy of an endpoint ("some new replicas are
    necessary to retain local access semantics", Section 5.2.1): state
    fetched from the master, registered in the master's (and every
    mirror's) metadata, counted as recovery traffic.  Returns
    ``(position, bytes)``.
    """
    master_node = engine.master_node_of[gid]
    position = len(engine.local_graphs[node].slots)
    # ``node`` holds no copy, so it is not among the mirrors: the copy is
    # a plain replica, and one a local edge is about to need.
    batch = _replica_row(engine, gid, node, position)
    place_rows(engine.local_graphs[node], batch,
               last_committed_iteration(engine), False, engine.is_edge_cut)
    for meta in metadata_copies(engine, gid):
        meta.replica_positions[node] = position
        meta.invalidate_replica_cache()
    # Its sync plan grew; ``add_slot`` covered ``node``.
    engine.local_graphs[master_node].invalidate_soa()
    nbytes = int(batch.row_nbytes(engine.program)[0])
    engine.cluster.network.send(
        Message(MessageKind.RECOVERY, master_node, node,
                ("replica-state", gid), nbytes))
    return position, nbytes


def _replica_row(engine: "Engine", gid: int, node: int,
                 position: int) -> RecoveryBatch:
    """The 1-row batch a master sends to put a plain replica of ``gid``
    at ``position`` on ``node``."""
    master_node = engine.master_node_of[gid]
    return pack_rows(
        engine, master_node,
        np.array([engine.local_graphs[master_node].position_of(gid)]),
        np.array([RecoveryBatch.REPLICA]), node, np.array([position]))
