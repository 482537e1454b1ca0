"""Per-node local graph: the position-stable vertex array.

Topology is expressed as array indices (a source's local position), so
recovering a crashed node is a matter of writing each received vertex
back into its recorded position — no name resolution, no locks
(Section 5.1.2).  Positions are never reused while a job runs; slots
vacated by Migration keep a tombstone ``None``.
"""

from __future__ import annotations

from typing import Iterator

from repro.engine.state import Role, VertexSlot
from repro.engine.vertex_program import VertexProgram, VertexView
from repro.errors import EngineError


class LocalGraph:
    """One node's vertex array plus gid index."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.slots: list[VertexSlot | None] = []
        self.index_of: dict[int, int] = {}
        #: gids of *master* slots whose ``active`` flag is set — the
        #: engine's compute loops iterate these instead of scanning the
        #: array, so sparse supersteps (SSSP tails) cost O(active), not
        #: O(all slots).  Maintained by :meth:`set_active`; never flip
        #: ``slot.active`` directly once a slot is registered.
        self.active_masters: set[int] = set()
        #: Same for non-master slots (vertex-cut replicas gather too).
        self.active_others: set[int] = set()
        # Tuple snapshots of the active sets, cached until the next
        # mutation — the compute loops iterate these instead of copying
        # the set per node per superstep.
        self._masters_snapshot: tuple[int, ...] | None = None
        self._others_snapshot: tuple[int, ...] | None = None
        #: Cached structure-of-arrays topology (DESIGN.md §11) and FT
        #: census: handed over at load (:meth:`adopt`) or built lazily by
        #: :meth:`topology` / :meth:`ft_census`; :meth:`invalidate_soa`
        #: drops both.
        self._topology = None
        self._ft_census = None

    # -- construction -----------------------------------------------------

    @classmethod
    def adopt(cls, node_id: int, slots: list, index_of: dict[int, int],
              topology, ft_census) -> "LocalGraph":
        """A node's graph born whole — at load, or reborn at Rebirth:
        slots and gid index stamped from the very columns the SoA image
        and the FT census were cut from.  The caller registers any
        active slot in ``active_masters`` / ``active_others``."""
        lg = cls(node_id)
        lg.slots, lg.index_of = slots, index_of
        lg._topology, lg._ft_census = topology, ft_census
        return lg

    def add_slot(self, slot: VertexSlot, position: int | None = None) -> int:
        """Append (or place at a fixed position) one vertex slot."""
        if slot.gid in self.index_of:
            raise EngineError(
                f"vertex {slot.gid} already present on node {self.node_id}")
        if position is None:
            position = len(self.slots)
            self.slots.append(slot)
        else:
            while len(self.slots) <= position:
                self.slots.append(None)
            if self.slots[position] is not None:
                raise EngineError(
                    f"position {position} on node {self.node_id} occupied")
            self.slots[position] = slot
        self.index_of[slot.gid] = position
        self.invalidate_soa()
        if slot.active:
            self.set_active(slot, True)
        return position

    def set_active(self, slot: VertexSlot, flag: bool) -> None:
        """Flip a slot's activity, keeping the active indexes in sync.

        Also call this after a role change (Migration promotion) so the
        gid moves to the matching set.
        """
        slot.active = flag
        self.active_masters.discard(slot.gid)
        self.active_others.discard(slot.gid)
        if flag:
            if slot.role is Role.MASTER:
                self.active_masters.add(slot.gid)
            else:
                self.active_others.add(slot.gid)
        self._masters_snapshot = None
        self._others_snapshot = None

    def remove_slot(self, gid: int) -> VertexSlot:
        """Tombstone a slot (Migration moves vertices between nodes)."""
        position = self.index_of.pop(gid, None)
        if position is None:
            raise EngineError(
                f"vertex {gid} not present on node {self.node_id}")
        slot = self.slots[position]
        self.slots[position] = None
        self.active_masters.discard(gid)
        self.active_others.discard(gid)
        self._masters_snapshot = None
        self._others_snapshot = None
        self.invalidate_soa()
        return slot

    def set_active_bulk(self, positions, flags) -> None:
        """Vectorized bulk form of :meth:`set_active`, by position.

        Used by the barrier commit of the vectorized path; must keep
        the same contract as per-slot writes — the active sets stay in
        sync and the iteration snapshots are invalidated (a stale
        snapshot here would feed the next superstep's compute loop the
        previous superstep's active set).
        """
        masters, others = self.active_masters, self.active_others
        slots = self.slots
        for pos, flag in zip(positions, flags):
            slot = slots[pos]
            slot.active = flag
            gid = slot.gid
            if flag:
                if slot.role is Role.MASTER:
                    masters.add(gid)
                else:
                    others.add(gid)
            else:
                masters.discard(gid)
                others.discard(gid)
        self._masters_snapshot = None
        self._others_snapshot = None

    def topology(self):
        """The cached SoA topology view (DESIGN.md §11)."""
        if self._topology is None:
            from repro.engine.soa import NodeTopology
            self._topology = NodeTopology.build(self)
        return self._topology

    @property
    def cached_topology(self):
        """:meth:`topology` without the build, ``None`` when absent:
        validity checks peek, they never build."""
        return self._topology

    def ft_census(self) -> tuple[int, dict[int, list[int]]]:
        """``(masters, ft_level -> master gids)``, cached like the topology:
        FT repair and the gauges re-scan only the nodes written on."""
        if self._ft_census is None:
            by_level: dict[int, list[int]] = {}
            for slot in self.iter_masters():
                by_level.setdefault(slot.meta.ft_level, []).append(slot.gid)
            self._ft_census = (sum(map(len, by_level.values())), by_level)
        return self._ft_census

    def invalidate_soa(self) -> None:
        """Drop this node's SoA topology (hence the executor's columns)
        and FT census.  The write-site rule (DESIGN.md §11): whoever
        writes a slot, an edge list or a ``MasterMeta`` of this node
        outside the barrier commit calls this — ``add_slot`` and
        ``remove_slot`` do themselves — and nobody does it for them.
        """
        self._topology = None
        self._ft_census = None

    def active_masters_snapshot(self) -> tuple[int, ...]:
        """Stable iteration snapshot of ``active_masters``.

        Cached until the set next mutates; lets a compute loop iterate
        while apply results flip activity, without copying the set per
        node per superstep.
        """
        if self._masters_snapshot is None:
            self._masters_snapshot = tuple(self.active_masters)
        return self._masters_snapshot

    def active_others_snapshot(self) -> tuple[int, ...]:
        """Stable iteration snapshot of ``active_others``."""
        if self._others_snapshot is None:
            self._others_snapshot = tuple(self.active_others)
        return self._others_snapshot

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, gid: int) -> bool:
        return gid in self.index_of

    def slot_of(self, gid: int) -> VertexSlot:
        try:
            slot = self.slots[self.index_of[gid]]
        except KeyError:
            raise EngineError(
                f"vertex {gid} not on node {self.node_id}") from None
        assert slot is not None
        return slot

    def position_of(self, gid: int) -> int:
        return self.index_of[gid]

    def slot_at(self, position: int) -> VertexSlot | None:
        if position >= len(self.slots):
            return None
        return self.slots[position]

    def iter_slots(self) -> Iterator[VertexSlot]:
        for slot in self.slots:
            if slot is not None:
                yield slot

    def iter_masters(self) -> Iterator[VertexSlot]:
        for slot in self.iter_slots():
            if slot.role is Role.MASTER:
                yield slot

    def iter_mirrors(self) -> Iterator[VertexSlot]:
        for slot in self.iter_slots():
            if slot.role is Role.MIRROR:
                yield slot

    def view(self, position: int) -> VertexView:
        """Neighbor view for gather, by local position."""
        slot = self.slots[position]
        assert slot is not None
        return VertexView(vid=slot.gid, value=slot.value,
                          out_degree=slot.out_degree,
                          in_degree=slot.in_degree)

    # -- stats ------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        masters = mirrors = replicas = ft = 0
        edges = 0
        for slot in self.iter_slots():
            if slot.role is Role.MASTER:
                masters += 1
            elif slot.role is Role.MIRROR:
                mirrors += 1
                if slot.ft_only:
                    ft += 1
            else:
                replicas += 1
            edges += len(slot.in_edges)
        return {"masters": masters, "mirrors": mirrors,
                "replicas": replicas, "ft_replicas": ft,
                "local_in_edges": edges,
                "total": masters + mirrors + replicas}

    def memory_nbytes(self, program: VertexProgram) -> int:
        """Approximate resident footprint of this node's graph state."""
        total = 0
        for slot in self.iter_slots():
            total += slot.nbytes(program.value_nbytes(slot.value))
        # The array itself and the gid index.
        total += len(self.slots) * 8 + len(self.index_of) * 24
        return total
