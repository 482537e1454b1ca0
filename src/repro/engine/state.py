"""Per-node vertex state: the slot array and vertex roles.

Each node stores its local vertices in a *position-stable array*
(Section 5.1.2): topology is expressed as array indices, and because a
recovered vertex is placed back at its original position, rebuilding a
crashed node's graph is lock-free and embarrassingly parallel.

A slot's six committed dynamic fields live once, in its graph's columns
(DESIGN.md §3): a slot bound to a position reads and writes them there,
and only a detached slot — built by hand, or removed — keeps its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class Role(enum.Enum):
    """What a local copy of a vertex is.

    ``MIRROR`` is a full-state replica (Section 4.2); an FT replica
    created purely for fault tolerance (Section 4.1) is always a
    mirror, marked with :attr:`VertexSlot.ft_only`.
    """

    MASTER = "master"
    MIRROR = "mirror"
    REPLICA = "replica"


@dataclass
class MasterMeta:
    """Full-state metadata held by a master (and copied to mirrors).

    ``replica_positions[node]`` records the local array position of the
    vertex's copy on ``node`` — the paper's "enhanced edge information"
    trick generalised: every copy's position is known up front, so any
    recovery message can be applied positionally without coordination.
    """

    #: node -> array position of this vertex's copy there (masters know
    #: where all their replicas live; Section 5).
    replica_positions: dict[int, int] = field(default_factory=dict)
    #: Nodes hosting full-state mirrors, in mirror-id order (the lowest
    #: surviving one leads recovery, Section 5.3.1).
    mirror_nodes: list[int] = field(default_factory=list)
    #: The master's own node and array position (mirrors use these to
    #: recover the master in place).
    master_node: int = -1
    master_position: int = -1
    #: Derived caches over ``replica_positions``/``mirror_nodes``; built
    #: lazily on first use, dropped by :meth:`invalidate_replica_cache`
    #: whenever a replica moves (migration/repair).  Not part of the
    #: replicated wire state.
    _mirror_set: frozenset[int] | None = field(
        default=None, init=False, repr=False, compare=False)
    _sync_targets: tuple[tuple[int, bool], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def ft_level(self) -> int:
        """Failures this vertex survives: full-state mirrors, bounded
        by the copies that exist at all (the K of DESIGN.md §9)."""
        return min(len(self.mirror_nodes), len(self.replica_positions))

    @property
    def mirror_set(self) -> frozenset[int]:
        """Cached ``frozenset(mirror_nodes)`` for O(1) membership."""
        if self._mirror_set is None:
            self._mirror_set = frozenset(self.mirror_nodes)
        return self._mirror_set

    def sync_targets(self) -> tuple[tuple[int, bool], ...]:
        """Cached ``(replica_node, is_mirror)`` pairs in position order.

        Built once per topology change instead of per vertex per
        superstep; the hot sync loop iterates this directly.
        """
        if self._sync_targets is None:
            mirrors = self.mirror_set
            self._sync_targets = tuple(
                (node, node in mirrors) for node in self.replica_positions)
        return self._sync_targets

    def invalidate_replica_cache(self) -> None:
        """Drop derived caches after mutating replica placement."""
        self._mirror_set = None
        self._sync_targets = None


class _Committed:
    """A committed dynamic slot field: on a slot bound to a graph
    position, the graph's ``column`` there (read back as a Python
    scalar, or the stored object); on a detached slot, its own."""

    def __init__(self, column: str, default):
        self.column = column
        self.default = default

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, slot, owner=None):
        if slot is None:
            return self.default  # the dataclass field default
        if slot._at is None:
            return slot.__dict__.get(self.name, self.default)
        graph, pos = slot._at
        return getattr(graph(), self.column).item(pos)

    def __set__(self, slot, value) -> None:
        if slot._at is None:
            slot.__dict__[self.name] = value
        else:
            graph, pos = slot._at
            getattr(graph(), self.column)[pos] = value


def _committed(column: str, default):
    """A committed field: not a constructor argument — it is the
    graph's, and a detached slot starts from ``default``."""
    return field(default=_Committed(column, default), init=False)


@dataclass
class VertexSlot:
    """One entry of a node's vertex array."""

    gid: int
    role: Role
    #: Current committed value (as of the last global barrier).
    value: Any = _committed("values", None)
    #: Whether the vertex computes in the current superstep (masters
    #: authoritative; mirrors receive it with full-state sync).
    active: bool = _committed("active", False)
    #: Activation accumulated during the current superstep, committed
    #: into ``active`` at the barrier.
    next_active: bool = False
    #: Whether this vertex's last committed update requested activation
    #: of its out-neighbors — the "activation information" masters
    #: replicate to mirrors so recovery can replay it (Section 5.1.3).
    last_activates: bool = _committed("last_activates", False)
    #: Iteration of the last committed update (-1 = never updated).
    #: Recovery replay only re-executes activations stamped with the
    #: last committed iteration; checkpointing uses it for incremental
    #: snapshots.
    last_update_iter: int = _committed("last_update", -1)
    #: Static degrees of the vertex in the *global* graph (replicas
    #: need them for gather, e.g. PageRank's value/out_degree).
    out_degree: int = 0
    in_degree: int = 0
    #: Local in-edges: (local index of source slot, weight).  Complete
    #: for edge-cut masters; partial (local edges only) for vertex-cut.
    in_edges: list[tuple[int, float]] = field(default_factory=list)
    #: Local out-edges: local indices of target slots on this node.
    out_edges: list[int] = field(default_factory=list)
    #: Master metadata; present on masters and (as a synced copy) on
    #: mirrors.  Plain replicas carry only the master's node id.
    meta: MasterMeta | None = None
    #: Node hosting the master (replicas and mirrors).
    master_node: int = -1
    #: True for FT replicas created only for fault tolerance; they have
    #: no computation out-edges on this node.
    ft_only: bool = False
    #: True when the vertex is selfish (no out-edges globally) and the
    #: selfish optimisation suppresses its normal sync (Section 4.4).
    selfish: bool = False
    #: Mirror id of this copy (index into meta.mirror_nodes), -1 if not
    #: a mirror.
    mirror_id: int = -1
    #: Edge-cut mirrors only: a full copy of the master's in-edge list
    #: as ``(src_gid, src_position_on_master_node, weight)`` triples
    #: ("all edges are included into the full states of the masters and
    #: replicated to the mirrors", Section 4.3).  Positions allow the
    #: in-place re-linking of Rebirth; gids allow the re-resolution of
    #: Migration.
    full_edges: list[tuple[int, int, float]] | None = None
    #: Masters only: the activity flag replicas currently believe
    #: (vertex-cut gather scheduling); a change triggers a broadcast at
    #: the next superstep start.
    replicas_known_active: bool = _committed("replicas_known_active", True)
    #: Mirrors only: the master's last synced *self-sustained* activity
    #: (remote activations are replayed at recovery, Section 5.1.3).
    mirror_self_active: bool = _committed("mirror_self_active", False)
    #: Staged value for the barrier commit (masters: apply result;
    #: replicas: received sync).
    pending_value: Any = None
    has_pending: bool = False
    #: Staged activation flag accompanying pending_value.
    pending_activates: bool = False
    #: Vertex-cut: staged "active next superstep" flag from the master.
    pending_active: bool = False

    #: ``(weak reference to the graph, position)`` once bound, else
    #: ``None``: where the committed fields live.  Not a field.
    _at = None

    # -- binding ------------------------------------------------------------

    def bind(self, graph_ref, position: int) -> None:
        """Read and write the committed fields in the graph behind
        ``graph_ref`` at ``position`` from now on (the slot's own go
        unread until :meth:`detach` replaces them).  The caller writes
        them there first if they matter."""
        self._at = (graph_ref, position)

    def detach(self) -> None:
        """Take the committed fields out of the bound position into the
        slot itself (a no-op on a detached slot)."""
        if self._at is not None:
            fields = {name: getattr(self, name) for name in COMMITTED}
            self._at = None
            self.__dict__.update(fields)

    @property
    def binding(self) -> tuple[Any, int] | None:
        """``(graph, position)`` the committed fields live at, or
        ``None`` for a detached slot."""
        return None if self._at is None else (self._at[0](), self._at[1])

    @property
    def is_master(self) -> bool:
        return self.role is Role.MASTER

    @property
    def is_mirror(self) -> bool:
        return self.role is Role.MIRROR

    def clear_pending(self) -> None:
        self.pending_value = None
        self.has_pending = False
        self.pending_activates = False
        self.pending_active = False
        self.next_active = False


#: The names of a slot's committed dynamic fields.
COMMITTED = tuple(name for name, attr in vars(VertexSlot).items()
                  if isinstance(attr, _Committed))
