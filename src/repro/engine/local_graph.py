"""Per-node local graph: the position-stable vertex array.

Topology is expressed as array indices (a source's local position), so
recovering a crashed node is a matter of writing each received vertex
back into its recorded position — no name resolution, no locks
(Section 5.1.2).  Positions are never reused while a job runs; slots
vacated by Migration keep a tombstone ``None``.

A node is born as columns (:meth:`LocalGraph.born`), at load and at
Rebirth alike: a *birth record* of per-copy static columns in the
:class:`~repro.engine.messages.RecoveryBatch` shape (role, degrees, the
master metadata as CSR slices and, under edge-cut, each mirror's copy of
its master's in-edges), the node's SoA image, whose CSR holds the local
edges, and six committed dynamic columns the graph owns (:data:`DYNAMIC`).
``slots`` is a lazy position-indexed sequence over them
(:class:`SlotArray`): a :class:`~repro.engine.state.VertexSlot` is
stamped only where a consumer indexes one (a whole node in one batched
pass when one iterates).  The authority rule (DESIGN.md §3): the columns
are the state; a slot is a view — stamped or placed here, it is bound to
its position and its six committed fields read and write the columns
there.  The read rule: a reader that must not stamp reads a position's
static columns and metadata from its slot if stamped, else from the
birth record (:meth:`SlotArray.metadata`).
"""

from __future__ import annotations

import dataclasses
import itertools
import weakref
from typing import Iterator

import numpy as np

from repro.engine.messages import (META_ROW, RecoveryBatch, csr_ptr,
                                   csr_rows, gather_rows, take_rows)
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.engine.vertex_program import VertexProgram, VertexView
from repro.errors import EngineError
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID

_B = RecoveryBatch

#: The committed dynamic columns a graph owns -> the slot field that
#: reads and writes each one.
DYNAMIC = {"values": "value", "active": "active",
           "last_activates": "last_activates",
           "mirror_self_active": "mirror_self_active",
           "replicas_known_active": "replicas_known_active",
           "last_update": "last_update_iter"}
#: What the columns hold where no copy lives (a tombstone, a gap in a
#: reborn array): what a column state has always read there.
VACANT = {"values": 0, "active": False, "last_activates": False,
          "mirror_self_active": False, "replicas_known_active": False,
          "last_update": -1}
#: An entry of a :class:`SlotArray` no consumer has indexed yet.
_UNSTAMPED = object()
#: A role's code in a :class:`RecoveryBatch`.
_ROLE_CODE = {role: code for code, role in enumerate(_B.ROLES)}
#: Structure versions, unique across graphs (:attr:`LocalGraph.structure`).
_VERSIONS = itertools.count()


def stamp_slots(rows: RecoveryBatch, at: np.ndarray, ft_only,
                in_edges: list | None = None, in_counts=None,
                out_edges: list | None = None, out_counts=None,
                full_edges: bool = False) -> list[VertexSlot]:
    """The one slot stamper: detached slots for the rows ``at`` of
    ``rows`` (a birth record or a received batch), with ``ft_only``
    aligned with ``at``, their local edges — ``in_edges`` the
    ``(src position, weight)`` pairs and ``out_edges`` the target
    positions, in CSR order, cut per row by ``in_counts`` /
    ``out_counts`` — and, with ``full_edges`` (edge-cut), each mirror's
    ``(src gid, src position, weight)`` copy of its master's in-edges.
    The committed fields are a fresh slot's until the slot is bound."""
    count = at.size
    roles = rows.roles[at]
    with_meta = at[roles != _B.REPLICA]
    rp, replicas = csr_rows(rows.replica_ptr, with_meta)
    mp, mirrors = csr_rows(rows.mirror_ptr, with_meta)
    metas = _metas(rows.replica_nodes[rp].tolist(),
                   rows.replica_positions[rp].tolist(), replicas.tolist(),
                   rows.mirror_nodes[mp].tolist(), mirrors.tolist(),
                   rows.master_node[with_meta].tolist(),
                   rows.master_position[with_meta].tolist())
    backups = iter(())
    if full_edges:
        ep, edges = csr_rows(rows.edge_ptr, at[roles == _B.MIRROR])
        backups = _cut(list(zip(rows.edge_gids[ep].tolist(),
                                rows.edge_positions[ep].tolist(),
                                rows.edge_weights[ep].tolist())),
                       edges.tolist())
    ins = _cut(in_edges or [], in_counts or [0] * count)
    outs = _cut(out_edges or [], out_counts or [0] * count)
    slots = []
    for (gid, role, master_node, mirror_id, out_degree, in_degree, selfish,
         fo) in zip(
            rows.gids[at].tolist(), roles.tolist(),
            rows.master_node[at].tolist(), rows.mirror_id[at].tolist(),
            rows.out_degree[at].tolist(), rows.in_degree[at].tolist(),
            rows.selfish[at].tolist(), ft_only):
        slots.append(VertexSlot(
            gid=gid, role=_B.ROLES[role], out_degree=out_degree,
            in_degree=in_degree, in_edges=next(ins), out_edges=next(outs),
            meta=None if role == _B.REPLICA else next(metas),
            master_node=master_node, ft_only=fo, selfish=selfish,
            mirror_id=mirror_id,
            full_edges=(next(backups) if full_edges and role == _B.MIRROR
                        else None)))
    return slots


def _cut(flat: list, counts: list) -> Iterator[list]:
    """Consecutive slices of ``flat``, ``counts[i]`` long each."""
    at = 0
    for count in counts:
        yield flat[at:at + count]
        at += count


def _metas(nodes, positions, replicas, mirror_nodes, mirrors, master_node,
           master_position) -> Iterator[MasterMeta]:
    """One ``MasterMeta`` per metadata row, from its flattened CSR
    slices: static full state, replicated to the mirrors at load
    (Section 4.2)."""
    at = seat = 0
    for count, seats, node, position in zip(replicas, mirrors, master_node,
                                            master_position):
        yield MasterMeta(dict(zip(nodes[at:at + count],
                                  positions[at:at + count])),
                         mirror_nodes[seat:seat + seats], node, position)
        at += count
        seat += seats


def _slot_columns(slots: list[VertexSlot]) -> dict[str, np.ndarray]:
    """Stamped ``slots`` as a :meth:`SlotArray.metadata` read: their
    static fields, their metadata's replica entries and mirror seats,
    and a mirror's edge backup."""
    static = [(s.gid, _ROLE_CODE[s.role], s.selfish, s.master_node,
               -1 if s.meta is None else s.meta.master_position)
              for s in slots]
    out = {name: np.array([row[k] for row in static],
                          dtype=bool if name == "selfish" else np.int64)
           for k, name in enumerate(META_ROW)}
    for (ptr, names), entries in zip(_B._CSR, (
            [[] if s.meta is None else list(s.meta.replica_positions.items())
             for s in slots],
            [[] if s.meta is None else [(n,) for n in s.meta.mirror_nodes]
             for s in slots],
            [list(s.full_edges or ()) if s.role is Role.MIRROR else []
             for s in slots])):
        out[ptr] = csr_ptr([len(row) for row in entries])
        flat = [entry for row in entries for entry in row]
        for k, name in enumerate(names):
            out[name] = np.array(
                [entry[k] for entry in flat],
                dtype=np.float64 if name == "edge_weights" else np.int64)
    return out


class SlotArray:
    """``LocalGraph.slots``: the vertex array as a lazy sequence.

    Indexing a position stamps its slot from the birth record
    (:func:`stamp_slots`), bound to the graph's columns there; iterating
    stamps every position left in one pass, :meth:`take` a selection in
    one pass.  Assigning a slot binds it and writes its committed fields
    into the columns; assigning ``None`` (a tombstone) detaches the slot
    there first.  :meth:`grow` keeps the columns the array's length.
    :attr:`materialized` counts the slots stamped from the record;
    ``_pure`` holds while no entry has held a slot at all.
    """

    __slots__ = ("_graph", "_items", "materialized", "_lazy", "_pure",
                 "_rows", "_row_of", "_ft_only", "_topo", "_full_edges",
                 "_in_ptr", "_out_ptr")

    def __init__(self, graph: "LocalGraph", rows: RecoveryBatch | None = None,
                 topology=None, ft_only: np.ndarray | None = None,
                 full_edges: bool = False):
        # Weak: the graph owns its slots, not the other way round.
        self._graph = weakref.ref(graph)
        n = 0 if topology is None else topology.n
        self.materialized = 0
        self._lazy = 0 if rows is None else len(rows)
        self._pure = True
        if rows is None or rows.positions.size == n:
            self._items = [_UNSTAMPED] * self._lazy
            self._row_of = None
        else:
            items = np.full(n, None, dtype=object)
            items[rows.positions] = _UNSTAMPED
            self._items = items.tolist()
            self._row_of = np.full(n, -1, dtype=np.int64)
            self._row_of[rows.positions] = np.arange(len(rows))
        self._rows, self._topo = rows, topology
        self._ft_only, self._full_edges = ft_only, full_edges
        self._in_ptr = self._out_ptr = None

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, pos: int):
        item = self._items[pos]
        if item is _UNSTAMPED:
            (item,) = self._stamp([pos % len(self._items)])
        return item

    def __iter__(self):
        return iter(self.materialize())

    def materialize(self) -> list:
        """Stamp every position not stamped yet, in one pass; returns the
        plain list of entries, which stays this array's (the scalar
        loops index it directly)."""
        if self._lazy:
            self._stamp([pos for pos, item in enumerate(self._items)
                         if item is _UNSTAMPED])
        return self._items

    def __eq__(self, other) -> bool:
        return list(self) == list(other)

    def __setitem__(self, pos: int, item: VertexSlot | None) -> None:
        old = self._items[pos]
        if old is _UNSTAMPED:
            self._lazy -= 1
        elif old is not None:
            old.detach()  # a removed slot keeps its state
        self._items[pos] = item
        self._pure &= item is None
        if item is None:
            graph = self._graph()
            for name, fill in VACANT.items():
                getattr(graph, name)[pos] = fill
        else:
            fields = [getattr(item, name) for name in DYNAMIC.values()]
            item.bind(self._graph, pos)
            for name, value in zip(DYNAMIC.values(), fields):
                setattr(item, name, value)

    def grow(self, length: int) -> None:
        """Add vacant positions up to ``length``, each column at once."""
        extra = length - len(self._items)
        if extra > 0:
            graph = self._graph()
            self._items.extend([None] * extra)
            for name, fill in VACANT.items():
                column = getattr(graph, name)
                setattr(graph, name, np.concatenate(
                    (column, np.full(extra, fill, dtype=column.dtype))))

    def holds(self, pos: int) -> bool:
        """Whether a copy lives at ``pos``, stamped or not."""
        return self._items[pos] is not None

    def take(self, positions) -> list:
        """The entries at ``positions``, every unstamped one stamped in
        one pass."""
        positions = np.asarray(positions, dtype=np.int64).tolist()
        items = self._items
        todo = [pos for pos in dict.fromkeys(positions)
                if items[pos] is _UNSTAMPED]
        if todo:
            self._stamp(todo)
        return [items[pos] for pos in positions]

    def peek(self, pos: int) -> VertexSlot | None:
        """The slot at ``pos`` if one is there already, else ``None``;
        never stamps."""
        item = self._items[pos]
        return None if item is _UNSTAMPED else item

    def record(self, pos: int, name: str):
        """Column ``name`` of the birth record at unstamped ``pos``."""
        row = pos if self._row_of is None else self._row_of[pos]
        return getattr(self._rows, name)[row].item()

    def masters(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """The masters' positions and their :meth:`metadata`, read off
        every held position's; stamps nothing.  A read's walk where no
        image is cached."""
        pos = np.flatnonzero([item is not None for item in self._items])
        meta = self.metadata(pos)
        master = np.flatnonzero(meta["roles"] == _B.MASTER)
        return pos[master], take_rows(meta, master)

    def metadata(self, positions) -> dict[str, np.ndarray]:
        """The copies at ``positions`` as columns in the
        :class:`RecoveryBatch` shape: ``gids``, ``roles``, ``selfish``,
        ``master_node``, ``master_position`` (-1 on a replica) and the
        metadata CSR groups — replica nodes and positions and mirror nodes
        of a master or mirror, an edge-cut mirror's edge backup.  Read
        from the slot where one is stamped, else from the birth record —
        exact, as every structural writer reaches a slot first — in one
        gather per column and per group (:func:`take_rows`): only an
        array with stamped slots walks the positions.  Stamps nothing."""
        pos = np.asarray(positions, dtype=np.int64)
        lazy = (np.ones(pos.size, dtype=bool) if self._pure else np.array(
            [self._items[p] is _UNSTAMPED for p in pos.tolist()], dtype=bool))
        rec = _B.empty() if self._rows is None else self._rows
        rows = pos[lazy] if self._row_of is None else self._row_of[pos[lazy]]
        out = take_rows(vars(rec), rows, self._full_edges & (
            rec.roles[rows] == _B.MIRROR))
        out["roles"] = out["roles"].astype(np.int64)
        if lazy.all():
            return out
        # Each row's place among the record rows, then the slots.
        order = np.where(lazy, lazy.cumsum(), lazy.sum() + (~lazy).cumsum()) - 1
        return gather_rows([out, _slot_columns(self.take(pos[~lazy]))],
                           order)

    def held(self) -> tuple[np.ndarray, int]:
        """The positions a copy lives at, and every edge entry they hold
        — local in- and out-edges and edge backups: a stamped slot's
        lists, else the birth image's rows and the record's backup.
        Stamps nothing."""
        items = self._items
        held = [pos for pos, item in enumerate(items) if item is not None]
        lazy = [pos for pos in held if items[pos] is _UNSTAMPED]
        edges = sum(len(slot.in_edges) + len(slot.out_edges)
                    + len(slot.full_edges or ())
                    for slot in (items[pos] for pos in held)
                    if slot is not _UNSTAMPED)
        if lazy:
            topo, rec = self._topo, self._rows
            rows = lazy if self._row_of is None else self._row_of[lazy]
            backed = self._full_edges & (rec.roles[rows] == _B.MIRROR)
            edges += int(topo.in_counts[lazy].sum()
                         + np.isin(topo.out_src, lazy).sum()
                         + np.diff(rec.edge_ptr)[rows][backed].sum())
        return np.array(held, dtype=np.int64), edges

    @property
    def birth(self) -> tuple[RecoveryBatch, object]:
        """The birth record and the image born with it."""
        return self._rows, self._topo

    def _stamp(self, positions: list[int]) -> list[VertexSlot]:
        pos = np.asarray(positions, dtype=np.int64)
        rows = pos if self._row_of is None else self._row_of[pos]
        topo = self._topo
        if self._in_ptr is None:
            self._in_ptr = csr_ptr(topo.in_counts)
            self._out_ptr = csr_ptr(np.bincount(topo.out_src,
                                                minlength=topo.n))
        at, in_counts = csr_rows(self._in_ptr, pos)
        out_at, out_counts = csr_rows(self._out_ptr, pos)
        slots = stamp_slots(
            self._rows, rows, self._ft_only[rows].tolist(),
            list(zip(topo.in_src[at].tolist(), topo.in_w[at].tolist())),
            in_counts.tolist(), topo.out_dst[out_at].tolist(),
            out_counts.tolist(), self._full_edges)
        items, graph = self._items, self._graph
        for p, slot in zip(positions, slots):
            slot.bind(graph, p)
            items[p] = slot
        self._pure &= not slots
        self._lazy -= len(slots)
        self.materialized += len(slots)
        return slots


class LocalGraph:
    """One node's vertex array plus gid index."""

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.slots = SlotArray(self)
        #: The gid index (:attr:`index_of`); ``None`` until first asked
        #: for on a graph born from a record.
        self._index_of: dict[int, int] | None = {}
        #: Cached structure-of-arrays topology (DESIGN.md §11): born with
        #: the graph (:meth:`born`) or built lazily by :meth:`topology`;
        #: :meth:`invalidate_soa` drops it.
        self._topology = None
        #: This graph's structure version, renewed by every
        #: :meth:`invalidate_soa`: state derived from the roles and
        #: placement stays valid while it holds (the read router's rows).
        self.structure = next(_VERSIONS)
        #: The committed dynamic columns (:data:`DYNAMIC`), one entry per
        #: position: the one store of that state — a column state adopts
        #: them, a bound slot reads and writes them.  Activity is the
        #: ``active`` column alone: a compute loop visits its set
        #: positions.  Values start as Python objects; :meth:`reset`
        #: gives a kernel program's the kernel's dtype, and a reborn
        #: node's takes the dtype of the rows it was born from.
        self.values = np.zeros(0, dtype=object)
        self.active = np.zeros(0, dtype=bool)
        self.last_activates = np.zeros(0, dtype=bool)
        self.mirror_self_active = np.zeros(0, dtype=bool)
        self.replicas_known_active = np.zeros(0, dtype=bool)
        self.last_update = np.zeros(0, dtype=np.int64)

    # -- construction -----------------------------------------------------

    @classmethod
    def born(cls, node_id: int, rows: RecoveryBatch, topology,
             ft_only: np.ndarray, full_edges: bool,
             state=None) -> "LocalGraph":
        """A node's graph born whole — at load, or reborn at Rebirth —
        from its birth record ``rows`` (one row per copy, in position
        order), the SoA image cut from the same columns, each row's
        ``ft_only`` and, with ``full_edges``, the mirrors' in-edge copies
        in the record's edge CSR.  ``state`` holds the rows'
        :data:`DYNAMIC` columns; ``None`` (at load, where every position
        holds a row) fills each column whole with a fresh slot's field,
        until ``Engine`` sets the initial state.  No slot is stamped."""
        lg = cls(node_id)
        # The record keeps the static columns only: the state lives in
        # the graph's columns from here on.
        rows = dataclasses.replace(rows, values=[])
        lg.slots = SlotArray(lg, rows, topology, ft_only, full_edges)
        lg._index_of = None
        lg._topology = topology
        if state is None:
            for name, field in DYNAMIC.items():
                setattr(lg, name, np.full(topology.n, getattr(
                    VertexSlot, field), dtype=getattr(lg, name).dtype))
            return lg
        for (name, fill), column in zip(VACANT.items(), state):
            full = np.full(topology.n, fill, dtype=column.dtype
                           if name == "values" else type(fill))
            _put(full, rows.positions, column)
            setattr(lg, name, full)
        return lg

    def reset(self, values: np.ndarray, active: np.ndarray) -> None:
        """Every copy's state before the first superstep, from the
        job's per-gid initial ``values`` and ``active`` flags: one
        column fill, in place (a column state keeps what it adopted),
        but that the value column takes the dtype of ``values`` (a
        kernel program's, not ``object``).  Masters and mirrors mirror
        the master's self-activity, masters record what their replicas
        believe."""
        topo = self.topology()
        gids = np.where(topo.occupied, topo.gids, 0)
        if self.values.dtype != values.dtype:
            self.values = np.empty(topo.n, dtype=values.dtype)
        self.values[:] = values[gids]
        self.active[:] = active[gids] & topo.occupied
        self.last_activates[:] = False
        self.last_update[:] = -1
        self.replicas_known_active[:] = np.where(topo.is_master, self.active,
                                                 topo.occupied)
        self.mirror_self_active[:] = self.active & (topo.is_master
                                                    | topo.is_mirror)

    def add_slot(self, slot: VertexSlot, position: int | None = None) -> int:
        """Append (or place at a fixed position) one vertex slot, bound
        to its position: its committed fields are written into the
        columns there."""
        if slot.gid in self.index_of:
            raise EngineError(
                f"vertex {slot.gid} already present on node {self.node_id}")
        slots = self.slots
        if position is None:
            position = len(slots)
        elif position < len(slots) and slots.holds(position):
            raise EngineError(
                f"position {position} on node {self.node_id} occupied")
        slots.grow(position + 1)
        slots[position] = slot
        self.index_of[slot.gid] = position
        self.invalidate_soa()
        return position

    def remove_slot(self, gid: int) -> VertexSlot:
        """Tombstone a slot (a drain removes copies); the slot comes back
        detached, with the committed fields it had."""
        position = self.index_of.pop(gid, None)
        if position is None:
            raise EngineError(
                f"vertex {gid} not present on node {self.node_id}")
        slot = self.slots[position]
        self.slots[position] = None
        self.invalidate_soa()
        return slot

    # -- the committed columns ---------------------------------------------

    def store(self, positions: np.ndarray, **columns) -> None:
        """Write committed ``columns`` (by :data:`DYNAMIC` name, one
        value per position) at ``positions``."""
        for name, values in columns.items():
            _put(getattr(self, name), positions, values)

    @property
    def materialized(self) -> int:
        """Slots stamped from the birth record so far."""
        return self.slots.materialized

    # -- the SoA image -------------------------------------------------------

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

    def invalidate_soa(self) -> None:
        """Drop this node's SoA topology (hence the executor's state).
        The write-site rule (DESIGN.md §11), structural
        writes only: whoever writes a slot's role, placement or edge
        list, or a ``MasterMeta``, of this node outside the barrier
        commit calls this — ``add_slot`` and ``remove_slot`` do
        themselves — and nobody does it for them.  Values and flags are
        column writes and drop nothing.
        """
        self._topology = None
        self.structure = next(_VERSIONS)

    # -- lookup ---------------------------------------------------------------

    @property
    def index_of(self) -> dict[int, int]:
        """gid -> position of every copy held here, derived from the
        birth record on first use (DESIGN.md §3): until a structural
        write, the record's rows are exactly the copies, and
        :meth:`add_slot` / :meth:`remove_slot` build the index before
        they write it.  The scalar path, the invariants and the
        structural writers ask for it; readers of positions and counts
        on the steady-state, Rebirth and mp-pull paths use
        :meth:`positions` and :attr:`num_copies`, which build none."""
        if self._index_of is None:
            rows = self.slots.birth[0]
            self._index_of = dict(zip(rows.gids.tolist(),
                                      rows.positions.tolist()))
        return self._index_of

    @property
    def num_copies(self) -> int:
        """The copies held here; builds no index."""
        if self._index_of is None:
            return len(self.slots.birth[0])
        return len(self._index_of)

    def positions(self, gids) -> np.ndarray:
        """The positions of ``gids`` (each held here): through the
        cached image where one is, else through the gid index; builds
        no image."""
        topo = self._topology
        if topo is not None:
            return topo.translate(np.asarray(gids, dtype=np.int64))
        index_of = self.index_of
        return np.fromiter(map(index_of.__getitem__, gids), np.int64,
                           len(gids))

    def __contains__(self, gid: int) -> bool:
        return gid in self.index_of

    def slot_of(self, gid: int) -> VertexSlot:
        try:
            pos = self.index_of[gid]
        except KeyError:
            raise EngineError(
                f"vertex {gid} not on node {self.node_id}") from None
        # The scalar loop's per-vertex read: the plain list first.
        slot = self.slots._items[pos]
        if slot is _UNSTAMPED:
            slot = self.slots[pos]
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
        """Neighbor view for gather, by local position; stamps nothing."""
        slot = self.slots._items[position]  # the scalar loop's per-edge read
        value = self.values.item(position)
        if slot is _UNSTAMPED:
            record = self.slots.record
            return VertexView(vid=record(position, "gids"), value=value,
                              out_degree=record(position, "out_degree"),
                              in_degree=record(position, "in_degree"))
        return VertexView(vid=slot.gid, value=value,
                          out_degree=slot.out_degree,
                          in_degree=slot.in_degree)

    # -- stats ------------------------------------------------------------------

    def memory_nbytes(self, program: VertexProgram) -> int:
        """Approximate resident footprint of this node's graph state,
        summed from columns (the model of ``tests/reference/memory.py``):
        per copy a 64-byte header, its value
        (:meth:`VertexProgram.value_sizes`) and its edge entries, local
        and backed up (:meth:`SlotArray.held`), and a master's or
        mirror's metadata (:meth:`SlotArray.metadata`); plus the array
        itself and the gid index.  Stamps nothing."""
        pos, edges = self.slots.held()
        meta = self.slots.metadata(pos)
        values = int(program.value_sizes(self.values[pos]).sum())
        with_meta = np.count_nonzero(meta["roles"] != _B.REPLICA)
        return int(64 * pos.size + values + edges * BYTES_PER_EDGE
                   + with_meta * (BYTES_PER_VID + 4)
                   + meta["replica_nodes"].size * 5
                   + meta["mirror_nodes"].size
                   + len(self.slots) * 8 + self.num_copies * 24)


def _put(column: np.ndarray, positions: np.ndarray, values) -> None:
    """``column[positions] = values``, element by element into an object
    column (so a tuple value stays one value)."""
    if column.dtype != object:
        column[positions] = values
        return
    for pos, value in zip(np.asarray(positions).tolist(), values):
        column[pos] = value
