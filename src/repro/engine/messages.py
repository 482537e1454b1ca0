"""Message payloads exchanged by the engine and recovery paths.

Sizes mirror the compact encodings of the real systems: a plain sync is
an id + value + flag byte; a mirror (full-state) sync adds the dynamic
full-state extras (Section 4.2); recovery messages carry whole vertices
and are batched per destination (Section 5.1.1), as columns too
(:class:`RecoveryBatch`).

Steady-state traffic is batched the same way (DESIGN.md §10): the
engine accumulates one *columnar* batch per ``(src, dst, kind)`` pair
per superstep and ships it as a single :class:`~repro.cluster.network.
Message`.  A batch holds parallel arrays (gids, values, packed flag
bits, per-record wire sizes), so the per-superstep object count is
O(node pairs), not O(vertices x replicas).  Each batch's ``append``
is the canonical definition of its record's wire size, and the
transport charges one header per batch instead of one per record.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.engine.state import Role
from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID


class SyncBatch:
    """Columnar master -> replica sync batch (one per (src, dst, kind)).

    ``full_state=False`` batches plain sync records (kind ``SYNC``);
    ``full_state=True`` batches mirror full-state records (kind
    ``MIRROR_SYNC``), adding the master's self-sustained activity for
    the next superstep (remote activations are replayed at recovery
    instead, Section 5.1.3) and — for edge-mutating algorithms under
    edge-cut — the superstep's ``(in-edge index, new weight)`` updates,
    so the mirror's duplicated edge list stays fresh (Section 4.3).

    ``sizes[i]`` is record *i*'s wire size, so a batch's payload bytes
    are the sum of its records and chaos sub-batch splits stay
    byte-exact.
    """

    is_columnar = True

    FLAG_ACTIVATES = 0x1
    FLAG_SELF_ACTIVE = 0x2

    __slots__ = ("full_state", "gids", "values", "flags", "sizes",
                 "edge_updates")

    def __init__(self, full_state: bool = False):
        self.full_state = full_state
        self.gids: list[int] = []
        self.values: list[Any] = []
        #: Packed per-record bits: FLAG_ACTIVATES | FLAG_SELF_ACTIVE.
        self.flags: list[int] = []
        self.sizes: list[int] = []
        #: Per-record ``((edge index, new weight), ...)`` tuples;
        #: ``None`` for plain (non-full-state) batches.
        self.edge_updates: list[tuple] | None = [] if full_state else None

    def append(self, gid: int, value: Any, value_nbytes: int,
               activates: bool, self_active: bool = False,
               edge_updates: tuple = ()) -> None:
        self.gids.append(gid)
        self.values.append(value)
        flags = self.FLAG_ACTIVATES if activates else 0
        if self_active:
            flags |= self.FLAG_SELF_ACTIVE
        self.flags.append(flags)
        if self.full_state:
            self.edge_updates.append(tuple(edge_updates))
            self.sizes.append(BYTES_PER_VID + value_nbytes + 2
                              + 12 * len(edge_updates))
        else:
            self.sizes.append(BYTES_PER_VID + value_nbytes + 1)

    @classmethod
    def from_columns(cls, gids: list, values: list, flags: list,
                     sizes: list, full_state: bool = False,
                     edge_updates: list | None = None) -> "SyncBatch":
        """Adopt pre-built columns (vectorized path; no per-record calls).

        The columns are adopted as-is — callers hand over ownership.
        ``sizes`` must match what :meth:`append` would have computed so
        the byte accounting stays identical to the record-at-a-time
        build.
        """
        batch = cls(full_state)
        batch.gids = gids
        batch.values = values
        batch.flags = flags
        batch.sizes = sizes
        if full_state:
            batch.edge_updates = (edge_updates if edge_updates is not None
                                  else [()] * len(gids))
        return batch

    @property
    def record_count(self) -> int:
        return len(self.gids)

    def nbytes(self) -> int:
        return sum(self.sizes)

    def record_nbytes(self, index: int) -> int:
        return self.sizes[index]

    def activates(self, index: int) -> bool:
        return bool(self.flags[index] & self.FLAG_ACTIVATES)

    def self_active(self, index: int) -> bool:
        return bool(self.flags[index] & self.FLAG_SELF_ACTIVE)

    def select(self, indices: Iterable[int]) -> "SyncBatch":
        """New batch holding the given records (columnar slice)."""
        out = SyncBatch(self.full_state)
        for i in indices:
            out.gids.append(self.gids[i])
            out.values.append(self.values[i])
            out.flags.append(self.flags[i])
            out.sizes.append(self.sizes[i])
            if self.full_state:
                out.edge_updates.append(self.edge_updates[i])
        return out

    def clone(self) -> "SyncBatch":
        """Independent copy (payload-aware duplicate, no deepcopy)."""
        return self.select(range(len(self.gids)))


class GatherBatch:
    """Columnar replica -> master partial-accumulator batch.

    Each record is one *combined* partial per ``(dst_node, gid)`` —
    the sender has already folded all its same-gid contributions
    (DESIGN.md §15).  ``folded`` is an optional metadata column
    recording how many pre-combine contributions each partial absorbed
    (``max(1, contributions)`` — a record with no live contribution
    still ships the init accumulator).  It feeds the ``net.combine.*``
    accounting only: it costs no wire bytes and defaults to one per
    record for programs without a declared combiner.
    """

    is_columnar = True

    __slots__ = ("gids", "accs", "sizes", "folded")

    def __init__(self):
        self.gids: list[int] = []
        self.accs: list[Any] = []
        self.sizes: list[int] = []
        #: Pre-combine contribution count per record; None => all 1.
        self.folded: list[int] | None = None

    def append(self, gid: int, acc: Any, acc_nbytes: int,
               folded: int | None = None) -> None:
        self.gids.append(gid)
        self.accs.append(acc)
        self.sizes.append(BYTES_PER_VID + acc_nbytes)
        if folded is not None:
            if self.folded is None:
                self.folded = [1] * (len(self.gids) - 1)
            self.folded.append(folded)
        elif self.folded is not None:
            self.folded.append(1)

    @classmethod
    def from_columns(cls, gids: list, accs: list, sizes: list,
                     folded: list | None = None) -> "GatherBatch":
        """Adopt pre-built columns (vectorized path)."""
        batch = cls()
        batch.gids = gids
        batch.accs = accs
        batch.sizes = sizes
        batch.folded = folded
        return batch

    @property
    def record_count(self) -> int:
        return len(self.gids)

    @property
    def physical_record_count(self) -> int:
        """Records actually on the wire (== logical: already combined)."""
        return len(self.gids)

    @property
    def precombine_record_count(self) -> int:
        """Contributions that would have shipped uncombined."""
        if self.folded is None:
            return len(self.gids)
        return sum(self.folded)

    def nbytes(self) -> int:
        return sum(self.sizes)

    def physical_nbytes(self) -> int:
        return sum(self.sizes)

    def record_nbytes(self, index: int) -> int:
        return self.sizes[index]

    def record_folded(self, index: int) -> int:
        return 1 if self.folded is None else self.folded[index]

    def select(self, indices: Iterable[int]) -> "GatherBatch":
        out = GatherBatch()
        if self.folded is not None:
            out.folded = []
        for i in indices:
            out.gids.append(self.gids[i])
            out.accs.append(self.accs[i])
            out.sizes.append(self.sizes[i])
            if self.folded is not None:
                out.folded.append(self.folded[i])
        return out

    def clone(self) -> "GatherBatch":
        return self.select(range(len(self.gids)))


class RawGatherBatch:
    """Uncombined replica -> master gather batch (combining *off*).

    The differential baseline for the combining layer: instead of one
    folded partial per ``(dst_node, gid)``, every per-edge contribution
    travels and the receiver folds each record's group on arrival, in
    shipped order (DESIGN.md §15).

    The batch stays *logically* identical to its combined twin so the
    two-tier cost model is unchanged: ``record_count``, ``nbytes()``
    and ``record_nbytes`` all report the combined (logical) units —
    ``sizes[i]`` is the size the folded partial would occupy — while
    ``physical_record_count`` / ``physical_nbytes`` report what is
    really on the wire.  Record-level chaos therefore draws the same
    per-record verdict sequence in both modes, and dropping record *i*
    drops its whole contribution group — exactly the records that
    would have folded into the lost partial.
    """

    is_columnar = True

    __slots__ = ("gids", "counts", "contribs", "sizes", "phys_sizes")

    def __init__(self):
        self.gids: list[int] = []
        #: Contributions shipped for record i (0 => init-only record).
        self.counts: list[int] = []
        #: All contributions, flattened, grouped per record in order.
        self.contribs: list[Any] = []
        #: Logical (combined-equivalent) wire size per record.
        self.sizes: list[int] = []
        #: Physical wire size per record (gid + every contribution).
        self.phys_sizes: list[int] = []

    def append(self, gid: int, contributions: list, logical_nbytes: int,
               physical_nbytes: int) -> None:
        self.gids.append(gid)
        self.counts.append(len(contributions))
        self.contribs.extend(contributions)
        self.sizes.append(logical_nbytes)
        self.phys_sizes.append(physical_nbytes)

    @classmethod
    def from_columns(cls, gids: list, counts: list, contribs: list,
                     sizes: list, phys_sizes: list) -> "RawGatherBatch":
        batch = cls()
        batch.gids = gids
        batch.counts = counts
        batch.contribs = contribs
        batch.sizes = sizes
        batch.phys_sizes = phys_sizes
        return batch

    @property
    def record_count(self) -> int:
        """Logical records — same unit as the combined batch."""
        return len(self.gids)

    @property
    def physical_record_count(self) -> int:
        """Records on the wire: one per contribution, min one."""
        return sum(c if c else 1 for c in self.counts)

    @property
    def precombine_record_count(self) -> int:
        return self.physical_record_count

    def nbytes(self) -> int:
        """Logical (combined-equivalent) payload bytes — cost model."""
        return sum(self.sizes)

    def physical_nbytes(self) -> int:
        return sum(self.phys_sizes)

    def record_nbytes(self, index: int) -> int:
        return self.sizes[index]

    def record_folded(self, index: int) -> int:
        return self.counts[index] or 1

    def _offsets(self) -> list[int]:
        offsets = [0]
        for c in self.counts:
            offsets.append(offsets[-1] + c)
        return offsets

    def contributions_of(self, index: int) -> list:
        start = sum(self.counts[:index])
        return self.contribs[start:start + self.counts[index]]

    def select(self, indices: Iterable[int]) -> "RawGatherBatch":
        """Group-aware slice: a record keeps its whole contribution
        group, so chaos dup/delay sub-batches fold to the same
        partials as their combined twins."""
        offsets = self._offsets()
        out = RawGatherBatch()
        for i in indices:
            out.gids.append(self.gids[i])
            out.counts.append(self.counts[i])
            out.contribs.extend(self.contribs[offsets[i]:offsets[i + 1]])
            out.sizes.append(self.sizes[i])
            out.phys_sizes.append(self.phys_sizes[i])
        return out

    def clone(self) -> "RawGatherBatch":
        return self.select(range(len(self.gids)))


class ActivateBatch:
    """Columnar activation-signal batch (vertex-cut scatter)."""

    is_columnar = True

    __slots__ = ("gids",)

    def __init__(self, gids: Sequence[int] = ()):
        self.gids: list[int] = list(gids)

    def append(self, gid: int) -> None:
        self.gids.append(gid)

    @property
    def record_count(self) -> int:
        return len(self.gids)

    def nbytes(self) -> int:
        return BYTES_PER_VID * len(self.gids)

    def record_nbytes(self, index: int) -> int:
        return BYTES_PER_VID

    def select(self, indices: Iterable[int]) -> "ActivateBatch":
        return ActivateBatch([self.gids[i] for i in indices])

    def clone(self) -> "ActivateBatch":
        return ActivateBatch(self.gids)


class ActiveBroadcastBatch:
    """Columnar master -> replicas activity-flag broadcast batch."""

    is_columnar = True

    __slots__ = ("gids", "actives")

    def __init__(self):
        self.gids: list[int] = []
        self.actives: list[bool] = []

    def append(self, gid: int, active: bool) -> None:
        self.gids.append(gid)
        self.actives.append(active)

    @property
    def record_count(self) -> int:
        return len(self.gids)

    def nbytes(self) -> int:
        return (BYTES_PER_VID + 1) * len(self.gids)

    def record_nbytes(self, index: int) -> int:
        return BYTES_PER_VID + 1

    def select(self, indices: Iterable[int]) -> "ActiveBroadcastBatch":
        out = ActiveBroadcastBatch()
        for i in indices:
            out.gids.append(self.gids[i])
            out.actives.append(self.actives[i])
        return out

    def clone(self) -> "ActiveBroadcastBatch":
        return self.select(range(len(self.gids)))


def csr_rows(ptr: np.ndarray, rows: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of CSR rows ``rows`` (row by row, in the given
    order) and each row's length."""
    starts = ptr[rows]
    counts = ptr[rows + 1] - starts
    return (np.arange(int(counts.sum()))
            - np.repeat(np.cumsum(counts) - counts - starts, counts)), counts


def csr_ptr(counts) -> np.ndarray:
    """CSR row pointer over per-row lengths."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


@dataclass(eq=False)
class RecoveryBatch:
    """Recovered vertex copies plus shared global state, as parallel
    columns (Section 5.1).

    Row *i* is one copy, written at ``positions[i]`` of the destination's
    vertex array — the lock-free positional reconstruction of
    Section 5.1.2.  ``roles[i]`` indexes :attr:`ROLES`; ``flags[i]``
    packs the ``FLAG_*`` bits; ``last_update[i]`` is the iteration of
    the copy's last committed update, so a later recovery replays
    exactly the activations that were lost.  Master and mirror rows
    carry a copy of the master metadata as CSR slices
    (``replica_nodes`` / ``replica_positions`` over ``replica_ptr``,
    ``mirror_nodes`` over ``mirror_ptr``, ``master_position``); under
    edge-cut they also carry the master's in-edges as
    ``(src gid, src position on the master's node, weight)`` slices
    over ``edge_ptr`` (empty under vertex-cut).

    All recovery messages are batched to cut message overhead
    (Section 5.1.1): one batch is one message, and it carries the
    iteration the destination resumes from.
    """

    ROLES = (Role.REPLICA, Role.MIRROR, Role.MASTER)
    REPLICA, MIRROR, MASTER = range(3)

    #: The copy's activity flag.
    FLAG_ACTIVE = 0x1
    #: Its last committed update requested activation (Section 5.1.3).
    FLAG_LAST_ACTIVATES = 0x2
    #: The master's committed self-sustained activity (what a live
    #: mirror's ``mirror_self_active`` holds).
    FLAG_SELF_ACTIVE = 0x4
    #: The activity flag the replicas believe (vertex-cut broadcast
    #: state), restored into a master's ``replicas_known_active``.
    FLAG_KNOWN_ACTIVE = 0x8

    src_node: int
    iteration: int
    gids: np.ndarray
    positions: np.ndarray
    roles: np.ndarray
    values: list
    flags: np.ndarray
    last_update: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray
    selfish: np.ndarray
    mirror_id: np.ndarray
    master_node: np.ndarray
    master_position: np.ndarray
    replica_ptr: np.ndarray
    replica_nodes: np.ndarray
    replica_positions: np.ndarray
    mirror_ptr: np.ndarray
    mirror_nodes: np.ndarray
    edge_ptr: np.ndarray
    edge_gids: np.ndarray
    edge_positions: np.ndarray
    edge_weights: np.ndarray

    #: Per-row columns and CSR groups (pointer, flat columns).
    _ROW = ("gids", "positions", "roles", "flags", "last_update",
            "out_degree", "in_degree", "selfish", "mirror_id",
            "master_node", "master_position")
    _CSR = (("replica_ptr", ("replica_nodes", "replica_positions")),
            ("mirror_ptr", ("mirror_nodes",)),
            ("edge_ptr", ("edge_gids", "edge_positions", "edge_weights")))

    def __len__(self) -> int:
        return len(self.gids)

    @classmethod
    def empty(cls, src_node: int = -1, iteration: int = 0
              ) -> "RecoveryBatch":
        """A batch of no rows."""
        ints = np.zeros(0, dtype=np.int64)
        cols = dict.fromkeys(cls._ROW, ints)
        for ptr, flat in cls._CSR:
            cols[ptr] = np.zeros(1, dtype=np.int64)
            cols.update(dict.fromkeys(flat, ints))
        cols.update(selfish=np.zeros(0, dtype=bool), edge_weights=np.zeros(0))
        return cls(src_node, iteration, values=[], **cols)

    @classmethod
    def merge(cls, batches: Sequence["RecoveryBatch"]) -> "RecoveryBatch":
        """Every row of ``batches`` in destination-position order — the
        order the destination's array is built in — as one batch."""
        batches = [cls.empty(), *batches]
        order = np.argsort(np.concatenate([b.positions for b in batches]),
                           kind="stable")
        cols = {name: np.concatenate([getattr(b, name)
                                      for b in batches])[order]
                for name in cls._ROW}
        values = [v for b in batches for v in b.values]
        cols["values"] = [values[i] for i in order.tolist()]
        for ptr, flat in cls._CSR:
            idx, counts = csr_rows(csr_ptr(np.concatenate(
                [np.diff(getattr(b, ptr)) for b in batches])), order)
            cols[ptr] = csr_ptr(counts)
            for name in flat:
                cols[name] = np.concatenate([getattr(b, name)
                                             for b in batches])[idx]
        return cls(-1, batches[-1].iteration, **cols)

    def rows_nbytes(self, value_nbytes_of) -> int:
        """Wire size of the rows: per row an id, 8 bytes of flags and
        degrees, the value and a 4-byte position, plus its edges and
        metadata entries."""
        return (len(self) * (BYTES_PER_VID + 12)
                + sum(map(value_nbytes_of, self.values))
                + len(self.edge_gids) * BYTES_PER_EDGE
                + len(self.replica_nodes) * (BYTES_PER_VID + 4)
                + len(self.mirror_nodes) * 4)

    def nbytes(self, value_nbytes_of) -> int:
        """Wire size of the batch: the rows plus 16 bytes of shared
        global state."""
        return 16 + self.rows_nbytes(value_nbytes_of)
