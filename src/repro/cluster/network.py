"""Message transport with batching semantics and byte accounting.

The real systems (Cyclops, PowerLyra) batch all messages between a node
pair within one superstep into a single transfer.  The simulated network
therefore exposes per-step ``(src, dst) -> bytes/messages`` counters,
which the cost model turns into communication time, plus job-lifetime
totals that back the paper's communication-cost tables (Table 6).

Fail-stop interaction: a message addressed to a crashed node is dropped
(counted in ``dropped_msgs``); when a node crashes, its not-yet-delivered
outgoing messages are purged — exactly the "messages from crashed nodes
may be lost" situation that forces the rollback in Algorithm 1.  Purged
traffic is deducted from the *step* counters (the barrier must not
charge comm time for bytes that never completed the exchange) but stays
in the lifetime totals (those bytes did cross the wire).

Columnar batches (DESIGN.md §10): a payload flagged ``is_columnar``
carries N logical records in one physical message.  Record-level
counters (``msgs_by_kind``, ``total_msgs``, the ``step_msgs`` CPU-cost
input) count the N records, preserving their historical meaning;
``batches_by_kind`` / ``total_batches`` count physical transfers.  Wire
bytes charge the sum of the per-record payload sizes plus **one**
``BYTES_PER_MSG_HEADER`` per physical message — the paper's batched
transfer model (Section 5.1.1).  With a ``record_fault_injector``
installed, chaos verdicts are drawn per record and a batch splits into
per-verdict sub-batches (each with its own header), so the chaos matrix
and differential oracles keep record-level semantics.

Counters live in a :class:`repro.obs.MetricsRegistry` under the
``net.*`` namespace; the legacy attribute names (``dropped_msgs``,
``chaos_duplicated_msgs``, ...) are registry-backed views.
"""

from __future__ import annotations

import copy
import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import UnknownNodeError
from repro.obs.registry import MetricsRegistry
from repro.utils.sizing import BYTES_PER_MSG_HEADER


class MessageKind(enum.Enum):
    """Logical message classes; recovery messages are tracked separately."""

    #: Master -> replica value synchronisation (edge-cut sync phase,
    #: vertex-cut scatter phase).
    SYNC = "sync"
    #: Master -> mirror full-state synchronisation (value + dynamic
    #: full-state extras, Section 4.2).
    MIRROR_SYNC = "mirror_sync"
    #: Replica -> master partial gather accumulator (vertex-cut).
    GATHER = "gather"
    #: Remote activation request (scatter-phase signalling).
    ACTIVATE = "activate"
    #: Recovery traffic (Rebirth reload, Migration reshuffle).
    RECOVERY = "recovery"
    #: Small control-plane traffic (location updates, promotion notices).
    CONTROL = "control"


@dataclass
class Message:
    """One physical message; ``nbytes`` is its modelled payload size.

    A columnar-batch payload makes this one *transfer* carrying
    :func:`record_count` logical records; scalar payloads carry one.
    """

    kind: MessageKind
    src: int
    dst: int
    payload: Any
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("message size cannot be negative")


def record_count(payload: Any) -> int:
    """Logical records carried by a payload (1 for scalar payloads)."""
    if getattr(payload, "is_columnar", False):
        return payload.record_count
    return 1


@dataclass
class TrafficStats:
    """Aggregated counters, by message kind.

    ``msgs_by_kind`` / ``total_msgs`` count *logical records* (one per
    vertex-level payload, the paper's message unit); ``batches_by_kind``
    / ``total_batches`` count *physical transfers* (one per batch, the
    Python-object / header unit).  For scalar messages the two match.
    """

    msgs_by_kind: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int))
    bytes_by_kind: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int))
    batches_by_kind: dict[MessageKind, int] = field(
        default_factory=lambda: defaultdict(int))
    total_msgs: int = 0
    total_bytes: int = 0
    total_batches: int = 0

    def record(self, msg: Message) -> None:
        records = record_count(msg.payload)
        wire = msg.nbytes + BYTES_PER_MSG_HEADER
        self.msgs_by_kind[msg.kind] += records
        self.bytes_by_kind[msg.kind] += wire
        self.batches_by_kind[msg.kind] += 1
        self.total_msgs += records
        self.total_bytes += wire
        self.total_batches += 1


class LocalHub:
    """Per-destination FIFO queues with crash-purge support.

    The queue mechanics behind :class:`Network`'s inbox and
    delayed-inbox maps: append/drain are O(1) amortised, queue keys
    never linger empty (crashed-node ids must not accumulate across
    rebirth cycles), and :meth:`remove` supports the purge-by-sender
    crash semantics.
    """

    def __init__(self) -> None:
        self._queues: dict[int, list] = {}

    def __len__(self) -> int:
        """Total queued items across all destinations (so an empty hub
        is falsy, like the plain dict it replaced)."""
        return sum(len(queue) for queue in self._queues.values())

    def append(self, dst: int, item: Any) -> None:
        queue = self._queues.get(dst)
        if queue is None:
            queue = self._queues[dst] = []
        queue.append(item)

    def drain(self, dst: int) -> list:
        """Remove and return the destination's whole queue (FIFO order)."""
        return self._queues.pop(dst, [])

    def size(self, dst: int) -> int:
        return len(self._queues.get(dst, ()))

    def dsts(self) -> set[int]:
        """Destinations currently holding at least one queued item."""
        return set(self._queues)

    def remove(self, predicate: Callable[[Any], bool]) -> list:
        """Remove and return every queued item matching ``predicate``,
        deleting queues it empties."""
        removed: list = []
        for dst in list(self._queues):
            queue = self._queues[dst]
            kept = [item for item in queue if not predicate(item)]
            if len(kept) == len(queue):
                continue
            removed.extend(item for item in queue if predicate(item))
            if kept:
                self._queues[dst] = kept
            else:
                del self._queues[dst]
        return removed


class Network:
    """In-memory batched transport between simulated nodes."""

    def __init__(self, is_alive: Callable[[int], bool],
                 metrics: MetricsRegistry | None = None):
        self._is_alive = is_alive
        #: Per-destination FIFO inbox queues.
        self._queues = LocalHub()
        #: Messages held back by a ``delay`` fault verdict; merged at the
        #: back of the destination's inbox on the next ``deliver`` (late
        #: arrival within the same barrier window).
        self._delayed = LocalHub()
        # step-scoped counters (reset by begin_step)
        self.step_bytes: dict[int, dict[int, int]] = \
            defaultdict(lambda: defaultdict(int))
        self.step_msgs: dict[int, dict[int, int]] = \
            defaultdict(lambda: defaultdict(int))
        # lifetime counters
        self.totals = TrafficStats()
        self.metrics = metrics or MetricsRegistry()
        #: Optional fault injector (chaos testing): callable returning a
        #: verdict for each remote message — ``"deliver"`` (default),
        #: ``"drop"``, ``"duplicate"`` or ``"delay"``.
        self.fault_injector: Callable[[Message], str] | None = None
        #: Optional record-level injector for columnar batches: called
        #: as ``(msg, record_index) -> verdict`` once per record, so
        #: chaos keeps per-record semantics across batched transport.
        #: Without it, ``fault_injector``'s single verdict applies to
        #: the whole batch.
        self.record_fault_injector: Callable[[Message, int], str] | None = \
            None
        #: Combining-layer accounting (DESIGN.md §15), over payloads
        #: that declare the pre/physical record split (gather batches):
        #: ``combine_pre`` counts the records that would have crossed
        #: the wire uncombined, ``combine_phys`` the records that did.
        self.combine_pre = 0
        self.combine_phys = 0

    # -- metrics --------------------------------------------------------

    def bind_metrics(self, metrics: MetricsRegistry) -> None:
        """Re-home the ``net.*`` counters into a job-wide registry.

        The network is built with the cluster, before the engine (and
        its registry) exist; counts accumulated so far carry over.
        """
        if metrics is self.metrics:
            return
        metrics.absorb(self.metrics)
        self.metrics = metrics

    @property
    def dropped_msgs(self) -> int:
        """Messages dropped at a dead destination."""
        return int(self.metrics.value("net.dropped_msgs"))

    @property
    def dropped_bytes(self) -> int:
        """Wire bytes (incl. header) of messages dropped at a dead
        destination; keeps the cost model's traffic accounting honest
        during failure windows."""
        return int(self.metrics.value("net.dropped_bytes"))

    @property
    def chaos_dropped_msgs(self) -> int:
        return int(self.metrics.value("net.chaos_dropped_msgs"))

    @property
    def chaos_dropped_bytes(self) -> int:
        return int(self.metrics.value("net.chaos_dropped_bytes"))

    @property
    def chaos_duplicated_msgs(self) -> int:
        return int(self.metrics.value("net.chaos_duplicated_msgs"))

    @property
    def chaos_delayed_msgs(self) -> int:
        return int(self.metrics.value("net.chaos_delayed_msgs"))

    @property
    def purged_msgs(self) -> int:
        """In-flight messages discarded by crash purges (both kinds)."""
        return int(self.metrics.value("net.purged_msgs"))

    # -- step lifecycle -------------------------------------------------

    def begin_step(self) -> None:
        """Reset the per-superstep batching counters."""
        self.step_bytes = defaultdict(lambda: defaultdict(int))
        self.step_msgs = defaultdict(lambda: defaultdict(int))

    # -- send / receive ---------------------------------------------------

    def send(self, msg: Message) -> None:
        """Enqueue a message; drops it if the destination has crashed."""
        if msg.src == msg.dst:
            # Local delivery is free in the real systems too: co-located
            # master/replica pairs share memory.  Still delivered so the
            # engine code stays uniform, but not counted as traffic.
            self._queues.append(msg.dst, msg)
            return
        if not self._is_alive(msg.dst):
            self.metrics.inc("net.dropped_msgs", record_count(msg.payload))
            self.metrics.inc("net.dropped_bytes",
                             msg.nbytes + BYTES_PER_MSG_HEADER)
            return
        if self.fault_injector is not None:
            if (self.record_fault_injector is not None
                    and getattr(msg.payload, "is_columnar", False)):
                self._send_with_record_faults(msg)
                return
            records = record_count(msg.payload)
            verdict = self.fault_injector(msg)
            if verdict == "drop":
                self.metrics.inc("net.chaos_dropped_msgs", records)
                self.metrics.inc("net.chaos_dropped_bytes",
                                 msg.nbytes + BYTES_PER_MSG_HEADER)
                return
            delayed = verdict == "delay"
            if delayed:
                self.metrics.inc("net.chaos_delayed_msgs", records)
            self._enqueue(msg, delayed=delayed)
            if verdict == "duplicate":
                # A retransmission: both copies cross the wire, and each
                # delivery must own an independent payload — a consumer
                # mutating one copy of a duplicated message must not
                # corrupt the other in-flight delivery.
                self.metrics.inc("net.chaos_duplicated_msgs", records)
                self._enqueue(self._clone_message(msg), delayed=delayed)
            return
        self._enqueue(msg)

    def _enqueue(self, msg: Message, delayed: bool = False) -> None:
        """Queue one physical message and charge all counters."""
        (self._delayed if delayed else self._queues).append(msg.dst, msg)
        wire_bytes = msg.nbytes + BYTES_PER_MSG_HEADER
        records = record_count(msg.payload)
        self.step_bytes[msg.src][msg.dst] += wire_bytes
        self.step_msgs[msg.src][msg.dst] += records
        self.totals.record(msg)
        self.metrics.inc("net.sent_msgs", records)
        self.metrics.inc("net.sent_batches")
        self.metrics.inc("net.sent_bytes", wire_bytes)
        self.metrics.inc(f"net.msgs.{msg.kind.value}", records)
        self.metrics.inc(f"net.bytes.{msg.kind.value}", wire_bytes)
        pre = getattr(msg.payload, "precombine_record_count", None)
        if pre is not None:
            phys = msg.payload.physical_record_count
            self.combine_pre += pre
            self.combine_phys += phys
            self.metrics.inc(f"net.combine.records_pre.{msg.kind.value}",
                             pre)
            self.metrics.inc(f"net.combine.records_phys.{msg.kind.value}",
                             phys)

    @staticmethod
    def _clone_message(msg: Message) -> Message:
        """Independent copy of a message for chaos duplication.

        Payloads exposing ``clone()`` (the columnar batches) get a
        cheap payload-aware copy; anything else falls back to
        ``copy.deepcopy`` to keep the independence guarantee.
        """
        payload = msg.payload
        clone = (payload.clone() if hasattr(payload, "clone")
                 else copy.deepcopy(payload))
        return Message(msg.kind, msg.src, msg.dst, clone, msg.nbytes)

    def _send_with_record_faults(self, msg: Message) -> None:
        """Split a columnar batch into per-verdict sub-batches.

        One verdict is drawn per record.  Records verdicted ``deliver``
        ship together; ``duplicate`` records ship in the main sub-batch
        *and* again in an independent duplicate sub-batch; ``delay``
        records ship as a held-back sub-batch; ``drop`` records never
        ship (payload bytes counted, but no header — they would have
        shared the batch's).  Each shipped sub-batch is a physical
        message with its own header, so byte accounting stays exact.
        """
        payload = msg.payload
        injector = self.record_fault_injector
        keep: list[int] = []
        dup: list[int] = []
        delay: list[int] = []
        dropped = 0
        dropped_bytes = 0
        for i in range(payload.record_count):
            verdict = injector(msg, i)
            if verdict == "drop":
                dropped += 1
                dropped_bytes += payload.record_nbytes(i)
            elif verdict == "duplicate":
                keep.append(i)
                dup.append(i)
            elif verdict == "delay":
                delay.append(i)
            else:
                keep.append(i)
        if dropped:
            self.metrics.inc("net.chaos_dropped_msgs", dropped)
            self.metrics.inc("net.chaos_dropped_bytes", dropped_bytes)
        if dup:
            self.metrics.inc("net.chaos_duplicated_msgs", len(dup))
        if delay:
            self.metrics.inc("net.chaos_delayed_msgs", len(delay))
        if not dropped and not dup and not delay:
            self._enqueue(msg)  # fast path: whole batch verdicted deliver
            return
        if keep:
            self._enqueue(self._sub_batch(msg, keep))
        if dup:
            self._enqueue(self._sub_batch(msg, dup))
        if delay:
            self._enqueue(self._sub_batch(msg, delay), delayed=True)

    @staticmethod
    def _sub_batch(msg: Message, indices: list[int]) -> Message:
        sub = msg.payload.select(indices)
        return Message(msg.kind, msg.src, msg.dst, sub, sub.nbytes())

    def deliver(self, node_id: int) -> list[Message]:
        """Drain and return the destination's inbox.

        Delayed (chaos-reordered) messages arrive after the regular
        batch — late, but still within the same barrier window.  The
        queue entries themselves are removed: ids must not accumulate
        as permanent empty keys across rebirth cycles.
        """
        if not self._is_alive(node_id):
            raise UnknownNodeError(node_id)
        inbox = self._queues.drain(node_id)
        late = self._delayed.drain(node_id)
        if late:
            inbox.extend(late)
        return inbox

    def peek_inbox_size(self, node_id: int) -> int:
        return self._queues.size(node_id) + self._delayed.size(node_id)

    def queued_node_ids(self) -> set[int]:
        """Node ids currently holding a (possibly delayed) queue entry."""
        return self._queues.dsts() | self._delayed.dsts()

    # -- failure interaction ---------------------------------------------

    def purge_from(self, node_id: int) -> int:
        """Drop undelivered messages originating at a crashed node.

        Returns the number of purged messages.  Models in-flight loss:
        a node that dies mid-superstep may have sent only a prefix of
        its batch, so the engine must roll the iteration back anyway
        (Algorithm 1, line 9) and we discard the whole batch.

        The purged traffic is deducted from the step counters — the
        rolled-back superstep's barrier must not charge communication
        time for exchanges that never completed.  Lifetime ``totals``
        keep the bytes: they did cross the wire before the crash.
        """
        purged = 0
        purged_records = 0
        for hub in (self._queues, self._delayed):
            for m in hub.remove(lambda m: m.src == node_id):
                purged += 1
                purged_records += record_count(m.payload)
                if m.src != m.dst:  # self-sends never step-counted
                    self._deduct_step(m)
        if purged:
            # The metric counts logical records (the paper's message
            # unit); the return value counts physical queue entries.
            self.metrics.inc("net.purged_msgs", purged_records)
        return purged

    def purge_inbox(self, node_id: int) -> int:
        """Drop messages queued *for* a node (its memory is gone).

        The dead id's queue entries are removed outright — a defaultdict
        key left behind for every crashed incarnation would leak across
        repeated rebirth cycles.
        """
        queued = self._queues.drain(node_id)
        delayed = self._delayed.drain(node_id)
        n = len(queued) + len(delayed)
        if n:
            self.metrics.inc(
                "net.purged_msgs",
                sum(record_count(m.payload) for m in queued)
                + sum(record_count(m.payload) for m in delayed))
        return n

    def _deduct_step(self, msg: Message) -> None:
        """Remove one purged message from the step batching counters."""
        wire_bytes = msg.nbytes + BYTES_PER_MSG_HEADER
        row = self.step_bytes.get(msg.src)
        if row is not None and msg.dst in row:
            row[msg.dst] = max(0, row[msg.dst] - wire_bytes)
        row = self.step_msgs.get(msg.src)
        if row is not None and msg.dst in row:
            row[msg.dst] = max(0, row[msg.dst]
                               - record_count(msg.payload))

    # -- accounting views --------------------------------------------------

    def step_bytes_sent_by(self, node_id: int) -> int:
        return sum(self.step_bytes.get(node_id, {}).values())

    def step_msgs_sent_by(self, node_id: int) -> int:
        return sum(self.step_msgs.get(node_id, {}).values())
