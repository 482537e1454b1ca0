"""Wire codec for the five columnar batch types (DESIGN.md §12, §15).

Batches cross process boundaries as plain tuples of columns — no
class identity on the wire — so the multiprocessing transport never
depends on pickle reconstructing engine classes, and a decoded batch
is rebuilt through the same ``from_columns`` adoption path the
vectorized executor uses (byte accounting stays identical).  Columns
ship as they are: the array path's numpy columns as arrays (one pickle
each, no per-record objects), the scalar path's lists as lists.

The encoded header exposes both accounting tiers without
materialising the batch object (DESIGN.md §15): the *physical* numbers
(:func:`encoded_nbytes` / :func:`encoded_records`) describe what is
actually on the wire after combining, while the *logical* numbers
(:func:`encoded_logical_nbytes` / :func:`encoded_logical_records`)
describe the combined-equivalent units the coordinator charges so the
paper's cost model — and mp-vs-simulator message/byte parity — is
independent of the combining knob.  :func:`encoded_precombine_records`
adds the pre-combine contribution count feeding the combine-ratio
counters.  The tiers only diverge for gather payloads; every other
batch type reports the same number in both.
"""

from __future__ import annotations

from typing import Any

from repro.engine.messages import (
    ActivateBatch,
    ActiveBroadcastBatch,
    GatherBatch,
    RawGatherBatch,
    SyncBatch,
)

TAG_SYNC = "sync"
TAG_GATHER = "gather"
TAG_RAW_GATHER = "raw_gather"
TAG_ACTIVATE = "activate"
TAG_BROADCAST = "broadcast"

#: Encoded batch: (tag, physical_nbytes, physical_records,
#: logical_nbytes, logical_records, precombine_records, *columns).
_TAG = 0
_NBYTES = 1
_RECORDS = 2
_LOGICAL_NBYTES = 3
_LOGICAL_RECORDS = 4
_PRECOMBINE_RECORDS = 5


def _header(tag: str, batch: Any) -> tuple:
    phys_nbytes = getattr(batch, "physical_nbytes", batch.nbytes)()
    phys_records = getattr(batch, "physical_record_count",
                           batch.record_count)
    pre_records = getattr(batch, "precombine_record_count",
                          batch.record_count)
    return (tag, phys_nbytes, phys_records, batch.nbytes(),
            batch.record_count, pre_records)


def encode_batch(batch: Any) -> tuple:
    """Flatten one columnar batch into a tuple of its columns, each
    shipped as it is: numpy columns travel as arrays (pickled whole),
    list columns as lists."""
    if isinstance(batch, SyncBatch):
        return _header(TAG_SYNC, batch) + (
            batch.full_state, batch.gids, batch.positions, batch.values,
            batch.flags, batch.sizes, batch.edge_updates)
    if isinstance(batch, GatherBatch):
        return _header(TAG_GATHER, batch) + (
            batch.gids, batch.accs, batch.sizes, batch.folded)
    if isinstance(batch, RawGatherBatch):
        return _header(TAG_RAW_GATHER, batch) + (
            batch.gids, batch.counts, batch.contribs, batch.sizes,
            batch.phys_sizes)
    if isinstance(batch, ActivateBatch):
        return _header(TAG_ACTIVATE, batch) + (batch.gids,)
    if isinstance(batch, ActiveBroadcastBatch):
        return _header(TAG_BROADCAST, batch) + (batch.gids, batch.actives)
    raise TypeError(f"not a columnar batch: {type(batch).__name__}")


def decode_batch(enc: tuple) -> Any:
    """Rebuild the batch a tuple from :func:`encode_batch` describes,
    adopting its columns."""
    tag, cols = enc[_TAG], enc[_PRECOMBINE_RECORDS + 1:]
    if tag == TAG_SYNC:
        full_state, *columns, edge_updates = cols
        return SyncBatch.from_columns(*columns, full_state=full_state,
                                      edge_updates=edge_updates)
    if tag == TAG_GATHER:
        return GatherBatch.from_columns(*cols)
    if tag == TAG_RAW_GATHER:
        return RawGatherBatch.from_columns(*cols)
    if tag == TAG_ACTIVATE:
        return ActivateBatch(cols[0])
    if tag == TAG_BROADCAST:
        batch = ActiveBroadcastBatch()
        batch.gids, batch.actives = cols
        return batch
    raise ValueError(f"unknown batch tag: {tag!r}")


def encoded_nbytes(enc: tuple) -> int:
    """Post-combine physical payload bytes on the wire (header
    excluded)."""
    return enc[_NBYTES]


def encoded_records(enc: tuple) -> int:
    """Post-combine physical records on the wire."""
    return enc[_RECORDS]


def encoded_logical_nbytes(enc: tuple) -> int:
    """Combined-equivalent payload bytes — the cost-model unit the
    coordinator charges regardless of the combining knob."""
    return enc[_LOGICAL_NBYTES]


def encoded_logical_records(enc: tuple) -> int:
    """Combined-equivalent logical records — the paper's message
    unit."""
    return enc[_LOGICAL_RECORDS]


def encoded_precombine_records(enc: tuple) -> int:
    """Pre-combine contribution count (combine-ratio numerator)."""
    return enc[_PRECOMBINE_RECORDS]
