"""Layer probes for the multiprocessing backend.

``exec/mp.py`` emits no spans yet, so the benchmark replays the first
supersteps of the spec in-process, timing calls into the same public
functions a worker and the coordinator call — on the real per-rank
local graphs and the batches they produce.  The frame shapes mirror
``_worker_main`` / ``MultiprocessingBackend._iterate``.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.reduction import ForkingPickler

PROBED_SUPERSTEPS = 3


def _echo(endpoint) -> None:
    while True:
        src, frame = endpoint.recv()
        if frame is None:
            return
        endpoint.send(src, frame)


class _Timer:
    """Accumulates wall per (layer, rank)."""

    def __init__(self) -> None:
        self.by_rank: dict[str, dict[int, float]] = {}

    def time(self, layer: str, rank: int, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        ranks = self.by_rank.setdefault(layer, {})
        ranks[rank] = ranks.get(rank, 0.0) + time.perf_counter() - start
        return out

    def total(self, layer: str) -> float:
        return sum(self.by_rank.get(layer, {}).values())


def probe_layers(graph, spec) -> dict:
    """Per-superstep layer times of the mp path, summed over ranks."""
    from repro.api import make_engine
    from repro.engine.messages import ActivateBatch
    from repro.engine.vertex_program import ApplyContext
    from repro.exec.protocol import NodeProtocol
    from repro.exec.serialize import decode_batch, encode_batch
    from repro.exec.transport import pipe_pair

    # The pristine image workers fork from (MultiprocessingBackend.run).
    kwargs = spec.engine_kwargs()
    kwargs["vectorized"] = False
    kwargs["membership"] = ()
    engine = make_engine(graph, **kwargs)
    proto = NodeProtocol(engine.program, engine.is_edge_cut,
                         sync_elision=engine._sync_elision,
                         selfish_opt=engine.selfish_opt_active,
                         combining=engine._combining)
    ranks = sorted(engine.local_graphs)
    lgs = engine.local_graphs
    timer = _Timer()
    wire_bytes = 0

    near, far = pipe_pair(0, 1)
    echo = multiprocessing.get_context("fork").Process(
        target=_echo, args=(far,), daemon=True)
    echo.start()

    def round_trip(rank: int, frame: tuple) -> None:
        nonlocal wire_bytes
        wire_bytes += len(ForkingPickler.dumps(frame))

        def trip():
            near.send(1, frame)
            near.recv(timeout=60.0)
        timer.time("transport", rank, trip)

    try:
        for it in range(PROBED_SUPERSTEPS):
            ctx = ApplyContext(iteration=it,
                               num_vertices=graph.num_vertices,
                               num_edges=graph.num_edges)
            dirty = {rank: {} for rank in ranks}
            inbox: dict[int, list] = {rank: [] for rank in ranks}
            for rank in ranks:
                outbox: dict = {}
                timer.time("compute", rank, proto.edge_cut_compute_node,
                           lgs[rank], ctx, outbox, dirty[rank])
                encoded = timer.time(
                    "encode", rank,
                    lambda: [(dst, kind.value, encode_batch(batch))
                             for (dst, kind), batch in outbox.items()])
                round_trip(rank, ("computed", it, encoded))
                for dst, _kind, enc in encoded:
                    inbox[dst].append((rank, enc))
            signals: dict[int, list] = {rank: [] for rank in ranks}
            for rank in ranks:
                for _src, enc in inbox[rank]:
                    batch = timer.time("decode", rank, decode_batch, enc)
                    timer.time("apply_sync", rank, proto.apply_sync_batch,
                               lgs[rank], batch, dirty[rank])
                staged = timer.time("commit", rank, proto.commit_stage1,
                                    lgs[rank], dirty[rank], it)
                by_dst: dict[int, ActivateBatch] = {}
                for dst, gid in sorted(set(staged)):
                    by_dst.setdefault(dst, ActivateBatch()).append(gid)
                encoded = timer.time(
                    "encode", rank,
                    lambda: [(dst, encode_batch(b))
                             for dst, b in by_dst.items()])
                round_trip(rank, ("staged", it, encoded))
                for dst, enc in encoded:
                    signals[dst].append(enc)
            for rank in ranks:
                for enc in signals[rank]:
                    batch = timer.time("decode", rank, decode_batch, enc)
                    timer.time("commit", rank, proto.apply_activations,
                               lgs[rank], batch.gids, dirty[rank])
                timer.time("commit", rank, proto.finalize_commit,
                           lgs[rank], dirty[rank], it)
        near.send(1, None)
        echo.join(timeout=10.0)
    finally:
        if echo.is_alive():
            echo.kill()
            echo.join()
        near.close()
        far.close()

    n = PROBED_SUPERSTEPS
    protocol = ("compute", "apply_sync", "commit")
    # A superstep waits for its slowest worker: the per-rank maximum is
    # the blocking share of the protocol time, the sum is the CPU spent.
    rank_max = max(sum(timer.by_rank.get(layer, {}).get(rank, 0.0)
                       for layer in protocol) for rank in ranks)
    return {
        "mp.protocol_compute_s": timer.total("compute") / n,
        "mp.protocol_apply_sync_s": timer.total("apply_sync") / n,
        "mp.protocol_commit_s": timer.total("commit") / n,
        "mp.protocol_rank_max_s": rank_max / n,
        "mp.codec_encode_s": timer.total("encode") / n,
        "mp.codec_decode_s": timer.total("decode") / n,
        "mp.transport_s": timer.total("transport") / n,
        "mp.wire_bytes_per_superstep": wire_bytes // n,
        "mp.workers": len(ranks),
    }
