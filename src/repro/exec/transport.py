"""A frame channel over ``multiprocessing`` pipes (DESIGN.md §12).

No backend runs on it: the multiprocessing backend talks to its workers
over raw ``multiprocessing.Pipe`` connections (:mod:`repro.exec.mp`),
and the simulator's ``Network`` queues live in
:mod:`repro.cluster.network`.  :class:`PipeTransport` and
:func:`pipe_pair` stay as the fixture of the benchmark ledger's
multiprocessing layer probe; ``tests/test_transport_contract.py`` holds
them lossless, FIFO per sender, with visible backpressure.
"""

from __future__ import annotations

from collections import deque
from typing import Any


class TransportClosed(Exception):
    """The peer endpoint is gone (closed pipe, dead process)."""


class PipeTransport:
    """Endpoint over ``multiprocessing`` pipe connections, one per peer.

    Frames buffered inside the OS pipe are drained into a local deque
    on demand, so :meth:`pending` reflects genuine backpressure and
    per-sender FIFO order is preserved (each connection is itself a
    FIFO byte stream).
    """

    def __init__(self, rank: int, conns: dict[int, Any]):
        self.rank = rank
        self._conns = dict(conns)
        self._buffer: deque[tuple[int, Any]] = deque()
        self._closed = False

    def send(self, dst: int, frame: Any) -> None:
        if self._closed:
            raise TransportClosed(f"endpoint {self.rank} is closed")
        conn = self._conns.get(dst)
        if conn is None:
            raise TransportClosed(f"no connection to rank {dst}")
        try:
            conn.send(frame)
        except (BrokenPipeError, OSError) as exc:
            raise TransportClosed(f"peer {dst} is gone") from exc

    def _drain_available(self) -> None:
        for src in list(self._conns):
            conn = self._conns[src]
            try:
                while conn.poll(0):
                    self._buffer.append((src, conn.recv()))
            except (EOFError, BrokenPipeError, OSError):
                del self._conns[src]

    def recv(self, timeout: float | None = None) -> tuple[int, Any]:
        from multiprocessing.connection import wait

        self._drain_available()
        if self._buffer:
            return self._buffer.popleft()
        if not self._conns:
            raise TransportClosed(f"all peers of rank {self.rank} are gone")
        ready = wait(list(self._conns.values()), timeout)
        if not ready:
            raise TimeoutError(f"no frame within {timeout}s")
        self._drain_available()
        if self._buffer:
            return self._buffer.popleft()
        if not self._conns:
            raise TransportClosed(f"all peers of rank {self.rank} are gone")
        raise TimeoutError(f"no frame within {timeout}s")

    def poll(self, timeout: float = 0.0) -> bool:
        from multiprocessing.connection import wait

        self._drain_available()
        if self._buffer:
            return True
        if not self._conns:
            return False
        return bool(wait(list(self._conns.values()), timeout))

    def pending(self) -> int:
        self._drain_available()
        return len(self._buffer)

    def close(self) -> None:
        self._closed = True
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        self._buffer.clear()


def pipe_pair(rank_a: int, rank_b: int) -> tuple[PipeTransport, PipeTransport]:
    """Two connected :class:`PipeTransport` endpoints (duplex)."""
    import multiprocessing

    end_a, end_b = multiprocessing.Pipe(duplex=True)
    return (
        PipeTransport(rank_a, {rank_b: end_a}),
        PipeTransport(rank_b, {rank_a: end_b}),
    )
