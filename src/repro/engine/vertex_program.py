"""The vertex-program abstraction ("think as a vertex", Section 1).

One program definition runs unchanged on both engine modes, mirroring
the paper's claim that fault-tolerance support needs *no source changes
to graph algorithms* (Section 6):

* **edge-cut** (Cyclops): the master holds all in-edges, so gather
  runs entirely locally and ``apply`` commits the new value;
* **vertex-cut** (PowerLyra/GAS): every node folds a *partial* gather
  over its local in-edges, partials travel to the master, and the
  master applies.

The gather fold must therefore be commutative and associative over
:meth:`VertexProgram.gather_sum`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.utils.sizing import BYTES_PER_VALUE


@dataclass(frozen=True)
class VertexView:
    """Read-only view of a neighboring vertex offered to ``gather``.

    Replicas carry the same static degree information as masters, so
    this view is constructible anywhere the edge lives.
    """

    vid: int
    value: Any
    out_degree: int
    in_degree: int


@dataclass(frozen=True)
class ApplyContext:
    """Per-superstep context handed to ``apply``."""

    iteration: int
    num_vertices: int
    num_edges: int


class VertexProgram(abc.ABC):
    """Base class for graph algorithms.

    Subclasses override the gather/apply/activation hooks; everything
    has a sensible default for always-active, scalar-valued programs.
    """

    #: Human-readable algorithm name (used in reports).
    name: str = "vertex-program"

    #: True when ``apply`` depends only on gathered neighbor state, not
    #: on the vertex's own previous value.  Gates the selfish-vertex
    #: optimisation (Section 4.4): a selfish vertex's dynamic state can
    #: be *recomputed* from neighbors during recovery only for
    #: history-free programs.
    history_free: bool = False

    #: True when the program mutates edge state during computation
    #: (rare; Section 4.3).  Triggers incremental edge-ckpt logging
    #: under vertex-cut.
    mutates_edges: bool = False

    # -- initialisation -------------------------------------------------

    @abc.abstractmethod
    def initial_value(self, vid: int, ctx: ApplyContext) -> Any:
        """Initial vertex value before the first superstep."""

    def is_initially_active(self, vid: int) -> bool:
        """Whether the vertex computes in the first superstep."""
        return True

    def initial_values(self, gids: np.ndarray,
                       ctx: ApplyContext) -> np.ndarray:
        """:meth:`initial_value` of every vertex in ``gids``, as one
        column: by default an object column, one call per vertex.  A
        program with an array kernel returns a column of the kernel's
        dtype, equal element by element to the per-vertex values, and
        its graphs are born with a value column of that dtype."""
        values = np.empty(len(gids), dtype=object)
        for i, gid in enumerate(gids.tolist()):
            values[i] = self.initial_value(gid, ctx)
        return values

    def initially_active(self, gids: np.ndarray) -> np.ndarray:
        """:meth:`is_initially_active` of every vertex in ``gids``, as
        one bool column (by default one call per vertex)."""
        return np.fromiter(map(self.is_initially_active, gids.tolist()),
                           bool, len(gids))

    # -- gather ------------------------------------------------------------

    #: Name of the commutative-associative combiner the gather fold
    #: decomposes into — ``"sum"``, ``"min"`` or ``"max"`` — or ``None``
    #: when the fold is opaque.  Declaring a combiner states that
    #: ``gather(acc, src, w, dst) == op(acc, contribution(src, w, dst))``
    #: *exactly* (including tie behaviour), which lets the combining
    #: layer (DESIGN.md §15) fold same-destination records before
    #: ``Network.send`` and, with combining off, ship the raw per-edge
    #: contributions instead and fold them on the receiver — both
    #: bit-identical to the plain gather loop.
    combiner: str | None = None

    def gather_init(self) -> Any:
        """Identity element of the gather fold."""
        return None

    @abc.abstractmethod
    def gather(self, acc: Any, src: VertexView, weight: float,
               dst_vid: int) -> Any:
        """Fold one in-edge ``(src -> dst_vid, weight)`` into ``acc``."""

    def contribution(self, src: VertexView, weight: float,
                     dst_vid: int) -> Any:
        """One in-edge's contribution to the gather fold.

        Only consulted when :attr:`combiner` is declared.  Return
        ``None`` for "no contribution" (e.g. a zero-out-degree PageRank
        source); ``None`` contributions are skipped by the fold and
        never shipped raw.
        """
        raise NotImplementedError(
            f"{self.name}: combiner declared without contribution()")

    def update_edge(self, src: VertexView, dst_vid: int, weight: float,
                    ctx: ApplyContext) -> float | None:
        """Optionally mutate one in-edge's state (weight) per superstep.

        Called while the edge is gathered (the gather itself sees the
        *old* weight; updates commit at the barrier, preserving BSP
        semantics).  Return the new weight, or ``None`` to leave the
        edge unchanged.  Only consulted when :attr:`mutates_edges` is
        True; under vertex-cut the update is incrementally logged to
        the edge-ckpt files (Section 4.3), under edge-cut it rides the
        mirror synchronisation.
        """
        return None

    def gather_sum(self, a: Any, b: Any) -> Any:
        """Combine two partial accumulators (vertex-cut only).

        The default covers the common cases: ``None`` identities and
        numeric partials.
        """
        if a is None:
            return b
        if b is None:
            return a
        return a + b

    def acc_nbytes(self, acc: Any) -> int:
        """Wire size of a partial accumulator (GATHER messages)."""
        if acc is None:
            return 1
        if isinstance(acc, (tuple, list)):
            return max(1, len(acc)) * BYTES_PER_VALUE
        return BYTES_PER_VALUE

    # -- apply / scatter -----------------------------------------------------

    @abc.abstractmethod
    def apply(self, vid: int, old_value: Any, acc: Any,
              ctx: ApplyContext) -> Any:
        """Produce the vertex's new value from the gathered accumulator."""

    def kernel(self):
        """Vectorized array kernel for this program, or ``None``.

        A program that can express its gather/apply/activation hooks
        array-at-a-time returns an :class:`repro.algorithms.kernels.
        ArrayKernel` here; the engine then runs the vectorized fast
        path (``EngineConfig.vectorized``).  The default ``None`` keeps
        the per-vertex scalar loop — custom programs need no changes.
        The kernel must be bit-for-bit equivalent to the scalar hooks;
        ``tests/test_vectorized_differential.py`` is the oracle.
        """
        return None

    def participates(self, vid: int, ctx: ApplyContext) -> bool:
        """Whether an active vertex actually computes this superstep.

        ALS uses this to alternate sides; everything else returns True.
        """
        return True

    def activates_neighbors(self, vid: int, old_value: Any, new_value: Any,
                            ctx: ApplyContext) -> bool:
        """Whether this update schedules the out-neighbors next superstep."""
        return True

    def stays_active(self, vid: int, old_value: Any, new_value: Any,
                     ctx: ApplyContext) -> bool:
        """Whether the vertex re-activates itself (PageRank-style loops)."""
        return True

    # -- convergence ----------------------------------------------------------

    def value_nbytes(self, value: Any) -> int:
        """Wire size of one vertex value (SYNC messages)."""
        if isinstance(value, (tuple, list)):
            return max(1, len(value)) * BYTES_PER_VALUE
        return BYTES_PER_VALUE

    def value_sizes(self, values: np.ndarray) -> np.ndarray:
        """Wire size of each of ``values``: the array kernel's constant
        where the program has one (it matches :meth:`value_nbytes` on
        every value, however the run executes), else
        :meth:`value_nbytes` of each."""
        kernel = self.kernel()
        if kernel is not None:
            return np.full(len(values), kernel.value_nbytes, dtype=np.int64)
        return np.fromiter(map(self.value_nbytes, values.tolist()),
                           np.int64, len(values))
