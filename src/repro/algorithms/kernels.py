"""Vectorized structure-of-arrays kernels for the built-in algorithms.

Each kernel is the array form of one :class:`~repro.engine.
vertex_program.VertexProgram`, dispatched by the engine when
``EngineConfig.vectorized`` is on and the program declares one via
:meth:`VertexProgram.kernel`.  The contract is *bit-for-bit* equality
with the scalar per-vertex loop, which pins down the numerics:

* Sum folds use ``np.add.at`` — unbuffered scatter-add that accumulates
  in index order, reproducing the scalar left-to-right fold exactly.
  ``np.add.reduceat``/``np.sum`` use pairwise summation and are NOT
  bit-identical; they must never be used here.
* Min folds use ``np.minimum.at``; min is exactly associative over the
  values these programs produce (no NaNs), so ordering is free.
* PageRank filters zero-out-degree sources out of the edge selection
  (instead of adding ``0.0``) to match the scalar ``if out_degree == 0:
  skip`` branch literally.

A kernel also declares its value dtype and the constant wire sizes of
one value / one partial accumulator, matching what
``VertexProgram.value_nbytes``/``acc_nbytes`` return for every value
the program can produce — the byte accounting of a vectorized run must
be indistinguishable from a scalar one.
"""

from __future__ import annotations

import numpy as np

from repro.utils.sizing import BYTES_PER_VALUE


class ArrayKernel:
    """Base class: array-at-a-time gather/apply/activation hooks.

    ``edge_fold`` folds a selection of local in-edges into a
    per-position accumulator array; ``combine`` names the fold used to
    merge vertex-cut partial accumulators ("sum" or "min").  ``apply``,
    ``activates`` and ``stays_active`` operate on whole columns; the
    executor masks the results down to the computed positions.
    """

    #: numpy dtype of the vertex value column.
    dtype = np.float64
    #: Partial-accumulator merge for vertex-cut ("sum" | "min" | "max").
    #: Doubles as the kernel's combiner declaration for the combining
    #: layer (DESIGN.md §15) — it names the commutative-associative op
    #: the edge fold decomposes into.
    combine = "sum"
    #: Constant wire sizes (match the program's value_nbytes/acc_nbytes).
    value_nbytes = BYTES_PER_VALUE
    acc_nbytes = BYTES_PER_VALUE
    #: True when ``apply`` must distinguish "no contribution" from the
    #: fold identity (programs with ``gather_init() is None``).
    needs_acc_presence = False

    def init_acc(self, n: int) -> np.ndarray:
        raise NotImplementedError

    def fold_into(self, acc: np.ndarray, seg: np.ndarray,
                  contrib: np.ndarray) -> None:
        """Scatter-fold per-edge/per-partial contributions into acc."""
        from repro.engine.combine import ufunc_of
        ufunc_of(self.combine).at(acc, seg, contrib)

    def edge_fold(self, topo, values: np.ndarray, esel,
                  ) -> tuple[np.ndarray, np.ndarray]:
        """Fold the selected in-edges (``esel``: indices, or
        ``slice(None)`` for all); return (acc, has_contribution).  When
        every in-edge contributed, ``has`` is the image's read-only
        ``has_in`` itself."""
        seg, contrib = self.edge_contrib(topo, values, esel)
        acc = self.init_acc(topo.n)
        self.fold_into(acc, seg, contrib)
        if seg.size == topo.in_dst.size:
            return acc, topo.has_in
        has = np.zeros(topo.n, dtype=bool)
        has[seg] = True
        return acc, has

    def fold_groups(self, counts: np.ndarray,
                    contribs: np.ndarray) -> np.ndarray:
        """Fold flattened contribution groups, one accumulator each.

        Receiver side of the uncombined wire format: ``counts[i]``
        contributions belong to record *i*, in shipped order.  Groups
        with no contribution keep the fold identity — the same value
        the sender's combined partial would have carried.
        """
        acc = self.init_acc(len(counts))
        if len(contribs):
            ridx = np.repeat(np.arange(len(counts)), counts)
            self.fold_into(acc, ridx, np.asarray(contribs, dtype=self.dtype))
        return acc

    def edge_contrib(self, topo, values: np.ndarray, esel: np.ndarray,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge (destination position, contribution) columns."""
        raise NotImplementedError

    def apply(self, gids: np.ndarray, old: np.ndarray, acc: np.ndarray,
              has: np.ndarray, ctx) -> np.ndarray:
        raise NotImplementedError

    def activates(self, gids: np.ndarray, old: np.ndarray,
                  new: np.ndarray, ctx) -> np.ndarray:
        raise NotImplementedError

    def stays_active(self, gids: np.ndarray, old: np.ndarray,
                     new: np.ndarray, ctx) -> np.ndarray:
        raise NotImplementedError


class PageRankKernel(ArrayKernel):
    """rank = (1-d) + d * sum(src.rank / src.out_degree)."""

    def __init__(self, damping: float):
        self.damping = damping

    def init_acc(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float64)

    def edge_contrib(self, topo, values, esel):
        src = topo.in_src[esel]
        deg = topo.out_deg_f[src]
        nz = deg > 0.0
        if nz.all():
            return topo.in_dst[esel], values[src] / deg
        return (topo.in_dst[esel][nz], values[src[nz]] / deg[nz])

    def apply(self, gids, old, acc, has, ctx):
        return (1.0 - self.damping) + self.damping * acc

    def activates(self, gids, old, new, ctx):
        return np.ones(len(new), dtype=bool)

    def stays_active(self, gids, old, new, ctx):
        return np.ones(len(new), dtype=bool)


class DegreeKernel(ArrayKernel):
    """Sum of in-edge weights; quiesces after one superstep."""

    def init_acc(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float64)

    def edge_contrib(self, topo, values, esel):
        return topo.in_dst[esel], topo.in_w[esel]

    def apply(self, gids, old, acc, has, ctx):
        return acc

    def activates(self, gids, old, new, ctx):
        return np.zeros(len(new), dtype=bool)

    def stays_active(self, gids, old, new, ctx):
        return np.zeros(len(new), dtype=bool)


class SSSPKernel(ArrayKernel):
    """dist = min(old, min(src.dist + w)); event-driven activation."""

    combine = "min"

    def __init__(self, source: int):
        self.source = source

    def init_acc(self, n: int) -> np.ndarray:
        return np.full(n, np.inf, dtype=np.float64)

    def edge_contrib(self, topo, values, esel):
        return (topo.in_dst[esel],
                values[topo.in_src[esel]] + topo.in_w[esel])

    def apply(self, gids, old, acc, has, ctx):
        return np.minimum(old, acc)

    def activates(self, gids, old, new, ctx):
        act = new < old
        if ctx.iteration == 0:
            act = act | (gids == self.source)
        return act

    def stays_active(self, gids, old, new, ctx):
        return np.zeros(len(new), dtype=bool)


class CCKernel(ArrayKernel):
    """Label min-propagation over int64 labels.

    ``gather_init`` is None in the scalar program, so ``apply`` keeps
    the old label when no edge contributed (``needs_acc_presence``);
    the int64.max fold sentinel never escapes through the ``has`` mask.
    """

    dtype = np.int64
    combine = "min"
    needs_acc_presence = True

    def init_acc(self, n: int) -> np.ndarray:
        return np.full(n, np.iinfo(np.int64).max, dtype=np.int64)

    def edge_contrib(self, topo, values, esel):
        return topo.in_dst[esel], values[topo.in_src[esel]]

    def apply(self, gids, old, acc, has, ctx):
        return np.where(has, np.minimum(old, acc), old)

    def activates(self, gids, old, new, ctx):
        if ctx.iteration == 0:
            return np.ones(len(new), dtype=bool)
        return new != old

    def stays_active(self, gids, old, new, ctx):
        return np.zeros(len(new), dtype=bool)
