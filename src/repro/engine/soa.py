"""Structure-of-arrays topology image of one node's local graph.

A node is born as columns and its slots
(:class:`~repro.engine.state.VertexSlot`) are stamped lazily
(``engine/local_graph.py``; Migration, FT repair and membership moves
write the slots they stamp, while a Rebirth reads metadata as columns,
``SlotArray.metadata``, and stamps none), and the vectorized compute path,
recovery's selection and checkpointing need the *static* shape of a
node's graph as flat numpy arrays: role masks,
degrees, the local in-/out-edge lists in CSR-style per-edge arrays, the
master->replica sync fan-out grouped by destination (flat in send
order, ``sync_pos``; ``sync_plan`` holds views of it) and, beside it,
each planned copy's position on its own node, and the static orders of
the vertex-cut exchanges (``act_order``: the copies an out-edge can
activate, by (master node, gid); ``gather_order``: the copies with
in-edges, stably by master node; ``out_hit`` / ``has_out``: the
positions out-edges enter / leave).  :class:`NodeTopology` is
that image, with two constructors the SoA-coherence chaos invariant
holds equal: the loader — and Rebirth, for a reborn node — cuts it from
the columns the node's birth record comes from
(:meth:`~NodeTopology.from_columns`), so a
:class:`~repro.engine.local_graph.LocalGraph` is born with it; once
something writes that node's structure outside the barrier commit —
``add_slot``/``remove_slot``, or the ``invalidate_soa`` every such
writer (a recovery rung, FT repair, a membership move) issues for
exactly the nodes it wrote on — :meth:`~NodeTopology.build` reads it
back out of the slots, stamping every one.

Dynamic state (values, activity flags) deliberately does NOT live
here: the ``LocalGraph`` owns those columns — the one copy, which a
column state adopts whenever this topology object is replaced and a
bound slot reads and writes — so writing a value or a flag never stales
an image.
"""

from __future__ import annotations

import numpy as np

from repro.engine.messages import csr_ptr
from repro.engine.state import Role
from repro.utils.arrays import stable_order


def _order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` of non-negative ``keys``."""
    return stable_order(keys, int(keys.max(initial=0)) + 1)


def _mask(n: int, positions: np.ndarray) -> np.ndarray:
    """A length-``n`` mask set at ``positions``."""
    mask = np.zeros(n, dtype=bool)
    mask[positions] = True
    return mask


def sync_columns(to, master_pos, peer_pos) -> tuple:
    """A node's sync plan, flat, from one row per (master, copy) pair in
    the order a walk over the masters meets them (send order): ``to`` is
    the copy's node * 2 + is-mirror, ``master_pos`` the master's
    position, ``peer_pos`` the copy's.  Returns ``(keys, ptr, pos,
    peer)``: the ``(node, is_mirror)`` keys in first-appearance order
    and, as the CSR slices ``ptr[i]:ptr[i + 1]``, each key's master and
    copy positions in send order — one stable counting pass over ``to``,
    not a mask per key."""
    to = np.asarray(to, dtype=np.int64)
    bound = int(to.max(initial=-1)) + 1
    order = stable_order(to, bound)
    start = csr_ptr(np.bincount(to, minlength=bound))
    present = np.flatnonzero(start[1:] > start[:-1])
    # A key's first row in the stable order is its first row overall.
    keys = [key for _, key in sorted(zip(order[start[present]].tolist(),
                                         present.tolist()))]
    bounds = start.tolist()
    take = np.concatenate([np.zeros(0, dtype=np.int64), *(
        order[bounds[key]:bounds[key + 1]] for key in keys)])
    return ([(key >> 1, bool(key & 1)) for key in keys],
            csr_ptr([bounds[key + 1] - bounds[key] for key in keys]),
            np.asarray(master_pos, dtype=np.int64)[take],
            np.asarray(peer_pos, dtype=np.int64)[take])


def _frozen(col: np.ndarray) -> np.ndarray:
    """``col``, read-only: a column kernels hand out as is (``edge_fold``
    returns ``has_in`` itself) must not be written through."""
    col.flags.writeable = False
    return col


class NodeTopology:
    """Immutable array view of one node's local graph topology."""

    __slots__ = (
        "n", "gids", "occupied", "is_master", "is_mirror", "selfish",
        "master_node", "out_deg_f", "in_counts", "has_in", "in_src_live",
        "in_src", "in_w", "in_dst", "out_src", "out_dst",
        "gid_sorted", "pos_sorted", "sync_plan", "sync_peer",
        "sync_pos", "sync_ptr", "sync_mirror",
        "has_out", "out_hit", "act_order", "gather_order",
    )

    @classmethod
    def build(cls, lg) -> "NodeTopology":
        """Read the image back out of ``lg``'s slots (after a write)."""
        slots = lg.slots
        n = len(slots)
        gids = np.full(n, -1, dtype=np.int64)
        occupied = np.zeros(n, dtype=bool)
        is_master = np.zeros(n, dtype=bool)
        is_mirror = np.zeros(n, dtype=bool)
        selfish = np.zeros(n, dtype=bool)
        master_node = np.full(n, -1, dtype=np.int64)
        out_deg = np.zeros(n, dtype=np.float64)
        in_src: list[int] = []
        in_w: list[float] = []
        in_dst: list[int] = []
        out_src: list[int] = []
        out_dst: list[int] = []
        sync_to: list[int] = []
        sync_master: list[int] = []
        sync_peer: list[int] = []
        node_id = lg.node_id
        for pos, slot in enumerate(slots):
            if slot is None:
                continue
            occupied[pos] = True
            gids[pos] = slot.gid
            out_deg[pos] = slot.out_degree
            selfish[pos] = slot.selfish
            if slot.role is Role.MASTER:
                is_master[pos] = True
                master_node[pos] = node_id
                where = slot.meta.replica_positions
                for node, mirror in slot.meta.sync_targets():
                    sync_to.append(node * 2 + mirror)
                    sync_master.append(pos)
                    sync_peer.append(where[node])
            else:
                if slot.role is Role.MIRROR:
                    is_mirror[pos] = True
                master_node[pos] = slot.master_node
            edges = slot.in_edges
            if edges:
                srcs, ws = zip(*edges)
                in_src.extend(srcs)
                in_w.extend(ws)
                in_dst.extend([pos] * len(edges))
            # Tombstoned targets are dropped here, mirroring the
            # ``target is None: continue`` guard of the scalar commit.
            outs = [d for d in slot.out_edges if slots[d] is not None]
            if outs:
                out_src.extend([pos] * len(outs))
                out_dst.extend(outs)
        return cls.from_columns(
            gids, occupied, is_master, is_mirror, selfish, master_node,
            out_deg, in_src, in_w, in_dst, out_src, out_dst,
            sync_columns(sync_to, sync_master, sync_peer))

    @classmethod
    def from_columns(cls, gids, occupied, is_master, is_mirror, selfish,
                     master_node, out_deg, in_src, in_w, in_dst, out_src,
                     out_dst, sync) -> "NodeTopology":
        """Adopt per-position columns, per-edge columns in (position,
        edge) order and the flat sync plan ``sync`` that
        :func:`sync_columns` returns — the keys in send order, their CSR
        pointer, the masters' positions and each planned copy's
        position on its own node (``sync_peer``) — and derive the rest.
        The loader cuts them from its global columns (``engine/construction.py``), Rebirth
        from the columns its reborn node received
        (``ft/_recovery_common.py``), and :meth:`build` reads them off
        the slots."""
        topo = cls()
        topo.n = len(gids)
        topo.gids = gids
        topo.occupied = occupied
        topo.is_master = is_master
        topo.is_mirror = is_mirror
        topo.selfish = selfish
        topo.master_node = master_node
        topo.out_deg_f = out_deg
        topo.in_src = np.asarray(in_src, dtype=np.int64)
        topo.in_w = np.asarray(in_w, dtype=np.float64)
        topo.in_dst = np.asarray(in_dst, dtype=np.int64)
        topo.out_src = np.asarray(out_src, dtype=np.int64)
        topo.out_dst = np.asarray(out_dst, dtype=np.int64)
        topo.in_counts = _frozen(np.bincount(topo.in_dst, minlength=topo.n))
        topo.has_in = _frozen(topo.in_counts > 0)
        # Every in-edge's source has out-edges (PageRank divides once
        # per position, not per edge, when it does).
        topo.in_src_live = (topo.out_deg_f[topo.in_src] > 0.0).all()
        occ = np.flatnonzero(occupied)
        topo.pos_sorted = occ[_order(gids[occ])]
        topo.gid_sorted = gids[topo.pos_sorted]
        # The plan flat, in send order (``sync_plan[key]`` a view).
        keys, topo.sync_ptr, topo.sync_pos, topo.sync_peer = sync
        topo.sync_mirror = np.repeat(np.array(
            [m for _, m in keys], dtype=bool), np.diff(topo.sync_ptr))
        bounds = topo.sync_ptr.tolist()
        topo.sync_plan = {key: topo.sync_pos[b:e] for key, b, e in
                          zip(keys, bounds, bounds[1:])}
        # The static orders of the vertex-cut exchanges: only copies an
        # out-edge can activate, or an in-edge can gather into, are in
        # them (none under edge-cut).
        topo.has_out = _frozen(_mask(topo.n, topo.out_src))
        topo.out_hit = _frozen(_mask(topo.n, topo.out_dst))
        remote = np.flatnonzero(topo.out_hit & ~is_master)
        remote = remote[_order(gids[remote])]
        topo.act_order = _frozen(remote[_order(master_node[remote])])
        remote = np.flatnonzero(topo.has_in & ~is_master)
        topo.gather_order = _frozen(remote[_order(master_node[remote])])
        return topo

    def copies_on(self, node: int) -> tuple[np.ndarray, np.ndarray,
                                            np.ndarray]:
        """The masters here with a copy on ``node``: their positions,
        the copy's position there and whether it is a mirror."""
        ptr = self.sync_ptr.tolist()
        take = np.concatenate([np.zeros(0, dtype=np.int64), *(
            np.arange(b, e) for (dst, _), b, e in
            zip(self.sync_plan, ptr, ptr[1:]) if dst == node)])
        return (self.sync_pos[take], self.sync_peer[take],
                self.sync_mirror[take])

    def translate(self, gid_array: np.ndarray) -> np.ndarray:
        """Map an array of gids to local positions (all must be local)."""
        return self.pos_sorted[np.searchsorted(self.gid_sorted, gid_array)]

    def find(self, gid_array: np.ndarray) -> np.ndarray:
        """Map an array of gids to local positions, -1 for a gid with no
        copy here."""
        gid_array = np.asarray(gid_array, dtype=np.int64)
        if not self.gid_sorted.size:
            return np.full(gid_array.size, -1, dtype=np.int64)
        at = np.minimum(np.searchsorted(self.gid_sorted, gid_array),
                        self.gid_sorted.size - 1)
        return np.where(self.gid_sorted[at] == gid_array,
                        self.pos_sorted[at], -1)
