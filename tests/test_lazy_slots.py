"""Lazy slots (DESIGN.md §3): a node is born as columns, and a
``VertexSlot`` exists only where a consumer indexes one.

* Stamping order is not observable: positions materialised in any
  order, some before the supersteps that write them and the rest after,
  equal an eager stamp of the whole node field for field.
* One copy: a stamped slot is a view of its graph's columns.  A column
  write (the commit, ``store``) shows through a
  slot stamped before it, and a slot write shows in the live column
  state without a rebuild; a slot keeps its fields when it leaves its
  position and writes them into the columns when it takes one.
* A failure-free load or run creates no ``VertexSlot`` / ``MasterMeta``
  at all, and ``soa.slots_materialized`` reads 0 at every barrier, on
  both cuts and on the multiprocessing parent image.
* A Rebirth stamps nothing: on the ``pr_kill_sim`` spec, on an edge-cut
  and on a vertex-cut, the survivors read metadata as columns
  (``SlotArray.metadata``, which equals a row-by-row read of the stamped
  slots on any mix of stamped and unstamped positions).
* The vertex-cut edge-ckpt files, built from columns, equal the ones the
  slot walk of ``tests/reference/edge_ckpt.py`` writes, at load and when
  the safety net rewrites them over the snapshot's mutated weights.
"""

from __future__ import annotations

import gc
import multiprocessing
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.mp as mp
from repro.api import make_engine
from repro.engine.local_graph import DYNAMIC, VACANT, LocalGraph
from repro.engine.messages import RecoveryBatch
from repro.engine.state import COMMITTED, MasterMeta, Role, VertexSlot
from repro.exec.base import BackendSpec
from repro.exec.mp import MultiprocessingBackend
from repro.ft import _recovery_common as common
from repro.graph import generators
from repro.membership.rebalance import move_master
from repro.serve.view import CommittedView
from repro.utils.sizing import BYTES_PER_EDGE
from tests.reference import edge_ckpt as reference
from tests.reference import memory
from tests.reference.activity import active_gids
from tests.test_edge_mutation import DecayingDegree
from tests.test_edge_mutation import graph as mutation_graph

CUTS = ["hash_edge_cut", "random_vertex_cut", "hybrid_cut"]
GAUGE = "soa.slots_materialized"


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(300, alpha=2.0, seed=5, avg_degree=5.0,
                                selfish_frac=0.1)


def _slot_objects() -> set[int]:
    return {id(obj) for obj in gc.get_objects()
            if isinstance(obj, (VertexSlot, MasterMeta))}


def _assert_a_view(lg, slot, pos):
    """``slot`` reads ``lg``'s committed columns at ``pos``."""
    assert slot.binding == (lg, pos)
    for column, field in DYNAMIC.items():
        assert getattr(slot, field) == getattr(lg, column)[pos], field


@settings(max_examples=40, deadline=None)
@given(partition=st.sampled_from(CUTS), level=st.sampled_from([1, 2]),
       seed=st.integers(0, 20), data=st.data())
def test_any_stamping_order_equals_an_eager_stamp(partition, level, seed,
                                                  data):
    """Some positions stamped at load, in a drawn order, ride three
    supersteps (commits, activity flips) and read each commit with no
    flush; then drawn writes land on both sides — through those slots,
    seen at once by the live column state, which is not rebuilt, and
    through the columns, seen at once by the slots.  The rest are
    stamped after, in another drawn order.  An identical engine given
    the same writes and stamped whole at the end is the eager stamp."""
    graph = generators.power_law(80, alpha=2.0, seed=seed, avg_degree=4.0,
                                 selfish_frac=0.1)
    lazy, eager = (make_engine(graph, "sssp", num_nodes=4,
                               partition=partition, ft_level=level, seed=seed,
                               algorithm_kwargs={"source": seed % 80})
                   for _ in range(2))
    early, stamped = {}, {}
    for node, lg in lazy.local_graphs.items():
        order = data.draw(st.permutations(range(len(lg.slots))))
        cut = data.draw(st.integers(0, len(order)))
        early[node] = order[cut:]
        stamped[node] = {pos: lg.slots[pos] for pos in order[:cut]}
        for pos, slot in stamped[node].items():
            assert slot.gid == lg.cached_topology.gids[pos]
    lazy.run(max_iterations=3)
    eager.run(max_iterations=3)
    assert lazy.values() == eager.values()
    builds = lazy._vec.state_builds
    for node, lg in lazy.local_graphs.items():
        for pos, slot in stamped[node].items():
            _assert_a_view(lg, slot, pos)  # the commits, no flush
        if not stamped[node]:
            continue
        pos = data.draw(st.sampled_from(sorted(stamped[node])))
        slot, state = stamped[node][pos], lazy._vec.valid_state(node)
        twin = eager.local_graphs[node]
        flag = not slot.active
        # A slot write, then column writes, the same on both engines.
        for g, s in ((lg, slot), (twin, twin.slots[pos])):
            s.value = pos + 0.5
            s.active = flag
        assert (state.values[pos], state.active[pos]) == (pos + 0.5, flag)
        for g in (lg, twin):
            g.store(np.array([pos]), last_update=[7], values=[pos + 0.25],
                    active=[not flag])
        assert (slot.value, slot.last_update_iter, slot.active) == (
            pos + 0.25, 7, not flag)
        _assert_a_view(lg, slot, pos)
        assert lazy._vec.valid_state(node) is state
    assert lazy._vec.state_builds == builds
    for node, lg in lazy.local_graphs.items():
        for pos in early[node]:
            lg.slots[pos]
        want = eager.local_graphs[node]
        assert list(lg.slots) == list(want.slots)
        for have, slot in zip(lg.slots, want.slots):
            if slot.meta is not None:
                assert (list(have.meta.replica_positions.items())
                        == list(slot.meta.replica_positions.items()))
        assert lg.materialized == len(lg.slots)
        assert active_gids(lg) == active_gids(want)


class TestOneCopy:
    """A slot's six committed fields live in its graph's columns while
    it holds a position, and in the slot itself otherwise."""

    def test_remove_slot_keeps_the_moved_slot_fields(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=3)
        engine.run()
        lg = engine.local_graphs[1]
        slot = next(lg.iter_mirrors())
        pos = lg.position_of(slot.gid)
        fields = {name: getattr(slot, name) for name in COMMITTED}
        assert lg.remove_slot(slot.gid) is slot
        assert slot.binding is None
        assert {name: getattr(slot, name) for name in COMMITTED} == fields
        assert all(getattr(lg, column)[pos] == fill
                   for column, fill in VACANT.items())
        slot.value = -1.0  # detached: the tombstone is not written
        assert lg.values[pos] == VACANT["values"]
        other = LocalGraph(9)
        at = other.add_slot(slot, position=2)
        assert other.values[at] == -1.0
        assert other.last_update[at] == fields["last_update_iter"]

    def test_add_slot_writes_a_detached_slots_fields(self):
        slot = VertexSlot(gid=5, role=Role.MASTER)
        for name, value in zip(DYNAMIC.values(),
                               (2.5, True, True, True, False, 4)):
            setattr(slot, name, value)
        assert slot.binding is None
        lg = LocalGraph(0)
        assert lg.add_slot(slot, position=1) == 1
        assert slot.binding == (lg, 1)
        assert [getattr(lg, column)[1] for column in DYNAMIC] == [
            2.5, True, True, True, False, 4]
        assert [getattr(lg, column)[0] for column in DYNAMIC] == list(
            VACANT.values())
        assert active_gids(lg) == ({5}, set())
        lg.values[1] = 3.5
        assert slot.value == 3.5

    @pytest.mark.parametrize("algorithm,dtype,kind", [
        ("pagerank", np.float64, float), ("cc", np.int64, int)])
    def test_fields_read_back_as_python_scalars(self, graph, algorithm,
                                                dtype, kind):
        engine = make_engine(graph, algorithm, num_nodes=4, ft_level=1,
                             max_iterations=3)
        engine.run()
        lg = engine.local_graphs[0]
        assert lg.values.dtype == dtype
        slot = lg.slots[0]
        assert type(slot.value) is kind
        assert type(slot.last_update_iter) is int
        for name in ("active", "last_activates", "replicas_known_active",
                     "mirror_self_active"):
            assert type(getattr(slot, name)) is bool
        assert type(engine.committed_value_at(0, slot.gid)) is kind


class TestNothingStampedWithoutAConsumer:
    @pytest.mark.parametrize("partition", CUTS)
    def test_no_slot_objects_after_a_failure_free_load_and_run(
            self, graph, partition):
        gc.collect()
        before = _slot_objects()
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             partition=partition, max_iterations=4)
        gc.collect()
        assert _slot_objects() - before == set()
        engine.run()
        gc.collect()
        assert _slot_objects() - before == set()

    @pytest.mark.parametrize("partition", CUTS)
    def test_gauge_reads_zero_at_every_barrier(self, graph, partition):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             partition=partition, max_iterations=5)
        engine.run()
        assert [snap["gauges"][GAUGE] for snap in engine.metrics.snapshots
                ] == [0] * 5
        assert engine.metrics.gauge(GAUGE) == 0

    @pytest.mark.parametrize("partition", CUTS[1:])
    def test_the_activity_broadcast_stamps_nothing(self, graph, partition):
        """SSSP flips activity every superstep: vertex-cut phase 0 sends
        and applies the flags on the columns."""
        engine = make_engine(graph, "sssp", num_nodes=4, ft_level=1,
                             partition=partition, max_iterations=8,
                             algorithm_kwargs={"source": 0})
        engine.run()
        assert engine.metrics.value("net.msgs.control") > 0
        assert engine.metrics.gauge(GAUGE) == 0

    def test_a_top_k_read_without_an_image_stamps_nothing(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=3)
        engine.run()
        want = CommittedView(engine).top_k(10)
        for lg in engine.local_graphs.values():
            lg.invalidate_soa()
        # A fresh view holds no cached ranking, so this read ranks again
        # on the image-less graphs.
        assert CommittedView(engine).top_k(10) == want
        assert all(lg.cached_topology is None and lg.materialized == 0
                   for lg in engine.local_graphs.values())

    def test_gauge_counts_what_a_consumer_stamps(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                             max_iterations=2)
        lg = engine.local_graphs[0]
        lg.slots.take([0, 1, 1, 2])
        assert [lg.materialized, lg.slots[2].gid] == [3, lg.slots[2].gid]
        assert sum(1 for _ in lg.slots) == len(lg.slots)
        engine.run()
        assert engine.metrics.gauge(GAUGE) == len(lg.slots)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="multiprocessing backend requires the fork start method")
    def test_mp_parent_image_stamps_nothing(self, monkeypatch):
        """The ``pr_edgecut_mp`` ledger spec at ``--quick`` scale: the
        parent pulls every worker's committed state back, into columns."""
        parents = []

        def spy(*args, **kwargs):
            parents.append(make_engine(*args, **kwargs))
            return parents[-1]

        monkeypatch.setattr(mp, "make_engine", spy)
        graph = generators.power_law(800, alpha=2.0, seed=7, avg_degree=8.0)
        spec = BackendSpec(algorithm="pagerank", max_iterations=20,
                           num_nodes=2, partition="hash_edge_cut",
                           ft_mode="replication", ft_level=1, num_standby=2)
        backend = MultiprocessingBackend()
        try:
            result = backend.run(graph, spec)
        finally:
            backend.close()
        assert multiprocessing.active_children() == []
        (parent,) = parents
        assert result.values == parent.values()
        assert parent.metrics.gauge(GAUGE) == 0
        assert sum(lg.materialized
                   for lg in parent.local_graphs.values()) == 0


def test_recovery_stamps_no_more_than_it_ships():
    """The ``pr_kill_sim`` ledger spec at ``--quick`` scale, on both an
    edge-cut and a vertex-cut: survivors read the leading mirrors' and
    their masters' metadata as columns, the selfish recompute reads the
    image and writes the columns, and the reborn nodes are born from the
    rows, so the two Rebirths stamp no slot at all."""
    graph = generators.power_law(2000, alpha=2.0, seed=7, avg_degree=8.0)
    for partition in ("hash_edge_cut", "hybrid_cut"):
        engine = make_engine(graph, "pagerank", num_nodes=8, ft_level=1,
                             num_standby=2, max_iterations=20,
                             partition=partition)
        engine.schedule_failure(6, (1,), "compute")
        engine.schedule_failure(13, (2,), "after_commit")
        result = engine.run()
        assert [r.strategy for r in result.recoveries] == ["rebirth"] * 2
        assert sum(r.vertices_recovered for r in result.recoveries) > 0
        assert engine.metrics.gauge(GAUGE) == 0, partition


def _row_by_row(lg, positions) -> list[tuple]:
    """Each position's copy read off its stamped slot: gid, role code,
    selfish, master node, master position, replica ``(node, position)``
    pairs in dict order, mirror nodes in order, and an edge-cut mirror's
    backup triples."""
    rows = []
    for pos in positions:
        slot = lg.slots[pos]
        meta = slot.meta
        rows.append((
            slot.gid, RecoveryBatch.ROLES.index(slot.role), slot.selfish,
            slot.master_node, -1 if meta is None else meta.master_position,
            [] if meta is None else list(meta.replica_positions.items()),
            [] if meta is None else list(meta.mirror_nodes),
            list(slot.full_edges or ()) if slot.role is Role.MIRROR else []))
    return rows


def _as_rows(columns: dict) -> list[tuple]:
    """:meth:`SlotArray.metadata` columns in the form of
    :func:`_row_by_row`."""
    def cut(ptr, *flats):
        ptr = columns[ptr].tolist()
        flats = [columns[name].tolist() for name in flats]
        return [list(zip(*(flat[lo:hi] for flat in flats)))
                for lo, hi in zip(ptr, ptr[1:])]
    return [(*static, replicas, [node for (node,) in mirrors], edges)
            for *static, replicas, mirrors, edges in zip(
                *(columns[name].tolist() for name in (
                    "gids", "roles", "selfish", "master_node",
                    "master_position")),
                cut("replica_ptr", "replica_nodes", "replica_positions"),
                cut("mirror_ptr", "mirror_nodes"),
                cut("edge_ptr", "edge_gids", "edge_positions",
                    "edge_weights"))]


@settings(max_examples=30, deadline=None)
@given(partition=st.sampled_from(CUTS), level=st.sampled_from([1, 2]),
       seed=st.integers(0, 20),
       history=st.sampled_from(["load", "rebirth", "repair"]),
       data=st.data())
def test_metadata_reader_equals_the_stamped_slots(partition, level, seed,
                                                   history, data):
    """``SlotArray.metadata`` on a drawn mix of stamped and unstamped
    positions, in a drawn order with repeats, equals a row-by-row read
    of the stamped ``MasterMeta`` / ``full_edges``: on graphs as loaded,
    after a Rebirth (the reborn node's record is the rows it received),
    and after an FT repair to ``level + 1`` copies — ``place_replicas``
    appends replica entries, ``restore_ft_level`` elects mirrors and
    ``publish`` rewrites every mirror's copy — with the written images
    not rebuilt.  The read stamps nothing."""
    graph = generators.power_law(80, alpha=2.0, seed=seed, avg_degree=4.0,
                                 selfish_frac=0.1)
    engine = make_engine(graph, "pagerank", num_nodes=4, partition=partition,
                         ft_level=level, seed=seed, num_standby=1,
                         max_iterations=4)
    if history == "rebirth":
        engine.schedule_failure(2, (seed % 4,), "compute")
        engine.run()
        reborn = engine.local_graphs[seed % 4]
        assert reborn.materialized < len(reborn.slots)  # read off its rows
    elif history == "repair":
        common.restore_ft_level(engine, list(range(graph.num_vertices)),
                                "reader", level + 1)
    for lg in engine.local_graphs.values():
        n = len(lg.slots)
        held = [pos for pos in range(n) if lg.slots.holds(pos)]
        lg.slots.take(data.draw(st.lists(st.sampled_from(held), max_size=n)))
        positions = data.draw(st.lists(st.sampled_from(held), max_size=2 * n))
        stamped = lg.materialized
        columns = lg.slots.metadata(positions)
        assert lg.materialized == stamped
        assert _as_rows(columns) == _row_by_row(lg, positions)


def _columns(meta: dict) -> dict:
    return {name: (column.dtype, column.tolist())
            for name, column in meta.items()}


@settings(max_examples=25, deadline=None)
@given(partition=st.sampled_from(["hash_edge_cut", "hybrid_cut"]),
       level=st.sampled_from([1, 2]), seed=st.integers(0, 20),
       reborn=st.booleans(), data=st.data())
def test_the_birth_record_gather_equals_the_slot_merge(partition, level,
                                                       seed, reborn, data):
    """On an array no slot has entered, ``SlotArray.metadata`` is one
    gather of the birth record per column and per CSR group.  It returns
    what the slot-merging read returns once a drawn subset of positions
    is stamped, and once ``add_slot`` has placed copies at grown
    positions: column by column, dtypes included, on images as loaded
    and as reborn."""
    graph = generators.power_law(80, alpha=2.0, seed=seed, avg_degree=4.0,
                                 selfish_frac=0.1)
    engine = make_engine(graph, "pagerank", num_nodes=4, partition=partition,
                         ft_level=level, seed=seed, num_standby=1,
                         max_iterations=4)
    if reborn:
        engine.schedule_failure(2, (seed % 4,), "compute")
        engine.run()
    graphs = list(engine.local_graphs.values())
    assert all(lg.materialized == 0 for lg in graphs)
    for lg in graphs:
        n = len(lg.slots)
        held = [pos for pos in range(n) if lg.slots.holds(pos)]
        positions = data.draw(st.lists(st.sampled_from(held), max_size=2 * n))
        gathered = _columns(lg.slots.metadata(positions))
        lg.slots.take(data.draw(st.lists(st.sampled_from(held), max_size=n)))
        assert _columns(lg.slots.metadata(positions)) == gathered
        grown = data.draw(st.lists(st.integers(0, 3), min_size=1,
                                   max_size=3, unique=True))
        for i, gap in enumerate(grown):
            lg.add_slot(VertexSlot(gid=graph.num_vertices + i,
                                   role=Role.REPLICA), position=n + gap)
            n = max(n, n + gap + 1)
        assert _columns(lg.slots.metadata(positions)) == gathered


@pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
@pytest.mark.parametrize("history", ["load", "rebirth", "migration",
                                     "move"])
def test_the_memory_report_equals_the_slot_walk(graph, partition, history):
    """``Engine.memory_report`` sums the slot model of
    ``tests/reference/memory.py`` from columns — the image's edge
    counts, the metadata's CSR lengths, the value size — and stamps no
    slot: as loaded, after a Rebirth, after a Migration and after
    membership master moves (which stamp the copies they write, and no
    more for the report; a promoted master keeps an edge backup)."""
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, max_iterations=5,
                         num_standby=int(history == "rebirth"))
    if history == "move":
        for gid in range(0, graph.num_vertices, 17):
            src = int(engine.master_node_of[gid])
            move_master(engine, gid, (src + 1) % 4)
    elif history != "load":
        engine.schedule_failure(2, (1,), "compute")
        result = engine.run()
        assert [r.strategy for r in result.recoveries] == [history]
    stamped = {n: lg.materialized for n, lg in engine.local_graphs.items()}
    report = engine.memory_report()
    assert stamped == {n: lg.materialized
                       for n, lg in engine.local_graphs.items()}
    if history in ("load", "rebirth"):
        assert set(stamped.values()) == {0}
    assert report == {node: memory.memory_nbytes(lg, engine.program)
                      for node, lg in engine.local_graphs.items()
                      if node in report}
    assert sorted(report) == engine._alive()


def test_a_program_without_a_kernel_sizes_each_value():
    """Without an array kernel the report sizes each value (an ALS
    vector is ``rank`` values), as the slot walk does."""
    graph = generators.bipartite(40, 12, edges_per_user=4, seed=7)
    engine = make_engine(graph, "als", num_nodes=3, ft_level=1,
                         algorithm_kwargs={"num_users": 40, "rank": 3})
    assert engine.program.kernel() is None
    assert engine.memory_report() == {
        node: memory.memory_nbytes(lg, engine.program)
        for node, lg in engine.local_graphs.items()}


class TestEdgeCkptFilesFromColumns:
    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("partition",
                             ["random_vertex_cut", "hybrid_cut",
                              "grid_vertex_cut"])
    def test_equal_to_the_slot_walk(self, graph, partition, level):
        engine = make_engine(graph, "pagerank", num_nodes=5,
                             partition=partition, ft_level=level)
        store = engine.ckpt.edges
        assert sum(lg.materialized
                   for lg in engine.local_graphs.values()) == 0
        want = reference.edge_files(engine)
        for owner, files in want.items():
            assert store.receivers(owner) == sorted(files)
            for receiver, records in files.items():
                have = reference.rows(store.read_file(owner, receiver))
                assert have == records
                assert pickle.dumps(have) == pickle.dumps(records)
                assert (store.file_nbytes(owner, receiver)
                        == len(records) * BYTES_PER_EDGE)
            assert store.loading_bytes[owner] == (
                sum(map(len, files.values())) * BYTES_PER_EDGE)

    @staticmethod
    def _mutating(**kwargs):
        return make_engine(mutation_graph(), DecayingDegree(), num_nodes=4,
                           partition="random_vertex_cut", ft_level=1,
                           max_iterations=6, safety_checkpoint_interval=2,
                           **kwargs)

    def test_safety_net_rewrite_carries_the_snapshot_weights(self):
        """The safety net rewrites every file after restoring the
        snapshot's mutated weights: the files hold those, not the
        weights the graphs were born with."""
        seen = []

        class AfterRecovery:
            def on_phase(self, engine, phase):
                if phase != "post_recovery":
                    return
                store = engine.ckpt.edges
                seen.append((reference.edge_files(engine), {
                    owner: {receiver: reference.rows(
                                store.read_file(owner, receiver))
                            for receiver in store.receivers(owner)}
                    for owner in engine.local_graphs}))

        loaded = reference.edge_files(self._mutating(num_standby=2))
        engine = self._mutating(num_standby=2)
        engine.schedule_failure(3, (0, 1), "compute")
        engine.attach_chaos(AfterRecovery())
        assert engine.run().fallbacks == {"checkpoint": 1}
        ((want, have),) = seen
        assert want != loaded
        assert have == want
        for owner, files in want.items():
            for receiver, records in files.items():
                assert (pickle.dumps(have[owner][receiver])
                        == pickle.dumps(records))

    def test_a_migration_right_after_the_safety_net_is_exact(self):
        """Before any update record lands on the rewritten files, a
        Migration reloads their weights as they stand."""
        class CrashAfterSafetyNet:
            def on_phase(self, engine, phase):
                if (phase == "post_recovery" and engine.recoveries[-1]
                        .strategy == "safety-checkpoint"):
                    engine.cluster.crash(2)

        base = self._mutating(num_standby=0).run()
        engine = self._mutating(recovery="migration", num_standby=0)
        engine.schedule_failure(3, (0, 1), "compute")
        engine.attach_chaos(CrashAfterSafetyNet())
        result = engine.run()
        assert [r.strategy for r in result.recoveries] == [
            "safety-checkpoint", "migration"]
        assert result.values == base.values
