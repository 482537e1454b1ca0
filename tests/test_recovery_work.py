"""How much work a recovery and a superstep do, counted rather than
timed.

Spies count the batches a recovery packs (``pack_rows``) and the SoA
images it reads back out of the slots (``NodeTopology.build``), per
Migration and per FT-repair round, and the slots a Rebirth stamps, per
node, on any host.  Placement is batched
(``place_replicas``): each node packs at most one batch for each node it
places copies on, so a recovery over ``s`` survivors packs at most
``s**2`` batches however many copies it makes, and builds each image it
wrote on at most once.  A per-row writer packs one batch per copy.
The barrier stages each alive node's received syncs in one call, through
a Rebirth too; a per-batch loop stages once per (sender, kind) batch.
Likewise a node ships each phase's outbox with one network call, takes
its gather and activation inboxes in one call each, and sorts nothing in
the activation scatter or the combining gather: their orders are the
image's.  Load, the supersteps, a Rebirth and the multiprocessing
backend's state pull build no gid index (``LocalGraph.index_of``): they
read positions through the image.  Loading a kernel program fills its
initial state as columns, with no per-vertex call.  Per ladder pass each
survivor makes one reload scan — one orphan mask, one metadata read —
and a kernel program's recovery rows are sized without a per-value call.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from collections import Counter

import pytest

import numpy as np

from repro.algorithms import (AlternatingLeastSquares, ConnectedComponents,
                              DegreeCount, PageRank, SingleSourceShortestPath)
from repro.api import make_engine
from repro.cluster.network import Network
from repro.engine.engine import Engine
from repro.engine.local_graph import LocalGraph, SlotArray
from repro.engine.soa import NodeTopology
from repro.engine.vectorized import ArrayNodeProtocol, _NodeState
from repro.engine.vertex_program import VertexProgram
from repro.ft import _recovery_common as common
from repro.ft import ladder
from repro.ft.migration import MigrationRecovery
from repro.exec import BackendSpec, MultiprocessingBackend
from repro.ft.rebirth import RebirthRecovery
from repro.graph import generators

PARTS = ["hash_edge_cut", "hybrid_cut"]


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(400, alpha=2.0, seed=3, avg_degree=6.0)


@pytest.fixture
def work(monkeypatch):
    """Per recovery phase, in order: ``(phase, nodes it may write on,
    pack_rows calls, NodeTopology.build calls, what it made)``."""
    phases: list[tuple[str, int, int, int, int]] = []
    counts = {"packs": 0, "builds": 0}
    real_pack = common.pack_rows
    real_build = NodeTopology.build.__func__
    real_recover = MigrationRecovery.recover
    real_restore = common.restore_ft_level

    def pack(*args, **kwargs):
        counts["packs"] += 1
        return real_pack(*args, **kwargs)

    def build(cls, lg):
        counts["builds"] += 1
        return real_build(cls, lg)

    def measure(phase, nodes, call, made):
        packs, builds = counts["packs"], counts["builds"]
        out = call()
        phases.append((phase, nodes, counts["packs"] - packs,
                       counts["builds"] - builds, made(out)))
        return out

    def recover(self, failed):
        survivors = [n for n in self.engine._alive() if n not in failed]
        return measure("migration", len(survivors),
                       lambda: real_recover(self, failed),
                       lambda stats: stats.edges_recovered)

    def restore(engine, *args, **kwargs):
        return measure("repair", len(engine._alive()),
                       lambda: real_restore(engine, *args, **kwargs),
                       lambda out: out[0])

    monkeypatch.setattr(common, "pack_rows", pack)
    monkeypatch.setattr(NodeTopology, "build", classmethod(build))
    monkeypatch.setattr(MigrationRecovery, "recover", recover)
    monkeypatch.setattr(common, "restore_ft_level", restore)
    return phases


def _migrate(graph, partition):
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, recovery="migration",
                         num_standby=0, max_iterations=6)
    engine.schedule_failure(3, [1], "compute")
    result = engine.run()
    assert [r.strategy for r in result.recoveries] == ["migration"]
    return engine


@pytest.mark.parametrize("partition", PARTS)
def test_migration_packs_per_node_pair(graph, partition, work):
    """Survivors squared bounds the batches, survivors the builds; the
    per-row writer packed one batch per new copy (51 and 80 here)."""
    _migrate(graph, partition)
    (phase, survivors, packs, builds, edges), *_ = work
    assert phase == "migration" and survivors == 3 and edges > 0
    assert 0 < packs <= survivors ** 2
    assert builds <= survivors


@pytest.mark.parametrize("partition", PARTS)
def test_repair_packs_per_node_pair(graph, partition, work):
    """The repair after the Migration makes copies (the promoted mirrors'
    seats), in at most one batch per (master node, target) pair; the
    per-row writer packed one per copy (52 and 67 here)."""
    _migrate(graph, partition)
    repairs = [entry for entry in work if entry[0] == "repair"]
    assert repairs
    assert any(created > 0 for *_, created in repairs)
    for _, alive, packs, builds, created in repairs:
        assert packs <= alive ** 2
        assert builds <= alive



@pytest.mark.parametrize("partition", PARTS)
def test_rebirth_stamps_no_slot(partition, monkeypatch):
    """Survivors read and send (DESIGN.md §9): metadata as columns, values
    and flags from the columns, the selfish recompute off the image; the
    newbies are born from their rows.  So a Rebirth stamps no slot on any
    survivor or newbie, selfish masters among the lost ones included."""
    graph = generators.power_law(400, alpha=2.0, seed=3, avg_degree=6.0,
                                 selfish_frac=0.1)
    stamped, selfish = [], []
    real_recover = RebirthRecovery.recover
    real_recompute = common.recompute_selfish_masters

    def recover(self, failed):
        graphs = self.engine.local_graphs
        before = {node: graphs[node].materialized for node in graphs
                  if node not in failed}
        stats = real_recover(self, failed)
        stamped.append({node: lg.materialized - before.get(node, 0)
                        for node, lg in graphs.items()})
        return stats

    def recompute(engine, gids):
        selfish.extend(gids)
        return real_recompute(engine, gids)

    monkeypatch.setattr(RebirthRecovery, "recover", recover)
    monkeypatch.setattr(common, "recompute_selfish_masters", recompute)
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, num_standby=2, max_iterations=8)
    engine.schedule_failure(3, [1], "compute")
    engine.schedule_failure(5, [2], "after_commit")
    result = engine.run()
    assert [r.strategy for r in result.recoveries] == ["rebirth"] * 2
    assert selfish
    assert stamped == [dict.fromkeys(range(4), 0)] * 2


@pytest.fixture
def passes(monkeypatch):
    """Per ladder pass, in order: the survivor scans made and the
    ``SlotArray.metadata`` reads, by node, and the program's per-value
    ``value_nbytes`` calls."""
    log: list[dict] = []
    real_ladder = ladder._run_ladder
    real_init = common.SurvivorScan.__init__
    real_metadata = SlotArray.metadata

    def run_ladder(engine, failed):
        log.append({"scans": Counter(), "metadata": Counter(),
                    "sizes": 0, "open": True})
        try:
            return real_ladder(engine, failed)
        finally:
            log[-1]["open"] = False

    def spy(key, real, node_of=None):
        def method(*args, **kwargs):
            if log and log[-1]["open"]:
                if node_of is None:
                    log[-1][key] += 1
                else:
                    log[-1][key][node_of(*args)] += 1
            return real(*args, **kwargs)
        return method

    monkeypatch.setattr(ladder, "_run_ladder", run_ladder)
    monkeypatch.setattr(common.SurvivorScan, "__init__", spy(
        "scans", real_init, lambda self, lg, dead: lg.node_id))
    monkeypatch.setattr(SlotArray, "metadata", spy(
        "metadata", real_metadata, lambda self, pos: self._graph().node_id))
    for cls in (VertexProgram, AlternatingLeastSquares):
        monkeypatch.setattr(cls, "value_nbytes",
                            spy("sizes", vars(cls)["value_nbytes"]))
    return log


def _two_rebirths(graph, partition, **kwargs):
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, num_standby=2,
                         max_iterations=8, **kwargs)
    engine.schedule_failure(3, [1], "compute")
    engine.schedule_failure(5, [2], "after_commit")
    result = engine.run()
    assert [r.strategy for r in result.recoveries] == ["rebirth"] * 2
    return result


@pytest.mark.parametrize("partition", PARTS)
def test_a_survivor_reads_its_image_once_per_ladder_pass(graph, partition,
                                                         passes):
    """Per Rebirth, each survivor makes one reload scan — one orphan
    mask, one ``SlotArray.metadata`` read — shared by the ladder's
    lost-vertex precheck, the rung's guard, the rows it selects and the
    rows it packs.  A second read in ``pack_rows`` or a precheck that
    scans again makes two."""
    _two_rebirths(graph, partition)
    assert [len(p["scans"]) for p in passes] == [3, 3]
    for p in passes:
        assert set(p["scans"].values()) == {1}
        assert p["metadata"] == p["scans"]


@pytest.mark.parametrize("partition", PARTS)
@pytest.mark.parametrize("vectorized", [True, False])
def test_kernel_rows_are_sized_without_a_per_value_call(
        graph, partition, vectorized, passes):
    """A Rebirth of a kernel program charges each row the kernel's
    constant value size, the one its SYNC batches are charged and the
    program's size of each value: no ``value_nbytes`` call, whether the
    kernel runs or not, and the same recovery bytes either way."""
    assert "value_nbytes" not in vars(PageRank)
    assert PageRank().kernel().value_nbytes == PageRank().value_nbytes(0.5)
    result = _two_rebirths(graph, partition, vectorized=vectorized)
    assert sum(p["sizes"] for p in passes) == 0
    assert [r.recovery_bytes for r in result.recoveries] == [
        r.recovery_bytes for r in _two_rebirths(
            graph, partition, vectorized=not vectorized).recoveries]


@pytest.mark.parametrize("partition", PARTS)
def test_a_program_without_a_kernel_makes_a_per_value_call(partition,
                                                           passes):
    """The twin that keeps the pin above from passing vacuously: an ALS
    Rebirth (no kernel; a value is ``rank`` numbers) sizes each value."""
    graph = generators.bipartite(40, 12, edges_per_user=4, seed=7)
    engine = make_engine(graph, "als", num_nodes=4, ft_level=1,
                         partition=partition, num_standby=2,
                         max_iterations=8,
                         algorithm_kwargs={"num_users": 40, "rank": 3})
    engine.schedule_failure(3, [1], "compute")
    engine.schedule_failure(5, [2], "after_commit")
    result = engine.run()
    assert [r.strategy for r in result.recoveries] == ["rebirth"] * 2
    assert [p["sizes"] > 0 for p in passes] == [True, True]


@pytest.mark.parametrize("partition", PARTS)
def test_a_node_stages_its_inbox_once_per_superstep(graph, partition,
                                                    monkeypatch):
    """At most one staging call per alive node per superstep, however
    many batches its inbox holds (before, after and through a Rebirth);
    a per-batch loop made several calls per node here."""
    calls, batches = [], []
    real_stage = ArrayNodeProtocol.stage_inbox

    def stage(self, st, inbox):
        calls.append((engine.iteration, st.node))
        batches.append(len(inbox))
        return real_stage(self, st, inbox)

    monkeypatch.setattr(ArrayNodeProtocol, "stage_inbox", stage)
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, num_standby=1,
                         max_iterations=6)
    engine.schedule_failure(3, [1], "compute")
    result = engine.run()
    assert [r.strategy for r in result.recoveries] == ["rebirth"]
    assert len(set(calls)) == len(calls)
    assert {it for it, _node in calls} == set(range(6))
    assert sum(batches) > len(calls)


def _reborn_once(graph, partition, **kwargs):
    """Six PageRank supersteps on four nodes, node 1 killed before
    superstep 3 computes and reborn (so superstep 3 runs twice)."""
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, num_standby=1,
                         max_iterations=6, **kwargs)
    engine.schedule_failure(3, [1], "compute")
    return engine


def _run(engine) -> None:
    result = engine.run()
    assert [r.strategy for r in result.recoveries] == ["rebirth"]


@pytest.fixture
def attempts(monkeypatch):
    """The alive nodes of each superstep attempt, in order (a rolled-back
    superstep is attempted again)."""
    log: list[frozenset] = []
    real = Engine._run_superstep

    def run_superstep(self):
        log.append(frozenset(self._alive()))
        return real(self)

    monkeypatch.setattr(Engine, "_run_superstep", run_superstep)
    return log


@pytest.mark.parametrize("partition", PARTS)
def test_a_node_ships_each_phase_in_one_network_call(graph, partition,
                                                     attempts, monkeypatch):
    """At most one ``Network.send_all`` per alive node per phase (the
    round method whose outbox it ships) of every superstep attempt,
    through a Rebirth too; a per-batch flush called the network once per
    (destination, kind)."""
    phase, calls, batches = [None], [], []
    real_send_all = Network.send_all

    def send_all(self, src, outbox):
        calls.append((len(attempts), phase[0], src))
        batches.append(len(outbox))
        return real_send_all(self, src, outbox)

    def tagged(name):
        real = getattr(_NodeState, name)

        def method(self, *args):
            phase[0] = name
            return real(self, *args)
        return method

    monkeypatch.setattr(Network, "send_all", send_all)
    for name in ("compute", "broadcast_build", "gather", "fold_apply",
                 "stage1"):
        monkeypatch.setattr(_NodeState, name, tagged(name))
    _run(_reborn_once(graph, partition))
    assert len(attempts) == 7
    assert len(set(calls)) == len(calls)
    assert all(node in attempts[at - 1] for at, _phase, node in calls)
    compute = {"compute"} if partition == "hash_edge_cut" \
        else {"gather", "fold_apply", "stage1"}
    assert {name for _at, name, _node in calls} == compute
    assert sum(batches) > len(calls)


def test_a_vertex_cut_node_takes_each_inbox_in_one_call(graph, attempts,
                                                        monkeypatch):
    """Exactly one gather intake per alive node per hybrid-cut superstep
    attempt and one activation intake per alive node per committed
    superstep, through a Rebirth too, and at most one gid lookup for
    each; a per-batch loop, in a driver or in the node's object, took
    one per received batch."""
    intakes, activations, lookups = [], [], []

    def spy(cls, name, log):
        real = getattr(cls, name)

        def method(self, *args):
            st = args[0] if cls is ArrayNodeProtocol else self
            log.append((len(attempts), st.node, name, len(args[-1])))
            return real(self, *args)
        monkeypatch.setattr(cls, name, method)

    spy(_NodeState, "intake", intakes)
    spy(_NodeState, "activate", activations)
    spy(ArrayNodeProtocol, "intake_partials", lookups)
    spy(ArrayNodeProtocol, "apply_activations", lookups)
    _run(_reborn_once(graph, "hybrid_cut"))
    # Attempt 4 (superstep 3 without node 1) is rolled back before its
    # commit.
    for log, reached in ((intakes, range(1, 8)),
                         (activations, [1, 2, 3, 5, 6, 7])):
        steps = [(at, node) for at, node, _name, _n in log]
        assert sorted(steps) == sorted((at, node) for at in reached
                                       for node in attempts[at - 1])
        assert sum(n for *_, n in log) > len(log)
    calls = [(at, node, name) for at, node, name, _n in lookups]
    assert len(set(calls)) == len(calls)
    assert {name for *_, name in calls} == {"intake_partials",
                                            "apply_activations"}


@pytest.fixture
def sorts(monkeypatch):
    """numpy sorts called inside the activation scatter or the gather,
    by protocol step."""
    calls: list[str] = []
    inside = [None]

    def spying(name):
        real = getattr(np, name)

        def sort(*args, **kwargs):
            if inside[0] is not None:
                calls.append(inside[0])
            return real(*args, **kwargs)
        monkeypatch.setattr(np, name, sort)

    def step(name):
        real = getattr(ArrayNodeProtocol, name)

        def method(self, *args):
            inside[0] = name
            try:
                return real(self, *args)
            finally:
                inside[0] = None
        monkeypatch.setattr(ArrayNodeProtocol, name, method)

    for name in ("sort", "argsort", "lexsort", "unique"):
        spying(name)
    for name in ("commit_stage1", "vertex_gather"):
        step(name)
    return calls


@pytest.mark.parametrize("partition", PARTS)
def test_the_scatter_and_the_gather_sort_nothing(graph, partition, sorts):
    """The activation scatter (both cuts) and the combining gather read
    their orders off the image: no sort in any superstep, through a
    Rebirth too.  The per-superstep ``sorted_unique`` / ``argsort`` of
    the remote records fails this."""
    _run(_reborn_once(graph, partition))
    assert sorts == []


def test_the_raw_gather_still_sorts(graph, sorts):
    """Non-vacuity of the spy: with combining off, the gather keeps its
    stable sort of the raw contributions."""
    _run(_reborn_once(graph, "hybrid_cut", combining=False))
    assert "vertex_gather" in sorts and "commit_stage1" not in sorts


def test_a_rebirth_leaves_numpy_ma_unimported():
    """Bare ``np.unique`` (also inside ``np.percentile``) imports
    ``numpy.ma`` on its first call (numpy 2); the superstep, a Rebirth,
    the result and the read report use ``repro.utils.arrays`` instead,
    on both cuts."""
    script = textwrap.dedent("""
        import sys
        from repro.exec import BackendSpec, SimulatorBackend
        from repro.graph import generators
        graph = generators.power_law(300, alpha=2.0, seed=3, avg_degree=5.0)
        for partition in ("hash_edge_cut", "hybrid_cut"):
            result = SimulatorBackend().run(graph, BackendSpec(
                algorithm="pagerank", num_nodes=4, ft_level=1,
                partition=partition, num_standby=1, max_iterations=6,
                failures=((3, (1,), "compute"),),
                serve=(("num_queries", 200), ("qps", 2000.0))))
            assert result.failures_recovered == 1
            assert result.extra["serve"]["queries"] == 200
        print("numpy.ma" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False"]


@pytest.fixture
def index_builds(monkeypatch):
    """The node of every gid index built, in order: a read of
    ``LocalGraph.index_of`` on a graph that holds none yet."""
    built: list[int] = []
    real = LocalGraph.index_of.fget

    def index_of(lg):
        if lg._index_of is None:
            built.append(lg.node_id)
        return real(lg)

    monkeypatch.setattr(LocalGraph, "index_of", property(index_of))
    return built


@pytest.mark.parametrize("partition", PARTS)
def test_a_clean_load_and_run_build_no_gid_index(graph, partition,
                                                 index_builds):
    """Load, the supersteps and the result read positions through the
    image; the gid index is never built."""
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, max_iterations=6)
    result = engine.run()
    assert result.values == engine.values() and len(result.values) == 400
    assert index_builds == []


@pytest.mark.parametrize("partition", PARTS)
def test_a_rebirth_builds_no_gid_index(partition, index_builds):
    """Two Rebirths — the survivors' scan, the newbies' counts, the
    selfish recompute — and the supersteps around them build no gid
    index, on the survivors or the newbies."""
    graph = generators.power_law(400, alpha=2.0, seed=3, avg_degree=6.0,
                                 selfish_frac=0.1)
    engine = make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                         partition=partition, num_standby=2, max_iterations=8)
    engine.schedule_failure(3, [1], "compute")
    engine.schedule_failure(5, [2], "after_commit")
    result = engine.run()
    assert [r.strategy for r in result.recoveries] == ["rebirth"] * 2
    assert index_builds == []
    # Non-vacuity: a scalar run asks for it on every node.
    make_engine(graph, "pagerank", num_nodes=4, ft_level=1,
                partition=partition, vectorized=False,
                max_iterations=2).run()
    assert sorted(set(index_builds)) == [0, 1, 2, 3]


def test_an_mp_state_pull_builds_no_gid_index(graph, index_builds):
    """The multiprocessing backend pulls every worker's committed state
    into its parent image at the end of a run; the parent reads the
    positions through its images."""
    spec = BackendSpec(algorithm="pagerank", num_nodes=2, ft_level=1,
                       max_iterations=4)
    with MultiprocessingBackend() as backend:
        result = backend.run(graph, spec)
    assert len(result.values) == 400
    assert index_builds == []


@pytest.mark.parametrize("program", [
    PageRank(), SingleSourceShortestPath(source=3), ConnectedComponents(),
    DegreeCount()], ids=lambda program: program.name)
def test_loading_a_kernel_program_calls_nothing_per_vertex(graph, program,
                                                           monkeypatch):
    """A kernel program's initial state is two columns: no per-vertex
    ``initial_value`` or ``is_initially_active`` call, and every graph is
    born with a value column of the kernel's dtype."""
    calls: list[str] = []
    cls = type(program)
    for name in ("initial_value", "is_initially_active"):
        real = getattr(cls, name)

        def spy(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(cls, name, spy)
    engine = make_engine(graph, program, num_nodes=4, ft_level=1,
                         max_iterations=2)
    assert calls == []
    assert {lg.values.dtype for lg in engine.local_graphs.values()} == {
        np.dtype(program.kernel().dtype)}
