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
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest

from repro.api import make_engine
from repro.engine.soa import NodeTopology
from repro.engine.vectorized import ArrayNodeProtocol
from repro.ft import _recovery_common as common
from repro.ft.migration import MigrationRecovery
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
