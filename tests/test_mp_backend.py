"""Multiprocessing backend: differential oracle + real-kill recovery.

The cross-backend differential oracle runs the same ``BackendSpec`` on
the deterministic simulator and on real forked worker processes and
asserts *bit-identical* committed values plus equal logical-message
accounting — the CI gate for the pluggable-backend refactor
(DESIGN.md §12).

The recovery tests deliver real ``SIGKILL``s to worker processes and
assert that heartbeat/sentinel detection plus the engine's own recovery
ladder, run on the parent image, recovers by the same strategy as the
simulator and converges to the failure-free values.
"""

from __future__ import annotations

import multiprocessing
import signal
from dataclasses import replace

import pytest

from repro.algorithms import PageRank
from repro.chaos.oracle import values_close
from repro.engine.vectorized import ArrayNodeProtocol
from repro.errors import UnrecoverableFailureError
from repro.exec.base import BackendError, BackendSpec
from repro.exec.mp import MultiprocessingBackend
from repro.exec.protocol import NodeProtocol
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocessing backend requires the fork start method")

WATCHDOG_S = 180


@pytest.fixture(autouse=True)
def watchdog():
    """SIGALRM backstop so a wedged worker round can never hang the
    suite (CI additionally enforces pytest-timeout per test)."""
    def _fire(signum, frame):  # pragma: no cover - only on a hang
        raise TimeoutError(f"mp backend test exceeded {WATCHDOG_S}s")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(WATCHDOG_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def no_orphan_workers():
    """No worker process outlives its test — after success, failure,
    refusal or retry alike."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(80, alpha=2.0, seed=7, avg_degree=5.0,
                                name="mp-oracle")


def _assert_equivalent(sim, mp):
    assert mp.values == sim.values
    assert mp.iterations == sim.iterations
    assert mp.halted == sim.halted
    assert mp.total_msgs == sim.total_msgs
    assert mp.total_bytes == sim.total_bytes
    assert mp.total_batches == sim.total_batches
    assert mp.msgs_by_kind == sim.msgs_by_kind
    assert mp.syncs_elided == sim.syncs_elided


def _forbid(patch, cls, name):
    def wrong_path(*args, **kwargs):
        raise AssertionError(f"{cls.__name__}.{name} ran on a worker "
                             f"of the other path")
    patch.setattr(cls, name, wrong_path)


class TestDifferentialOracle:
    """Same graph/program/seed => identical outcome on both backends."""

    @pytest.mark.parametrize("partition",
                             ["hash_edge_cut", "random_vertex_cut"])
    @pytest.mark.parametrize("ft_level", [0, 1, 2])
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("pagerank", ()),
        ("sssp", (("source", 0),)),
    ])
    def test_values_and_message_counts_match(self, graph, algorithm,
                                             kwargs, partition, ft_level):
        spec = BackendSpec(
            algorithm=algorithm, num_nodes=4, partition=partition,
            ft_mode="none" if ft_level == 0 else "replication",
            ft_level=ft_level, max_iterations=10,
            algorithm_kwargs=kwargs)
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        _assert_equivalent(sim, mp)

    @pytest.mark.parametrize("partition",
                             ["hash_edge_cut", "random_vertex_cut"])
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("pagerank", ()),
        ("sssp", (("source", 0),)),
    ])
    def test_worker_paths_agree(self, graph, monkeypatch, algorithm,
                                kwargs, partition):
        """``BackendSpec.vectorized`` picks the per-node class: array
        states (the default) ≡ scalar states ≡ the simulator.  Forked
        workers inherit the patches, so each run also proves it never
        entered the other path's compute."""
        spec = BackendSpec(algorithm=algorithm, num_nodes=4,
                           partition=partition, ft_level=1,
                           max_iterations=10, algorithm_kwargs=kwargs)
        sim = SimulatorBackend().run(graph, spec)
        with monkeypatch.context() as patch:
            _forbid(patch, NodeProtocol, "compute_master")
            with MultiprocessingBackend() as backend:
                arrays = backend.run(graph, spec)
        with monkeypatch.context() as patch:
            _forbid(patch, ArrayNodeProtocol, "new_state")
            with MultiprocessingBackend() as backend:
                scalar = backend.run(graph, replace(spec, vectorized=False))
        _assert_equivalent(sim, arrays)
        _assert_equivalent(sim, scalar)

    def test_kernel_less_program_falls_back_to_scalar_workers(
            self, graph, monkeypatch):
        """``cd`` declares no array kernel: the default spec runs it on
        the scalar per-node class, still bit-equal to the simulator."""
        spec = BackendSpec(algorithm="cd", num_nodes=4, max_iterations=6)
        sim = SimulatorBackend().run(graph, spec)
        _forbid(monkeypatch, ArrayNodeProtocol, "new_state")
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        _assert_equivalent(sim, mp)
        assert mp.total_msgs > 0

    @pytest.mark.parametrize("algorithm,per_node", [
        ("pagerank", "_NodeState"), ("cd", "ScalarNodeState")])
    def test_worker_paths_construct_the_simulators_per_node_class(
            self, graph, monkeypatch, tmp_path, algorithm, per_node):
        """One driver per backend over one per-node class: for a
        kernel-backed program both backends build ``_NodeState``s, for
        ``cd`` ``ScalarNodeState``s — and never the other class.  The
        spy appends to a file, which forked workers inherit."""
        from repro.engine.vectorized import _NodeState
        from repro.exec.protocol import ScalarNodeState
        built = tmp_path / "built"
        for cls in (_NodeState, ScalarNodeState):
            def spy(self, *args, _real=cls.__init__, _name=cls.__name__):
                with open(built, "a") as fh:
                    fh.write(_name + "\n")
                _real(self, *args)
            monkeypatch.setattr(cls, "__init__", spy)
        spec = BackendSpec(algorithm=algorithm, num_nodes=3,
                           max_iterations=3)
        SimulatorBackend().run(graph, spec)
        assert set(built.read_text().split()) == {per_node}
        built.unlink()
        with MultiprocessingBackend() as backend:
            backend.run(graph, spec)
        assert built.read_text().split() == [per_node] * 3

    @pytest.mark.parametrize("combining", [True, False])
    def test_combining_parity(self, graph, combining):
        """Combining oracle (DESIGN.md §15): both wire formats produce
        identical values and logical accounting on both backends, and
        the combine counters agree with the simulator's exactly."""
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           partition="random_vertex_cut",
                           max_iterations=8, combining=combining)
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        _assert_equivalent(sim, mp)
        assert mp.combined_records == sim.combined_records
        assert mp.combine_ratio == sim.combine_ratio
        if combining:
            assert mp.combine_ratio > 1.5
        else:
            assert mp.combine_ratio == 1.0
            assert mp.combined_records == 0

    def test_combining_off_matches_on(self, graph):
        """The uncombined wire format changes nothing observable at the
        logical tier, across real process boundaries too."""
        on = BackendSpec(algorithm="sssp", num_nodes=4,
                         partition="random_vertex_cut", max_iterations=8,
                         algorithm_kwargs=(("source", 0),))
        off = BackendSpec(algorithm="sssp", num_nodes=4,
                          partition="random_vertex_cut", max_iterations=8,
                          combining=False,
                          algorithm_kwargs=(("source", 0),))
        with MultiprocessingBackend() as backend:
            mp_on = backend.run(graph, on)
        with MultiprocessingBackend() as backend:
            mp_off = backend.run(graph, off)
        assert mp_on.values == mp_off.values
        assert mp_on.total_msgs == mp_off.total_msgs
        assert mp_on.total_bytes == mp_off.total_bytes
        assert mp_on.msgs_by_kind == mp_off.msgs_by_kind
        assert mp_on.combined_records > 0
        assert mp_off.combined_records == 0

    def test_sync_elision_parity(self, graph):
        """Elision fires on converging SSSP and both backends elide the
        same records (and fewer messages than the elision-off run)."""
        on = BackendSpec(algorithm="sssp", num_nodes=4, max_iterations=12,
                         algorithm_kwargs=(("source", 0),))
        off = BackendSpec(algorithm="sssp", num_nodes=4, max_iterations=12,
                          sync_elision=False,
                          algorithm_kwargs=(("source", 0),))
        sim_on = SimulatorBackend().run(graph, on)
        sim_off = SimulatorBackend().run(graph, off)
        with MultiprocessingBackend() as backend:
            mp_on = backend.run(graph, on)
        with MultiprocessingBackend() as backend:
            mp_off = backend.run(graph, off)
        _assert_equivalent(sim_on, mp_on)
        _assert_equivalent(sim_off, mp_off)
        assert mp_on.syncs_elided > 0
        assert mp_on.total_msgs < mp_off.total_msgs


#: The cross-backend recovery oracle: every combination of the four
#: factors.  Tier-1 runs the half-fraction (even level sum) in which
#: every pair of factor levels still meets; the other half is marked
#: ``mp_matrix`` (CI: ``-m mp_matrix``).
ORACLE_CASES = [
    pytest.param(*algorithm, partition, recovery, phase,
                 marks=(() if (a + p + r + k) % 2 == 0
                        else pytest.mark.mp_matrix))
    for a, algorithm in enumerate([("pagerank", ()),
                                   ("sssp", (("source", 0),))])
    for p, partition in enumerate(["hash_edge_cut", "random_vertex_cut"])
    for r, recovery in enumerate(["rebirth", "migration"])
    for k, phase in enumerate(["compute", "after_commit"])]


def _strategies(result):
    return [(r["strategy"], tuple(r["failed_nodes"]))
            for r in result.extra.get("recoveries", ())]


def _recovery_points(result):
    return [r["at_iteration"] for r in result.extra.get("recoveries", ())]


def _assert_matches_failure_free(values, reference):
    """Bit-equal, except that Migration under vertex-cut moves edges
    between partial-gather groups: float sums re-associate, so the
    simulator itself only promises the chaos oracle's tolerance."""
    assert values.keys() == reference.keys()
    assert all(values_close(values[gid], reference[gid])
               for gid in reference)


class TestRealKillRecovery:
    """Real SIGKILL -> sentinel/heartbeat detection -> the engine's own
    recovery ladder on the parent image -> re-fork."""

    @pytest.mark.parametrize("algorithm,kwargs,partition,recovery,phase",
                             ORACLE_CASES)
    def test_recovery_oracle(self, graph, algorithm, kwargs, partition,
                             recovery, phase):
        """One mechanism, two backends: the same kill recovers by the
        same strategy into the same bits, and converges to the
        failure-free values."""
        base = BackendSpec(algorithm=algorithm, num_nodes=4,
                           partition=partition, ft_level=1,
                           recovery=recovery, max_iterations=10,
                           algorithm_kwargs=kwargs)
        kill = replace(base, failures=((2, (1,), phase),))
        reference = SimulatorBackend().run(graph, base)
        sim = SimulatorBackend().run(graph, kill)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, kill)
        assert _strategies(mp) == _strategies(sim) == [(recovery, (1,))]
        assert mp.failures_recovered == sim.failures_recovered == 1
        assert _recovery_points(mp) == _recovery_points(sim) == [2]
        assert mp.values == sim.values
        assert mp.iterations == reference.iterations
        if recovery == "migration" and partition == "random_vertex_cut":
            _assert_matches_failure_free(mp.values, reference.values)
        else:
            assert mp.values == reference.values

    def test_both_backends_enter_recovery_through_the_ladder(
            self, graph, monkeypatch):
        """One public entry: ``Engine.run`` and the mp coordinator both
        call :func:`repro.ft.ladder.recover`, with no private engine
        method in between."""
        from repro.ft import ladder
        entered = []
        real = ladder.recover

        def spy(engine, failed):
            entered.append(tuple(failed))
            return real(engine, failed)

        monkeypatch.setattr(ladder, "recover", spy)
        kill = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=6,
                           failures=((2, (1,), "compute"),))
        sim = SimulatorBackend().run(graph, kill)
        assert entered == [(1,)]
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, kill)
        assert entered == [(1,), (1,)]
        assert _strategies(mp) == _strategies(sim) == [("rebirth", (1,))]
        assert mp.values == sim.values

    def test_double_kill_with_ft2(self, graph):
        """Two ranks SIGKILLed in one iteration; ft_level=2 still holds
        a copy of everything on the survivors — one recovery event
        covering both ranks, as on the simulator."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=2,
                           max_iterations=8, num_standby=2)
        kill = replace(base, failures=((1, (1, 3), "compute"),))
        reference = SimulatorBackend().run(graph, base)
        sim = SimulatorBackend().run(graph, kill)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, kill)
        assert survived.failures_recovered == sim.failures_recovered == 1
        assert _strategies(survived) == _strategies(sim) \
            == [("rebirth", (1, 3))]
        assert survived.values == reference.values

    def test_death_during_state_pull_enlarges_the_failed_set(
            self, graph, monkeypatch):
        """A second worker dying while the coordinator pulls survivor
        state is recovered together with the first (Section 5.3.2)."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=2,
                           max_iterations=8, num_standby=2)
        kill = replace(base, failures=((2, (1,), "compute"),))
        reference = SimulatorBackend().run(graph, base)
        pull = MultiprocessingBackend._sync_parent_from_workers
        pulls = []

        def pull_with_second_death(backend):
            pulls.append(sorted(backend._workers))
            if len(pulls) == 1:
                backend._kill({3})
            pull(backend)

        monkeypatch.setattr(MultiprocessingBackend,
                            "_sync_parent_from_workers",
                            pull_with_second_death)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, kill)
        # Two pulls to recover; the last one reads the job's result.
        assert pulls == [[0, 2, 3], [0, 2], [0, 1, 2, 3]]
        assert _strategies(survived) == [("rebirth", (1, 3))]
        assert survived.values == reference.values

    def test_standby_exhaustion_falls_back_to_migration(self, graph):
        """The ladder is the engine's on both backends: the second kill
        finds the standby pool dry and recovers by Migration, after
        which the job runs on three ranks."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=10, num_standby=1)
        kill = replace(base, failures=((1, (2,), "compute"),
                                       (3, (0,), "compute")))
        reference = SimulatorBackend().run(graph, base)
        sim = SimulatorBackend().run(graph, kill)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, kill)
        assert _strategies(mp) == _strategies(sim) \
            == [("rebirth", (2,)), ("migration", (0,))]
        assert mp.values == sim.values == reference.values
        assert mp.extra["workers"] == 3

    def test_kill_without_replication_is_unrecoverable(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           ft_mode="none", ft_level=0, max_iterations=10,
                           failures=((1, (2,), "compute"),))
        with MultiprocessingBackend() as backend:
            with pytest.raises(UnrecoverableFailureError) as err:
                backend.run(graph, spec)
        assert err.value.surviving_nodes == (0, 1, 3)

    def test_lost_vertex_is_unrecoverable(self, graph):
        """More simultaneous deaths than ft_level covers: the engine's
        ladder reports which rungs it tried, and every worker is
        reaped."""
        spec = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=10, num_standby=2,
                           failures=((1, (1, 3), "compute"),))
        with MultiprocessingBackend() as backend:
            with pytest.raises(UnrecoverableFailureError) as err:
                backend.run(graph, spec)
        assert err.value.rungs_attempted == ("replication:exhausted",)
        assert err.value.lost_vertices > 0


class TestWorkerHygiene:
    """Child processes are reaped on every exit path."""

    def test_no_children_leak_after_clean_run(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           max_iterations=4)
        with MultiprocessingBackend() as backend:
            backend.run(graph, spec)
            # ``run`` itself reaps its workers, before ``close``.
            assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, graph):
        backend = MultiprocessingBackend()
        backend.run(graph, BackendSpec(algorithm="pagerank", num_nodes=2,
                                       max_iterations=2))
        backend.close()
        backend.close()


#: Every spec the backend refuses, with the reason it gives.
REFUSED_SPECS = [
    (dict(ft_mode="checkpoint"), "ft_mode"),
    (dict(failures=((1, (0,), "barrier"),)), "failure phase"),
    (dict(failures=((5, (0,), "compute"),)), "beyond max_iterations"),
    (dict(membership=((1, "split", 0),)), "membership event kind"),
    (dict(membership=((5, "flap", 0),)), "beyond max_iterations"),
    (dict(membership=((1, "drain", None),)), "target rank"),
    (dict(membership=((1, "flap", None),)), "target rank"),
    (dict(membership=((1, "join", None),), ft_mode="none", ft_level=0),
     "replication over an edge-cut"),
    (dict(membership=((1, "drain", 1),), partition="random_vertex_cut"),
     "replication over an edge-cut"),
    (dict(failures=((1, (7,), "compute"),)), "failure of rank 7"),
    (dict(membership=((1, "flap", 9),)), "cannot flap rank 9"),
    (dict(membership=((1, "drain", 9),)), "cannot drain rank 9"),
    (dict(membership=((1, "join", None, 0),)), "count >= 1"),
]


class TestSpecValidation:
    """Every scope limit is a typed error raised before any fork."""

    @pytest.mark.parametrize("overrides,reason", REFUSED_SPECS)
    def test_refused_specs(self, graph, overrides, reason):
        spec = BackendSpec(**{"algorithm": "pagerank", "num_nodes": 3,
                              "max_iterations": 4, **overrides})
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match=reason):
                backend.run(graph, spec)

    def test_rejects_edge_mutating_programs(self, graph, monkeypatch):
        monkeypatch.setattr(PageRank, "mutates_edges", True)
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=2)
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match="edge-mutating"):
                backend.run(graph, spec)

    def test_requires_the_fork_start_method(self, graph, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=2)
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match="fork start method"):
                backend.run(graph, spec)


class TestCommitRoundKill:
    """Satellite: a worker dying inside the commit round must either be
    absorbed by the bounded abort-and-redo retry (deaths before
    ``finalize_commit``) or surface as a structured ``BackendError``
    (deaths inside the finalize round) — never a hang and never silent
    divergence."""

    @pytest.mark.parametrize("recovery", ["rebirth", "migration"])
    def test_commit_kill_retries_bit_identical(self, graph, recovery):
        """Values only: the simulator has no commit phase to kill in."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           recovery=recovery, max_iterations=8)
        kill = replace(base, failures=((3, (1,), "commit"),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, kill)
        assert _strategies(survived) == [(recovery, (1,))]
        assert survived.values == reference.values
        assert survived.iterations == reference.iterations

    def test_commit_kill_pulls_the_previous_commit_from_array_workers(
            self, graph):
        """Vertex-cut SSSP, killed while survivors have already run
        commit stage 1 (activation scatter and remote signals): the
        ``fullstate`` they export is still the previous commit, so the
        redo lands on the failure-free bits."""
        base = BackendSpec(algorithm="sssp", num_nodes=4, ft_level=1,
                           partition="random_vertex_cut", max_iterations=10,
                           algorithm_kwargs=(("source", 0),))
        reference = SimulatorBackend().run(graph, base)
        for iteration in (1, 2, 3):
            kill = replace(base, failures=((iteration, (2,), "commit"),))
            with MultiprocessingBackend() as backend:
                survived = backend.run(graph, kill)
            assert _strategies(survived) == [("rebirth", (2,))]
            assert survived.values == reference.values
            assert survived.iterations == reference.iterations

    def test_retry_budget_exhaustion_is_structured(self, graph):
        kill = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8,
                           failures=((3, (1,), "commit"),))
        with MultiprocessingBackend() as backend:
            backend.max_iteration_retries = 0
            with pytest.raises(BackendError, match="retr"):
                backend.run(graph, kill)


class TestElasticMembership:
    """Joins, drains and flaps on the real-process backend."""

    def test_flap_is_bit_identical(self, graph):
        """SIGSTOP/SIGCONT below the death budget: the stalled worker
        is never declared failed and values match a flap-free run."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8)
        flap = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8,
                           membership=((3, "flap", 2),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            flapped = backend.run(graph, flap)
        assert flapped.values == reference.values
        assert flapped.failures_recovered == 0
        assert flapped.extra["membership"]["flaps"] == 1
        # Both backends report a flap-only run, with the same keys
        # (mp adds ``reshapes``) and the same counts.
        sim_memb = SimulatorBackend().run(graph, flap).extra["membership"]
        mp_memb = flapped.extra["membership"]
        assert set(mp_memb) == set(sim_memb) | {"reshapes"}
        for key in ("joins", "drains", "flaps"):
            assert mp_memb[key] == sim_memb[key], key

    def test_join_and_drain_bit_identical_across_backends(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=10, num_standby=1,
                           membership=((2, "join", None),
                                       (5, "drain", 1)))
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        assert mp.values == sim.values
        memb = mp.extra["membership"]
        assert memb["joins"] == 1
        assert memb["drains"] == 1
        assert memb["reshapes"] == 2
        assert memb["moves"] > 0

    def test_kill_after_reshape_recovers(self, graph):
        """A SIGKILL lands after a join reshaped the cluster: the
        respawned topology must still recover bit-identically."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=10, num_standby=2)
        churn = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                            max_iterations=10, num_standby=2,
                            membership=((2, "join", None),),
                            failures=((5, (1,), "compute"),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, churn)
        assert survived.failures_recovered == 1
        assert survived.values == reference.values
        memb = survived.extra["membership"]
        assert memb["leader"] >= 0
        assert memb["leader_term"] >= 1
