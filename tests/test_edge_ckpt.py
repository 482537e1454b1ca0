"""Edge-ckpt file tests (Section 4.3, vertex-cut edge recovery)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import make_engine
from repro.cluster.storage import PersistentStore
from repro.ft.edge_ckpt import EdgeCkptStore, dedupe
from repro.graph import generators
from repro.utils.sizing import BYTES_PER_EDGE
from tests.reference.edge_ckpt import dedupe_edge_records, rows


def edges(*records) -> tuple:
    """``(src, dst, weight)`` records as a column triple."""
    src, dst, weight = zip(*records) if records else ((), (), ())
    return (np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
            np.array(weight, dtype=np.float64))


class TestStoreBasics:
    def test_write_and_read_all(self):
        store = EdgeCkptStore(PersistentStore())
        records = {1: edges((0, 1, 1.0)),
                   2: edges((2, 3, 2.0), (4, 3, 1.0))}
        nbytes = store.write_node_edges(0, records)
        assert nbytes == 3 * BYTES_PER_EDGE
        everything, read = store.read_all(0)
        assert len(rows(everything)) == 3
        assert read == nbytes
        assert rows(store.read_file(0, 2)) == rows(records[2])
        assert rows(store.read_file(0, 1)) == rows(records[1])

    def test_missing_file_reads_empty(self):
        store = EdgeCkptStore(PersistentStore())
        assert rows(store.read_file(5, 1)) == []
        assert rows(store.read_all(5)[0]) == []

    def test_incremental_log(self):
        store = EdgeCkptStore(PersistentStore())
        store.write_node_edges(0, {1: edges((0, 1, 1.0))})
        store.log(0, 1, edges((0, 1, 9.0)))
        records = rows(store.read_file(0, 1))
        assert len(records) == 2
        assert records[-1][2] == 9.0

    def test_file_nbytes(self):
        store = EdgeCkptStore(PersistentStore())
        store.write_node_edges(0, {1: edges(*[(0, 1, 1.0)] * 4)})
        assert store.file_nbytes(0, 1) == 4 * BYTES_PER_EDGE
        assert store.file_nbytes(0, 2) == 0


record_lists = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                                  st.floats(0.1, 10.0)), max_size=40)


class TestDedupe:
    """The numpy ``dedupe`` equals the dict-based oracle of
    ``tests/reference/edge_ckpt.py``: same rows, same order, same
    weights."""

    @staticmethod
    def check(records):
        have = rows(dedupe(edges(*records)))
        assert have == dedupe_edge_records(records)

    @settings(max_examples=200, deadline=None)
    @given(record_lists)
    def test_equals_the_dict_oracle(self, records):
        self.check(records)

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(st.integers(0, 9), st.integers(0, 9)),
           st.lists(st.floats(0.1, 10.0), min_size=1, max_size=20))
    def test_all_duplicates(self, pair, weights):
        self.check([(*pair, w) for w in weights])
        assert rows(dedupe(edges(*[(*pair, w) for w in weights]))) == [
            (*pair, weights[-1])]

    @settings(max_examples=50, deadline=None)
    @given(record_lists, record_lists)
    def test_interleaved(self, first, second):
        merged = [r for pair in zip(first, second) for r in pair]
        self.check(merged + first[len(second):] + second[len(first):])

    def test_empty(self):
        self.check([])
        assert [c.size for c in dedupe(edges())] == [0, 0, 0]

    def test_large_gids(self):
        self.check([(10**6, 3, 1.0), (3, 10**6, 2.0), (10**6, 3, 0.5)])


class TestEngineIntegration:
    @pytest.fixture(scope="class")
    def engine(self):
        graph = generators.power_law(200, alpha=2.0, seed=13,
                                     avg_degree=5.0)
        return make_engine(graph, "pagerank", num_nodes=5,
                           partition="hybrid_cut")

    def test_files_written_at_loading(self, engine):
        assert engine.ckpt.edges is not None
        total = sum(len(rows(engine.ckpt.edges.read_all(n)[0]))
                    for n in range(5))
        assert total == engine.graph.num_edges

    def test_files_cover_each_node_edges(self, engine):
        for node in range(5):
            lg = engine.local_graphs[node]
            local_edges = sum(len(s.in_edges) for s in lg.iter_slots())
            assert len(rows(engine.ckpt.edges.read_all(node)[0])) \
                == local_edges

    def test_receiver_hosts_target_copy(self, engine):
        """Every edge's receiver node hosts the master or a mirror of
        the edge's target (the Migration placement rule)."""
        for owner in range(5):
            for receiver in range(5):
                for _src, dst, _w in rows(
                        engine.ckpt.edges.read_file(owner, receiver)):
                    master_node = engine.master_node_of[dst]
                    meta = engine.local_graphs[master_node] \
                        .slot_of(dst).meta
                    hosts = {master_node, *meta.mirror_nodes}
                    assert receiver in hosts

    def test_receiver_is_not_owner(self, engine):
        for owner in range(5):
            for _src, dst, _w in rows(
                    engine.ckpt.edges.read_file(owner, owner)):
                # Only permitted when no off-owner copy existed.
                master_node = engine.master_node_of[dst]
                assert master_node == owner

    def test_edge_cut_engine_skips_edge_ckpt(self):
        graph = generators.power_law(100, alpha=2.0, seed=14)
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             partition="hash_edge_cut")
        assert engine.ckpt.edges is None
