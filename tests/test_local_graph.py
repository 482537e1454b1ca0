"""LocalGraph tests: positional array semantics, the activity column."""

from __future__ import annotations

import pytest

from repro.engine.local_graph import LocalGraph
from repro.engine.state import Role, VertexSlot
from repro.errors import EngineError
from tests.reference.activity import active_gids
from tests.reference.memory import counts as census


def slot(gid, role=Role.MASTER, active=False):
    made = VertexSlot(gid=gid, role=role)
    made.active = active  # a detached slot's own, until add_slot
    return made


class TestSlotArray:
    def test_append_and_lookup(self):
        lg = LocalGraph(0)
        pos = lg.add_slot(slot(5))
        assert pos == 0
        assert 5 in lg
        assert lg.slot_of(5).gid == 5
        assert lg.position_of(5) == 0

    def test_positional_insert_pads(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(9), position=3)
        assert lg.slots[0] is None
        assert lg.slot_at(3).gid == 9
        assert lg.slot_at(99) is None

    def test_duplicate_gid_rejected(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(1))
        with pytest.raises(EngineError):
            lg.add_slot(slot(1))

    def test_occupied_position_rejected(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(1), position=2)
        with pytest.raises(EngineError):
            lg.add_slot(slot(2), position=2)

    def test_remove_leaves_tombstone(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(1))
        lg.add_slot(slot(2))
        removed = lg.remove_slot(1)
        assert removed.gid == 1
        assert lg.slots[0] is None
        assert 1 not in lg
        assert lg.slot_of(2).gid == 2  # position unaffected

    def test_remove_missing_raises(self):
        lg = LocalGraph(0)
        with pytest.raises(EngineError):
            lg.remove_slot(7)

    def test_missing_lookup_raises(self):
        lg = LocalGraph(0)
        with pytest.raises(EngineError):
            lg.slot_of(3)


class TestActiveIndex:
    """Activity is the ``active`` column; the role splits it."""

    def test_set_active_routes_by_role(self):
        lg = LocalGraph(0)
        master = slot(1, Role.MASTER)
        replica = slot(2, Role.REPLICA)
        lg.add_slot(master)
        lg.add_slot(replica)
        master.active = True
        replica.active = True
        assert lg.active.tolist() == [True, True]
        assert active_gids(lg) == ({1}, {2})
        master.active = False
        assert active_gids(lg) == (set(), {2})

    def test_active_at_insert(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(3, Role.MIRROR, active=True))
        assert active_gids(lg) == (set(), {3})

    def test_role_change_moves_sets(self):
        lg = LocalGraph(0)
        s = slot(4, Role.MIRROR, active=True)
        lg.add_slot(s)
        s.role = Role.MASTER  # promotion: the flag stays, the role moves
        assert active_gids(lg) == ({4}, set())

    def test_remove_clears_active(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(5, Role.MASTER, active=True))
        lg.remove_slot(5)
        assert not lg.active.any()
        assert active_gids(lg) == (set(), set())


class TestIterationAndCounts:
    def make(self):
        lg = LocalGraph(1)
        lg.add_slot(slot(0, Role.MASTER))
        lg.add_slot(slot(1, Role.MIRROR))
        ft = slot(2, Role.MIRROR)
        ft.ft_only = True
        lg.add_slot(ft)
        lg.add_slot(slot(3, Role.REPLICA))
        return lg

    def test_counts(self):
        counts = census(self.make())
        assert counts == {"masters": 1, "mirrors": 2, "replicas": 1,
                          "ft_replicas": 1, "local_in_edges": 0,
                          "total": 4}

    def test_iterators(self):
        lg = self.make()
        assert [s.gid for s in lg.iter_masters()] == [0]
        assert sorted(s.gid for s in lg.iter_mirrors()) == [1, 2]
        assert len(list(lg.iter_slots())) == 4

    def test_view(self):
        lg = LocalGraph(0)
        s = slot(7)
        s.value = 2.5
        s.out_degree = 3
        lg.add_slot(s)
        view = lg.view(0)
        assert view.vid == 7
        assert view.value == 2.5
        assert view.out_degree == 3

    def test_memory_counts_edges_and_meta(self):
        from repro.algorithms import PageRank
        lg = self.make()
        base = lg.memory_nbytes(PageRank())
        master = lg.slot_of(0)
        master.in_edges.append((1, 1.0))
        assert lg.memory_nbytes(PageRank()) > base
