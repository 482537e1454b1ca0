"""Shared fixtures: small deterministic graphs and engine factories.

Chaos testing (see DESIGN.md, "Chaos testing"):

* ``pytest -m chaos`` selects the seeded chaos sweeps;
* ``--chaos-seed N`` replays one exact failure schedule — every chaos
  failure message prints the one-line command to do so;
* ``pytest -m mp_matrix`` runs the half of the cross-backend recovery
  matrix that tier-1 skips (``tests/test_mp_backend.py``).
"""

from __future__ import annotations

import pytest

from repro.api import make_engine
from repro.graph import generators
from repro.graph.builder import GraphBuilder


def pytest_addoption(parser):
    parser.addoption(
        "--chaos-seed", type=int, default=None,
        help="Replay chaos tests with this exact schedule seed "
             "(printed by failing chaos runs).")


def pytest_collection_modifyitems(config, items):
    """``mp_matrix`` cases fork real processes by the dozen: they run
    only when selected with ``-m mp_matrix`` (CI does)."""
    if "mp_matrix" in config.getoption("-m"):
        return
    skip = pytest.mark.skip(reason="full matrix: select with -m mp_matrix")
    for item in items:
        if "mp_matrix" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def chaos_seed_override(request):
    """The ``--chaos-seed`` value, or None for the default sweep."""
    return request.config.getoption("--chaos-seed")


@pytest.fixture(scope="session")
def chaos_graph():
    """Deterministic 60-vertex power-law graph for chaos sweeps."""
    return generators.power_law(60, alpha=2.0, seed=7, name="chaos-pl")


@pytest.fixture(scope="session")
def small_powerlaw():
    """A ~300-vertex power-law graph with selfish vertices."""
    return generators.power_law(300, alpha=2.0, seed=7, avg_degree=4.0,
                                selfish_frac=0.1, name="small-pl")


@pytest.fixture(scope="session")
def tiny_graph():
    """The paper's Fig. 1-style sample graph (7 vertices)."""
    builder = GraphBuilder(name="fig1")
    edges = [(1, 2), (2, 1), (3, 2), (4, 2), (2, 5), (5, 4),
             (6, 5), (4, 6), (1, 7), (3, 7)]
    for src, dst in edges:
        builder.add_edge(src - 1, dst - 1)  # 0-based
    return builder.build()


@pytest.fixture(scope="session")
def weighted_chain():
    return generators.chain(32, weighted=True, seed=5)


@pytest.fixture(scope="session")
def sym_two_components():
    """Two undirected components plus one isolated vertex."""
    builder = GraphBuilder(name="two-comp")
    for u, v in [(0, 1), (1, 2), (2, 3), (5, 6), (6, 7)]:
        builder.add_edge(u, v)
        builder.add_edge(v, u)
    builder.ensure_vertex(8)  # isolated
    return builder.build()


def engine_for(graph, algorithm="pagerank", **kw):
    """Small-cluster engine with test-friendly defaults."""
    kw.setdefault("num_nodes", 4)
    kw.setdefault("max_iterations", 5)
    kw.setdefault("num_standby", 2)
    return make_engine(graph, algorithm, **kw)


@pytest.fixture
def make_small_engine():
    return engine_for
