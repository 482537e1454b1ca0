"""Elastic membership and the adaptive FT control plane (DESIGN.md §14).

This package holds the pieces the engine composes into elastic
clusters:

* :func:`elect_leader` — deterministic seeded leader election among the
  live nodes, used to coordinate recovery (term numbers, leader-first
  restart);
* :class:`FtPolicy` — the adaptive replication floor: fed confirmed
  failures and flaps, it raises/lowers the effective K inside
  ``[ft_level_min, ft_level_max]``, driving a throttled background
  repair with exponential backoff and a circuit breaker;
* :func:`move_master` / :func:`prune_node_copies` — incremental master
  movement between nodes (the state-transfer primitive of joins and
  drains);
* :class:`MembershipManager` — ``engine.membership``, the one
  collaborator ``Engine.run`` calls for all of it: the schedule (one
  parser, :func:`parse_membership`, for both backends), join/drain/flap,
  the floors, the throttled per-barrier pumps and the run's report.
"""

from repro.membership.election import elect_leader
from repro.membership.manager import (MembershipManager, MembershipOp,
                                     parse_membership)
from repro.membership.policy import FtPolicy, FtPolicyConfig
from repro.membership.rebalance import move_master, prune_node_copies

__all__ = [
    "FtPolicy",
    "FtPolicyConfig",
    "MembershipManager",
    "MembershipOp",
    "elect_leader",
    "move_master",
    "parse_membership",
    "prune_node_copies",
]
