"""The recovery-leader rule one vertex at a time: the oracle of
``leading_mirrors`` in ``repro.ft._recovery_common`` (imported by tests
only), which applies it as array ops over the mirror lists' CSR."""

from __future__ import annotations

from repro.engine.state import MasterMeta


def surviving_recoverer(meta: MasterMeta, failed: set[int]) -> int | None:
    """The node leading recovery of a vertex whose master crashed.

    Mirror ids order the mirrors; the surviving mirror with the lowest
    id does the work so the others stay silent (Section 5.3.1).
    Returns ``None`` when every mirror crashed too.
    """
    for node in meta.mirror_nodes:
        if node not in failed:
            return node
    return None
