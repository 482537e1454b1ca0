"""Post-hoc differential check for served responses (DESIGN.md §13).

The acceptance bar for the serving layer is *bit-equality*: every
response must equal the value committed at the superstep it was tagged
with.  The check replays the identical job (same spec, same chaos
schedule) on the deterministic simulator *without* serving, records
the full committed value map at every commit point, and verifies each
response against that history.  Because both backends are bit-identical
to the simulator (the cross-backend differential oracle, DESIGN.md
§12), the same replay history checks multiprocessing responses too.

A mismatch means a read observed uncommitted or torn state — the bug
class the snapshot rule exists to prevent — so the checkers return
the offending responses rather than a bare count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.serve.workload import NEIGHBORHOOD, POINT, TOPK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.server import ReadResponse, ResponseView


class HistoryRecorder:
    """Serve hook recording ``{superstep: {gid: value}}`` at commits.

    ``-1`` (initial values) is captured at the first phase hook; each
    later superstep at its commit.  Recording materialises the whole
    value dict (``values()``), which is fine — the recorder runs on the
    replay engine, never on the serving one.
    """

    def __init__(self):
        self.history: dict[int, dict[int, Any]] = {}

    def on_phase(self, engine, phase: str) -> None:
        tag = engine.committed_iteration
        if tag not in self.history:
            self.history[tag] = engine.values()


def replay_committed_history(graph, spec) -> dict[int, dict[int, Any]]:
    """Run ``spec`` on the simulator, recording every commit's values."""
    from repro.api import make_engine

    engine = make_engine(graph, **spec.engine_kwargs())
    for iteration, ranks, phase in spec.failures:
        engine.schedule_failure(iteration, list(ranks), phase)
    recorder = HistoryRecorder()
    engine.attach_serve(recorder)
    engine.run()
    # The final state is also a valid read target for tail-drained
    # queries; it is the last commit, already recorded above.
    return recorder.history


def check_responses(responses: "ResponseView",
                    history: dict[int, dict[int, Any]],
                    ) -> list[tuple["ReadResponse", Any]]:
    """Every response vs the committed value at its tagged superstep.

    Returns ``(response, expected)`` pairs for mismatches (empty list =
    every read was bit-equal to committed state).  Point and
    neighborhood reads are checked value-for-value; top-K responses
    are checked against the recomputed top-K of the tagged snapshot,
    skipping degraded ones (mid-recovery snapshots are not in the
    commit history by construction).  Misses (``value is None`` with
    ``degraded=True``) are not mismatches — they are the explicit
    degraded contract for vertices with no alive copy.

    The :class:`~repro.serve.server.ResponseView` is read column by
    column; a row is built only for a mismatch.
    """
    mismatches: list[tuple[Any, Any]] = []
    topk_cache: dict[tuple[int, int], list] = {}
    for i, (gid, kind, value, superstep, degraded, _node) in enumerate(
            zip(*responses.columns())):
        committed = history.get(superstep)
        if committed is None:
            mismatches.append((responses[i], f"unknown superstep "
                                             f"{superstep}"))
            continue
        if kind == POINT:
            if value is None and degraded:
                continue
            expected = committed[gid]
            if value != expected:
                mismatches.append((responses[i], expected))
        elif kind == NEIGHBORHOOD:
            for nbr, nbr_value in value:
                if nbr_value is None and degraded:
                    continue
                expected = committed[nbr]
                if nbr_value != expected:
                    mismatches.append((responses[i], (nbr, expected)))
        elif kind == TOPK:
            if degraded:
                continue
            k = len(value)
            key = (superstep, k)
            expected_top = topk_cache.get(key)
            if expected_top is None:
                ranked = sorted(committed.items(),
                                key=lambda t: (-t[1], t[0]))
                expected_top = topk_cache[key] = ranked[:k]
            if list(value) != expected_top:
                mismatches.append((responses[i], expected_top))
    return mismatches
