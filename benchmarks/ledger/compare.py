"""``python -m benchmarks.ledger compare A.json B.json``.

Judges B against A (the base) per (workload, end-to-end metric) with the
bounds of :data:`benchmarks.ledger.workloads.END_TO_END`:

* ``regressed``    — B's value is worse than A's by more than the bound;
* ``unresolved``   — not regressed, but one side's own repetitions are
  spread wider than the bound, so "unchanged" cannot be claimed either;
* ``within-bound`` — otherwise.

Counts (traffic counters, integer layer metrics) of two ledgers of the
same seed and size must be identical.  Exit status is non-zero on any
``regressed``, any failed operation, or any differing count.
"""

from __future__ import annotations

import argparse
import json

from benchmarks.ledger import workloads
from benchmarks.ledger.runner import is_timing


def _spread(name: str, metric: dict) -> float:
    """How far a side's own repetitions disagree, as a share of its value
    (0 when n < 2).  A timing reports its fastest repetition, which can be
    trusted when a quarter of the repetitions sit close to it: the spread
    is the distance from the fastest to the lower quartile.  Anything else
    reports a median: the spread is the distance between its quartiles."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    width = (metric["q1"] - metric["min"] if is_timing(name)
             else metric["q3"] - metric["q1"])
    return width / abs(metric["value"])


def verdict(name: str, a: dict, b: dict, bound: float) -> tuple[str, float]:
    change = (b["value"] - a["value"]) / abs(a["value"])
    if change > bound:
        return "regressed", change
    if max(_spread(name, a), _spread(name, b)) > bound:
        return "unresolved", change
    return "within-bound", change


def _count_metrics(entry: dict) -> dict:
    counts = dict(entry["counts"])
    counts.update({k: v["value"] for k, v in entry["per_layer"].items()
                   if isinstance(v["value"], int)})
    return counts


def compare(a: dict, b: dict) -> tuple[list[tuple], list[str]]:
    """Rows ``(workload, metric, unit, A, B, change, bound, verdict)`` and
    the reasons the comparison fails beyond ``regressed`` rows."""
    rows, problems = [], []
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        for side, entry in (("A", entry_a), ("B", entry_b)):
            if entry["ops_failed"]:
                problems.append(f"{name}: {entry['ops_failed']} failed "
                                f"operations in {side}")
        for metric, m_a in entry_a["end_to_end"].items():
            m_b = entry_b["end_to_end"].get(metric)
            if m_b is None:
                continue
            bound = workloads.END_TO_END[metric][1]
            word, change = verdict(metric, m_a, m_b, bound)
            rows.append((name, metric, m_a["unit"], m_a["value"],
                         m_b["value"], change, bound, word))
        if same_inputs:
            counts_a, counts_b = (_count_metrics(e)
                                  for e in (entry_a, entry_b))
            for key in counts_a.keys() & counts_b.keys():
                if counts_a[key] != counts_b[key]:
                    problems.append(f"{name}: count {key} differs: "
                                    f"{counts_a[key]} vs {counts_b[key]}")
    return rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.ledger compare")
    parser.add_argument("a", help="base ledger")
    parser.add_argument("b", help="ledger judged against the base")
    args = parser.parse_args(argv)
    ledgers = []
    for path in (args.a, args.b):
        with open(path) as fh:
            ledgers.append(json.load(fh))
    rows, problems = compare(*ledgers)
    print(f"{'workload':<18}{'metric':<21}{'unit':<5}{'A (base)':>11}"
          f"{'B':>11}{'(B-A)/A':>9}{'bound':>7}  verdict")
    for name, metric, unit, med_a, med_b, change, bound, word in rows:
        print(f"{name:<18}{metric:<21}{unit:<5}{med_a:>11.4f}{med_b:>11.4f}"
              f"{change:>+9.1%}{bound:>7.0%}  {word}")
    for problem in problems:
        print(f"FAILED {problem}")
    regressed = sum(1 for row in rows if row[-1] == "regressed")
    unresolved = sum(1 for row in rows if row[-1] == "unresolved")
    print(f"{len(rows)} pairs: {regressed} regressed, {unresolved} "
          f"unresolved, {len(problems)} other failures")
    return 1 if regressed or problems else 0
