"""``python -m benchmarks.ledger``: the ledger, the driver contract, compare.

Three entry points share one machinery (:mod:`.runner`):

* ``--seed 7`` runs every workload (fixed repetitions, round-robin),
  prints every metric and writes one JSON ledger;
* ``--workload W --seed N --seconds S --trace 0|1`` is the benchmark
  contract of ``BENCHMARK.json``: one workload, repetitions for S
  seconds, one JSON object as the last line of standard output;
* ``compare A.json B.json`` judges two ledgers against the bounds.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from benchmarks.ledger import compare, runner, workloads
from benchmarks.ledger.runner import PACKAGE_DIR, ROOT

#: The issue's floor on repetitions per workload in any measured run.
MIN_REPS = 5
#: Repetitions per workload in a full ledger (the issue asked for 5-7 at
#: four times the size; at this size nine still take under a minute).
LEDGER_REPS = 9
#: Traced repetitions per workload in a full ledger; the fastest is kept.
TRACED_REPS = 3
#: A driver run must exit within 180 s whatever ``--seconds`` says.
HARD_CAP_S = 100.0


def unit_of(metric: str) -> str:
    """Per-layer units follow from the metric's name."""
    if "bytes" in metric:
        return "bytes"
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_ratio", "ratio"),
                         ("coverage", "ratio"), ("fraction", "ratio"),
                         ("imbalance", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


# -- driver contract --------------------------------------------------------


def measure_for(session, name: str, seconds: float, trace: bool):
    """Repetitions of one workload for ``seconds`` (never fewer than the
    floor); with ``trace``, untraced and traced runs alternate so the
    traced numbers keep an untraced base from the same minutes."""
    order = ("e2e", "traced") if trace else ("e2e",)
    min_ops = MIN_REPS if not trace else 2 * TRACED_REPS
    session.ensure_oracle(name)
    start = time.perf_counter()
    last: dict[str, float] = {}
    ops = 0
    while True:
        mode = order[ops % len(order)]
        began = time.perf_counter()
        session.run(name, mode)
        now = time.perf_counter()
        last[mode] = now - began
        ops += 1
        upcoming = last.get(order[ops % len(order)], 0.0)
        if ops >= min_ops and now + upcoming > start + seconds:
            break
        if now - start > HARD_CAP_S:
            break
    return session.runs[name]


def driver(args) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    name = args.workload
    with runner.Session(args.seed, args.quick) as session:
        runs = measure_for(session, name, args.seconds, bool(args.trace))
    if args.trace:
        layers = runner.per_layer(runs)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in contract["per_layer"] if m["name"] in layers}
        complete = len(metrics) == len(contract["per_layer"])
    else:
        metrics = {
            m["name"]: {"value": runner.best(
                m["name"], (rep[m["name"]] for rep in runs.e2e)),
                "unit": m["unit"]}
            for m in contract["end_to_end"] if runs.e2e}
        complete = bool(metrics)
    for failure in runs.failures:
        print(f"FAILED {name}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": runs.failed == 0 and complete,
                      "attempted": max(runs.attempted, 1),
                      "failed": runs.failed, "metrics": metrics}))
    return 0


# -- the ledger -------------------------------------------------------------


def build_ledger(session, names, reps) -> dict:
    entries = {}
    for name in names:
        runs = session.runs[name]
        workload = workloads.WORKLOADS[name]
        sample = (runs.e2e or runs.traced or [{}])[0]
        entries[name] = {
            "why": workload.why, "backend": workload.backend,
            "vertices": sample.get("vertices"), "edges": sample.get("edges"),
            "end_to_end": runner.end_to_end(name, runs),
            "ops_total": runs.attempted, "ops_failed": runs.failed,
            "failures": runs.failures,
            "counts": runs.e2e[0]["counts"] if runs.e2e else {},
            "per_layer": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in runner.per_layer(runs).items()},
        }
    _cross_workload(entries, workloads.num_queries(session.quick))
    return {"schema": 1, "seed": session.seed, "quick": session.quick,
            "scale": workloads.scale_of(session.quick), "reps": reps,
            "host": runner.host_facts(), "workloads": entries}


def _cross_workload(entries: dict, reads: int) -> None:
    """Metrics that are differences between exact twins."""
    def run_s(name):
        return entries.get(name, {}).get("end_to_end", {}).get("run_s")

    base, kill, serve = (run_s(n) for n in (
        "pr_edgecut_sim", "pr_kill_sim", "serve_kill_sim"))
    if base and kill:
        entries["pr_kill_sim"]["end_to_end"]["recovery_overhead_s"] = \
            runner.summarise("recovery_overhead_s",
                             [v - base["value"] for v in kill["values"]], "s")
    if kill and serve and entries["serve_kill_sim"]["per_layer"]:
        entries["serve_kill_sim"]["per_layer"]["serve.cost_us_per_read"] = {
            "value": (serve["value"] - kill["value"]) * 1e6 / reads,
            "unit": "us"}


def print_ledger(ledger: dict) -> None:
    host = ledger["host"]
    print(f"# ledger seed={ledger['seed']} scale={ledger['scale']} "
          f"nproc={host['nproc']} load={host['loadavg_1min']:.2f} "
          f"python={host['python']} numpy={host['numpy']} "
          f"cpu={host['cpu_model']!r}")
    print("\n== end-to-end (tracing off, n fresh processes; value = fastest "
          "repetition for a timing, median otherwise) ==")
    print(f"{'workload':<18}{'metric':<21}{'unit':<5}{'value':>11}"
          f"{'median':>11}{'min':>11}{'max':>11}{'n':>4}")
    for name, entry in ledger["workloads"].items():
        for metric, m in entry["end_to_end"].items():
            print(f"{name:<18}{metric:<21}{m['unit']:<5}{m['value']:>11.4f}"
                  f"{m['median']:>11.4f}{m['min']:>11.4f}{m['max']:>11.4f}"
                  f"{m['n']:>4}")
        print(f"{name:<18}{'ops_total':<21}{'count':<5}"
              f"{entry['ops_total']:>11}")
        print(f"{name:<18}{'ops_failed':<21}{'count':<5}"
              f"{entry['ops_failed']:>11}")
        for failure in entry["failures"]:
            print(f"  FAILED {failure}")
    names = [n for n, e in ledger["workloads"].items() if e["per_layer"]]
    if not names:
        return
    print("\n== per-layer (traced phase; one column per workload) ==")
    print(f"{'metric':<34}{'unit':<7}" + "".join(
        f"{n.replace('_sim', '').replace('edgecut', 'ec'):>13}"
        for n in names))
    metrics = {k: v["unit"] for n in names
               for k, v in ledger["workloads"][n]["per_layer"].items()}
    for metric, unit in metrics.items():
        cells = []
        for n in names:
            cell = ledger["workloads"][n]["per_layer"].get(metric)
            cells.append(f"{'-':>13}" if cell is None else
                         f"{cell['value']:>13}" if unit in ("count", "bytes")
                         else f"{cell['value']:>13.5f}")
        print(f"{metric:<34}{unit:<7}" + "".join(cells))


def ledger_command(args) -> int:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    host = runner.host_facts()
    if host["loadavg_1min"] > host["nproc"] / 2:
        print(f"warning: 1-min load {host['loadavg_1min']:.2f} exceeds "
              f"nproc/2; timings will be noisy", file=sys.stderr)
    reps = 1 if args.quick or args.phase == "traced" else \
        args.reps or LEDGER_REPS
    # Round-robin: one repetition of every workload before the next of
    # any, so slow drift of the host spreads over all of them alike.
    plan = [(n, "e2e") for _ in range(reps) for n in names]
    if args.phase != "e2e":
        plan += [(n, "traced") for _ in range(1 if args.quick else TRACED_REPS)
                 for n in names]
    with runner.Session(args.seed, args.quick) as session:
        for name in names:
            session.ensure_oracle(name)
        for i, (name, mode) in enumerate(plan, 1):
            print(f"\r[{i}/{len(plan)}] {mode} {name:<20}", end="",
                  file=sys.stderr, flush=True)
            session.run(name, mode)
        print(file=sys.stderr)
        ledger = build_ledger(session, names, reps)
    print_ledger(ledger)
    out = args.out or PACKAGE_DIR / "out" / (
        f"ledger-seed{args.seed}{'-quick' if args.quick else ''}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(ledger, fh, indent=1)
        fh.write("\n")
    print(f"\nwrote {out}")
    failed = sum(e["ops_failed"] for e in ledger["workloads"].values())
    return 1 if failed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit("benchmarks.ledger: src/repro is not in this checkout; "
                 "there is no program to measure")
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="feeds the graph generator and the read "
                             "workload, nothing else")
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--reps", type=int,
                        help="repetitions per workload (ledger mode)")
    parser.add_argument("--phase", choices=("e2e", "traced", "all"),
                        default="all")
    parser.add_argument("--quick", action="store_true",
                        help="V=2 000, one repetition (smoke test)")
    parser.add_argument("--out", type=Path, help="ledger path")
    parser.add_argument("--seconds", type=float,
                        help="contract mode: measure one workload this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        return driver(args)
    return ledger_command(args)


if __name__ == "__main__":
    sys.exit(main())
