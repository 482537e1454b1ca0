"""Parent side: spawn repetitions, watch them, check them, reduce them.

Every repetition is a fresh ``_rep`` child in its own session (so a
watchdog kill also reaps forked mp workers); the parent only schedules,
checks outputs against the oracle and takes medians.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from benchmarks.ledger import workloads

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]

#: Watchdog: a child is killed after 10x the slowest repetition of its
#: workload seen so far; before any has finished, after this long.
FIRST_TIMEOUT_S = 60.0
MIN_TIMEOUT_S = 20.0


@dataclass
class Runs:
    """Everything one workload produced in a session."""

    oracle: dict | None = None
    e2e: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class Session:
    """One seed, one size: runs children and accumulates :class:`Runs`."""

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.runs = {name: Runs() for name in workloads.WORKLOADS}
        self._slowest: dict[str, float] = {}
        self._workdir = tempfile.mkdtemp(prefix=".work-", dir=PACKAGE_DIR)

    def close(self) -> None:
        shutil.rmtree(self._workdir, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- children ---------------------------------------------------------

    def _spawn(self, name: str, mode: str) -> tuple[dict | None, str]:
        """Run one child to completion; returns (record, failure reason)."""
        argv = [sys.executable, "-m", "benchmarks.ledger._rep", mode, name,
                str(self.seed), "--slot", str(self.runs[name].attempted),
                "--history", os.path.join(self._workdir, f"{name}.history")]
        if self.quick:
            argv.append("--quick")
        timeout = max(MIN_TIMEOUT_S, 10.0 * self._slowest[name]) \
            if name in self._slowest else FIRST_TIMEOUT_S
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdout=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
            reason = "" if proc.returncode == 0 else \
                f"{mode} child exited with code {proc.returncode}"
        except subprocess.TimeoutExpired:
            out, reason = "", f"{mode} child exceeded {timeout:.0f}s watchdog"
        leaked = _group_alive(proc.pid)
        if leaked:
            os.killpg(proc.pid, signal.SIGKILL)
            reason = reason or f"{mode} child leaked a process"
        proc.wait()
        if reason:
            return None, reason
        self._slowest[name] = max(self._slowest.get(name, 0.0),
                                  time.perf_counter() - start)
        return json.loads(out.strip().splitlines()[-1]), ""

    def run(self, name: str, mode: str) -> None:
        """One operation: spawn, check, record."""
        runs = self.runs[name]
        if mode == "oracle":
            runs.oracle, reason = self._spawn(name, mode)
            if reason:
                runs.failed += 1
                runs.failures.append(reason)
            return
        runs.attempted += 1
        record, reason = self._spawn(name, mode)
        problems = [reason] if reason else self._check(name, mode, record)
        if problems:
            runs.failed += 1
            runs.failures.extend(f"{mode} #{runs.attempted}: {p}"
                                 for p in problems)
        if record is not None:
            getattr(runs, mode).append(record)

    def ensure_oracle(self, name: str) -> None:
        if (workloads.needs_oracle(workloads.WORKLOADS[name])
                and self.runs[name].oracle is None):
            self.run(name, "oracle")

    # -- correctness ------------------------------------------------------

    def _check(self, name: str, mode: str, record: dict) -> list[str]:
        workload = workloads.WORKLOADS[name]
        runs = self.runs[name]
        problems = []
        if not record["reference_ok"]:
            problems.append("values differ from the numpy reference")
        # Bit-equality: to the simulator twin where there is one, else to
        # this workload's first repetition.
        first = runs.oracle or (runs.e2e + runs.traced or [record])[0]
        if record["digest"] != first["digest"]:
            problems.append("final values not bit-equal to the oracle")
        if mode == "e2e":
            counts = record["counts"]
            if runs.e2e and counts != runs.e2e[0]["counts"]:
                problems.append("traffic counters differ between reps")
            if workload.backend != "simulator" and runs.oracle and \
                    counts != runs.oracle["counts"]:
                problems.append("traffic counters differ from simulator")
            if record["orphans"]:
                problems.append(f"{record['orphans']} live children "
                                f"after close()")
            if workload.serve:
                expected = workloads.num_queries(self.quick)
                if record["reads"] != expected:
                    problems.append(f"served {record['reads']} reads, "
                                    f"expected {expected}")
                if record["read_mismatches"]:
                    problems.append(f"{record['read_mismatches']} reads "
                                    f"rejected by check_responses")
        else:
            layers = record["layers"]
            if runs.traced and _counts(layers) != _counts(
                    runs.traced[0]["layers"]):
                problems.append("layer counts differ between traced runs")
            if runs.e2e and "net.msgs" in layers and \
                    layers["net.msgs"] != runs.e2e[0]["counts"]["total_msgs"]:
                problems.append("traced net.msgs differs from untraced")
            for gate in ("serve.mismatches", "mp.orphans"):
                if layers.get(gate):
                    problems.append(f"{gate} = {layers[gate]}")
            if layers.get("mp.kill_recovered", 1) != 1:
                problems.append("the mp kill run did not recover one rank")
        return problems


def _counts(layers: dict) -> dict:
    """The layer metrics that are counts and so must repeat exactly."""
    return {k: v for k, v in layers.items() if isinstance(v, int)}


# -- reduction --------------------------------------------------------------


def best(metric: str, values) -> float:
    """The one number a metric reports for a set of repetitions.

    A wall-clock timing (``*_s``, ``*_us``) reports its fastest
    repetition: on the shared 2-vCPU bench host interference only ever
    adds time (measured over ten seeds, the median of a run's repetitions
    spreads 5-19 %, the minimum 4-12 %).  Memory reports the median.
    """
    values = list(values)
    return min(values) if is_timing(metric) else statistics.median(values)


def is_timing(metric: str) -> bool:
    return metric.endswith(("_s", "_us"))


def summarise(metric: str, values: list[float], unit: str) -> dict:
    """Value with median, min, max, n and quartiles, as the ledger stores
    it."""
    out = {"unit": unit, "value": best(metric, values),
           "median": statistics.median(values),
           "min": min(values), "max": max(values), "n": len(values),
           "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def end_to_end(name: str, runs: Runs) -> dict:
    """Per-workload end-to-end metrics (cross-workload ones are added by
    the ledger, which sees every workload)."""
    out = {}
    for metric, (unit, _bound, _only) in workloads.END_TO_END.items():
        values = [rep[metric] for rep in runs.e2e if metric in rep]
        if values and workloads.declares(metric, name):
            out[metric] = summarise(metric, values, unit)
    return out


#: Timings of the extra single runs a traced child makes beside its
#: traced run; each reports its fastest sample over the traced children.
EXTRA_RUNS = ("ft.none_run_s", "mp.kill_run_s",
              "recovery.migration_protocol_s")


def per_layer(runs: Runs) -> dict:
    """Layer metrics of the fastest traced run — one run, so the layers
    still add up — plus the ones derived from the untraced timings of the
    same session."""
    if not runs.traced:
        return {}
    layers = dict(min((t["layers"] for t in runs.traced),
                      key=lambda layers: layers["trace.total_s"]))
    for key in EXTRA_RUNS:
        if key in layers:
            layers[key] = min(t["layers"][key] for t in runs.traced)
    if not runs.e2e:
        return layers
    run_s = best("run_s", (rep["run_s"] for rep in runs.e2e))
    # On the mp workload the traced run is the simulator twin's, so its
    # untraced base is the twin's too (the oracle run).
    on_mp = "mp.transport_s" in layers
    base = runs.e2e if not on_mp else [runs.oracle] if runs.oracle else []
    if base:
        layers["trace.overhead_ratio"] = layers["trace.total_s"] / \
            best("total_s", (rep["total_s"] for rep in base))
    if "ft.none_run_s" in layers:
        layers["ft.overhead_ratio"] = run_s / layers["ft.none_run_s"]
    if on_mp:
        iterations = runs.e2e[0]["counts"]["iterations"]
        wall = run_s / iterations
        probes = sum(layers[k] for k in (
            "mp.protocol_compute_s", "mp.protocol_apply_sync_s",
            "mp.protocol_commit_s", "mp.codec_encode_s",
            "mp.codec_decode_s", "mp.transport_s"))
        layers["mp.superstep_wall_s"] = wall
        # The job is pinned to one CPU, so by construction probes +
        # residual = superstep wall: the residual is routing, context
        # switches and scheduling.
        layers["mp.coordinator_residual_s"] = wall - probes
        layers["mp.recovery_overhead_s"] = layers["mp.kill_run_s"] - run_s
        if runs.oracle:
            layers["mp.vs_sim_ratio"] = run_s / runs.oracle["run_s"]
    return layers


def host_facts() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "loadavg_1min": os.getloadavg()[0]}
