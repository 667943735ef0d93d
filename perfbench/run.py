#!/usr/bin/env python3
"""The μFAB benchmark: one workload, one process, checked outputs.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload testbed_steady --seed 1 --seconds 20 --trace 0

A run simulates a fixed number ``K`` of cells per workload: cell ``i``
plays scenario ``i`` with seed ``seed * K + i`` (``workloads.py`` says
what each drives).  It keeps cycling through them until ``--seconds``
have passed.  Every cell's outputs are checked.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed``
cells, and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (host time and simulated outcomes); with ``--trace 1``
each cell runs once untraced and once under the layer tracer, and
the metrics are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

# Cells per run, fixed per workload so that the simulated outcomes of a
# run never depend on how fast the program is.
CELLS = {"testbed_steady": 3, "testbed_faults": 7, "fattree_churn": 6}

SIMULATED = ("dissatisfaction", "rtt_p99_us", "alloc_error")
UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "dissatisfaction": "ratio",
    "rtt_p99_us": "us_sim",
    "alloc_error": "ratio",
}
# Solver feasibility slack: delivered load may exceed capacity by this
# relative amount (the fixed point converges to a 1e-6 tolerance).
CAPACITY_SLACK = 1e-6

OBS_COUNTERS = {
    "sim.engine.heap_compactions": "engine.heap_compactions",
    "core.corenode.bloom_false_positives": "core.bloom_false_positives",
    "core.edge.probes_sent": "edge.probes_sent",
    "core.edge.rate_updates": "edge.rate_updates",
    "core.edge.probe_losses": "edge.probe_losses",
    "core.pathsel.migrations": "edge.migrations",
}
# Counters from the churn and fault injectors' report(): (Cell attribute, key).
REPORT_COUNTERS = {
    "workloads.tenants.arrivals": ("churn", "arrivals"),
    "workloads.tenants.flow_groups": ("churn", "flow_groups"),
    "faults.injector.link_failures": ("faults", "link_failures"),
    "faults.injector.probe_drops": ("faults", "probe_drops"),
}


Key = Tuple[int, int]  # (scenario, seed)


def cell_keys(workload: str, seed: int) -> List[Key]:
    k = CELLS[workload]
    return [(i, seed * k + i) for i in range(k)]


def key_str(key: Key) -> str:
    return f"{key[0]}:{key[1]}"


def provenance(cell) -> Dict[str, Any]:
    """How the numbers were produced: code, program modes and host."""
    import numpy

    from repro.core.controller import resolve_backend
    from repro.runner.job import code_version

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "code_version": code_version(),
        "backend": resolve_backend(),
        "transit": "fast" if cell.net._transit_fast else "slow",
        "solver": cell.net.solver.mode,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------
class CellResult:
    def __init__(self, cell, setup_s: float, run_s: float) -> None:
        self.cell = cell
        self.setup_s = setup_s
        self.run_s = run_s
        self.outcomes = cell.outcomes()
        self.events = cell.net.sim.events_processed

    def signature(self) -> Dict[str, float]:
        return dict(self.outcomes, events=self.events)


def run_cell(build, key: Key, tracer=None) -> CellResult:
    # The previous cell's garbage is collected here, not at a random
    # point inside this cell's timing.
    gc.collect()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_setup()
    try:
        cell = build(key[1], key[0])
        t1 = time.perf_counter()
        cell.run()
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.end_cell()
    return CellResult(cell, t1 - t0, t2 - t1)


def check_cell(result: CellResult, reference: Optional[Dict[str, float]]) -> List[str]:
    """Invariants every cell must meet; an empty list means correct."""
    problems = []
    cell = result.cell
    if cell.net.sim.now < cell.horizon:
        problems.append(f"stopped at t={cell.net.sim.now} before the horizon")
    for name, value in result.outcomes.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite: {value}")
    if not 0.0 <= result.outcomes["dissatisfaction"] <= 1.0:
        problems.append(f"dissatisfaction outside [0, 1]: "
                        f"{result.outcomes['dissatisfaction']}")
    load: Dict[Any, float] = {}
    for entry in cell.net.solver.flows.values():
        for link in entry.path:
            load[link] = load.get(link, 0.0) + entry.delivered_rate
    for link, total in load.items():
        if total > link.capacity * (1.0 + CAPACITY_SLACK):
            problems.append(f"link {link.name} delivers {total} bit/s over "
                            f"its capacity {link.capacity}")
    if reference is not None and reference != result.signature():
        problems.append(f"differs from the recorded reference: "
                        f"{result.signature()} != {reference}")
    return problems


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------
class Run:
    """Cells attempted in one run, with their checks."""

    def __init__(self, workload: str, seed: int) -> None:
        from perfbench.workloads import WORKLOADS

        self.workload = workload
        self.build = WORKLOADS[workload]
        self.keys = cell_keys(workload, seed)
        self.references = self._load_references()
        # An operation is one cell: replaying it for timing, or tracing
        # it, repeats the same operation, so the counts are of distinct
        # cells and do not depend on how many passes fit in the run.
        self.tried: set = set()
        self.failures: set = set()
        self.correct = True
        self.crashed: set = set()
        # Each cell's signature from its first clean run.  Only
        # signatures are kept: a finished cell's network is garbage.
        self.first: Dict[Key, Dict[str, float]] = {}
        self.run_samples: Dict[Key, List[float]] = {k: [] for k in self.keys}
        self.provenance: Optional[Dict[str, Any]] = None

    def _load_references(self) -> Dict[str, Dict[str, float]]:
        with open(REFERENCES) as fh:
            return json.load(fh).get(self.workload, {})

    def attempt(self, key: Key, tracer=None) -> Optional[CellResult]:
        """Run and check one cell; None when it failed."""
        self.tried.add(key)
        try:
            result = run_cell(self.build, key, tracer)
        except Exception:  # the program raised: a failed operation
            self.failures.add(key)
            self.crashed.add(key)
            print(f"FAILED {self.workload} cell {key_str(key)}: the "
                  f"simulation raised\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        problems = check_cell(result, self.references.get(key_str(key)))
        signature = result.signature()
        first = self.first.get(key)
        if first is not None and first != signature:
            problems.append(f"differs from its first run: {signature} != {first}")
        if problems:
            self.failures.add(key)
            self.correct = False
            for problem in problems:
                print(f"INCORRECT {self.workload} cell {key_str(key)}: {problem}",
                      file=sys.stderr)
            return None
        self.first.setdefault(key, signature)
        if self.provenance is None:
            self.provenance = provenance(result.cell)
        return result

    def simulated(self) -> Dict[str, float]:
        """Simulated outcomes: the median over the cells that completed.

        The median, because a few cells' tails (a migration storm, a
        burst of flaps) swing a cell's outcome far more than run-to-run.
        """
        done = [self.first[k] for k in self.keys if k in self.first]
        return {name: statistics.median(sig[name] for sig in done)
                for name in SIMULATED}

    def report(self, metrics: Dict[str, Tuple[float, str]]) -> Dict[str, Any]:
        return {
            "correct": self.correct and bool(self.first),
            "attempted": len(self.tried),
            "failed": len(self.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(run: Run, seconds: float) -> Dict[str, Tuple[float, str]]:
    """End-to-end metrics: cycle through the cells for ``seconds``."""
    run_samples = run.run_samples
    setups: List[float] = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    i = 0
    while i < len(run.keys) or time.perf_counter() - start < seconds:
        if i == len(run.keys):
            # Peak RSS of the first pass: the same work in every run.
            peak_rss_mb = _peak_rss_mb()
        key = run.keys[i % len(run.keys)]
        i += 1
        if key in run.crashed:
            if len(run.crashed) == len(run.keys):
                break
            continue
        result = run.attempt(key)
        if result is not None:
            run_samples[key].append(result.run_s)
            setups.append(result.setup_s)
            result = None  # free the network before the next cell
    if not setups:
        return {}
    per_cell = [statistics.median(v) for v in run_samples.values() if v]
    metrics = {
        "run_s": statistics.fmean(per_cell),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb or _peak_rss_mb(),
    }
    metrics.update(run.simulated())
    return {name: (value, UNITS[name]) for name, value in metrics.items()}


def measure_layers(run: Run) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics: each cell untraced, then traced.

    Times and counts are means per traced cell.  The traced cell must
    reproduce the untraced cell's simulated outcomes and event count.
    """
    from repro.obs import OBS
    from perfbench.tracer import LAYERS, LayerTracer

    tracer = LayerTracer()
    untraced_s = 0.0
    setup_s = 0.0
    sums: Dict[str, float] = collections.Counter()
    traced = 0
    for key in run.keys:
        plain = run.attempt(key)
        if plain is None:
            continue
        plain_run_s = plain.run_s
        plain = None  # free the network before the traced cell
        tracer.install()
        try:
            with OBS.capture({"metrics": True}) as cap:
                result = run.attempt(key, tracer)
        finally:
            tracer.uninstall()
        for owner, name, original in tracer.restored():
            if vars(owner).get(name) is not original:
                run.correct = False
                print(f"INCORRECT tracer left {owner.__name__}.{name} patched",
                      file=sys.stderr)
        if result is None:
            continue
        traced += 1
        untraced_s += plain_run_s
        setup_s += result.setup_s
        dump = cap.export()["metrics"]
        for name, source in OBS_COUNTERS.items():
            sums[name] += dump[source]["value"]
        cell = result.cell
        for name, (attr, field) in REPORT_COUNTERS.items():
            source = getattr(cell, attr)
            if source is not None:
                sums[name] += source.report()[field]
        stats = cell.net.solver.stats
        sums["sim.engine.events"] += result.events
        sums["sim.fluid.full_solves"] += stats.full_solves
        sums["sim.fluid.incremental_solves"] += stats.incremental_solves
        sums["component_flows"] += stats.component_flows
        sums["vector_solves"] += stats.vector_solves
        sums["fast_legs"] += cell.net.fastpath_legs
    if not traced:
        return {}
    layer = tracer.layer_metrics(int(setup_s * 1e9))
    run_s = tracer.run_ns / 1e9
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (layer[f"{name}.calls"] / traced, "count")
        metrics[f"{name}.self_s"] = (layer[f"{name}.self_s"] / traced, "s")
        metrics[f"{name}.setup_s"] = (layer[f"{name}.setup_s"] / traced, "s")
    for name in (*OBS_COUNTERS, *REPORT_COUNTERS, "sim.engine.events",
                 "sim.fluid.full_solves", "sim.fluid.incremental_solves"):
        metrics[name] = (sums[name] / traced, "count")
    solves = sums["sim.fluid.full_solves"] + sums["sim.fluid.incremental_solves"]
    metrics.update({
        "sim.fluid.mean_component_flows": (
            sums["component_flows"] / max(sums["sim.fluid.incremental_solves"], 1),
            "count"),
        "sim.network.flat_share": (
            sums["fast_legs"] / max(tracer.send_probe_calls, 1), "ratio"),
        "sim.fluid.vector_share": (sums["vector_solves"] / max(solves, 1), "ratio"),
        "sim.topology.tor_reuse": (
            tracer.tor_pairs_reused / max(tracer.shortest_paths_calls, 1), "ratio"),
        "trace.run_s": (run_s / traced, "s"),
        "trace.overhead": (run_s / untraced_s, "ratio"),
        "trace.coverage": (
            1.0 - layer["sim.engine.self_s"] / run_s if run_s else 0.0, "ratio"),
    })
    return metrics


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CELLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="store this run's per-cell simulated outcomes "
                             "in perfbench/references.json")
    return parser.parse_args(argv)


def record_references(run: Run) -> None:
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    mine = refs.setdefault(run.workload, {})
    for key, signature in run.first.items():
        mine[key_str(key)] = signature
    refs[run.workload] = dict(sorted(mine.items()))
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    toggles = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if toggles:
        print(f"error: REPRO_* toggles are set ({', '.join(toggles)}); the "
              f"benchmark measures the default program only", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    src = os.path.join(ROOT, "src", "")
    try:
        import repro
    except ImportError as exc:
        print(f"error: the program is not importable from {src}: {exc}",
              file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(src):
        print(f"error: imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    if args.trace:
        metrics = measure_layers(run)
    else:
        metrics = measure(run, args.seconds)
    if run.provenance is not None:
        print(json.dumps({
            "provenance": run.provenance,
            "workload": args.workload,
            "seed": args.seed,
            "cells": {key_str(k): sig for k, sig in run.first.items()},
            "crashed": [key_str(k) for k in sorted(run.crashed)],
            "run_s_samples": {key_str(k): v for k, v in run.run_samples.items()},
        }))
    if args.record_references and run.correct:
        record_references(run)
    print(json.dumps(run.report(metrics)))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
