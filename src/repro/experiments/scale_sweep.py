"""Cluster-scale sweep: fat-tree fabrics under tenant churn.

The paper's predictability story is a *scale* story — guarantees must
hold while thousands of VM-pairs join and leave.  This sweep drives a
k-ary fat-tree (k=16 is 1024 hosts, the ROADMAP's order-of-magnitude
target over the 512-host static workload) with a seed-reproducible
:class:`~repro.workloads.tenants.TenantSchedule` of VF churn, and
measures the simulator's throughput (events/sec), the churn plane's
footprint (flow groups vs raw pairs), and the solver's vectorization
coverage.

Tractability comes from two levers built for this sweep:

* the :mod:`repro.sim.fluid` numpy kernel — large components run the
  fixed point as array ops (the solver picks it per component by size;
  cells report ``vector_solves`` so coverage is auditable);
* flow-group aggregation — same-endpoint same-class pairs share one
  fabric pair, so controller/probe/solver state scales with distinct
  (endpoints, class) combinations, not the raw pair population.

``repro bench --scale`` wraps :func:`grid` into ``BENCH_scale.json``
(events/sec + peak-RSS per cell); ``repro scale`` runs the sweep
standalone and can A/B the vectorized solver against scalar
(``--verify-solver``), which is what the CI scale job asserts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.params import UFabParams
from repro.experiments.common import build_scheme
from repro.sim.fluid import FluidSolver
from repro.sim.network import Network
from repro.sim.topology import fat_tree
from repro.workloads.tenants import (
    TenantChurnConfig,
    generate_churn,
    install_churn,
)

SCHEMES = ("ufab", "pwc")
DEFAULT_KS = (8, 16)
DEFAULT_CHURN = ("low", "high")
DEFAULT_DURATION = 0.02
DEFAULT_SEED = 7

# Churn intensity axis: arrivals/lifetimes tuned so a DEFAULT_DURATION
# cell sees tens ("low") to hundreds ("high") of arrivals, with the
# diurnal swing compressed into the horizon.
CHURN_LEVELS: Dict[str, TenantChurnConfig] = {
    "low": TenantChurnConfig(
        n_seed_tenants=8, arrival_rate_hz=800.0, mean_lifetime_s=0.02,
        diurnal_period_s=0.02, diurnal_depth=0.5, max_vms=8),
    "mid": TenantChurnConfig(
        n_seed_tenants=16, arrival_rate_hz=2000.0, mean_lifetime_s=0.015,
        diurnal_period_s=0.02, diurnal_depth=0.5, max_vms=12),
    "high": TenantChurnConfig(
        n_seed_tenants=24, arrival_rate_hz=4000.0, mean_lifetime_s=0.01,
        diurnal_period_s=0.02, diurnal_depth=0.5, max_vms=16),
}


def scale_network(k: int, link_capacity: float = 10e9,
                  resolve_interval: float = 50e-6) -> Network:
    """A fresh k-ary fat-tree network tuned for population scale.

    ``resolve_interval`` batches solver work: churn arrivals land
    between resolve ticks instead of each forcing a synchronous fixed
    point, which is what makes 1024-host cells tractable.
    """
    net = Network(fat_tree(k=k, capacity=link_capacity))
    net.resolve_interval = resolve_interval
    return net


def weighted_allocation_error(net: Network,
                              params: UFabParams) -> Optional[float]:
    """Söze-style fairness axis: phi-weighted mean relative deviation of
    delivered rates from the ideal weighted water-filling entitlement.

    Each active pair's entitlement is its weighted share of the tightest
    link on its path — ``min_l (phi_i / Phi_l) * eta * C_l`` with
    ``Phi_l`` the total tokens crossing link ``l`` — capped at the
    pair's demand.  Söze reports exactly this deviation for its in-band
    weighted max-min allocator; computing it here puts the churn sweep
    on the same axis, so telemetry-plan and scheme ablations can show
    what allocation fidelity an overhead reduction costs.  ``None`` when
    no pair carries tokens (e.g. the fabric drained at the horizon).
    """
    phi_load: Dict[str, float] = {}
    for pair_id, path in net.pair_paths.items():
        phi = net.pairs[pair_id].phi
        for link in path:
            phi_load[link.name] = phi_load.get(link.name, 0.0) + phi
    weighted_err = total_phi = 0.0
    for pair_id, path in net.pair_paths.items():
        pair = net.pairs[pair_id]
        if pair.phi <= 0.0 or not path:
            continue
        share = min(pair.phi / phi_load[link.name]
                    * params.target_capacity(link.capacity) for link in path)
        share = min(share, pair.demand_bps)
        if share <= 0.0:
            continue
        err = abs(net.delivered_rate(pair_id) - share) / share
        weighted_err += pair.phi * err
        total_phi += pair.phi
    return weighted_err / total_phi if total_phi else None


def run_one(
    scheme: str,
    k: int = 16,
    churn: str = "high",
    duration: float = DEFAULT_DURATION,
    seed: int = DEFAULT_SEED,
    aggregate: bool = True,
    solver: Optional[str] = None,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, Any]:
    """One (scheme, k, churn) cell; returns a JSON-ready row.

    ``faults`` is a fault-schedule config (see
    :meth:`repro.faults.FaultSchedule.to_config`) composed *with* the
    churn plane: the injector drives link flaps / probe loss / restarts
    against the same fabric the churn injector is adding and removing
    pairs on, which is the adversarial combination the resilience grid
    alone cannot produce.

    ``solver`` pins this cell's fluid-solver kernel (``scalar`` /
    ``vector``; ``None`` = ``auto``, the production choice by component
    size).  The kernel changes *how* the fixed point is computed, never
    what it computes — the two are bit-identical, which
    ``repro scale --verify-solver`` (and the CI scale job) asserts by
    diffing this row across kernels.
    """
    if churn not in CHURN_LEVELS:
        raise ValueError(
            f"unknown churn level {churn!r}; choose from {sorted(CHURN_LEVELS)}")
    net = scale_network(k)
    if solver is not None:
        # Swapped in before any flow exists, so nothing carries over.
        net.solver = FluidSolver(mode=solver)
    params = UFabParams(n_candidate_paths=4)
    fabric = build_scheme(scheme, net, params=params, seed=seed)
    config = CHURN_LEVELS[churn]
    schedule = generate_churn(
        net.topology.hosts(), horizon_s=duration, seed=seed, config=config)
    injector = install_churn(
        net, fabric, schedule,
        unit_bandwidth=params.unit_bandwidth, aggregate=aggregate)
    fault_injector = None
    if faults:
        from repro.faults import install_faults

        fault_injector = install_faults(net, fabric, faults,
                                        horizon=duration)
    net.run(duration)

    solver_stats = net.solver.stats.as_dict()
    delivered = [e.delivered_rate for e in net.solver.flows.values()]
    alloc_error = weighted_allocation_error(net, params)
    row: Dict[str, Any] = {
        "scheme": scheme,
        "k": k,
        "hosts": len(net.topology.hosts()),
        "churn": churn,
        "duration": duration,
        "seed": seed,
        "aggregate": aggregate,
        "solver_mode": net.solver.mode,
        "events_processed": net.sim.events_processed,
        "schedule_events": len(schedule),
        "active_pairs": len(net.pairs),
        "delivered_total_bps": round(sum(delivered), 3),
        "weighted_alloc_error": (
            round(alloc_error, 6) if alloc_error is not None else None),
        "churn_report": injector.report(),
        "solver_stats": solver_stats,
    }
    if fault_injector is not None:
        row["fault_report"] = fault_injector.report()
    return row


def cell(
    scheme: str,
    k: int = 16,
    churn: str = "high",
    duration: float = DEFAULT_DURATION,
    seed: int = DEFAULT_SEED,
    aggregate: bool = True,
    faults: Optional[Dict[str, object]] = None,
) -> Dict[str, Any]:
    """Runner grid cell; ``faults`` compose with the churn schedule."""
    return run_one(scheme, k=k, churn=churn, duration=duration, seed=seed,
                   aggregate=aggregate, faults=faults)


def grid(
    schemes: Sequence[str] = SCHEMES,
    ks: Sequence[int] = DEFAULT_KS,
    churn_levels: Sequence[str] = DEFAULT_CHURN,
    duration: float = DEFAULT_DURATION,
    seeds: Sequence[int] = (DEFAULT_SEED,),
) -> List["Job"]:
    """The scale sweep: scheme x k x churn intensity x seed."""
    from repro.runner import Job

    jobs: List[Job] = []
    for scheme in schemes:
        for k in ks:
            for churn in churn_levels:
                for seed in seeds:
                    jobs.append(Job(
                        experiment="scale",
                        entry="repro.experiments.scale_sweep:cell",
                        scheme=scheme,
                        seed=seed,
                        params={"scheme": scheme, "k": k, "churn": churn,
                                "duration": duration, "seed": seed},
                    ))
    return jobs


def run_grid(
    schemes: Sequence[str] = SCHEMES,
    ks: Sequence[int] = DEFAULT_KS,
    churn_levels: Sequence[str] = DEFAULT_CHURN,
    duration: float = DEFAULT_DURATION,
    seeds: Sequence[int] = (DEFAULT_SEED,),
    **runner: Any,
) -> List[Dict[str, object]]:
    """The scale sweep through the parallel runner (rows of dicts)."""
    from repro.experiments.common import run_grid as submit

    grid_jobs = grid(schemes, ks, churn_levels, duration, seeds)
    return submit(grid_jobs, **runner)


def verify_solver_equivalence(
    scheme: str = "ufab",
    k: int = 8,
    churn: str = "low",
    duration: float = 0.005,
    seed: int = DEFAULT_SEED,
) -> Dict[str, Any]:
    """Run one cell under the scalar and the vector solver and diff.

    Returns both rows plus a ``matches`` verdict.  The rows are compared
    after stripping fields the mode legitimately changes (the mode label
    and the solver's own dispatch counters) — everything observable
    about the *simulation* must be identical.
    """
    def strip(row: Dict[str, Any]) -> Dict[str, Any]:
        out = dict(row)
        out.pop("solver_mode", None)
        stats = dict(out.pop("solver_stats", {}))
        stats.pop("vector_solves", None)
        out["solver_stats"] = stats
        return out

    scalar = run_one(scheme, k=k, churn=churn, duration=duration,
                     seed=seed, solver="scalar")
    vector = run_one(scheme, k=k, churn=churn, duration=duration,
                     seed=seed, solver="vector")
    return {
        "matches": strip(scalar) == strip(vector),
        "vector_solves": vector["solver_stats"]["vector_solves"],
        "scalar": scalar,
        "vector": vector,
    }
