"""The benchmark's three workloads, built from the program's public API.

Each workload is a function ``build(seed, scenario) -> Cell``.  A run
plays the same scenarios every time (see ``run.py``) and varies ``seed``
from cell to cell and run to run.  In each workload the scenario fixes
the randomness that moves the simulated outcomes most between cells,
so that runs are comparable, and the seed varies the rest:

* ``testbed_steady``: the scenario seeds both the fabric's random
  choices and the pair join order, and the seed changes nothing.  Any
  change to either moves ``dissatisfaction`` and ``alloc_error``
  several-fold through migration episodes (measured: fabric seed alone
  up to x8, join order alone up to x6 on ``dissatisfaction``), far
  beyond what four cells of ~7 s can average out; this workload is
  there for host time, and its simulated outcomes are guarded exactly
  by the recorded references.
* ``testbed_faults``: the scenario seeds the fault schedule, the
  fabric and the pair registration order, and the seed changes nothing.
  With the fabric seed and order left to the seed, one cell's
  ``rtt_p99_us`` ranged 0.9-5.2 ms and the median over seven cells
  spread 0.17-0.26 of its median across ten seeds; about thirty
  cells per run would be needed to bring that under 0.08, which the
  run's time does not allow.  Like ``testbed_steady`` it plays the same
  cells whatever the seed, so its simulated outcomes are guarded
  exactly.
* ``fattree_churn``: the scenario seeds the churn schedule; the seed
  seeds the fabric.

Everything a cell does before :meth:`Cell.run` is set-up (topology
build, fabric and core agent install with Bloom allocation, pair
registration, churn and fault schedule compile); :meth:`Cell.run` is
exactly one ``Network.run`` from t=0 to the horizon.
:meth:`Cell.outcomes` reads the simulated results after the run.  The
program only ever sees the inputs generated here.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.metrics import GuaranteeAuditor, RttSampler, percentile
from repro.core.params import UFabParams
from repro.experiments.common import build_scheme, testbed_network
from repro.experiments.scale_sweep import (
    CHURN_LEVELS,
    scale_network,
    weighted_allocation_error,
)
from repro.faults import install_faults, parse_faults
from repro.workloads.synthetic import permutation_pairs
from repro.workloads.tenants import generate_churn, install_churn

UNIT_BANDWIDTH = 1e6
GUARANTEE_CLASSES_GBPS = (1.0, 2.0, 5.0)
SOURCES = ("S1", "S2", "S3", "S4")
DESTINATIONS = ("S5", "S6", "S7", "S8")

TESTBED_STEADY_HORIZON = 0.3
TESTBED_FAULTS_HORIZON = 0.15
FATTREE_HORIZON = 0.008
FAULT_SPEC = "link_flaps:mtbf=20ms,mttr=5ms/Agg;probe_loss:0.02"


class _LiveGuarantees:
    """Guarantee map over whatever pairs are registered right now.

    Under tenant churn the pair population is not known in advance, so
    the auditor reads each live pair's guarantee (its tokens times the
    unit bandwidth) at every tick instead of from a fixed dict.
    """

    def __init__(self, net, unit: float) -> None:
        self._net = net
        self._unit = unit

    def items(self) -> Iterator[Tuple[str, float]]:
        unit = self._unit
        return iter([(pid, pair.phi * unit)
                     for pid, pair in self._net.pairs.items()])


class _LivePairIds:
    """The ids of the pairs registered right now (for :class:`RttSampler`)."""

    def __init__(self, net) -> None:
        self._net = net

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._net.pairs))


class Cell:
    """One built workload instance, ready to run."""

    def __init__(self, net, fabric, params: UFabParams, horizon: float,
                 auditor: GuaranteeAuditor, sampler: RttSampler,
                 alloc_period: float, churn=None, faults=None) -> None:
        self.net = net
        self.fabric = fabric
        self.params = params
        self.horizon = horizon
        self.auditor = auditor
        self.sampler = sampler
        self.churn = churn
        self.faults = faults
        self.alloc_errors: List[float] = []
        self._sample_alloc(alloc_period, 1)

    def _sample_alloc(self, period: float, k: int) -> None:
        # Anchored grid (k * period) so the sample instants are exact.
        # A snapshot at the horizon alone is one instant of a churning
        # fabric; the mean over the run is what the metric reports.
        if k * period <= self.horizon:
            self.net.sim.at(k * period, self._alloc_tick, period, k)

    def _alloc_tick(self, period: float, k: int) -> None:
        err = weighted_allocation_error(self.net, self.params)
        if err is not None:
            self.alloc_errors.append(err)
        self._sample_alloc(period, k + 1)

    def run(self) -> None:
        self.net.run(self.horizon)

    def outcomes(self) -> Dict[str, float]:
        """The simulated end-to-end metrics (deterministic at a seed)."""
        errs = self.alloc_errors
        return {
            "dissatisfaction": self.auditor.dissatisfaction_ratio,
            "rtt_p99_us": percentile(self.sampler.rtts.samples, 99) * 1e6,
            "alloc_error": sum(errs) / len(errs) if errs else math.nan,
        }


def _testbed(fabric_seed: int, order_seed: int, horizon: float,
             join_interval: float, fault_spec: Optional[str],
             fault_seed: int, rtt_period: float) -> Cell:
    net = testbed_network()
    params = UFabParams(n_candidate_paths=8)
    fabric = build_scheme("ufab", net, params=params, seed=fabric_seed)
    tokens = [g * 1e9 / UNIT_BANDWIDTH for g in GUARANTEE_CLASSES_GBPS]
    pairs = permutation_pairs(SOURCES, DESTINATIONS, tokens)
    random.Random(order_seed).shuffle(pairs)
    for i, pair in enumerate(pairs):
        if join_interval > 0.0:
            net.sim.at(i * join_interval, fabric.add_pair, pair)
        else:
            fabric.add_pair(pair)
    injector = None
    if fault_spec:
        schedule = parse_faults(fault_spec, horizon=horizon, seed=fault_seed)
        injector = install_faults(net, fabric, schedule, horizon=horizon)
    auditor = GuaranteeAuditor(
        net, {p.pair_id: p.phi * UNIT_BANDWIDTH for p in pairs},
        period=0.5e-3)
    auditor.start(horizon)
    sampler = RttSampler(net, [p.pair_id for p in pairs], period=rtt_period)
    sampler.start(horizon)
    return Cell(net, fabric, params, horizon, auditor, sampler, 5e-3,
                faults=injector)


def testbed_steady(seed: int, scenario: int) -> Cell:
    """Fig-11 permutation: 12 pairs, three classes, one joins every 20 ms.

    ``seed`` is unused: see the module docstring.
    """
    return _testbed(scenario, scenario, TESTBED_STEADY_HORIZON, 0.02, None, 0,
                    100e-6)


def testbed_faults(seed: int, scenario: int) -> Cell:
    """The same pairs, all from t=0, under Agg-tier flaps and probe loss.

    ``seed`` is unused: see the module docstring.
    """
    return _testbed(scenario, scenario, TESTBED_FAULTS_HORIZON, 0.0, FAULT_SPEC,
                    scenario, 10e-6)


def fattree_churn(seed: int, scenario: int) -> Cell:
    """k=16 fat-tree (1024 hosts, 6144 links) under ``high`` tenant churn."""
    net = scale_network(16)
    params = UFabParams(n_candidate_paths=4)
    fabric = build_scheme("ufab", net, params=params, seed=seed)
    schedule = generate_churn(net.topology.hosts(), horizon_s=FATTREE_HORIZON,
                              seed=scenario, config=CHURN_LEVELS["high"])
    churn = install_churn(net, fabric, schedule,
                          unit_bandwidth=params.unit_bandwidth, aggregate=True)
    auditor = GuaranteeAuditor(net, {}, period=0.5e-3)
    auditor.guarantees = _LiveGuarantees(net, params.unit_bandwidth)
    auditor.start(FATTREE_HORIZON)
    sampler = RttSampler(net, [], period=100e-6)
    sampler.pair_ids = _LivePairIds(net)
    sampler.start(FATTREE_HORIZON)
    return Cell(net, fabric, params, FATTREE_HORIZON, auditor, sampler, 1e-3,
                churn=churn)


WORKLOADS: Dict[str, Callable[[int, int], Cell]] = {
    "testbed_steady": testbed_steady,
    "testbed_faults": testbed_faults,
    "fattree_churn": fattree_churn,
}
