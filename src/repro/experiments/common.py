"""Shared experiment scaffolding.

Besides the testbed/scheme helpers, this module is the experiments'
doorway into :mod:`repro.runner`: figure modules express their
(scheme x parameter x seed) sweeps as lists of :class:`Job` cells and
submit them through :func:`run_grid`, which fans out over processes
when ``jobs > 1`` and otherwise runs in-process (debugger- and
coverage-friendly), with results served from the on-disk cache when
the configuration and code are unchanged.  Each figure module's
``run_grid(..., **runner)`` forwards the runner options (``jobs``,
``use_cache``, ``cache_dir``, ``obs``, ``faults``, ``mode``) to
:func:`run_grid` here.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.baselines.fabrics import make_fabric
from repro.runner import Job, ParallelRunner, ResultCache
from repro.sim.mode import SimMode
from repro.sim.network import Network
from repro.sim.topology import three_tier_testbed

SCHEMES = ("pwc", "es+clove", "ufab")
SCHEMES_WITH_PRIME = ("pwc", "es+clove", "ufab-prime", "ufab")

SCHEME_LABELS = {
    "pwc": "PicNIC'+WCC+Clove",
    "es+clove": "ES+Clove",
    "ufab": "uFAB",
    "ufab-prime": "uFAB'",
    "ideal": "Ideal",
    "wcc+ecmp": "WCC+ECMP",
    "wcc+ecmp-polarized": "WCC+ECMP (polarized)",
    "soze": "Söze",
    "qshare": "QShare",
    "utas": "μTAS",
}


def testbed_network(
    link_capacity: float = 10e9,
    resolve_interval: float = 0.0,
) -> Network:
    """A fresh Figure-10 testbed network."""
    net = Network(three_tier_testbed(link_capacity=link_capacity))
    net.resolve_interval = resolve_interval
    return net


build_scheme = make_fabric


# ----------------------------------------------------------------------
# Grid submission through repro.runner
# ----------------------------------------------------------------------

class GridError(RuntimeError):
    """One or more grid cells failed; the message lists each failure."""


def run_grid(
    grid_jobs: Sequence[Job],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    obs: Optional[Mapping[str, Any]] = None,
    faults: Optional[Mapping[str, Any]] = None,
    mode: Optional[SimMode] = None,
) -> List[Dict[str, Any]]:
    """Submit a grid, return ordered payload rows; raise on failures.

    ``jobs=1`` executes in-process through the same code path, so a
    serial run and an N-way run of the same grid return byte-identical
    rows.  Failed cells are collected (siblings still complete) and
    surfaced together in a :class:`GridError` whose message attributes
    each failure to its exact cell ``(experiment, scheme, seed,
    params)``.

    ``obs`` (an observability config mapping, see :mod:`repro.obs`)
    applies to every cell: each runs inside a capture and returns its
    trace/metrics under the payload key ``"_obs"``.  ``faults`` (a
    fault-schedule config, see :meth:`repro.faults.FaultSchedule.
    to_config`) likewise applies to every cell that does not already
    carry its own schedule.  ``mode`` (a :class:`~repro.sim.mode.SimMode`)
    applies to every cell.  All three are part of each job's cache key,
    so traced/faulted/pipeline-backed results never alias clean ones.
    """
    submitted = list(grid_jobs)
    if obs:
        submitted = [dataclasses.replace(job, obs=dict(obs)) for job in submitted]
    if faults:
        submitted = [
            job if job.faults else dataclasses.replace(job, faults=dict(faults))
            for job in submitted
        ]
    if mode is not None:
        submitted = [dataclasses.replace(job, mode=mode) for job in submitted]
    runner = ParallelRunner(
        jobs=jobs,
        timeout_s=timeout_s,
        cache=ResultCache(cache_dir) if use_cache else None,
    )
    results = runner.run(submitted)
    failed = [r for r in results if not r.ok]
    if failed:
        lines = []
        for r in failed:
            job = r.job
            cell = (
                f"experiment={job.experiment!r} scheme={job.scheme!r} "
                f"seed={job.seed} params={dict(job.params)!r}"
            )
            if job.faults:
                cell += f" faults={dict(job.faults)!r}"
            reason = (r.error or "unknown error").strip().splitlines()[-1]
            lines.append(f"{job.describe()} ({cell}): {reason}")
        raise GridError(
            f"{len(failed)}/{len(results)} grid jobs failed:\n  " + "\n  ".join(lines)
        )
    return [r.payload for r in results if r.payload is not None]
