"""Backend conformance: the pipeline backend must be bit-identical.

The ``pipeline`` backend (:mod:`repro.core.p4pipe`) re-implements the
core agent as an explicit Tofino-like match-action pipeline — stages,
one register-ALU RMW per register per packet, a stage budget, the
Figure-22 layout stamped field-by-field.  It is only admissible as a
backend if it is *bit-identical* to the behavioral reference on
everything an experiment can observe: probe payloads, hop records,
figure rows, and trace streams — across schemes, seeds, fault
schedules, telemetry plans, and both probe-transit modes.

Payload comparison is exact ``==`` after stripping ``events_processed``
and ``_obs`` (the trace streams are compared separately, in full).
``Job.mode`` carries the selection: ``execute_job`` enters it around
the cell, exactly as the process pool's workers do.
"""

import dataclasses
import os

import pytest

from repro.faults.spec import parse_faults
from repro.runner.job import Job, execute_job
from repro.sim.mode import SimMode, current_mode

FIG11 = "repro.experiments.fig11_guarantee:cell"
RESIL = "repro.experiments.fig_resilience:cell"
TELEM = "repro.experiments.fig_telemetry:cell"

# Every injector mechanism at once: loss/delay windows, link flaps,
# frozen telemetry, and mid-run restarts/resets (the CoreReset path
# exercises PipelineCoreAgent.reset through the fault plane).
MIXED = ("probe_loss:0.02@1ms-4ms;probe_delay:20us+10us@2ms-6ms;"
         "link_flaps:mtbf=3ms,mttr=1ms/Agg;stale:1ms@3ms-5ms;"
         "core_reset:Core1@4ms;edge_restart:S1@5ms")

TELEM_PLANS = ("full", "sampled:k=4", "sampled:p=0.5,seed=11",
               "delta:rel=0.1", "sketch")


def _run(job, backend, transit="fast"):
    """Execute one cell in-process under (backend, transit mode)."""
    mode = SimMode(backend=backend, transit=transit)
    return execute_job(dataclasses.replace(job, mode=mode))


def _strip(payload):
    return {k: v for k, v in payload.items()
            if k not in ("events_processed", "_obs")}


ALT_BACKENDS = ("pipeline",)


def _assert_conformant(job, backend, transit="fast"):
    behavioral = _run(job, "behavioral", transit)
    candidate = _run(job, backend, transit)
    assert _strip(behavioral) == _strip(candidate)


# ----------------------------------------------------------------------
# Figure cells under every backend
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("transit", ("fast", "slow"))
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_fig11_rows_identical_across_backends(seed, transit, backend):
    _assert_conformant(Job(
        "fig11", FIG11, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "duration": 0.006, "seed": seed}),
        backend, transit)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("transit", ("fast", "slow"))
@pytest.mark.parametrize("seed", (1, 2))
def test_faulted_resilience_identical_across_backends(seed, transit, backend):
    dur = 0.008
    faults = parse_faults(MIXED, horizon=dur, seed=seed).to_config()
    _assert_conformant(Job(
        "fig_resilience", RESIL, scheme="ufab", seed=seed,
        params={"scheme": "ufab", "axis": "mixed", "level": 1.0,
                "duration": dur, "seed": seed},
        faults=faults), backend, transit)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
@pytest.mark.parametrize("plan", TELEM_PLANS)
def test_telemetry_plans_identical_across_backends(plan, backend):
    _assert_conformant(Job(
        "fig_telemetry", TELEM, scheme="ufab", seed=3,
        params={"plan": plan, "duration": 0.006,
                "join_interval": 0.0004, "seed": 3}), backend)


@pytest.mark.parametrize("backend", ALT_BACKENDS)
def test_trace_streams_identical_across_backends(backend):
    # Not just the figure rows: the full observability trace — every
    # register event, series sample, and gauge — must match record for
    # record (all backends emit through the same OBS metric objects).
    job = Job("fig11", FIG11, scheme="ufab", seed=3,
              params={"scheme": "ufab", "duration": 0.004, "seed": 3},
              obs={"trace": True, "trace_capacity": 200_000})
    behavioral = _run(job, "behavioral")
    candidate = _run(job, backend)
    assert _strip(behavioral) == _strip(candidate)
    assert behavioral["_obs"]["trace"] == candidate["_obs"]["trace"]


# ----------------------------------------------------------------------
# Cache-key and selection plumbing
# ----------------------------------------------------------------------

def test_backend_is_part_of_the_cache_key(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
    base = Job("fig11", FIG11, scheme="ufab", seed=1,
               params={"scheme": "ufab", "duration": 0.004, "seed": 1})
    pipe = dataclasses.replace(base, mode=SimMode(backend="pipeline"))
    explicit = dataclasses.replace(base, mode=SimMode(backend="behavioral"))
    slow = dataclasses.replace(base, mode=SimMode(transit="slow"))
    # Mode fields fold in only when they differ from the default, so
    # default-mode and pipeline keys are the ones the cache has always
    # used; the transit mode is a key of its own.
    assert base.config_hash() == "cbc1770174b4c01027fcf54e"
    assert pipe.config_hash() == "3f37ecd8948e0a75d7e4bced"
    assert explicit.config_hash() == base.config_hash()
    assert len({base.config_hash(), pipe.config_hash(),
                slow.config_hash()}) == 3


def test_unknown_backend_fails_eagerly():
    with pytest.raises(ValueError, match="behavioral"):
        SimMode(backend="no-such-backend")
    with pytest.raises(ValueError, match="fast, slow"):
        SimMode(transit="no-such-transit")


def test_unknown_backend_error_lists_every_registered_name():
    # The eager-validation message must enumerate the registry so a typo
    # in a sweep config is self-diagnosing (default listed first).
    from repro.core.controller import backend_names, resolve_backend
    names = backend_names()
    assert names == ("behavioral", "pipeline")
    for unknown in ("no-such-backend", "vector"):
        with pytest.raises(ValueError) as err:
            resolve_backend(unknown)
        for name in names:
            assert name in str(err.value)


def test_unknown_solver_mode_error_lists_valid_modes():
    # Same contract for the fluid solver's kernel modes.
    from repro.sim.fluid import FluidSolver
    with pytest.raises(ValueError) as err:
        FluidSolver(mode="no-such-mode")
    for mode in ("auto", "scalar", "vector"):
        assert mode in str(err.value)


def test_execute_job_restores_environment():
    # The job's mode is scoped to the cell: neither the process
    # environment nor the ambient mode changes.
    job = Job("fig11", FIG11, scheme="ufab", seed=1,
              params={"scheme": "ufab", "duration": 0.003, "seed": 1},
              mode=SimMode(backend="pipeline", transit="slow"))
    environ = dict(os.environ)
    execute_job(job)
    assert dict(os.environ) == environ
    assert current_mode() == SimMode()
