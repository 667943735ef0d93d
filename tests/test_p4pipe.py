"""Unit tests for the pipeline model itself (repro.core.p4pipe): the
hardware-constraint checks, the resource accounting, and the backend
registry.  Bit-identity with the behavioral backend is covered by
``tests/test_backend_conformance.py``."""

import pytest

from repro.core.controller import (
    backend_class,
    backend_names,
    register_backend,
    resolve_backend,
)
from repro.core.p4pipe import (
    MAX_RECORD_SLOTS,
    PHV_BITS_TOTAL,
    SALUS_PER_STAGE,
    TOFINO_STAGES,
    VLIW_SLOTS_PER_STAGE,
    MatchActionTable,
    P4Pipeline,
    PhvCapacityError,
    PipelineError,
    Register,
    RegisterAccessError,
    SaluBudgetError,
    StageBudgetError,
    build_ufab_pipeline,
)


# ----------------------------------------------------------------------
# Build-time budgets
# ----------------------------------------------------------------------

def test_stage_budget_enforced_at_build():
    pipe = P4Pipeline("tiny", n_stages=2)
    pipe.stage("a")
    pipe.stage("b")
    with pytest.raises(StageBudgetError, match="stage 'c' would be stage 2"):
        pipe.stage("c")


def test_salu_capacity_per_stage():
    st = P4Pipeline("x").stage("s0")
    for i in range(SALUS_PER_STAGE):
        st.register(Register(f"r{i}"))
    with pytest.raises(SaluBudgetError, match="SALU slot"):
        st.register(Register("one-too-many"))


def test_wide_register_consumes_paired_salus():
    st = P4Pipeline("x").stage("s0")
    st.register(Register("wide0", salu_slots=2))
    st.register(Register("wide1", salu_slots=2))
    with pytest.raises(SaluBudgetError):
        st.register(Register("r", salu_slots=1))


def test_vliw_capacity_per_stage():
    st = P4Pipeline("x").stage("s0")
    st.action("big", VLIW_SLOTS_PER_STAGE)
    with pytest.raises(SaluBudgetError, match="VLIW"):
        st.action("overflow", 1)


def test_phv_capacity():
    pipe = P4Pipeline("x")
    pipe.phv("bulk", PHV_BITS_TOTAL)
    with pytest.raises(PhvCapacityError):
        pipe.phv("one-more-bit", 1)


def test_record_slots_bounded_by_nhop_field():
    with pytest.raises(PhvCapacityError, match="4-bit"):
        build_ufab_pipeline("full", record_slots=MAX_RECORD_SLOTS + 1)


def test_all_pipeline_errors_share_a_base():
    for exc in (StageBudgetError, RegisterAccessError, SaluBudgetError,
                PhvCapacityError):
        assert issubclass(exc, PipelineError)


# ----------------------------------------------------------------------
# Per-packet access rules
# ----------------------------------------------------------------------

def test_one_rmw_per_register_per_packet():
    prog = build_ufab_pipeline("full")
    with prog.pipe.packet() as ctx:
        prog.r_phi.rmw(ctx, lambda v: (v or 0.0) + 1.0)
        with pytest.raises(RegisterAccessError, match="accessed twice"):
            prog.r_phi.rmw(ctx, lambda v: v + 1.0)


def test_accesses_must_follow_stage_order():
    prog = build_ufab_pipeline("full")
    with prog.pipe.packet() as ctx:
        prog.r_queue.latch(ctx, 0.0)  # late stage first...
        with pytest.raises(RegisterAccessError, match="flow forward"):
            prog.r_phi.read(ctx)  # ...then an earlier stage


def test_unplaced_register_rejected():
    with P4Pipeline("x").packet() as ctx:
        with pytest.raises(RegisterAccessError, match="not placed"):
            Register("floating").read(ctx)


def test_one_table_apply_per_packet():
    prog = build_ufab_pipeline("full")
    with prog.pipe.packet() as ctx:
        prog.t_kind.apply(ctx, 1)
        with pytest.raises(RegisterAccessError, match="applied twice"):
            prog.t_kind.apply(ctx, 1)


def test_control_plane_port_is_unconstrained():
    prog = build_ufab_pipeline("full")
    prog.r_phi.value = 0.0
    prog.r_phi.rmw(None, lambda v: v + 1.0)
    prog.r_phi.rmw(None, lambda v: v + 1.0)  # no ctx, no rules
    assert prog.r_phi.value == 2.0


def test_packet_contexts_are_independent():
    # A nested packet (a deferred fast-path probe fired mid-stamp) must
    # get a fresh access tracker, not the outer packet's cursor.
    prog = build_ufab_pipeline("full")
    with prog.pipe.packet() as outer:
        prog.r_queue.latch(outer, 0.0)
        with prog.pipe.packet() as inner:
            prog.r_phi.rmw(inner, lambda v: (v or 0.0))  # earlier stage: fine


# ----------------------------------------------------------------------
# The built uFAB-C program and its resource accounting
# ----------------------------------------------------------------------

def test_ufab_program_fits_the_device():
    for plan in ("full", "sampled:k=4", "delta:rel=0.1", "sketch"):
        usage = build_ufab_pipeline(plan).pipe.usage()
        assert usage["stages"] <= TOFINO_STAGES
        assert usage["phv_bits"] <= PHV_BITS_TOTAL


def test_modeled_only_table_has_no_footprint():
    small = build_ufab_pipeline("full", pair_entries=10)
    large = build_ufab_pipeline("full", pair_entries=1_000_000)
    assert small.pipe.usage() == large.pipe.usage()


def test_bloom_banks_partition_the_filter():
    # k banks of m/k counters: total Bloom SRAM is the m 4-bit counters
    # of the sized filter regardless of k.
    prog = build_ufab_pipeline("full", bloom_counters=8192, n_hashes=2)
    assert sum(r.entries for r in prog.r_blooms) == 8192
    assert all(r.width_bits == 4 for r in prog.r_blooms)


def test_delta_plan_costs_an_extra_stage_and_register():
    full = build_ufab_pipeline("full").pipe.usage()
    delta = build_ufab_pipeline("delta:rel=0.1").pipe.usage()
    assert delta["stages"] == full["stages"] + 1
    assert delta["salus"] == full["salus"] + 2  # paired-SALU last view


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------

def test_backend_names_default_first():
    names = backend_names()
    assert names[0] == "behavioral"
    assert "pipeline" in names


def test_resolve_backend_default():
    assert resolve_backend() == "behavioral"
    assert resolve_backend(None) == "behavioral"
    assert resolve_backend("pipeline") == "pipeline"


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="registered"):
        resolve_backend("bmv2")


def test_backend_class_roundtrip():
    from repro.core.corenode import CoreAgent
    from repro.core.p4pipe import PipelineCoreAgent

    assert backend_class("behavioral") is CoreAgent
    assert backend_class("pipeline") is PipelineCoreAgent


def test_register_backend_conflict_detected():
    register_backend("x-test", "repro.core.corenode", "CoreAgent")
    register_backend("x-test", "repro.core.corenode", "CoreAgent")  # idempotent
    try:
        with pytest.raises(ValueError, match="registered twice"):
            register_backend("x-test", "somewhere.else", "Other")
    finally:
        from repro.core import controller

        controller._BACKEND_CLASSES.pop("x-test", None)
