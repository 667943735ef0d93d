"""The scheme registry: every fabric the grids can build, in one table.

A *scheme* is anything that exposes the fabric protocol (``add_pair`` /
``remove_pair`` / ``set_demand`` and the optional fault entry points,
see ``docs/SCHEMES.md``).  Each one registers here exactly once, as a
:class:`SchemeInfo`: a builder plus the capability flags the comparison
grids and the ``repro rivals`` figure key on (does it probe the fabric,
is it work-conserving, does it bound latency, what telemetry does it
consume).  ``--scheme`` plumbing everywhere resolves names through
:func:`build`, so adding a scheme is a one-file operation: write the
module, call :func:`register` at import, list the module in
:data:`_SCHEME_MODULES` — every figure, resilience, and scale grid
picks it up without per-figure edits.

Names are canonical-first; aliases (``"tqbind"`` for ``"qshare"``)
resolve through the same :func:`get`.  ``docs/SCHEMES.md`` documents
every canonical name and CI asserts the doc and this registry never
drift (``python -m repro.obs --check-schemes``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

__all__ = [
    "SchemeInfo",
    "register",
    "get",
    "build",
    "scheme_names",
    "scheme_infos",
]

# Modules that register schemes at import.  Kept here (not imported at
# module load) so registry.py has no import cycle with the scheme
# modules themselves.
_SCHEME_MODULES = (
    "repro.baselines.fabrics",
    "repro.baselines.soze",
    "repro.baselines.queuebind",
    "repro.baselines.utas",
)


@dataclasses.dataclass(frozen=True)
class SchemeInfo:
    """One registered scheme: builder + the flags the grids key on.

    ``builder(network, params, seed, flowlet_gap_s)`` returns a fabric
    exposing the protocol in ``docs/SCHEMES.md``.  ``guarantee_model``
    is a short label for the comparison tables (``"exact"``, ``"floor"``,
    ``"weighted"``, ``"edge-envelope"``, ``"gated"``); ``telemetry``
    names what the scheme's control loop consumes.
    ``probe_hop_bytes``/``probe_base_bytes`` size one probe for the
    overhead axis of ``repro rivals`` (zero for probe-free schemes).
    """

    name: str
    builder: Callable
    summary: str
    guarantee_model: str
    telemetry: str
    uses_probes: bool
    work_conserving: bool
    bounded_latency: bool
    probe_base_bytes: int = 0
    probe_hop_bytes: int = 0
    aliases: Tuple[str, ...] = ()


_REGISTRY: Dict[str, SchemeInfo] = {}
_ALIASES: Dict[str, str] = {}


def register(info: SchemeInfo) -> SchemeInfo:
    """Add a scheme (idempotent for identical re-registration)."""
    existing = _REGISTRY.get(info.name)
    if existing is not None and existing is not info:
        raise ValueError(f"scheme {info.name!r} registered twice")
    _REGISTRY[info.name] = info
    for alias in info.aliases:
        owner = _ALIASES.get(alias)
        if owner not in (None, info.name) or alias in _REGISTRY:
            raise ValueError(f"scheme alias {alias!r} already taken")
        _ALIASES[alias] = info.name
    return info


def _ensure_loaded() -> None:
    import importlib

    for module in _SCHEME_MODULES:
        importlib.import_module(module)


def get(name: str) -> SchemeInfo:
    """Resolve a canonical name or alias to its :class:`SchemeInfo`."""
    _ensure_loaded()
    canonical = _ALIASES.get(name, name)
    try:
        return _REGISTRY[canonical]
    except KeyError:
        known = ", ".join(scheme_names())
        raise ValueError(
            f"unknown scheme {name!r} (registered: {known})") from None


def build(
    name: str,
    network,
    params=None,
    seed: int = 1,
    flowlet_gap_s: float = 200e-6,
):
    """Build a fabric by scheme name; all expose add_pair/remove_pair.

    Schemes that attach core agents (the uFAB family) use the network's
    ``mode.backend``.
    """
    return get(name).builder(network, params, seed, flowlet_gap_s)


def _ordered() -> List[SchemeInfo]:
    # Canonical order is _SCHEME_MODULES order, not import order: a test
    # (or user) importing a scheme module directly registers its schemes
    # early, and raw dict order would then depend on who imported what
    # first.  Stable sort keeps within-module registration order.
    _ensure_loaded()
    rank = {module: i for i, module in enumerate(_SCHEME_MODULES)}
    return sorted(
        _REGISTRY.values(),
        key=lambda info: rank.get(info.builder.__module__, len(rank)),
    )


def scheme_names() -> Tuple[str, ...]:
    """Canonical names in registry order (no aliases)."""
    return tuple(info.name for info in _ordered())


def scheme_infos() -> List[SchemeInfo]:
    return _ordered()


def probe_overhead_bps(
    name: str, probes_sent: int, duration_s: float,
    mean_hops: float = 4.0, plan: object = None,
) -> float:
    """Telemetry wire cost of a run: bits/s of probe traffic.

    Sized from the registered per-probe header/hop bytes (both
    directions of the probe round trip are included in
    ``probe_base_bytes``).  Probe-free schemes cost zero by
    construction.

    ``plan`` (a telemetry plan spec or
    :class:`repro.core.telemetry.TelemetryPlan`) rescales the per-hop
    term to the plan's expected stamped records and adds its fixed
    header delta (hop bitmap) — meaningful for the uFAB family, whose
    hop bytes are the Figure-22 records plans thin out.  ``None`` and
    ``"full"`` are identical to the classic accounting.
    """
    info = get(name)
    if not probes_sent or duration_s <= 0.0:
        return 0.0
    hop_bytes = info.probe_hop_bytes * mean_hops
    base_bytes = float(info.probe_base_bytes)
    if plan is not None:
        from repro.core.telemetry import get_plan

        p = get_plan(plan) if isinstance(plan, str) else plan
        hop_bytes = info.probe_hop_bytes * p.expected_records(mean_hops)
        base_bytes += 2 * (p.base_bytes - 4)  # bitmap, both directions
    bits = 8.0 * (base_bytes + hop_bytes)
    return probes_sent * bits / duration_s


def probes_sent(fabric) -> int:
    """Total probes a fabric has launched (0 for probe-free schemes).

    Duck-types the three fabric families: ``BaselineFabric`` pairs and
    uFAB edge controllers both keep ``stats["probes_sent"]``; probe-free
    fabrics may expose ``probes_sent()`` directly or nothing at all.
    """
    fn = getattr(fabric, "probes_sent", None)
    if callable(fn):
        return int(fn())
    total = 0
    controllers = getattr(fabric, "pairs", None)
    if isinstance(controllers, dict):  # BaselineFabric
        for controller in controllers.values():
            stats = getattr(controller, "stats", None)
            if stats:
                total += stats.get("probes_sent", 0)
    for agent in getattr(fabric, "edges", {}).values():  # UFabFabric
        for controller in agent.controllers.values():
            total += controller.stats.get("probes_sent", 0)
    return total


def resolve_params(params) -> "object":
    """Default-construct :class:`UFabParams` when ``params`` is None."""
    if params is not None:
        return params
    from repro.core.params import UFabParams

    return UFabParams()


def hash_index(key: str, n: int, seed: int = 0) -> int:
    """Deterministic ECMP-style hash of ``key`` onto ``range(n)``.

    Shared by the probe-free schemes (QShare, μTAS) whose path choice
    is plain flow hashing; matches the idiom of
    :class:`repro.baselines.ecmp.EcmpSelector`.
    """
    import hashlib

    if n <= 1:
        return 0
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=8, salt=seed.to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little") % n


