"""Outside-in layer attribution: spans around calls into the program.

The tracer never edits the program.  :meth:`LayerTracer.install` replaces
selected functions and methods with timing wrappers, looked up where the
program looks them up (a class attribute, or the module global a caller
imported by name), and :meth:`LayerTracer.uninstall` puts every original
object back.  Two kinds of boundary exist:

* **Calls** — the functions in :data:`BOUNDARIES`, grouped by the layer
  (module) that owns them.  A call opens a span for its layer.
* **Events** — every callback handed to the event engine is wrapped at
  schedule time and charged to the layer of the module that defined it
  (:data:`EVENT_OWNERS`), which covers closures such as the samplers'
  ticks and the edge's scout timeouts that no attribute lookup reaches.

A span's *self* time is its duration minus the time of the spans nested
in it.  ``Network.run`` is the ``sim.engine`` span, so engine self time
is the residual: event dispatch plus callbacks that no named layer owns.
Self time is kept per phase: ``setup`` (from the start of a cell to the
entry of ``Network.run``) and ``run`` (inside it); spans outside both are
not counted.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim.engine",
    "sim.network",
    "sim.link",
    "sim.fluid",
    "sim.topology",
    "core.corenode",
    "core.edge",
    "core.pathsel",
    "workloads.tenants",
    "faults.injector",
    "analysis.metrics",
)

# layer -> [(module, class or None, [attribute, ...])].  A class of None
# patches module globals: the name where a caller looks it up, which for
# ``from x import f`` is the caller's own module.
BOUNDARIES: Dict[str, List[Tuple[str, Optional[str], List[str]]]] = {
    "sim.network": [
        ("repro.sim.network", "Network", [
            "__init__", "send_probe", "register_pair", "unregister_pair",
            "set_pair_rate", "refresh_pair", "migrate_pair", "resolve_now",
            "on_turbulence", "fail_link", "recover_link", "fail_node",
            "recover_node"]),
    ],
    "sim.link": [
        ("repro.sim.link", "Link", [
            "__init__", "sync", "_flush_upto", "flush_pending", "set_inflow",
            "tx_rate", "queue_bits", "delay"]),
        ("repro.sim.network", None, ["_path_delay"]),
    ],
    "sim.fluid": [
        ("repro.sim.fluid", "FluidSolver", [
            "__init__", "add_flow", "remove_flow", "set_path", "invalidate",
            "solve", "apply"]),
    ],
    "sim.topology": [
        ("repro.sim.topology", "Topology", [
            "add_node", "add_link", "shortest_paths"]),
        ("repro.experiments.common", None, ["three_tier_testbed"]),
        ("repro.experiments.scale_sweep", None, ["fat_tree"]),
    ],
    "core.corenode": [
        # The per-hop hooks the edge hands to probe transit: the core
        # agent's register + stamp work for one hop.
        ("repro.core.edge", None, ["_probe_on_hop", "_stamp_on_hop"]),
        ("repro.core.corenode", "CoreAgent", [
            "__init__", "on_finish", "sweep", "reset", "freeze_telemetry",
            "unfreeze_telemetry"]),
    ],
    "core.edge": [
        ("repro.core.edge", "UFabFabric", [
            "__init__", "add_pair", "remove_pair", "set_demand",
            "restart_host", "on_core_reset"]),
        ("repro.core.edge", "EdgeAgent", ["__init__", "launch_probe"]),
        ("repro.core.edge", "_RoundTrip", ["at_destination", "on_echo"]),
        ("repro.core.edge", "PairController", [
            "start", "stop", "poke", "resync", "restart"]),
    ],
    "core.pathsel": [
        ("repro.core.edge", None, [
            "digest_hops", "summarize_path", "merge_hop_records"]),
        ("repro.core.pathsel", "PathBook", [
            "__init__", "record", "mark_failed", "qualified_indices",
            "select_initial", "select_for_work_conservation",
            "best_fallback"]),
    ],
    "workloads.tenants": [
        ("perfbench.workloads", None, ["generate_churn", "install_churn"]),
        ("repro.workloads.tenants", "FlowGroupTable", ["add", "remove"]),
    ],
    "faults.injector": [
        ("perfbench.workloads", None, ["parse_faults", "install_faults"]),
        ("repro.faults.injector", "FaultInjector", ["_intercept"]),
    ],
    "analysis.metrics": [
        ("perfbench.workloads", None, ["weighted_allocation_error"]),
        ("repro.analysis.metrics", "GuaranteeAuditor", ["__init__", "start"]),
        ("repro.analysis.metrics", "RttSampler", ["__init__", "start"]),
    ],
}

# Module of an event callback -> the layer its time is charged to.
EVENT_OWNERS = {
    "repro.sim.network": "sim.network",
    "repro.sim.link": "sim.link",
    "repro.sim.fluid": "sim.fluid",
    "repro.sim.topology": "sim.topology",
    "repro.core.corenode": "core.corenode",
    "repro.core.edge": "core.edge",
    "repro.core.pathsel": "core.pathsel",
    "repro.workloads.tenants": "workloads.tenants",
    "repro.faults.injector": "faults.injector",
    "repro.analysis.metrics": "analysis.metrics",
    "perfbench.workloads": "analysis.metrics",
}

SCHEDULERS = ("schedule", "schedule_transient", "at", "at_transient")


def _call(fn: Callable[..., Any], *args: Any) -> Any:
    return fn(*args)


class LayerTracer:
    """Per-layer call counts and self time, by phase."""

    def __init__(self) -> None:
        self._patched: List[Tuple[Any, str, Any]] = []
        self._restored: List[Tuple[Any, str, Any]] = []
        self._stack: List[int] = []
        self.totals: Dict[str, Dict[str, List[int]]] = {
            phase: {layer: [0, 0] for layer in LAYERS}
            for phase in ("setup", "run")
        }
        self._idle: Dict[str, List[int]] = {layer: [0, 0] for layer in LAYERS}
        self._acc = self._idle
        self.run_ns = 0
        self.send_probe_calls = 0
        self.shortest_paths_calls = 0
        self.tor_pairs_reused = 0
        self._tor_pairs: set = set()

    # -- phases ----------------------------------------------------------
    def begin_setup(self) -> None:
        """A new cell starts: its set-up is attributed from here."""
        self._acc = self.totals["setup"]
        self._tor_pairs.clear()

    def end_cell(self) -> None:
        self._acc = self._idle

    # -- spans -----------------------------------------------------------
    def _span(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc = tracer._acc[layer]
                acc[0] += 1
                acc[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        wrapper.perfbench_layer = layer
        return wrapper

    def _run_span(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``Network.run``: the ``sim.engine`` span that bounds phase run."""
        timed = self._span(fn, "sim.engine")
        clock = time.perf_counter_ns
        tracer = self

        def run(*args: Any, **kwargs: Any) -> Any:
            tracer._acc = tracer.totals["run"]
            t0 = clock()
            try:
                return timed(*args, **kwargs)
            finally:
                tracer.run_ns += clock() - t0
                tracer._acc = tracer._idle

        run.perfbench_layer = "sim.engine"
        return run

    def _scheduler(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Charge each scheduled callback to the layer that defined it."""
        runners = {layer: self._span(_call, layer) for layer in LAYERS}
        owners = {mod: runners[layer] for mod, layer in EVENT_OWNERS.items()}

        def schedule(sim: Any, when: float, callback: Callable[..., Any],
                     *args: Any) -> Any:
            if getattr(callback, "perfbench_layer", None) is None:
                runner = owners.get(getattr(callback, "__module__", None))
                if runner is not None:
                    return fn(sim, when, runner, callback, *args)
            return fn(sim, when, callback, *args)

        return schedule

    def _counted_send_probe(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        def send_probe(*args: Any, **kwargs: Any) -> Any:
            tracer.send_probe_calls += 1
            return fn(*args, **kwargs)

        return send_probe

    def _tor_keyed(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count ``shortest_paths`` calls whose (src ToR, dst ToR) pair
        was already enumerated in this cell — the reuse a ToR-keyed path
        cache would get."""
        tracer = self

        def shortest_paths(topo: Any, src: str, dst: str, *args: Any,
                           **kwargs: Any) -> Any:
            tracer.shortest_paths_calls += 1
            key = (_attachment(topo, src), _attachment(topo, dst))
            if key in tracer._tor_pairs:
                tracer.tor_pairs_reused += 1
            else:
                tracer._tor_pairs.add(key)
            return fn(topo, src, dst, *args, **kwargs)

        return shortest_paths

    # -- install / uninstall ----------------------------------------------
    def _patch(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._patched.append((owner, name, original))

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer, groups in BOUNDARIES.items():
            for module_name, cls_name, attrs in groups:
                module = importlib.import_module(module_name)
                owner = module if cls_name is None else getattr(module, cls_name)
                for attr in attrs:
                    self._patch(owner, attr,
                                lambda fn, layer=layer: self._span(fn, layer))
        from repro.sim.engine import Simulator
        from repro.sim.network import Network
        from repro.sim.topology import Topology

        # Outermost wrappers: counting happens outside the span timing.
        self._patch(Network, "send_probe", self._counted_send_probe)
        self._patch(Topology, "shortest_paths", self._tor_keyed)
        self._patch(Network, "run", self._run_span)
        for name in SCHEDULERS:
            self._patch(Simulator, name, self._scheduler)

    def uninstall(self) -> None:
        # An attribute patched twice keeps its first original.
        firsts: Dict[Tuple[int, str], Tuple[Any, str, Any]] = {}
        for owner, name, original in self._patched:
            firsts.setdefault((id(owner), name), (owner, name, original))
        self._restored = list(firsts.values())
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    def restored(self) -> List[Tuple[Any, str, Any]]:
        """Every ``(owner, name, original)`` the last uninstall put back."""
        return list(self._restored)

    # -- results -----------------------------------------------------------
    def layer_metrics(self, setup_ns: int) -> Dict[str, float]:
        """Totals over every traced cell: ``<layer>.calls/.self_s/.setup_s``.

        ``sim.engine`` self time in each phase is that phase's wall time
        minus every other layer's self time in it.
        """
        out: Dict[str, float] = {}
        walls = {"run": self.run_ns, "setup": setup_ns}
        for phase, key in (("run", "self_s"), ("setup", "setup_s")):
            acc = self.totals[phase]
            named = sum(acc[layer][1] for layer in LAYERS if layer != "sim.engine")
            for layer in LAYERS:
                ns = acc[layer][1] if layer != "sim.engine" else walls[phase] - named
                out[f"{layer}.{key}"] = ns / 1e9
        for layer in LAYERS:
            out[f"{layer}.calls"] = float(sum(
                self.totals[phase][layer][0] for phase in ("setup", "run")))
        return out


def _attachment(topo: Any, node: str) -> str:
    """The switch a host hangs off (the node itself if it is a switch)."""
    links = topo.out_links(node)
    if topo.nodes[node]["kind"] == "host" and links:
        return links[0].dst
    return node
