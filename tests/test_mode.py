"""The run mode (repro.sim.mode): one recorded value per network."""

from repro import Scenario
from repro.core.corenode import CoreAgent
from repro.core.edge import install_ufab
from repro.core.p4pipe import PipelineCoreAgent
from repro.sim.mode import SimMode, current_mode, use_mode
from repro.sim.network import Network
from repro.sim.topology import dumbbell


def test_use_mode_nests_and_restores():
    pipeline, slow = SimMode(backend="pipeline"), SimMode(transit="slow")
    with use_mode(pipeline):
        with use_mode(slow):
            assert current_mode() is slow
        assert current_mode() is pipeline
    assert current_mode() == SimMode(backend="behavioral", transit="fast")


def test_networks_in_different_modes_coexist():
    with use_mode(SimMode(backend="pipeline", transit="slow")):
        piped = Network(dumbbell(n_pairs=1))
    plain = Network(dumbbell(n_pairs=1))
    # Captured at construction: fabrics installed outside the block
    # still follow each network's own mode.
    piped_agents = install_ufab(piped).core_agents.values()
    plain_agents = install_ufab(plain).core_agents.values()
    assert not piped._transit_fast and plain._transit_fast
    assert all(type(a) is PipelineCoreAgent for a in piped_agents)
    assert all(type(a) is CoreAgent for a in plain_agents)


def test_scenario_backend_keeps_the_ambient_transit():
    with use_mode(SimMode(transit="slow")):
        net, _ = Scenario.testbed().backend("pipeline").build(horizon=0.01)
    assert net.mode == SimMode(backend="pipeline", transit="slow")
