import pytest

from qkdmetro.channel_plan import (WavelengthChannel, assign_role, cwdm_grid,
                                   gpon_plan, quantum_channel)
from qkdmetro.errors import NoChannel, NoQuantumChannel
from qkdmetro.network import BUILDERS, LAUNCH_PLANS
from qkdmetro.optical_path import Filter


def test_cwdm_grid_layout():
    plan = cwdm_grid()
    assert plan.grid_kind == "cwdm"
    assert len(plan.channels) == 18
    centers = [ch.center_nm for ch in plan.channels]
    assert centers == [1270.0 + 20.0 * k for k in range(18)]
    assert all(ch.width_nm == 13.0 for ch in plan.channels)
    assert all(ch.role == "unused" for ch in plan.channels)


def test_gpon_plan_layout():
    plan = gpon_plan()
    centers = {ch.center_nm for ch in plan.channels}
    assert centers == {1310.0, 1490.0, 1550.0}
    assert quantum_channel(plan).center_nm == 1550.0


def test_channel_validation():
    with pytest.raises(ValueError):
        WavelengthChannel(1100.0, 13.0)
    with pytest.raises(ValueError):
        WavelengthChannel(1750.0, 13.0)
    with pytest.raises(ValueError):
        WavelengthChannel(1550.0, 0.0)
    with pytest.raises(ValueError):
        WavelengthChannel(1550.0, 13.0, role="telemetry")


def test_assign_role():
    plan = assign_role(cwdm_grid(), 1550.0, "quantum")
    assert quantum_channel(plan).center_nm == 1550.0
    with pytest.raises(NoChannel):
        assign_role(plan, 1551.0, "quantum")


def test_quantum_channel_requires_exactly_one():
    with pytest.raises(NoQuantumChannel):
        quantum_channel(cwdm_grid())
    doubled = assign_role(assign_role(cwdm_grid(), 1550.0, "quantum"),
                          1530.0, "quantum")
    with pytest.raises(NoQuantumChannel):
        quantum_channel(doubled)


@pytest.mark.parametrize("kind", sorted(LAUNCH_PLANS))
def test_launches_lie_outside_the_quantum_passband_and_receiver_filter(kind):
    scenario = BUILDERS[kind]()
    quantum = quantum_channel(scenario.plan)
    receiver = scenario.topology.node_elements[scenario.endpoints[1]]["drop"]
    (receiver_filter,) = [e for e in receiver if isinstance(e, Filter)]
    for wavelength_nm, _, _, _, _ in LAUNCH_PLANS[kind]:
        assert abs(wavelength_nm - quantum.center_nm) > quantum.width_nm / 2.0
        assert not receiver_filter.in_band(wavelength_nm)
