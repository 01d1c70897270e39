import pytest

from qkdmetro.channel_plan import (ChannelPlan, WavelengthChannel, assign_role,
                                   cwdm_grid, gpon_plan,
                                   quantum_channel, validate_assignment)
from qkdmetro.errors import NoChannel, NoQuantumChannel


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
    assert validate_assignment(plan) == []


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


def test_validate_assignment_reports_conflicts():
    # classical channel parked right on top of the quantum passband
    plan = ChannelPlan("custom", (
        WavelengthChannel(1550.0, 10.0, "quantum"),
        WavelengthChannel(1552.0, 10.0, "classical_downstream"),
    ))
    conflicts = validate_assignment(plan)
    assert len(conflicts) == 1
    assert "1552" in conflicts[0]

    none_quantum = cwdm_grid()
    assert validate_assignment(none_quantum) == [
        "expected exactly one quantum channel, found 0"]


def test_validate_assignment_disjoint_ok():
    plan = assign_role(cwdm_grid(), 1550.0, "quantum")
    plan = assign_role(plan, 1510.0, "classical_downstream")
    plan = assign_role(plan, 1470.0, "classical_upstream")
    assert validate_assignment(plan) == []
