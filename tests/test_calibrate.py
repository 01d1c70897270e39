import io
import math
import warnings

import pytest

from qkdmetro.calibrate import (Anchor, PARAM_REGISTRY, anchor_residuals,
                                apply_fit, calibrate, load_anchors)
from qkdmetro.network import build_backbone_scenario, build_gpon_scenario

ANCHOR_CSV = """\
scenario,length_km,observable,target,weight
gpon,0,qber,0.04,50
gpon,0,secret_bps,500,1
backbone,6,secret_bps,500,1
"""


def test_load_anchors():
    anchors = load_anchors(io.StringIO(ANCHOR_CSV))
    assert len(anchors) == 3
    assert anchors[0] == Anchor("gpon", 0.0, "qber", 0.04, 50.0)


def test_load_anchors_rejects_foreign_header():
    with pytest.raises(ValueError):
        load_anchors(io.StringIO("scenario,km,what,value\n"))


def test_anchor_validation():
    with pytest.raises(ValueError):
        Anchor("gpon", 0.0, "loss_db", 8.0)
    with pytest.raises(ValueError):
        Anchor("gpon", 0.0, "secret_bps", -1.0)


@pytest.mark.parametrize("length_km,target,weight", [
    (math.nan, 0.04, 1.0),
    (math.inf, 0.04, 1.0),
    (0.0, math.nan, 1.0),
    (0.0, math.inf, 1.0),
    (0.0, 0.04, math.nan),
    (0.0, 0.04, math.inf),
    (-1.0, 0.04, 1.0),
    (0.0, 0.04, -1.0),
])
def test_anchor_rejects_non_finite_and_negative(length_km, target, weight):
    with pytest.raises(ValueError):
        Anchor("gpon", length_km, "qber", target, weight)


def test_apply_fit_parameter_mapping():
    scenario = build_gpon_scenario()
    fitted = apply_fit(scenario, {"rho": 5e-10, "launch_dbm": -2.0,
                                  "e_det": 0.02})
    assert fitted.params["rho"] == 5e-10
    assert fitted.params["down_power_dbm"] == -2.0
    assert fitted.params["up_power_dbm"] == -2.0
    assert fitted.detector.misalignment_error == 0.02


def test_zero_target_anchor_uses_hinge_penalty():
    scenario = build_gpon_scenario()
    anchors = [Anchor("gpon", 20.0, "secret_bps", 0.0, 1.0)]
    # far beyond the loss budget the rate is zero, so the hinge is silent
    assert anchor_residuals(scenario, anchors, {}) == [0.0]


def test_calibrate_filters_anchors_by_kind():
    anchors = load_anchors(io.StringIO(ANCHOR_CSV))
    result = calibrate(build_backbone_scenario(), anchors, ["rho"])
    assert all(a.scenario == "backbone" for a in result.anchors)

    foreign = [a for a in anchors if a.scenario == "gpon"]
    with pytest.raises(ValueError):
        calibrate(build_backbone_scenario(), foreign, ["rho"])


def test_calibrate_requires_free_parameters():
    anchors = load_anchors(io.StringIO(ANCHOR_CSV))
    with pytest.raises(ValueError):
        calibrate(build_gpon_scenario(), anchors, [])


def test_calibrate_is_deterministic():
    anchors = load_anchors(io.StringIO(ANCHOR_CSV))
    scenario = build_gpon_scenario()
    a = calibrate(scenario, anchors, ["rho", "launch_dbm"])
    b = calibrate(scenario, anchors, ["rho", "launch_dbm"])
    assert a.params == b.params
    assert a.residual == b.residual


def test_calibrate_beats_registry_grid_points():
    anchors = load_anchors(io.StringIO(ANCHOR_CSV))
    scenario = build_gpon_scenario()
    result = calibrate(scenario, anchors, ["rho"])
    gpon_anchors = [a for a in anchors if a.scenario == "gpon"]
    param = PARAM_REGISTRY["rho"]
    for x in param.grid():
        probe = sum(anchor_residuals(scenario, gpon_anchors,
                                     {"rho": param.from_x(x)}))
        assert result.residual <= probe + 1e-12


def test_calibrate_warns_when_under_determined():
    anchors = [Anchor("gpon", 0.0, "qber", 0.04, 1.0)]
    with pytest.warns(UserWarning, match="under-determined"):
        calibrate(build_gpon_scenario(), anchors, ["rho", "launch_dbm"])


def test_calibrate_residual_breakdown_sums():
    anchors = load_anchors(io.StringIO(ANCHOR_CSV))
    result = calibrate(build_gpon_scenario(), anchors, ["rho"])
    assert result.residual == pytest.approx(sum(result.residuals))
    assert len(result.residuals) == len(result.anchors)
