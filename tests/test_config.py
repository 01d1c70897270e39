import math

import pytest

from qkdmetro import config
from qkdmetro.cli import main
from qkdmetro.config import SweepSpec, parse_config
from qkdmetro.errors import MissingSection, ParseError, UnknownKey
from qkdmetro.optical_path import dbm_to_watts
from qkdmetro.params import CONFIG_KEYS, LAUNCH_PLANS

MINIMAL_GPON = """\
[scenario]
kind = gpon

[sweep]
start_km = 0
stop_km = 5
step_km = 0.5
"""


def test_minimal_config_parses_to_defaults():
    scenario, spec = parse_config(MINIMAL_GPON)
    assert scenario.kind == "gpon"
    det = scenario.detector
    assert det.efficiency == 0.10
    assert det.gate_width_s == 1.0e-9
    assert det.dark_count_prob == 2.0e-5
    assert det.deadtime_s == 1.0e-5
    assert det.misalignment_error == 0.001
    assert det.pulse_rate_hz == 1.0e6
    assert scenario.decoy.mu == 0.79
    assert scenario.decoy.nu == pytest.approx(0.79 / 20.0)
    assert scenario.decoy.estimator_mode == "exact_y0"
    assert scenario.keyrate_params.q == 0.5
    assert scenario.keyrate_params.f == 1.05
    assert scenario.filter_width_nm == 0.8
    assert scenario.params["duty_cycle"] == 1.0
    assert scenario.params["budget_db"] == 15.0
    assert spec.lengths() == pytest.approx([0.5 * i for i in range(11)])


def test_overrides_reach_scenario():
    text = MINIMAL_GPON + """
[detector]
efficiency = 0.2
gate_ns = 2
deadtime_us = 20

[source]
mu = 0.6
nu = 0.1

[filter]
width_nm = 0.4

[classical]
power_1490_dbm = -3
power_1310_dbm = 4

[raman]
rho = 5e-10
"""
    scenario, _ = parse_config(text)
    assert scenario.detector.efficiency == 0.2
    assert scenario.detector.gate_width_s == pytest.approx(2e-9)
    assert scenario.detector.deadtime_s == pytest.approx(2e-5)
    assert scenario.decoy.mu == 0.6
    assert scenario.decoy.nu == 0.1
    assert scenario.filter_width_nm == 0.4
    # LAUNCH_PLANS["gpon"] order: 1490 nm, then 1310 nm
    assert scenario.inputs.launch_w == (dbm_to_watts(-3.0), dbm_to_watts(4.0))
    assert scenario.params["rho"] == 5e-10


def test_power_dbm_applies_to_all_launches():
    text = MINIMAL_GPON + "\n[classical]\npower_dbm = -7\n"
    scenario, _ = parse_config(text)
    assert scenario.inputs.launch_w == (dbm_to_watts(-7.0),) * len(LAUNCH_PLANS["gpon"])


def test_alpha_overrides():
    text = MINIMAL_GPON + "\n[fiber]\nalpha_1550_db_km = 0.3\n"
    scenario, _ = parse_config(text)
    table = dict(scenario.params["alpha_table"])
    assert table[1550.0] == 0.3
    assert table[1310.0] == 0.35  # untouched pivots keep their defaults


def test_missing_scenario_section():
    with pytest.raises(MissingSection):
        parse_config("[sweep]\nstart_km = 0\nstop_km = 1\nstep_km = 1\n")


def test_missing_sweep_section():
    with pytest.raises(MissingSection):
        parse_config("[scenario]\nkind = gpon\n")


def test_incomplete_sweep_section():
    with pytest.raises(MissingSection):
        parse_config("[scenario]\nkind = gpon\n[sweep]\nstart_km = 0\n")


def test_unknown_section_reports_line():
    with pytest.raises(UnknownKey) as exc:
        parse_config("[scenario]\nkind = gpon\n[lasers]\n")
    assert exc.value.line == 3


def test_unknown_key_reports_line():
    with pytest.raises(UnknownKey) as exc:
        parse_config("[scenario]\nkind = gpon\nflux = 9\n")
    assert exc.value.line == 3


def test_fiber_label_is_no_key():
    # a label named the fiber but set nothing the model reads
    with pytest.raises(UnknownKey) as exc:
        parse_config("[scenario]\nkind = gpon\n[fiber]\nlabel = smf\n")
    assert str(exc.value) == "line 4: unknown key 'label' in section [fiber]"


def test_malformed_lines():
    with pytest.raises(ParseError) as exc:
        parse_config("[scenario\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_config("kind = gpon\n")  # key before any section
    with pytest.raises(ParseError):
        parse_config("[scenario]\nkind gpon\n")


def test_bad_value_reports_line():
    with pytest.raises(ParseError) as exc:
        parse_config(MINIMAL_GPON + "\n[detector]\nefficiency = fast\n")
    assert exc.value.line is not None


def test_unknown_scenario_kind():
    with pytest.raises(ParseError) as exc:
        parse_config(MINIMAL_GPON.replace("kind = gpon", "kind = dwdm"))
    assert str(exc.value) == (
        "line 2: scenario kind must be one of ['backbone', 'gpon'], got 'dwdm'")


def test_wavelength_power_key_must_match_kind():
    text = MINIMAL_GPON + "\n[classical]\npower_1510_dbm = 0\n"
    with pytest.raises(UnknownKey):
        parse_config(text)


def test_classical_keys_follow_the_launch_plans():
    wavelengths = {wl for plan in LAUNCH_PLANS.values() for wl, _, _, _, _ in plan}
    assert {key for section, key in CONFIG_KEYS if section == "classical"} == (
        {"power_dbm"} | {f"power_{wl:.0f}_dbm" for wl in wavelengths})
    for kind, plan in LAUNCH_PLANS.items():
        text = MINIMAL_GPON.replace("kind = gpon", f"kind = {kind}")
        for wl, param, _, _, _ in plan:
            row = CONFIG_KEYS["classical", f"power_{wl:.0f}_dbm"]
            assert row[0] == param and list(row[4]) == [kind]
            scenario, _ = parse_config(text + f"\n[classical]\npower_{wl:.0f}_dbm = -4\n")
            assert scenario.params[param] == -4.0
    with pytest.raises(UnknownKey) as exc:
        parse_config(MINIMAL_GPON + "\n[classical]\npower_1550_dbm = 0\n")
    assert str(exc.value) == (
        "line 10: unknown key 'power_1550_dbm' in section [classical]")
    backbone = MINIMAL_GPON.replace("kind = gpon", "kind = backbone")
    with pytest.raises(UnknownKey) as exc:
        parse_config(backbone + "\n[classical]\npower_1310_dbm = 0\n")
    assert str(exc.value) == (
        "line 10: 'power_1310_dbm' does not apply to a backbone scenario")


# A key given twice, even under a second header of its section, with the
# line of the error, the second, and the key it names.  Were it not an
# error, the last value would win without a word.
REPEATED_KEYS = [
    (MINIMAL_GPON + "\n[raman]\nrho = 1e-10\nrho = 2e-10\n", 11, "'rho' in section [raman]"),
    (MINIMAL_GPON + "\n[scenario]\nkind = backbone\n", 10, "'kind' in section [scenario]"),
]


@pytest.mark.parametrize("text,line,key", REPEATED_KEYS)
def test_repeated_key_is_an_error_at_its_second_line(text, line, key, tmp_path, capsys):
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    message = f"line {line}: repeated key {key}"
    assert str(exc.value) == message
    cfg = tmp_path / "repeated.cfg"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg), "--out", "-"]) == 2
    assert capsys.readouterr().err.splitlines()[0] == f"error: {message}"


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n" + MINIMAL_GPON + "  # trailing\n"
    scenario, _ = parse_config(text)
    assert scenario.kind == "gpon"


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(5.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        SweepSpec(0.0, 1.0, 0.0)
    for bad in ((0.0, math.inf, 1.0), (-math.inf, 1.0, 1.0), (0.0, 1.0, math.nan),
                (math.nan, 1.0, 1.0), (0.0, math.nan, 1.0), (0.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            SweepSpec(*bad)
    assert SweepSpec(0.0, 1.0, 0.25).lengths() == pytest.approx(
        [0.0, 0.25, 0.5, 0.75, 1.0])


def test_sweep_spec_caps_its_point_count_before_building_lengths():
    # lengths() is never called on these: without the cap it would try to
    # build ~1e15 floats
    cap = config.MAX_SWEEP_POINTS
    for bad in ((0.0, 1e12, 1e-3), (0.0, float(cap), 1.0), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError, match=f"sweep has more than {cap} points"):
            SweepSpec(*bad)
    SweepSpec(0.0, float(cap - 1), 1.0)  # exactly cap points
