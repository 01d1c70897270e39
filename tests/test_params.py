import math
import sys

import pytest

from qkdmetro import network, params
from qkdmetro.keyrate import DecoyParams
from qkdmetro.params import (CONFIG_KEYS, DEFAULTS, PARAMS, PER_EVALUATION_PARAMS,
                             check, check_params, ordered_sum)

# Recorded from the hand-written schema and evaluation groups that the
# table replaced, less e0, since a constant of the parameter stage; the
# table must neither add nor drop a key or parameter.
RECORDED_PER_EVALUATION_PARAMS = [
    "budget_db", "co_power_dbm", "counter_power_dbm", "dark_count_prob",
    "deadtime_s", "down_power_dbm", "downstream_atten_db", "duty_cycle",
    "efficiency", "estimator_mode", "f", "gate_width_s", "misalignment_error",
    "mu", "nu", "pulse_rate_hz", "q", "rho", "rho_beyond", "up_power_dbm",
]
RECORDED_CONFIG_KEYS = [
    ("classical", "power_1310_dbm"), ("classical", "power_1470_dbm"),
    ("classical", "power_1490_dbm"), ("classical", "power_1510_dbm"),
    ("classical", "power_dbm"), ("detector", "dark_count_prob"),
    ("detector", "deadtime_us"), ("detector", "efficiency"), ("detector", "gate_ns"),
    ("detector", "misalignment_error"), ("detector", "pulse_rate_hz"),
    ("fiber", "alpha_1310_db_km"), ("fiber", "alpha_1490_db_km"),
    ("fiber", "alpha_1550_db_km"), ("fiber", "connector_every_km"),
    ("fiber", "connector_loss_db"), ("filter", "insertion_db"),
    ("filter", "rejection_db"), ("filter", "width_nm"), ("raman", "rho"),
    ("raman", "rho_beyond"), ("raman", "split_km"), ("scenario", "budget_db"),
    ("scenario", "downstream_atten_db"), ("scenario", "duty_cycle"),
    ("scenario", "fixed_km"), ("scenario", "kind"),
    ("scenario", "splitter_ratio"), ("source", "ec_efficiency"),
    ("source", "estimator_mode"), ("source", "mu"), ("source", "nu"),
    ("source", "sifting_q"), ("sweep", "start_km"), ("sweep", "step_km"),
    ("sweep", "stop_km"),
]


def test_table_keeps_the_recorded_keys_and_per_evaluation_parameters():
    assert sorted(PER_EVALUATION_PARAMS) == RECORDED_PER_EVALUATION_PARAMS
    assert sorted(CONFIG_KEYS) == RECORDED_CONFIG_KEYS
    assert list(DEFAULTS) == list(network.BUILDERS) == list(params.KINDS)
    # one level of rebuild: each Inputs field is built by one group, from
    # parameters no other group reads, and the groups read every
    # per-evaluation parameter but budget_db, which nothing reads yet
    groups = network._EVALUATION_GROUPS
    assert sorted(field for field, _, _ in groups) == list(range(len(network.Inputs._fields)))
    for i, (_, names, _) in enumerate(groups):
        for _, other, _ in groups[i + 1:]:
            assert names.isdisjoint(other)
    assert (frozenset().union(*(names for _, names, _ in groups))
            == PER_EVALUATION_PARAMS - {"budget_db"})


def test_every_parameter_has_a_config_key():
    # no parameter only the API can move
    assert all(row[1] is not None and row[2] is not None for row in PARAMS.values())


@pytest.mark.parametrize("kind", params.KINDS)
def test_every_default_passes_its_own_check(kind):
    for name, value in DEFAULTS[kind].items():
        check(name, value)
    check_params(DEFAULTS[kind])


@pytest.mark.parametrize("name,value,message", [
    ("duty_cycle", 1.5, "duty cycle must be in [0, 1]"),
    ("misalignment_error", 0.5, "misalignment error must be in [0, 0.5)"),
    ("pulse_rate_hz", math.inf, "pulse rate must be finite and positive"),
    ("gate_width_s", -1e-9, "gate width must be finite and non-negative"),
    ("budget_db", math.nan, "loss budget must be finite"),
    ("f", 0.5, "error-correction efficiency must be >= 1"),
    ("splitter_ratio", 1, "splitter ratio must be in [2, 4]"),
    ("split_km", -1.0, "split length must be finite and non-negative"),
    ("estimator_mode", "x", "estimator mode must be one of "
                            "['exact_y0', 'one_decoy_bound'], got 'x'"),
    ("alpha_table", ((1310.0, 0.3), (1550.0, math.nan)),
     "fiber attenuation must be finite and positive"),
    (("fiber", "alpha_1490_db_km"), 0.0, "fiber attenuation must be finite and positive"),
    ("alpha_table", (), "fiber attenuation must be finite and positive"),
])
def test_check_rejects_a_value_out_of_range(name, value, message):
    with pytest.raises(ValueError) as exc:
        check(name, value)
    assert str(exc.value) == message


@pytest.mark.parametrize("name,inside,outside", [
    ("duty_cycle", [0.0, -0.0, 1.0], [math.nextafter(0.0, -1), math.nextafter(1.0, 2)]),
    ("misalignment_error", [0.0, math.nextafter(0.5, 0)], [0.5, -5e-324]),
    ("efficiency", [5e-324, 1.0], [0.0, math.nextafter(1.0, 2)]),
    ("pulse_rate_hz", [5e-324, sys.float_info.max], [0.0, math.inf]),
    ("f", [1.0, math.inf], [math.nextafter(1.0, 0), math.nan]),
    ("splitter_ratio", [2, 4], [1, 5]),
    ("budget_db", [-sys.float_info.max, sys.float_info.max], [-math.inf, math.inf, math.nan]),
])
def test_range_ends_are_exact(name, inside, outside):
    for value in inside:
        check(name, value)
    for value in outside:
        with pytest.raises(ValueError):
            check(name, value)


def test_none_passes_only_where_the_range_allows_it():
    for name in ("nu", "rho_beyond", "split_km"):
        check(name, None)
    # elsewhere None compares as no number does, as in the checks it replaced
    for value in (None, "0.5"):
        with pytest.raises(TypeError):
            check("mu", value)


def test_several_bad_values_report_the_first_in_table_order():
    bad = {"pulse_rate_hz": 0.0, "duty_cycle": 2.0, "efficiency": 0.0}
    for values in (bad, dict(reversed(bad.items()))):
        with pytest.raises(ValueError, match="duty cycle"):
            check_params(values)


def test_each_override_is_checked_once(monkeypatch):
    # mu and nu by DecoyParams, rho (which no class holds) by with_overrides
    scenario = network.build_gpon_scenario()
    checked = []
    for name in ("mu", "nu", "rho"):
        monkeypatch.setitem(params._TESTS, name, lambda value, name=name,
                            test=params._TESTS[name]: checked.append(name) or test(value))
    network.with_overrides(scenario, mu=0.5, nu=0.02, rho=1e-9)
    assert sorted(checked) == ["mu", "nu", "rho"]


@pytest.mark.parametrize("kind", params.KINDS)
def test_structural_override_checks_the_fiber_twice(monkeypatch, kind):
    # once with every inherited value as the builder merges them, and the
    # attenuation table once more as the variable span is built (the fixed
    # span is a copy of it; no span holds rho)
    scenario = network.BUILDERS[kind]()
    checked = []
    for name in ("rho", "alpha_table"):
        monkeypatch.setitem(params._TESTS, name, lambda value, name=name,
                            test=params._TESTS[name]: checked.append(name) or test(value))
    rebuilt = network.with_overrides(scenario, fixed_km=1.0)
    assert rebuilt.link is not scenario.link
    assert checked.count("rho") <= 2 and checked.count("alpha_table") <= 2


def test_direct_construction_stays_checked():
    with pytest.raises(ValueError, match=r"mu must be in \(0, 1.5\]"):
        DecoyParams(math.nan, None, "exact_y0")
    with pytest.raises(ValueError, match="need 0 < nu < mu"):
        DecoyParams(0.5, 0.5, "exact_y0")


def test_ordered_sum_adds_left_to_right_on_every_python():
    # sum() gives 1.0 here from Python 3.12 on, which compensates rounding
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    assert ordered_sum(iter([1e100, 1.0, -1e100])) == 0.0
    assert ordered_sum([]) == 0.0
