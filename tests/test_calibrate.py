import io
import math
import warnings
from functools import reduce
from itertools import accumulate, product
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qkdmetro import calibrate as calibrate_module
from qkdmetro.calibrate import (Anchor, PARAM_REGISTRY, REFINEMENT_ROUNDS,
                                _overrides_for, anchor_residuals, apply_fit,
                                calibrate, load_anchors)
from qkdmetro.config import parse_config_file
from qkdmetro.network import (build_backbone_scenario, build_gpon_scenario,
                              with_overrides)
from reference_fit import reference_calibrate, reference_residuals

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BUNDLED_ANCHORS = (Path(calibrate_module.__file__).parent / "data"
                   / "measured_anchors.csv")

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


HEADER = "scenario,length_km,observable,target,weight\n"


@pytest.mark.parametrize("text,line,message", [
    (HEADER + "gpon,0,qber,0.04,1\ngpon,0,qber\n", 3, "expected 5 fields, got 3"),
    (HEADER + "gpon,0,qber,0.04,1,7\n", 2, "expected 5 fields, got 6"),
    (HEADER + "gpon,0,qber,0.04,1\n\ngpon,abc,qber,0.04,1\n", 4,
     "could not convert string to float: 'abc'"),
    (HEADER + "gpon,0,loss,0.04,1\n", 2, "unknown observable 'loss'"),
    (HEADER + "gpn,0,secret_bps,500,1\n", 2, "unknown scenario 'gpn'"),
    # kinds match exactly
    (HEADER + "gpon,0,qber,0.04,1\nGPON,0,qber,0.04,1\n", 3, "unknown scenario 'GPON'"),
    (HEADER + ",0,qber,0.04,1\n", 2, "unknown scenario ''"),
])
def test_load_anchors_names_the_bad_line(text, line, message):
    with pytest.raises(ValueError) as info:
        load_anchors(io.StringIO(text))
    assert str(info.value) == f"anchor CSV line {line}: {message}"


def test_load_anchors_reads_columns_in_any_order():
    text = "weight,target,observable,length_km,scenario\n1,0.04,qber,0,gpon\n"
    assert load_anchors(io.StringIO(text)) == [Anchor("gpon", 0.0, "qber", 0.04, 1.0)]


@pytest.mark.parametrize("free,message", [
    (["bogus"], "unknown free parameter 'bogus'; choose from "
                "rho, rho_beyond, launch_dbm, e_det, dark_count_prob"),
    (["rho", "rho"], "free parameter 'rho' given twice"),
    ([], "need at least one free parameter"),
])
def test_calibrate_rejects_unknown_and_repeated_free_parameters(free, message):
    anchors = load_anchors(io.StringIO(ANCHOR_CSV))
    with pytest.raises(ValueError) as info:
        calibrate(build_gpon_scenario(), anchors, free)
    assert str(info.value) == message


def test_anchor_validation():
    with pytest.raises(ValueError):
        Anchor("gpon", 0.0, "loss_db", 8.0)
    with pytest.raises(ValueError, match="unknown scenario 'GPON'"):
        Anchor("GPON", 0.0, "qber", 0.02)
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


# Fits of the bundled configs to the bundled anchors, recorded before each
# anchor's length stage was run once per fit: (config, free, params, residual).
PINNED_CALIBRATIONS = [
    ("gpon", "rho,launch_dbm",
     {"rho": 3.9365706686584026e-10, "launch_dbm": 0.9611859794169642},
     0.04712367249708885),
    ("backbone", "rho,launch_dbm",
     {"rho": 7.558090882831646e-08, "launch_dbm": -20.0},
     0.0003201366459538699),
    ("gpon", "rho,launch_dbm,e_det",
     {"rho": 6.309573444801942e-10, "launch_dbm": 0.03714346396628083,
      "e_det": 0.006363847515138027},
     0.02192399731096997),
    ("backbone_two_fiber", "rho,rho_beyond",
     {"rho": 5.12687728573784e-10, "rho_beyond": 9.651492309803147e-10},
     0.04316554726873215),
]


# Residuals re-recorded once the noise was combined from a per-watt, per-rho
# response, which reorders its float products; each stays within rel 1e-12
# of the one in PINNED_CALIBRATIONS, and the fitted params are unchanged.
RERECORDED_RESIDUALS = {
    ("backbone", "rho,launch_dbm"): 0.00032013664595381447,
    ("backbone_two_fiber", "rho,rho_beyond"): 0.043165547268731855,
}


@pytest.mark.parametrize("name,free,params,residual", PINNED_CALIBRATIONS)
def test_bundled_calibrations_are_pinned(name, free, params, residual):
    scenario, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    with BUNDLED_ANCHORS.open(encoding="utf-8") as fh:
        anchors = load_anchors(fh)
    result = calibrate(scenario, anchors, free.split(","))
    assert result.params == params
    assert result.residual == RERECORDED_RESIDUALS.get((name, free), residual)
    assert result.residual == pytest.approx(residual, rel=1e-12, abs=0.0)


def _bundled(name):
    scenario, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    with BUNDLED_ANCHORS.open(encoding="utf-8") as fh:
        return scenario, load_anchors(fh)


def _counting_evaluations(monkeypatch):
    """The link points that calibrate's objective evaluates, in order."""
    evaluated = []
    per_call = calibrate_module.evaluate_point
    monkeypatch.setattr(calibrate_module, "evaluate_point",
                        lambda point, *args: evaluated.append(point)
                        or per_call(point, *args))
    return evaluated


def test_calibrate_across_a_split_matches_per_call_evaluation(monkeypatch):
    scenario = build_backbone_scenario(split_km=4.5, rho_beyond=3e-10)
    anchors = [Anchor("backbone", 2.0, "secret_bps", 1500.0),
               Anchor("backbone", 4.5, "secret_bps", 900.0),
               Anchor("backbone", 6.0, "secret_bps", 500.0),
               Anchor("backbone", 10.0, "secret_bps", 100.0)]
    evaluated = _counting_evaluations(monkeypatch)
    result = calibrate(scenario, anchors, ["rho_beyond"])
    assert len(evaluated) > 0
    assert result.params == {"rho_beyond": 1.1340933712859888e-09}
    assert result.residual == 0.2770029753785478
    # the fit does not depend on the starting rho_beyond
    for start in (8e-10, 1e-7):
        assert calibrate(with_overrides(scenario, rho_beyond=start), anchors,
                         ["rho_beyond"]) == result

    # every length evaluated in full, from the length and not a link point
    assert reference_calibrate(scenario, anchors, ["rho_beyond"]) == result


def test_anchor_residuals_evaluate_each_length_once(monkeypatch):
    # the bundled gpon anchors hold two at 0 km
    scenario = build_gpon_scenario()
    with open(BUNDLED_ANCHORS, encoding="utf-8") as fh:
        anchors = [a for a in load_anchors(fh) if a.scenario == "gpon"]
    lengths = [a.length_km for a in anchors]
    assert len(set(lengths)) < len(lengths)
    values = {"rho": 1e-9, "launch_dbm": 0.0}
    expected = [anchor_residuals(scenario, [a], values)[0] for a in anchors]
    evaluated = _counting_evaluations(monkeypatch)
    assert anchor_residuals(scenario, anchors, values) == expected
    # each length once, in anchor order
    assert evaluated == [scenario.link.at(length)
                         for length in dict.fromkeys(lengths)]


# weight 0 makes every residual 0.0, so each grid point after the first
# reaches the best sum, 0.0, before its first length
@pytest.mark.parametrize("weighted", [True, False])
def test_grid_stops_at_the_first_new_length_the_sum_reaches(monkeypatch, weighted):
    # the bundled gpon anchors plus two at lengths already evaluated
    scenario = build_gpon_scenario()
    with open(BUNDLED_ANCHORS, encoding="utf-8") as fh:
        anchors = [a for a in load_anchors(fh) if a.scenario == "gpon"]
    anchors += [Anchor("gpon", 3.5, "qber", 0.05, 2.0),
                Anchor("gpon", 0.0, "secret_bps", 400.0, 0.5)]
    if not weighted:
        anchors = [a._replace(weight=0.0) for a in anchors]
    lengths = [a.length_km for a in anchors]
    new = [k for k in range(len(anchors)) if lengths[k] not in lengths[:k]]
    points = {length: scenario.link.at(length)
              for length in dict.fromkeys(lengths)}
    params = [PARAM_REGISTRY["rho"], PARAM_REGISTRY["launch_dbm"]]
    # the grid scan's evaluations: at each point, it stops at the first new
    # length that the residuals so far, added left to right as calibrate
    # adds them, reach the best full sum before it
    expected, best, cuts = [], math.inf, 0
    for xs in product(*[p.grid() for p in params]):
        full = reference_residuals(scenario, anchors, {
            p.name: p.from_x(x) for p, x in zip(params, xs)})
        sums = list(accumulate(full, initial=0.0))
        stop = next((k for k in new if sums[k] >= best), len(anchors))
        expected += [points[length] for length in dict.fromkeys(lengths[:stop])]
        cuts += stop < len(anchors)
        if stop == len(anchors) and sums[-1] < best:
            best = sums[-1]
    assert cuts > 0
    evaluated = _counting_evaluations(monkeypatch)
    scanned = []
    per_call = calibrate_module.golden_bracket
    monkeypatch.setattr(calibrate_module, "golden_bracket",
                        lambda *args, **kwargs: scanned.append(len(evaluated))
                        or per_call(*args, **kwargs))
    calibrate(scenario, anchors, [p.name for p in params])
    assert evaluated[:scanned[0]] == expected


# Link evaluations of each PINNED_CALIBRATIONS fit, the final breakdown's
# included.  Before the grid stopped evaluating a point that cannot beat
# the best one, each fit made 4 230, 2 820, 80 697 and 3 640; after, 1 783,
# 1 894, 28 461 and 2 130.  The backbone fit's refinement revisits points,
# whose values are now kept.
EVALUATION_CEILINGS = {
    ("gpon", "rho,launch_dbm"): 1783,
    ("backbone", "rho,launch_dbm"): 1710,
    ("gpon", "rho,launch_dbm,e_det"): 28461,
    ("backbone_two_fiber", "rho,rho_beyond"): 2130,
}


@pytest.mark.parametrize("name,free", [row[:2] for row in PINNED_CALIBRATIONS])
def test_grid_early_exit_changes_no_fit(monkeypatch, name, free):
    scenario, anchors = _bundled(name)
    evaluated = _counting_evaluations(monkeypatch)
    result = calibrate(scenario, anchors, free.split(","))
    assert 0 < len(evaluated) <= EVALUATION_CEILINGS[name, free]
    assert reference_calibrate(scenario, anchors, free.split(",")) == result


@pytest.mark.parametrize("name,free", [
    ("gpon", "dark_count_prob,e_det"),
    ("backbone", "rho"),
    ("gpon", "launch_dbm"),
])
def test_calibrate_matches_the_reference_fit(name, free):
    scenario, anchors = _bundled(name)
    assert calibrate(scenario, anchors, free.split(",")) == reference_calibrate(
        scenario, anchors, free.split(","))


@st.composite
def _drawn_anchors(draw, kind, lengths):
    """A qber anchor, a secret-rate one and a zero-rate (hinge) one, in any
    order, each at one of lengths, with weights that may be 0."""
    def anchor(observable, target):
        return Anchor(kind, draw(st.sampled_from(lengths)), observable, target,
                      draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 100.0)))
    return draw(st.permutations([
        anchor("qber", draw(st.floats(0.005, 0.2))),
        anchor("secret_bps", draw(st.floats(10.0, 5000.0))),
        anchor("secret_bps", 0.0),
    ]))


# A reference fit takes 50-90 ms, hence the few examples and lengths;
# the two-fiber link splits at 4.5 km.
@pytest.mark.parametrize("name,free,lengths", [
    ("gpon", "rho,launch_dbm", [0.0, 3.5]),
    ("backbone", "rho,launch_dbm", [0.0, 6.0]),
    ("backbone_two_fiber", "rho,rho_beyond", [0.0, 6.0]),
])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_calibrate_matches_the_reference_fit_on_drawn_anchors(name, free, lengths,
                                                              data):
    scenario, _ = _bundled(name)
    anchors = data.draw(_drawn_anchors(scenario.kind, lengths))
    assert calibrate(scenario, anchors, free.split(",")) == reference_calibrate(
        scenario, anchors, free.split(","))


def test_a_value_cut_short_is_never_kept(monkeypatch):
    # the refinement revisits every grid point, some of which the scan cut
    # short: each must read the full objective value
    scenario, anchors = _bundled("gpon")
    gpon_anchors = [a for a in anchors if a.scenario == "gpon"]
    param = PARAM_REGISTRY["rho"]
    evaluated = _counting_evaluations(monkeypatch)
    scanned, revisited = [], []
    per_call = calibrate_module.golden_bracket

    def revisiting(f, lo, hi, tol):
        scanned.append(len(evaluated))
        revisited.extend((x, -f(x)) for x in param.grid())
        return per_call(f, lo, hi, tol)

    monkeypatch.setattr(calibrate_module, "golden_bracket", revisiting)
    calibrate(scenario, anchors, ["rho"])
    lengths = {a.length_km for a in gpon_anchors}
    assert scanned[0] < len(param.grid()) * len(lengths)
    assert len(revisited) == REFINEMENT_ROUNDS * len(param.grid())
    for x, value in revisited:
        assert value == reduce(add, reference_residuals(
            scenario, gpon_anchors, {"rho": param.from_x(x)}), 0.0)


# which overrides one free parameter's value makes (see _overrides_for)
OVERRIDE_KEYS = {
    "rho": {"rho"}, "rho_beyond": {"rho_beyond"},
    "launch_dbm": {"down_power_dbm", "up_power_dbm"},
    "e_det": {"misalignment_error"}, "dark_count_prob": {"dark_count_prob"},
}


@pytest.mark.parametrize("name,free,groups", [
    ("gpon", "rho,launch_dbm,e_det", [["rho"], ["launch_dbm"], ["e_det"]]),
    ("backbone_two_fiber", "rho,rho_beyond", [["rho"], ["rho_beyond"]]),
    # both set the detector, which is built once per pair
    ("gpon", "dark_count_prob,e_det,rho", [["dark_count_prob", "e_det"], ["rho"]]),
])
def test_each_fitted_value_is_applied_once(monkeypatch, name, free, groups):
    scenario, anchors = _bundled(name)
    applied = []
    per_call = calibrate_module.with_overrides
    monkeypatch.setattr(calibrate_module, "with_overrides",
                        lambda s, **overrides: applied.append(overrides)
                        or per_call(s, **overrides))
    result = calibrate(scenario, anchors, free.split(","))
    # the last applies the fitted values, for the residual breakdown
    assert applied.pop() == _overrides_for(scenario.kind, result.params)
    key_sets = [set().union(*[OVERRIDE_KEYS[n] for n in group]) for group in groups]
    for key_set in key_sets:
        values = [tuple(sorted(o.items())) for o in applied if o.keys() == key_set]
        assert len(values) > 1
        assert len(set(values)) == len(values)
    assert all(o.keys() in key_sets for o in applied)


def test_no_cache_outlives_its_fit():
    gpon, anchors = _bundled("gpon")
    backbone, _ = _bundled("backbone")
    # the same free parameters on scenarios that differ in what they leave fixed
    scenarios = [gpon, with_overrides(gpon, duty_cycle=0.5, misalignment_error=0.01),
                 backbone, gpon]
    fits = [calibrate(s, anchors, ["rho", "launch_dbm"]) for s in scenarios]
    assert fits[0] == fits[3]
    for scenario, fit in zip(scenarios[:3], fits):
        assert fit == reference_calibrate(scenario, anchors, ["rho", "launch_dbm"])


@pytest.mark.parametrize("free", [["rho_beyond"], ["rho", "rho_beyond"],
                                  ["launch_dbm", "rho_beyond"]])
def test_free_rho_beyond_needs_a_split(free):
    scenario, anchors = _bundled("backbone")
    with pytest.raises(ValueError) as exc:
        calibrate(scenario, anchors, free)
    assert str(exc.value) == "split_km and rho_beyond must be set together"


@pytest.mark.parametrize("kind,other", [("backbone", "gpon"), ("gpon", "backbone")])
def test_anchor_residuals_reject_anchors_of_another_kind(kind, other):
    # calibrate keeps its kind's anchors; anchor_residuals is given them
    scenario, anchors = _bundled(kind)
    for given in ([a for a in anchors if a.scenario == other], anchors):
        with pytest.raises(ValueError) as exc:
            anchor_residuals(scenario, given, {})
        assert str(exc.value) == f"a {other} anchor does not apply to a {kind} scenario"
