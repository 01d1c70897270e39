import math
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qkdmetro import network
from qkdmetro.calibrate import Anchor, calibrate, load_anchors
from qkdmetro.cli import main
from qkdmetro.config import parse_config_file
from qkdmetro.errors import BoundCollapse, QkdMetroError
from qkdmetro.keyrate import DistillationRates, YieldGain, apply_deadtime, optimize_mu
from qkdmetro.network import (LAUNCH_PLANS, QUANTUM_NM, QkdPerformance,
                              build_backbone_scenario, build_gpon_scenario,
                              evaluate_link, evaluate_point, with_overrides)
from qkdmetro.noise import NoiseBudget, raman_length_factors
from qkdmetro.optical_path import FiberSpan, Filter, MuxDemux, RoadmNode, Splitter
from qkdmetro.sweep import run_sweep

from light_path_oracle import background_yield, build_light_path, path_loss
from parameter_oracle import flat_bits, flatten, key_rate


def _loss(scenario, length_km, wavelength_nm=1550.0):
    return scenario.link.loss_db(length_km, wavelength_nm)


def test_backbone_zero_length_aggregate_loss():
    assert _loss(build_backbone_scenario(), 0.0) == pytest.approx(8.0, abs=0.01)


def test_gpon_zero_length_aggregate_loss():
    assert _loss(build_gpon_scenario(), 0.0) == pytest.approx(9.0, abs=0.01)


def test_evaluate_link_deterministic():
    scenario = build_gpon_scenario()
    a = evaluate_link(scenario, 2.0)
    b = evaluate_link(scenario, 2.0)
    assert a == b


@pytest.mark.parametrize("build", [build_backbone_scenario, build_gpon_scenario])
def test_monotonic_in_length(build):
    scenario = build()
    lengths = [0.5 * i for i in range(31)]  # 0 to 15 km
    perfs = [evaluate_link(scenario, L, on_collapse="zero") for L in lengths]
    secrets = [p.rates.secret_bps for p in perfs]
    qbers = [p.yield_gain.e_mu for p in perfs]
    assert all(a >= b for a, b in zip(secrets, secrets[1:]))
    assert all(a <= b for a, b in zip(qbers, qbers[1:]))


@pytest.mark.parametrize("build,halved", [
    (build_backbone_scenario, 0.4),
    (build_gpon_scenario, 0.4),
])
def test_halving_filter_width_strictly_reduces_qber(build, halved):
    wide = build()
    narrow = build(filter_width_nm=halved)
    for length in (0.0, 2.0, 4.0):
        q_wide = evaluate_link(wide, length, on_collapse="zero").yield_gain.e_mu
        q_narrow = evaluate_link(narrow, length, on_collapse="zero").yield_gain.e_mu
        assert q_narrow < q_wide


def test_connector_rule_on_backbone():
    scenario = build_backbone_scenario()
    count = lambda L: network._variable_layout(scenario.link.terms, L)[1]
    assert count(0.0) == 0
    # the least positive length starts a span, though its quotient by the
    # spacing underflows to 0.0
    assert count(5e-324) == 1
    assert count(0.5) == 1
    assert count(2.5) == 1
    assert count(2.6) == 2
    assert count(10.0) == 4
    # connectors are loss-only: the jump at 2.5 -> 2.6 km includes one 0.5 dB step
    l25 = _loss(scenario, 2.5)
    l26 = _loss(scenario, 2.6)
    assert l26 - l25 == pytest.approx(0.5 + 0.1 * 0.21, abs=1e-9)


def test_gpon_has_no_connectors():
    assert network._variable_layout(build_gpon_scenario().link.terms, 10.0)[1] == 0


# The quantum channel's passband: a CWDM channel's 13 nm (ITU-T G.694.2)
# on the backbone, the 10 nm video band on gpon.
QUANTUM_PASSBAND_NM = {"backbone": 13.0, "gpon": 10.0}


@pytest.mark.parametrize("kind", sorted(LAUNCH_PLANS))
def test_launches_lie_outside_the_quantum_passband_and_receiver_filter(kind):
    scenario = network.BUILDERS[kind]()
    (receiver_filter,) = [e for e in scenario.link.tail if isinstance(e, Filter)]
    assert receiver_filter.center_nm == QUANTUM_NM
    for wavelength_nm, _, _, _, _ in LAUNCH_PLANS[kind]:
        assert abs(wavelength_nm - QUANTUM_NM) > QUANTUM_PASSBAND_NM[kind] / 2.0
        assert not receiver_filter.in_band(wavelength_nm)


def test_backbone_channels_sit_on_the_cwdm_grid():
    # ITU-T G.694.2: 18 channels 20 nm apart, 1270 to 1610 nm nominal
    wavelengths = [QUANTUM_NM, *(wl for wl, _, _, _, _ in LAUNCH_PLANS["backbone"])]
    assert len(set(wavelengths)) == len(wavelengths)
    for wavelength_nm in wavelengths:
        assert 1270.0 <= wavelength_nm <= 1610.0
        assert (wavelength_nm - 1270.0) % 20.0 == 0.0


def test_gpon_launches_use_the_gpon_bands():
    # ITU-T G.984: downstream 1480-1500 nm toward the ONT, upstream
    # 1260-1360 nm toward the OLT; the quantum channel takes the video band
    (down_nm, _, down_dir, _, _), (up_nm, _, up_dir, _, _) = LAUNCH_PLANS["gpon"]
    assert 1480.0 <= down_nm <= 1500.0 and down_dir == "co"
    assert 1260.0 <= up_nm <= 1360.0 and up_dir == "counter"
    assert 1550.0 <= QUANTUM_NM <= 1560.0


# Each builder's chain as (element type, ROADM mode), head then tail; the
# variable span sits between them.
CHAINS = {
    "backbone": (((RoadmNode, "add"),),
                 ((RoadmNode, "express"), (FiberSpan, None), (RoadmNode, "drop"),
                  (Filter, None))),
    "gpon": (((MuxDemux, None),),
             ((Splitter, None), (FiberSpan, None), (Filter, None))),
}


def _shape(elements):
    return tuple((type(e), getattr(e, "mode", None)) for e in elements)


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_builder_states_its_chain(kind):
    link = network.BUILDERS[kind]().link
    assert (_shape(link.head), _shape(link.tail)) == CHAINS[kind]


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_fixed_span_is_the_variable_fiber_at_fixed_km(kind):
    table = ((1310.0, 0.4), (1490.0, 0.3), (1550.0, 0.25))
    link = network.BUILDERS[kind](alpha_table=table, fixed_km=0.3).link
    assert link.var_span == FiberSpan(0.0, table)
    (fixed,) = [e for e in link.tail if isinstance(e, FiberSpan)]
    assert fixed == FiberSpan(0.3, table)
    assert link.terms[4] == 0.25  # alpha_q


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_receiver_filter_takes_the_filter_parameters(kind):
    link = network.BUILDERS[kind](filter_width_nm=0.4, filter_insertion_db=1.0,
                                  filter_rejection_db=70.0).link
    assert link.tail[-1] == Filter(QUANTUM_NM, 0.4, 1.0, 70.0)


def test_builders_split_the_no_fiber_loss_into_fixed_elements():
    backbone = build_backbone_scenario().link
    assert backbone.head == (RoadmNode("add", 2.0, 30.0),)
    express, _, drop, _ = backbone.tail
    assert express == RoadmNode("express", 2.5, 30.0)
    assert drop.isolation_db == 30.0
    gpon = build_gpon_scenario().link
    assert gpon.head == (MuxDemux(1.0, 30.0),)
    # the splitter excess is always trimmed to the 9 dB target
    assert gpon.tail[0].excess_loss_db > 0.0


# Elements that leave no room for the trimmed receiver-side element of a
# supported split: each builder raises, as does with_overrides.
OVER_TARGET = [
    ("backbone", {"filter_insertion_db": 20.0}),
    ("backbone", {"fixed_km": 20.0}),
    ("gpon", {"filter_insertion_db": 20.0}),
    ("gpon", {"fixed_km": 40.0}),
    ("gpon", {"splitter_ratio": 4, "filter_insertion_db": 1.5 + 0.46}),
]


@pytest.mark.parametrize("kind,overrides", OVER_TARGET)
def test_elements_over_the_no_fiber_target_are_rejected(kind, overrides):
    message = "element defaults exceed the no-fiber loss target"
    with pytest.raises(ValueError, match=f"^{message}$"):
        network.BUILDERS[kind](**overrides)
    with pytest.raises(ValueError, match=f"^{message}$"):
        with_overrides(network.BUILDERS[kind](), **overrides)


def test_gpon_excess_is_trimmed_to_the_target_down_to_zero():
    # the bundled split keeps 0.459 dB of excess; 0.45 dB more filter loss
    # leaves a few mdB, all trimmed to the 9 dB aggregate
    assert build_gpon_scenario().link.tail[0].excess_loss_db == pytest.approx(
        0.459, abs=1e-3)
    tight = build_gpon_scenario(filter_insertion_db=1.5 + 0.45)
    assert 0.0 < tight.link.tail[0].excess_loss_db < 0.01
    assert _loss(tight, 0.0) == pytest.approx(9.0, abs=1e-12)


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_an_empty_attenuation_table_is_a_range_error(kind):
    message = "fiber attenuation must be finite and positive"
    with pytest.raises(ValueError, match=f"^{message}$"):
        network.BUILDERS[kind](alpha_table=())
    with pytest.raises(ValueError, match=f"^{message}$"):
        with_overrides(network.BUILDERS[kind](), alpha_table=())


# the element split is the builders' constants, and e0, the background
# counts' error rate, the parameter stage's: no parameter of theirs
ELEMENT_SPLIT_NAMES = ("base_loss_db", "roadm_express_db", "roadm_add_drop_db",
                       "roadm_isolation_db", "mux_insertion_db", "mux_isolation_db",
                       "splitter_excess_db", "e0")


@pytest.mark.parametrize("name", ELEMENT_SPLIT_NAMES)
@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_element_split_is_no_scenario_parameter(kind, name):
    message = f"unknown scenario parameters: ['{name}']"
    with pytest.raises(ValueError) as exc:
        network.BUILDERS[kind](**{name: 1.0})
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        with_overrides(network.BUILDERS[kind](), **{name: 1.0})
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_structural_override_compiles_the_new_chain(kind):
    parent = network.BUILDERS[kind]()
    child = with_overrides(parent, fixed_km=1.0)
    assert child.link is not parent.link
    assert child.link == network.BUILDERS[kind](fixed_km=1.0).link
    assert child.link.head == parent.link.head
    (fixed,) = [e for e in child.link.tail if isinstance(e, FiberSpan)]
    assert fixed.length_km == 1.0


def _after_last_fiber(tail, element):
    last = max(i for i, e in enumerate(tail) if isinstance(e, FiberSpan))
    return (*tail[:last + 1], element, *tail[last + 1:])


# Chains that neither builder states, restated from a builder's: compile
# takes any head of lumped elements and any tail that holds a fixed span.
RESTATED_CHAINS = {
    "second_fixed_span": lambda link: (link.head, _after_last_fiber(
        link.tail, link.var_span._replace(length_km=0.7))),
    "two_lumped_head_elements": lambda link: ((MuxDemux(0.8, 25.0), *link.head),
                                              link.tail),
    "longer_terminal_chain": lambda link: (link.head, (*link.tail[:-1],
                                                       MuxDemux(0.6, 20.0),
                                                       link.tail[-1])),
}


@pytest.mark.parametrize("chain", sorted(RESTATED_CHAINS))
@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_compile_takes_any_stated_chain(kind, chain):
    built = network.BUILDERS[kind]()
    head, tail = RESTATED_CHAINS[chain](built.link)
    link = network.LinkModel.compile(kind, built.params, head, built.link.var_span,
                                     tail)
    scenario = built._replace(link=link)
    for length in (0.0, 2.6, 7.0):
        _assert_same_outcome(_outcome(evaluate_link, scenario, length, "zero"),
                             _outcome(_reference_link, scenario, length))
        path = build_light_path(scenario, length)
        assert path.elements[:len(head)] == head
        assert path.elements[len(path.elements) - len(tail):] == tail
        for wl in (1310.0, 1490.0, QUANTUM_NM):
            assert link.loss_db(length, wl) == path_loss(path, wl)


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_compile_takes_no_fiber_in_the_head(kind):
    built = network.BUILDERS[kind]()
    link = built.link
    with pytest.raises(ValueError, match="^the head before the variable span holds "
                                         "a fiber$"):
        network.LinkModel.compile(kind, built.params, (link.var_span, *link.head),
                                  link.var_span, link.tail)


def test_with_overrides():
    scenario = build_gpon_scenario()
    tweaked = with_overrides(scenario, mu=0.6, down_power_dbm=-3.0)
    assert tweaked.decoy.mu == 0.6
    assert tweaked.params["down_power_dbm"] == -3.0
    assert (tweaked.inputs.launch_w[0]
            == build_gpon_scenario(down_power_dbm=-3.0).inputs.launch_w[0])
    assert scenario.decoy.mu == 0.79  # original untouched


def test_per_evaluation_override_keeps_the_structure():
    for parent in (build_backbone_scenario(), build_gpon_scenario()):
        child = with_overrides(parent, rho=1e-9, mu=0.5, duty_cycle=0.5)
        assert child.link is parent.link
        assert child.params["rho"] == 1e-9 and parent.params["rho"] == 3e-10
        fresh = network.BUILDERS[parent.kind](**child.params)
        assert type(child) is network.Scenario
        # with_overrides builds the child with tuple.__new__, without
        # running Scenario.__new__, so a check added to it would be skipped
        assert "__new__" not in vars(network.Scenario)
        assert child == with_overrides(parent, rho=1e-9, mu=0.5, duty_cycle=0.5)
        assert child != parent
        with pytest.raises(AttributeError):
            child.inputs = ()
        assert (evaluate_link(child, 3.0, on_collapse="zero")
                == evaluate_link(fresh, 3.0, on_collapse="zero"))
    gpon = build_gpon_scenario()
    rebuilt = with_overrides(gpon, fixed_km=1.0)
    assert rebuilt.link != gpon.link

    # one parameter of each evaluation group in turn: its Inputs field is
    # rebuilt, and every other one is the parent's own object
    rebuilt_fields = set()
    for build in network.BUILDERS.values():
        parent = build(split_km=1.0, rho_beyond=1e-9)
        for name, value in [("dark_count_prob", 1e-6), ("mu", 0.5), ("f", 1.2),
                            ("duty_cycle", 0.5), ("rho", 1e-9), ("rho_beyond", 2e-9)]:
            child = with_overrides(parent, **{name: value})
            (field,) = [i for i, names, _ in network._EVALUATION_GROUPS if name in names]
            rebuilt_fields.add(field)
            assert child.link is parent.link
            assert child.inputs[field] != parent.inputs[field]
            assert all(ours is theirs for i, (ours, theirs)
                       in enumerate(zip(child.inputs, parent.inputs)) if i != field)
    assert len(rebuilt_fields) == len(network.Inputs._fields)


@pytest.mark.parametrize("overrides,message", [
    ({"co_power_dbm": 0.0}, "unknown scenario parameters"),
    ({"rho": -1e-10}, "raman coefficient must be finite and non-negative"),
    ({"rho_beyond": -1e-9, "split_km": 1.0},
     "raman coefficient must be finite and non-negative"),
    ({"efficiency": 0.0}, "detector efficiency must be in"),
    ({"pulse_rate_hz": 0.0}, "pulse rate must be finite and positive"),
    ({"mu": 0.01, "nu": 0.02}, "need 0 < nu < mu"),
    ({"q": 0.0}, "sifting factor must be in"),
    ({"rho": math.inf}, "raman coefficient must be finite"),
    ({"rho_beyond": math.nan, "split_km": 1.0}, "raman coefficient must be finite"),
    ({"down_power_dbm": math.nan}, "launch power must be finite"),
    ({"downstream_atten_db": math.inf}, "downstream attenuation must be finite"),
])
def test_per_evaluation_override_keeps_the_builder_checks(overrides, message):
    gpon = build_gpon_scenario()
    with pytest.raises(ValueError, match=message):
        build_gpon_scenario(**overrides)
    with pytest.raises(ValueError, match=message):
        with_overrides(gpon, **overrides)


def test_reused_structure_still_checks_split_km():
    # split_km's range is checked before split_km and rho_beyond together
    message = "split length must be finite and non-negative"
    with pytest.raises(ValueError, match=message):
        build_gpon_scenario(split_km=-1.0)
    with pytest.raises(ValueError, match=message):
        with_overrides(build_gpon_scenario(rho_beyond=1e-9, split_km=2.0),
                       split_km=-1.0)


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_rho_beyond_override_is_checked_against_split_km(kind):
    # the builders' check on the per-evaluation path: rho_beyond unset on a
    # split scenario, or set on one whose span is whole (a lone key given to
    # a builder is in test_cli's bad-config table)
    build = network.BUILDERS[kind]
    split = build(split_km=2.0, rho_beyond=8e-10)
    for scenario, rho_beyond in ((split, None), (build(), 1e-9)):
        with pytest.raises(ValueError, match="split_km and rho_beyond must be set "
                                             "together"):
            with_overrides(scenario, rho_beyond=rho_beyond)
    assert with_overrides(split, rho_beyond=1e-9).link is split.link
    assert with_overrides(split, split_km=None, rho_beyond=None).link == build().link


def test_two_fiber_type_link():
    base = build_gpon_scenario()
    mixed = build_gpon_scenario(rho_beyond=3e-9, split_km=2.0)
    # identical below the split point ...
    assert (evaluate_link(base, 1.5).noise.total_y0
            == pytest.approx(evaluate_link(mixed, 1.5).noise.total_y0))
    # ... noisier beyond it, at identical loss
    far_base = evaluate_link(base, 6.0, on_collapse="zero")
    far_mixed = evaluate_link(mixed, 6.0, on_collapse="zero")
    assert far_mixed.loss_db == pytest.approx(far_base.loss_db)
    assert far_mixed.noise.total_y0 > far_base.noise.total_y0


def test_negative_length_is_rejected():
    scenario = build_gpon_scenario()
    for length in (-1.0, -math.inf):
        for stage in (lambda: scenario.link.at(length),
                      lambda: _loss(scenario, length),
                      lambda: evaluate_link(scenario, length)):
            with pytest.raises(ValueError, match="length must be non-negative"):
                stage()


@pytest.mark.parametrize("length", [math.nan, math.inf])
@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_non_finite_length_is_named(kind, length):
    # not a QBER of nan from a Y0 that overflowed, nor a loss of nan
    scenario = network.BUILDERS[kind]()
    for stage in (lambda: scenario.link.at(length),
                  lambda: _loss(scenario, length),
                  lambda: evaluate_link(scenario, length)):
        with pytest.raises(ValueError) as exc:
            stage()
        assert str(exc.value) == f"length must be finite, got {length!r} km"


def test_duty_cycle_zero_is_dark_channel():
    scenario = build_gpon_scenario(duty_cycle=0.0)
    perf = evaluate_link(scenario, 3.0)
    assert perf.noise.total_y0 == scenario.detector.dark_count_prob


def test_yield_gain_within_bounds():
    perf = evaluate_link(build_gpon_scenario(), 2.0)
    yg = perf.yield_gain
    for value in (yg.q_mu, yg.e_mu, yg.y1_low, yg.e1_up, yg.q1_low):
        assert 0.0 <= value <= 1.0
    assert yg.q1_low <= yg.q_mu


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Model outputs of the bundled configs at the start, middle and end of each
# [sweep]: (config, length_km, loss_db, y0, q_mu, e_mu, secret_bps).
PINNED_LINKS = [
    ("backbone", 0.0, 8.0, 3.1806895135984e-05, 0.012474405815317847,
     0.0022723364068664947, 2290.1094316386925),
    ("backbone", 5.0, 10.05, 0.0001889489705187728, 0.007968102959542653,
     0.012832871232662807, 1113.8002711250906),
    ("backbone", 10.0, 12.100000000000001, 0.0002124355234242939,
     0.005071691467852836, 0.021901375184323137, 540.1078751018777),
    ("gpon", 0.0, 9.0, 0.0008913593462371521, 0.010787577057513527,
     0.04223153062091405, 375.9233422084674),
    ("gpon", 2.5, 9.525, 0.00097209469361811, 0.009746440845299296,
     0.05076947583377459, 97.74385953228072),
    ("gpon", 5.0, 10.05, 0.001032655386225995, 0.008811809375249875,
     0.05947777860175957, 0.0),
    ("backbone_two_fiber", 0.0, 8.0, 3.1806895135984e-05, 0.012474405815317847,
     0.0022723364068664947, 2290.1094316386925),
    ("backbone_two_fiber", 5.0, 10.05, 0.00021708920765166405,
     0.007996243196675544, 0.014547301145520157, 1060.2831361663998),
    ("backbone_two_fiber", 10.0, 12.100000000000001, 0.00038807285980437423,
     0.005247328804232916, 0.037904178157498046, 262.7428515932252),
]

PINNED_MU_AT_2_KM = {
    "backbone": 0.8207396773559508,
    "gpon": 0.7207548421907096,
    "backbone_two_fiber": 0.8207396773559508,
}


@pytest.mark.parametrize("name,length,loss,y0,q_mu,e_mu,secret", PINNED_LINKS)
def test_bundled_config_link_values_are_pinned(name, length, loss, y0, q_mu, e_mu,
                                               secret):
    scenario, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    perf = evaluate_link(scenario, length, on_collapse="zero")
    assert perf.loss_db == pytest.approx(loss, rel=1e-12)
    assert perf.noise.total_y0 == pytest.approx(y0, rel=1e-12)
    assert perf.yield_gain.q_mu == pytest.approx(q_mu, rel=1e-12)
    assert perf.yield_gain.e_mu == pytest.approx(e_mu, rel=1e-12)
    assert perf.rates.secret_bps == pytest.approx(secret, rel=1e-12)


@pytest.mark.parametrize("name", sorted(PINNED_MU_AT_2_KM))
def test_bundled_config_optimal_mu_is_pinned(name):
    scenario, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    ratio = scenario.decoy.nu / scenario.decoy.mu

    def rate_of_mu(mu):
        s = with_overrides(scenario, mu=mu, nu=mu * ratio)
        return evaluate_link(s, 2.0, on_collapse="zero").rates.secret_bps

    assert optimize_mu(rate_of_mu) == pytest.approx(PINNED_MU_AT_2_KM[name], rel=1e-12)


def _reference_link(scenario, length_km):
    """evaluate_link(..., on_collapse="zero") from the per-length LightPath."""
    path = build_light_path(scenario, length_km)
    nb = background_yield(path, scenario.detector, scenario.filter_width_nm,
                          scenario.params["duty_cycle"])
    return key_rate(path_loss(path, QUANTUM_NM), nb, scenario.detector, scenario.decoy,
                    scenario.keyrate_params, "zero")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


_LAUNCH_POWERS = {"backbone": ("co_power_dbm", "counter_power_dbm"),
                  "gpon": ("down_power_dbm", "up_power_dbm")}


@st.composite
def _link_cases(draw):
    name = draw(st.sampled_from(["backbone", "gpon", "backbone_two_fiber"]))
    base, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    # structure: a new one compiles a new model
    structure = {}
    if draw(st.booleans()):
        structure["split_km"] = draw(st.sampled_from([0.0, 1.0, 2.5, 4.5, 6.3]))
        structure["rho_beyond"] = 8e-10
    if draw(st.booleans()):
        structure["fixed_km"] = draw(st.sampled_from([0.0, 0.1, 1.7]))
        structure["filter_width_nm"] = draw(st.sampled_from([0.2, 0.8, 3.0]))
    if base.kind == "backbone" and draw(st.booleans()):
        structure["connector_every_km"] = draw(st.sampled_from([1.0, 2.5, 3.3]))
        structure["connector_loss_db"] = draw(st.sampled_from([0.0, 0.3, 0.5]))
    parent = with_overrides(base, **structure) if structure else base

    # every per-evaluation parameter, so the child reuses the parent's model
    logs = lambda lo, hi: st.floats(lo, hi).map(lambda x: 10.0 ** x)
    mu = draw(st.floats(0.05, 1.5))
    child = {
        "rho": draw(logs(-11, -8)),
        "duty_cycle": draw(st.floats(0.0, 1.0)),
        "efficiency": draw(st.floats(0.01, 1.0)),
        "gate_width_s": draw(logs(-10, -8)),
        "dark_count_prob": draw(logs(-7, -4)),
        "deadtime_s": draw(st.sampled_from([0.0, 1e-6, 1e-5])),
        "misalignment_error": draw(st.floats(0.0, 0.1)),
        "pulse_rate_hz": draw(logs(5, 9)),
        "mu": mu,
        "nu": mu * draw(st.floats(0.01, 0.5)),
        "estimator_mode": draw(st.sampled_from(["exact_y0", "one_decoy_bound"])),
        "q": draw(st.floats(0.1, 1.0)),
        "f": draw(st.floats(1.0, 1.5)),
        "budget_db": draw(st.floats(5.0, 30.0)),
    }
    # rho_beyond is set with split_km, on a split parent only
    if parent.params["split_km"] is not None:
        child["rho_beyond"] = draw(logs(-11, -8))
    for key in _LAUNCH_POWERS[base.kind]:
        child[key] = draw(st.floats(-20.0, 10.0))
    if base.kind == "gpon":
        child["downstream_atten_db"] = draw(st.floats(0.0, 10.0))

    split = parent.params["split_km"]
    edges = [] if split is None else [split, math.nextafter(split, math.inf),
                                      split + 1e-9]
    length = st.one_of(st.floats(0.0, 30.0),
                       st.integers(0, 10).map(lambda k: 2.5 * k),
                       *([st.sampled_from(edges)] if edges else []))
    lengths = draw(st.lists(length, min_size=1, max_size=4))

    # path-loss wavelengths: the launch and quantum channels, the receiver
    # filter's band edges and the floats just outside them, the clamped
    # ends of the attenuation table, and drawn ones
    half = parent.filter_width_nm / 2.0
    wavelengths = [1310.0, 1490.0, 1550.0, 1550.0 - half, 1550.0 + half,
                   math.nextafter(1550.0 - half, -math.inf),
                   math.nextafter(1550.0 + half, math.inf), 1270.0, 1610.0]
    wavelengths += draw(st.lists(st.floats(1200.0, 1700.0), max_size=3))
    return parent, child, lengths, wavelengths


@settings(max_examples=200, deadline=None)
@given(_link_cases())
def test_evaluate_link_matches_light_path_reference(case):
    parent, overrides, lengths, wavelengths = case
    child = with_overrides(parent, **overrides)
    assert child.link is parent.link  # the shared model under test
    for scenario in (parent, child):
        for length in lengths:
            _assert_same_outcome(_outcome(evaluate_link, scenario, length, "zero"),
                                 _outcome(_reference_link, scenario, length))
            # path-loss at every wavelength
            path = build_light_path(scenario, length)
            for wl in wavelengths:
                assert scenario.link.loss_db(length, wl) == path_loss(path, wl)
    # the length stage run once and reused, on the child itself and on the
    # parent: the two share the model, so they cut the span alike
    for length in lengths:
        reference = _outcome(_flat_reference_link, child, length)
        for source in (child, parent):
            assert _outcome(_via_point, child, source, length) == reference


def _assert_matches_reference(scenario, lengths):
    for length in lengths:
        _assert_same_outcome(_outcome(evaluate_link, scenario, length, "zero"),
                             _outcome(_reference_link, scenario, length))
        path = build_light_path(scenario, length)
        for wl in (1310.0, 1490.0, QUANTUM_NM):
            assert scenario.link.loss_db(length, wl) == path_loss(path, wl)


def _layout(scenario, length):
    return network._variable_layout(scenario.link.terms, length)


# The corners of the compiled walk (LinkModel.at), each checked to be
# reached and to give the reference's outcome bit for bit.

@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_walk_at_zero_lengths_matches_the_reference(kind):
    scenario = network.BUILDERS[kind]()
    for length in (0.0, -0.0):
        (piece,), n_conn = _layout(scenario, length)
        assert math.copysign(1.0, piece) == math.copysign(1.0, length)
        assert n_conn == 0
    _assert_matches_reference(scenario, (0.0, -0.0))


@pytest.mark.parametrize("name", ["backbone", "backbone_two_fiber"])
def test_walk_at_connector_boundaries_matches_the_reference(name):
    scenario, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    every = scenario.params["connector_every_km"]
    for k in range(1, 9):
        boundary = k * every
        above = math.nextafter(boundary, math.inf)
        assert _layout(scenario, boundary)[1] == k
        assert _layout(scenario, above)[1] == k + 1
        _assert_matches_reference(scenario, (boundary, above))


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_walk_at_the_split_matches_the_reference(kind):
    scenario = network.BUILDERS[kind](split_km=2.0, rho_beyond=8e-10)
    above = math.nextafter(2.0, math.inf)
    assert _layout(scenario, 2.0)[0] == (2.0,)
    assert _layout(scenario, above)[0] == (2.0, above - 2.0)
    _assert_matches_reference(scenario, (2.0, above))


def test_walk_through_thousands_of_connectors_matches_the_reference():
    scenario = build_backbone_scenario(connector_every_km=0.001)
    assert _layout(scenario, 2.5)[1] == 2500
    _assert_matches_reference(scenario, (2.5,))


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_walk_in_a_lossless_raman_span_matches_the_reference(kind):
    # a pivot of the least float: the attenuation is positive, but its
    # Raman alpha underflows to 0.0, so raman_length_factors' lossless
    # branch runs (num / den = L / 1)
    table = ((1310.0, 5e-324), (1490.0, 5e-324), (1550.0, 5e-324))
    scenario = network.BUILDERS[kind](alpha_table=table)
    alpha_q, raman_alpha = scenario.link.terms[4], scenario.link.terms[8]
    assert alpha_q == 5e-324
    assert raman_alpha == 0.0
    assert raman_length_factors(2.0, alpha_q)[2:] == (2.0, 1.0)
    _assert_matches_reference(scenario, (0.0, 2.0, 7.5))


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_walk_at_duty_cycle_zero_matches_the_reference(kind):
    scenario = network.BUILDERS[kind](duty_cycle=0.0)
    assert scenario.inputs.launch_w == (0.0, 0.0)
    # the response is the same; the parameter stage skips every launch
    _, response = scenario.link.at(2.0)
    assert all(terms and crosstalk > 0.0 for _, terms, crosstalk in response)
    _assert_matches_reference(scenario, (0.0, 2.0, 7.5))


# Relations of the length stage that hold whatever the parameters.

@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(0.15, 0.4), every=st.floats(0.5, 10.0),
       connector_db=st.floats(0.1, 1.0), data=st.data())
def test_backbone_loss_is_fiber_plus_started_connectors(alpha, every, connector_db,
                                                        data):
    scenario = build_backbone_scenario(
        alpha_table=((1310.0, 0.35), (1490.0, 0.24), (1550.0, alpha)),
        connector_every_km=every, connector_loss_db=connector_db)
    length = data.draw(st.one_of(
        st.floats(1.0, 60.0),
        st.integers(1, 24).map(lambda k: k * every),
        st.integers(1, 24).map(lambda k: math.nextafter(k * every, math.inf))))
    link = scenario.link
    # alpha_1550 * L + connector_loss_db * ceil(L / connector_every_km)
    expected = alpha * length + connector_db * math.ceil(length / every)
    assert link.at(length)[0] - link.at(0.0)[0] == pytest.approx(expected, rel=1e-12)


@st.composite
def _noise_cases(draw):
    """A scenario of either kind, with or without a split, its launch
    powers and rho drawn, and a length."""
    kind = draw(st.sampled_from(sorted(CHAINS)))
    params = {"rho": 10.0 ** draw(st.floats(-11.0, -8.0)),
              "filter_width_nm": draw(st.floats(0.1, 5.0))}
    if draw(st.booleans()):
        params["split_km"] = draw(st.floats(0.0, 10.0))
        params["rho_beyond"] = 10.0 ** draw(st.floats(-11.0, -8.0))
    for _, power, _, _, _ in LAUNCH_PLANS[kind]:
        params[power] = draw(st.floats(-20.0, 10.0))
    return network.BUILDERS[kind](**params), draw(st.floats(0.0, 30.0))


def _noise(scenario, length):
    return evaluate_link(scenario, length, on_collapse="zero").noise


@settings(max_examples=100, deadline=None)
@given(_noise_cases())
def test_doubling_the_filter_width_doubles_the_noise(case):
    scenario, length = case
    doubled = with_overrides(scenario, filter_width_nm=2.0 * scenario.filter_width_nm)
    base, wide = _noise(scenario, length), _noise(doubled, length)
    for field in ("forward_raman_w", "backward_raman_w", "crosstalk_w"):
        assert getattr(wide, field) == pytest.approx(2.0 * getattr(base, field),
                                                     rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(_noise_cases(), st.floats(0.1, 10.0))
def test_rho_times_k_with_launches_over_k_keeps_the_raman_noise(case, k):
    scenario, length = case
    p = scenario.params
    overrides = {"rho": p["rho"] * k}
    if p["rho_beyond"] is not None:
        overrides["rho_beyond"] = p["rho_beyond"] * k
    for _, power, _, _, _ in LAUNCH_PLANS[scenario.kind]:
        overrides[power] = p[power] - 10.0 * math.log10(k)
    base, scaled = _noise(scenario, length), _noise(with_overrides(scenario, **overrides),
                                                    length)
    assert scaled.forward_raman_w == pytest.approx(base.forward_raman_w, rel=1e-12)
    assert scaled.backward_raman_w == pytest.approx(base.backward_raman_w, rel=1e-12)
    assert scaled.crosstalk_w == pytest.approx(base.crosstalk_w / k, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(_link_cases())
def test_sifting_and_deadtime_are_exact(case):
    # sifted = q * raw and raw = apply_deadtime(pulse rate * Q_mu, deadtime)
    # hold exactly: the stage computes each as that one product or quotient
    parent, overrides, lengths, _ = case
    child = with_overrides(parent, **overrides)
    det, q = child.detector, child.keyrate_params.q
    for length in lengths:
        perf = evaluate_link(child, length, on_collapse="zero")
        rates = perf.rates
        assert rates.sifted_bps == q * rates.raw_bps
        assert rates.raw_bps == apply_deadtime(det.pulse_rate_hz * perf.yield_gain.q_mu,
                                               det.deadtime_s)


def _assert_same_outcome(outcome, reference):
    assert outcome == reference
    # a record equals any tuple of its values, so its types are checked too
    if type(reference) is QkdPerformance:
        assert ((type(outcome), type(outcome.noise), type(outcome.yield_gain),
                 type(outcome.rates))
                == (QkdPerformance, NoiseBudget, YieldGain, DistillationRates))


def _via_point(scenario, source, length_km):
    """The parameter stage of scenario at a link point built on source."""
    return flat_bits(evaluate_point(source.link.at(length_km), scenario.inputs, "zero"))


def _flat_reference_link(scenario, length_km):
    return flat_bits(flatten(_reference_link(scenario, length_km)))


def test_evaluate_link_takes_no_record_for_a_length():
    # an Anchor is a tuple, as a link point is, but no point
    gpon = build_gpon_scenario()
    with pytest.raises(TypeError):
        evaluate_link(gpon, Anchor("gpon", 2.0, "qber", 0.02))


@pytest.mark.parametrize("on_collapse", ["raise", "strict", "Zero", None])
def test_only_zero_makes_a_collapse_lenient(on_collapse):
    # a mistyped mode fails safe: it raises as "raise" does
    scenario = build_gpon_scenario(estimator_mode="one_decoy_bound")
    with pytest.raises(BoundCollapse):
        evaluate_link(scenario, 200.0, on_collapse=on_collapse)
    assert evaluate_link(scenario, 200.0, on_collapse="zero").rates.secret_bps == 0.0


def test_link_compiles_once_per_structure(monkeypatch):
    calls = []
    compile_link = network.LinkModel.compile

    def counted(cls, *args):
        calls.append(args)
        return compile_link(*args)

    monkeypatch.setattr(network.LinkModel, "compile", classmethod(counted))
    bundled = Path(network.__file__).parent / "data" / "measured_anchors.csv"
    with bundled.open(encoding="utf-8") as fh:
        anchors = load_anchors(fh)

    two_fiber, spec = parse_config_file(CONFIG_DIR / "backbone_two_fiber.cfg")
    assert len(spec.lengths()) == 21
    run_sweep(two_fiber, spec)
    assert len(calls) == 1

    gpon, _ = parse_config_file(CONFIG_DIR / "gpon.cfg")
    calibrate(gpon, anchors, ["rho", "launch_dbm"])
    assert len(calls) == 2

    backbone, _ = parse_config_file(CONFIG_DIR / "backbone.cfg")
    ratio = backbone.decoy.nu / backbone.decoy.mu
    optimize_mu(lambda mu: evaluate_link(
        with_overrides(backbone, mu=mu, nu=mu * ratio), 2.0,
        on_collapse="zero").rates.secret_bps)
    assert len(calls) == 3


def test_length_stage_runs_once_per_anchor_and_mu_search(monkeypatch, capsys):
    # the objective calls combine each point's noise response with the
    # fitted rho and powers; none walks the light path again
    lengths = []
    at = network.LinkModel.at

    def counted_at(self, length_km):
        lengths.append(length_km)
        return at(self, length_km)

    monkeypatch.setattr(network.LinkModel, "at", counted_at)
    bundled = Path(network.__file__).parent / "data" / "measured_anchors.csv"
    with bundled.open(encoding="utf-8") as fh:
        anchors = load_anchors(fh)

    gpon, _ = parse_config_file(CONFIG_DIR / "gpon.cfg")
    calibrate(gpon, anchors, ["rho", "launch_dbm"])
    # each anchor length once for the objective's plan and once for the
    # final breakdown; the bundled gpon anchors hold two at 0 km
    assert lengths == 2 * list(dict.fromkeys(
        a.length_km for a in anchors if a.scenario == "gpon"))

    lengths.clear()
    assert main(["optimize-mu", "--config", str(CONFIG_DIR / "gpon.cfg"),
                 "--length-km", "2"]) == 0
    assert lengths == [2.0]
    assert capsys.readouterr().out == f"{PINNED_MU_AT_2_KM['gpon']!r}\n"


def test_optimize_mu_builds_no_scenario_per_step(monkeypatch, capsys):
    # a mu step replaces the decoy record in the config's Inputs: the only
    # Scenario built is the config's, and no module calls with_overrides
    built, overridden, evaluated = [], [], []
    new, per_point = network.Scenario.__new__, network.evaluate_point

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def counted_overrides(scenario, **overrides):
        overridden.append(overrides)
        return with_overrides(scenario, **overrides)

    def counted_point(point, inputs, on_collapse="raise"):
        evaluated.append(inputs.decoy_terms[0].mu)
        return per_point(point, inputs, on_collapse)

    monkeypatch.setattr(network.Scenario, "__new__", counted_new)
    for name, module in list(sys.modules.items()):
        if name.startswith("qkdmetro") and hasattr(module, "with_overrides"):
            monkeypatch.setattr(module, "with_overrides", counted_overrides)
        if name.startswith("qkdmetro") and hasattr(module, "evaluate_point"):
            monkeypatch.setattr(module, "evaluate_point", counted_point)
    assert main(["optimize-mu", "--config", str(CONFIG_DIR / "gpon.cfg"),
                 "--length-km", "2"]) == 0
    assert capsys.readouterr().out == f"{PINNED_MU_AT_2_KM['gpon']!r}\n"
    assert len(built) == 1
    assert overridden == []
    assert len(set(evaluated)) > 20  # the scan and the refinement ran


# Values a per-evaluation override may take, each key's (valid, invalid):
# the invalid ones are what some check rejects (NaN, infinities, negatives,
# nu >= mu, detector and error rates out of range).
_NAN = math.nan
_OVERRIDE_VALUES = {
    "rho": ([0.0, 1e-10, 3e-9], [-1e-10, _NAN, math.inf]),
    "rho_beyond": ([None, 8e-10, 0.0], [-1e-9, _NAN, math.inf]),
    "efficiency": ([0.05, 1.0], [0.0, 1.5, _NAN]),
    "gate_width_s": ([0.0, 2e-9], [-1e-9, _NAN, math.inf]),
    "dark_count_prob": ([0.0, 1e-6], [2.0, -1.0, _NAN]),
    "deadtime_s": ([0.0, 1e-6], [-1e-6, _NAN, math.inf]),
    "misalignment_error": ([0.0, 0.02], [0.5, -0.1, _NAN]),
    "pulse_rate_hz": ([1e5, 1e7], [0.0, -1.0, _NAN, math.inf]),
    "mu": ([0.3, 0.9], [0.01, 2.0, -0.5, _NAN]),
    "nu": ([None, 0.02, 0.1], [0.95, -0.01, _NAN]),
    "estimator_mode": (["exact_y0", "one_decoy_bound"], ["bogus"]),
    "q": ([0.3, 1.0], [0.0, _NAN]),
    "f": ([1.0, 1.2], [0.9, _NAN]),
    "duty_cycle": ([0.0, 0.5, 1.0], [-1.0, 2.0, _NAN]),
    "budget_db": ([10.0, -3.0], [_NAN, math.inf]),
    "co_power_dbm": ([-10.0, 0.0, 5.0], [_NAN, math.inf, 4000.0]),
    "counter_power_dbm": ([-10.0, 0.0, 5.0], [_NAN, -math.inf]),
    "down_power_dbm": ([-10.0, 0.0, 5.0], [_NAN, math.inf, 4000.0]),
    "up_power_dbm": ([-10.0, 0.0, 5.0], [_NAN, -math.inf, 3000.5]),
    "downstream_atten_db": ([0.0, 3.0], [_NAN, math.inf, -1.0]),
}

# The Scenario fields the per-evaluation parameters set, with one they leave.
_EVALUATION_FIELDS = ("params", "inputs", "filter_width_nm")


@st.composite
def _override_chains(draw):
    name = draw(st.sampled_from(["backbone", "gpon", "backbone_two_fiber"]))
    root, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    keys = sorted(network.PER_EVALUATION_PARAMS & root.params.keys())
    chain = []
    for _ in range(draw(st.integers(1, 3))):
        touched = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=6,
                                unique=True))
        # some calls carry up to three invalid values, often in different
        # groups, so the order the groups are checked in shows
        bad = draw(st.sets(st.sampled_from(touched), max_size=3)
                   if draw(st.booleans()) else st.just(set()))
        chain.append({key: draw(st.sampled_from(
            _OVERRIDE_VALUES[key][key in bad and bool(_OVERRIDE_VALUES[key][1])]))
            for key in touched})
    return root, chain


def _any_outcome(fn, *args, **kwargs):
    """fn's result, or its exception's type and message; unlike _outcome it
    also catches the package's own errors, so that a drawn value which
    passes the checks but fails in evaluate_link compares like any other
    outcome."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, ArithmeticError, QkdMetroError) as exc:
        return type(exc), str(exc)


def test_override_values_cover_every_per_evaluation_parameter():
    assert _OVERRIDE_VALUES.keys() == network.PER_EVALUATION_PARAMS


@settings(max_examples=300, deadline=None)
@given(_override_chains())
def test_per_evaluation_override_chain_matches_a_fresh_build(case):
    root, chain = case
    split = root.params["split_km"]
    lengths = (0.0, 2.0, 7.5 if split is None else split + 1.5)
    scenario = root
    for overrides in chain:
        build = network.BUILDERS[root.kind]
        fresh = _any_outcome(build, **{**scenario.params, **overrides})
        child = _any_outcome(with_overrides, scenario, **overrides)
        if type(fresh) is tuple:  # the builder's exception type and message
            assert child == fresh
            return
        assert type(child) is network.Scenario
        assert child.link is root.link
        for field in _EVALUATION_FIELDS:
            assert repr(getattr(child, field)) == repr(getattr(fresh, field))
        for length in lengths:
            assert (repr(_any_outcome(evaluate_link, child, length, "zero"))
                    == repr(_any_outcome(evaluate_link, fresh, length, "zero")))
        scenario = child


@pytest.mark.parametrize("key", sorted(_OVERRIDE_VALUES))
def test_variation_matches_with_overrides(key):
    # every value of the key, on each kind with and without a split, gives
    # with_overrides' Inputs or its exception; no field but the key's is
    # rebuilt, and a value already seen is built once
    touched = [i for i, names, _ in network._EVALUATION_GROUPS if key in names]
    valid, invalid = _OVERRIDE_VALUES[key]
    children = raised = 0
    for build in network.BUILDERS.values():
        for parent in (build(), build(split_km=1.0, rho_beyond=1e-9)):
            if key not in parent.params:
                continue
            inputs_of = network.variation(parent, ((key,),))
            for value in valid + invalid:
                expected = _outcome(lambda: with_overrides(parent, **{key: value}).inputs)
                inputs = _outcome(inputs_of, (value,))
                if type(expected) is tuple:  # the exception's type and message
                    assert inputs == expected
                    raised += 1
                    continue
                children += 1
                assert type(inputs) is network.Inputs
                for i, (ours, theirs) in enumerate(zip(inputs, expected)):
                    assert repr(ours) == repr(theirs)
                    if i not in touched:
                        assert ours is parent.inputs[i]
                again = inputs_of((value,))
                assert all(a is b for a, b in zip(again, inputs))
    # each valid value gives a child on some parent, each invalid one none
    assert children >= len(valid) and raised >= len(invalid)


@pytest.mark.parametrize("kind,name", [
    ("backbone", "fixed_km"), ("gpon", "splitter_ratio"), ("gpon", "filter_width_nm"),
    ("backbone", "down_power_dbm"), ("gpon", "co_power_dbm"), ("gpon", "bogus"),
])
def test_variation_rejects_what_is_not_per_evaluation(kind, name):
    with pytest.raises(ValueError) as exc:
        network.variation(network.BUILDERS[kind](), (("rho",), (name, "mu")))
    assert str(exc.value) == (f"not per-evaluation parameters of a {kind} "
                              f"scenario: [{name!r}]")
