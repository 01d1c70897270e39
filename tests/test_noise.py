import math
import random
from pathlib import Path

import pytest

from qkdmetro.config import parse_config_file
from qkdmetro.noise import (DetectorModel, raman_backward, raman_forward,
                            raman_length_factors)
from qkdmetro.network import (LAUNCH_PLANS, RESULT_FIELDS, LinkModel,
                              build_gpon_scenario, evaluate_link, evaluate_point,
                              with_overrides)

from light_path_oracle import crosstalk_leak, noise_response
from parameter_oracle import combine_noise, power_to_photon_rate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DETECTOR = build_gpon_scenario().detector


def _raman_trapezoid(p, rho, dlam, length, alpha_db, direction, n=4000):
    """Independent oracle: trapezoid rule over the scattering integral.

    Forward: noise born at z propagates the remaining L - z; backward:
    noise born at z propagates back over z.  Pump decays as exp(-a*z).
    """
    a = alpha_db * math.log(10.0) / 10.0

    def integrand(z):
        pump = p * math.exp(-a * z)
        back_to_receiver = length - z if direction == "fwd" else z
        return rho * dlam * pump * math.exp(-a * back_to_receiver)

    h = length / n
    total = 0.5 * (integrand(0.0) + integrand(length))
    total += sum(integrand(i * h) for i in range(1, n))
    return total * h


def test_raman_forward_reference_value():
    # 1 mW pump, rho 2e-9 /km/nm, 0.8 nm band, 10 km, 0.21 dB/km
    value = raman_forward(1e-3, 2e-9, 0.8, 10.0, 0.21)
    oracle = _raman_trapezoid(1e-3, 2e-9, 0.8, 10.0, 0.21, "fwd")
    assert value == pytest.approx(9.8655e-12, rel=1e-4)
    assert value == pytest.approx(oracle, rel=1e-6)


def test_raman_backward_reference_value():
    value = raman_backward(1e-3, 2e-9, 0.8, 10.0, 0.21)
    oracle = _raman_trapezoid(1e-3, 2e-9, 0.8, 10.0, 0.21, "bwd")
    assert value == pytest.approx(1.02545e-11, rel=1e-4)
    assert value == pytest.approx(oracle, rel=1e-6)


def test_raman_trivial_cases():
    assert raman_forward(0.0, 2e-9, 0.8, 10.0, 0.21) == 0.0
    assert raman_forward(1e-3, 2e-9, 0.8, 0.0, 0.21) == 0.0
    assert raman_backward(1e-3, 2e-9, 0.8, 0.0, 0.21) == 0.0
    with pytest.raises(ValueError):
        raman_forward(-1e-3, 2e-9, 0.8, 10.0, 0.21)


def test_raman_backward_transparent_limit():
    # alpha -> 0 degenerates to p * rho * dlam * L
    value = raman_backward(1e-3, 2e-9, 0.8, 10.0, 1e-12)
    assert value == pytest.approx(1.6e-11, rel=1e-6)
    # a lossless span takes that form exactly, and forward noise matches it
    assert raman_backward(1e-3, 2e-9, 0.8, 10.0, 0.0) == 1e-3 * 2e-9 * 0.8 * 10.0
    assert raman_forward(1e-3, 2e-9, 0.8, 10.0, 0.0) == 1e-3 * 2e-9 * 0.8 * 10.0


def test_raman_matches_integration_oracle():
    rng = random.Random(20260826)
    for _ in range(100):
        p = 10.0 ** rng.uniform(-6, -2)
        rho = 10.0 ** rng.uniform(-11, -8)
        dlam = rng.uniform(0.1, 20.0)
        length = rng.uniform(0.1, 50.0)
        alpha = rng.uniform(0.15, 0.4)
        fwd = raman_forward(p, rho, dlam, length, alpha)
        bwd = raman_backward(p, rho, dlam, length, alpha)
        assert fwd == pytest.approx(
            _raman_trapezoid(p, rho, dlam, length, alpha, "fwd"), rel=1e-6)
        assert bwd == pytest.approx(
            _raman_trapezoid(p, rho, dlam, length, alpha, "bwd"), rel=1e-6)


def test_noise_response_matches_integration_oracle():
    # one fiber row through the oracle's kernel, its response scaled by
    # combine_noise: a co launch gives the span's forward noise, a counter
    # launch (entering at the detector end) its backward noise
    rng = random.Random(20261018)
    for _ in range(100):
        p = 10.0 ** rng.uniform(-6, -2)
        rho = 10.0 ** rng.uniform(-11, -8)
        dlam = rng.uniform(0.1, 20.0)
        length = rng.uniform(0.1, 50.0)
        alpha = rng.uniform(0.15, 0.4)
        rows = [(0, 1.0, raman_length_factors(length, alpha), (1.0,))]
        noise = lambda launch: combine_noise(noise_response(rows, [launch], dlam),
                                             (rho,), (p,), 1550.0, DETECTOR)
        co, counter = noise((True, 0.0)), noise((False, 0.0))
        assert co.backward_raman_w == counter.forward_raman_w == 0.0
        assert co.forward_raman_w == pytest.approx(
            _raman_trapezoid(p, rho, dlam, length, alpha, "fwd"), rel=1e-6)
        assert counter.backward_raman_w == pytest.approx(
            _raman_trapezoid(p, rho, dlam, length, alpha, "bwd"), rel=1e-6)


def test_backward_dominates_forward():
    rng = random.Random(99)
    for _ in range(200):
        length = rng.uniform(0.01, 50.0)
        alpha = rng.uniform(0.15, 0.4)
        fwd = raman_forward(1e-3, 3e-10, 0.8, length, alpha)
        bwd = raman_backward(1e-3, 3e-10, 0.8, length, alpha)
        assert bwd >= fwd


def test_crosstalk_leak():
    assert crosstalk_leak(1e-3, 80.0) == pytest.approx(1e-11)
    assert crosstalk_leak(0.0, 30.0) == 0.0
    assert crosstalk_leak(1e-3, 300.0) == pytest.approx(0.0, abs=1e-30)
    with pytest.raises(ValueError):
        crosstalk_leak(1e-3, -1.0)


def test_power_to_photon_rate():
    assert power_to_photon_rate(1e-12, 1550.0) == pytest.approx(7.8029e6, rel=1e-4)
    assert power_to_photon_rate(0.0, 1550.0) == 0.0
    # one photon per second carries h*c/lambda watts
    h, c = 6.62607015e-34, 2.99792458e8
    single = h * c / 1550e-9
    assert power_to_photon_rate(single, 1550.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        power_to_photon_rate(1e-12, 0.0)


def test_detector_model_validation():
    fields = {name: getattr(DETECTOR, name) for name in DetectorModel._fields}
    assert DetectorModel(**fields) == DETECTOR
    for name, bad in (("efficiency", 0.0), ("misalignment_error", 0.5),
                      ("gate_width_s", -1e-9)):
        with pytest.raises(ValueError):
            DetectorModel(**{**fields, name: bad})


def _link_noise(scenario, length_km=2.0):
    return evaluate_link(scenario, length_km, on_collapse="zero").noise


def _gpon_budget(**overrides):
    return _link_noise(build_gpon_scenario(**overrides))


def test_link_noise_dark_only_without_launches(monkeypatch):
    scenario = build_gpon_scenario()
    chain = scenario.link
    monkeypatch.setitem(LAUNCH_PLANS, "gpon", ())
    link = LinkModel.compile("gpon", scenario.params, chain.head, chain.var_span,
                             chain.tail)
    assert link.terms[-1] == ()  # no launch walks
    inputs = scenario.inputs._replace(launch_w=())
    nb = _link_noise(scenario._replace(inputs=inputs, link=link))
    assert nb.forward_raman_w == 0.0
    assert nb.backward_raman_w == 0.0
    assert nb.crosstalk_w == 0.0
    assert nb.total_y0 == scenario.detector.dark_count_prob


def test_link_noise_filter_width_scaling():
    narrow = _gpon_budget(filter_width_nm=0.4)
    wide = _gpon_budget(filter_width_nm=0.8)
    # Raman acceptance is linear in the filter bandwidth
    assert wide.forward_raman_w == pytest.approx(2.0 * narrow.forward_raman_w)
    assert wide.backward_raman_w == pytest.approx(2.0 * narrow.backward_raman_w)


def test_link_noise_linear_in_launch_power():
    base = _gpon_budget()
    louder = _gpon_budget(down_power_dbm=12.0, up_power_dbm=11.0)
    total = lambda nb: nb.forward_raman_w + nb.backward_raman_w + nb.crosstalk_w
    assert total(louder) == pytest.approx(10.0 * total(base), rel=1e-9)


def test_link_noise_monotone_in_power_and_gate():
    quiet = _gpon_budget(down_power_dbm=-3.0)
    loud = _gpon_budget(down_power_dbm=3.0)
    assert loud.total_y0 > quiet.total_y0
    slow_gate = _gpon_budget(gate_width_s=2e-9)
    assert slow_gate.total_y0 > _gpon_budget().total_y0


def test_link_noise_duty_cycle_darkens_channel():
    nb = _gpon_budget(duty_cycle=0.0)
    assert nb.total_y0 == nb.dark_yield


def test_downstream_attenuation_reduces_noise():
    nb = _gpon_budget()
    dimmed = _gpon_budget(downstream_atten_db=10.0)
    assert dimmed.forward_raman_w < nb.forward_raman_w
    # the upstream launch is unattenuated, so backward Raman is unchanged
    assert dimmed.backward_raman_w == pytest.approx(nb.backward_raman_w)


def _noise_w(result):
    """The forward and backward Raman and the crosstalk powers of
    evaluate_point's result, read by name."""
    return tuple([result[RESULT_FIELDS.index(name)]
                  for name in ("forward_raman_w", "backward_raman_w", "crosstalk_w")])


@pytest.mark.parametrize("name", ["backbone", "backbone_two_fiber", "gpon"])
def test_noise_is_linear_in_power_and_rho(name):
    scenario, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    # one link point, past the two-fiber split, for every scenario below
    point = scenario.link.at(6.0)

    def noise(**overrides):
        child = with_overrides(scenario, **overrides)
        return _noise_w(evaluate_point(point, child.inputs, on_collapse="zero"))

    forward, backward, crosstalk = noise()
    assert min(forward, backward, crosstalk) > 0.0
    # scaling by a power of two is exact, term by term and in the sums
    assert noise(duty_cycle=scenario.params["duty_cycle"] / 2) == (
        forward / 2, backward / 2, crosstalk / 2)
    rho_beyond = scenario.params["rho_beyond"]
    doubled = {"rho": 2 * scenario.params["rho"]}
    if rho_beyond is not None:
        doubled["rho_beyond"] = 2 * rho_beyond
    assert noise(**doubled) == (2 * forward, 2 * backward, crosstalk)
    assert noise(duty_cycle=0.0) == (0.0, 0.0, 0.0)


def test_silent_launch_adds_nothing_whatever_its_response():
    # a launch of power 0 is skipped, so even a response the product never
    # builds (infinite per-watt noise) adds no NaN
    response = ((True, ((0, math.inf),), math.inf),
                (False, ((0, 1e-6),), 1e-9))
    inputs = build_gpon_scenario().inputs._replace(rho=3e-10, launch_w=(0.0, 1e-3))
    forward, backward, crosstalk = _noise_w(
        evaluate_point((10.0, response), inputs, on_collapse="zero"))
    assert forward == 0.0
    assert backward == pytest.approx(1e-3 * 3e-10 * 1e-6, rel=1e-12)
    assert crosstalk == pytest.approx(1e-3 * 1e-9, rel=1e-12)
