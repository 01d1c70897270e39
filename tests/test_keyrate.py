import itertools
import math
import random
import struct
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from qkdmetro.config import parse_config_file
from qkdmetro.errors import (BoundCollapse, DegenerateChannel, DomainError,
                             NoPositiveRate, QkdMetroError)
from qkdmetro.keyrate import (MU_SCAN_HI, MU_SCAN_LO, MU_SCAN_POINTS, MU_TOL,
                              DecoyParams, KeyRateParams, YieldGain, apply_deadtime,
                              decoy_estimate, gain, optimize_mu, qber, qber_threshold)
from qkdmetro.network import RESULT_FIELDS, build_gpon_scenario, evaluate_point, variation

from parameter_oracle import distillation_rates, h2, secret_fraction


def _h2_oracle(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def test_h2_reference_points():
    assert h2(0.5) == 1.0
    assert h2(0.0) == 0.0
    assert h2(1.0) == 0.0
    assert h2(0.11) == pytest.approx(0.49992, abs=5e-6)
    assert h2(0.11) == pytest.approx(_h2_oracle(0.11), rel=1e-12)


def test_h2_symmetry_and_maximum():
    rng = random.Random(1)
    for _ in range(500):
        x = rng.random()
        assert h2(x) == pytest.approx(h2(1.0 - x), abs=1e-12)
        assert h2(x) <= 1.0


def test_h2_domain():
    with pytest.raises(DomainError):
        h2(-0.01)
    with pytest.raises(DomainError):
        h2(1.01)


def test_gain():
    # saturating with bright pulses
    assert gain(0.0, 1.0, 50.0) == pytest.approx(1.0)
    # opaque channel passes only background
    assert gain(1e-5, 0.0, 0.79) == 1e-5
    y0, eta, mu = 1e-5, 0.01, 0.79
    assert gain(y0, eta, mu) == pytest.approx(y0 + 1.0 - math.exp(-eta * mu),
                                              rel=1e-12)
    assert gain(1e-5, 0.01, 0.79) == pytest.approx(0.0078789, abs=1e-7)


def test_qber():
    assert qber(0.0, 0.1, 0.79, 0.02) == pytest.approx(0.02, rel=1e-12)
    assert qber(1e-5, 0.0, 0.79, 0.02) == pytest.approx(0.5)
    assert qber(1e-5, 0.01, 0.79, 0.01) == pytest.approx(0.01062, abs=1e-5)
    with pytest.raises(DegenerateChannel):
        qber(0.0, 0.0, 0.79, 0.01)


def test_qber_divides_by_gain_bit_for_bit():
    # qber computes the gain itself; it must be gain's value to the last bit
    rng = random.Random(20261019)
    for _ in range(2000):
        y0 = rng.choice((0.0, 10.0 ** rng.uniform(-9, -2)))
        eta = 10.0 ** rng.uniform(-6, 0)
        mu = rng.uniform(0.01, 1.5)
        e_det = rng.uniform(0.0, 0.5)
        e0 = rng.uniform(0.01, 0.5)
        expected = (e0 * y0 + e_det * -math.expm1(-eta * mu)) / gain(y0, eta, mu)
        assert qber(y0, eta, mu, e_det, e0) == expected


def _channel(y0, eta, mu, nu, e_det, e0=0.5):
    q_mu, q_nu = gain(y0, eta, mu), gain(y0, eta, nu)
    e_mu = qber(y0, eta, mu, e_det, e0)
    e_nu = qber(y0, eta, nu, e_det, e0)
    return q_mu, e_mu, q_nu, e_nu


def test_decoy_estimate_reference_channel():
    y0, eta, mu, nu = 1e-5, 0.1, 0.79, 0.1
    q_mu, e_mu, q_nu, e_nu = _channel(y0, eta, mu, nu, 0.01)
    yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0)
    true_y1 = y0 + eta  # photon-number channel: Y1 = y0 + 1 - (1 - eta)
    assert yg.y1_low == pytest.approx(0.095209, abs=1e-6)
    assert yg.y1_low <= true_y1
    assert yg.q1_low == pytest.approx(yg.y1_low * mu * math.exp(-mu), rel=1e-12)
    assert yg.q1_low <= yg.q_mu


def test_decoy_estimate_names_an_underflowed_denominator():
    # 0 < nu < mu, but mu*nu - nu*nu underflows to 0: a named error, not a
    # ZeroDivisionError
    mu, nu = 1e-300, 5e-302
    q_mu, e_mu, q_nu, e_nu = _channel(2e-5, 0.01, mu, nu, 0.001)
    with pytest.raises(DomainError, match=r"mu = 1e-300, nu = 5e-302"):
        decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, 2e-5)
    # where it stays positive, tiny intensities collapse as usual, which a
    # lenient sweep records as a zero rate
    with pytest.raises(BoundCollapse):
        decoy_estimate(*_channel(2e-5, 0.01, 1e-150, 5e-152, 0.001), 1e-150, 5e-152,
                       2e-5)


def test_decoy_estimate_validation():
    q_mu, e_mu, q_nu, e_nu = _channel(1e-5, 0.1, 0.79, 0.1, 0.01)
    with pytest.raises(ValueError):
        decoy_estimate(q_mu, e_mu, q_nu, e_nu, 0.79, 0.79, 1e-5)
    with pytest.raises(ValueError):
        decoy_estimate(q_mu, e_mu, q_nu, e_nu, 0.79, 0.9, 1e-5)


def test_decoy_estimate_error_free_channel():
    q_mu, e_mu, q_nu, e_nu = _channel(0.0, 1.0, 0.79, 0.1, 0.0)
    yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, 0.79, 0.1, 0.0)
    assert yg.e1_up == pytest.approx(0.0, abs=1e-12)


def test_decoy_estimate_collapse():
    # decoy gain far below what any non-negative Y1 could produce
    with pytest.raises(BoundCollapse):
        decoy_estimate(0.5, 0.01, 1e-9, 0.01, 0.79, 0.1, 0.0)


def test_decoy_estimate_clamps_e1_at_half():
    # a decoy error rate this high gives an unclamped E1 bound of ~1.417
    yg = decoy_estimate(0.25, 0.2, 0.02, 0.45, 0.5, 0.1, 1e-6, 0.5)
    unclamped = (0.45 * 0.02 * math.exp(0.1) - 0.5 * 1e-6) / (yg.y1_low * 0.1)
    assert unclamped == pytest.approx(1.417, abs=1e-3)
    assert yg.e1_up == 0.5


def test_decoy_bounds_are_safe():
    """y1_low never exceeds the true Y1, e1_up never undercuts the true e1."""
    rng = random.Random(20260826)
    e0 = 0.5
    checked = 0
    for _ in range(10000):
        eta = 10.0 ** rng.uniform(-3, math.log10(0.5))
        mu = rng.uniform(0.2, 1.0)
        nu = rng.uniform(0.01, mu / 2.0)
        y0 = rng.uniform(0.0, 1e-3)
        e_det = rng.uniform(0.0, 0.05)
        q_mu, e_mu, q_nu, e_nu = _channel(y0, eta, mu, nu, e_det, e0)
        true_y1 = y0 + eta
        true_e1 = (e0 * y0 + e_det * eta) / true_y1
        for y0_known in (y0, 0.0):  # exact_y0 and one_decoy_bound modes
            try:
                yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0_known, e0)
            except BoundCollapse:
                continue
            checked += 1
            assert yg.y1_low <= true_y1 + 1e-15
            assert yg.e1_up >= true_e1 - 1e-15
    assert checked > 9000


def test_secret_fraction_trivial_cases():
    params = KeyRateParams(q=0.5, f=1.0)
    perfect = YieldGain(q_mu=0.2, e_mu=0.0, y1_low=1.0, e1_up=0.0, q1_low=0.2)
    assert secret_fraction(params, perfect, h2(0.0)) == pytest.approx(0.5 * 0.2)
    hopeless = YieldGain(q_mu=0.2, e_mu=0.2, y1_low=1.0, e1_up=0.5, q1_low=0.2)
    assert secret_fraction(params, hopeless, h2(0.2)) == 0.0


def test_secret_fraction_crosses_zero_at_threshold():
    params = KeyRateParams(q=0.5, f=1.0)
    thresh = qber_threshold(1.0)
    mk = lambda x: YieldGain(q_mu=0.2, e_mu=x, y1_low=1.0, e1_up=x, q1_low=0.2)
    below, above = thresh - 0.005, thresh + 0.005
    assert secret_fraction(params, mk(below), h2(below)) > 0.0
    assert secret_fraction(params, mk(above), h2(above)) == 0.0


def test_qber_threshold():
    t1 = qber_threshold(1.0)
    assert 0.1095 <= t1 <= 0.1105
    assert qber_threshold(1.05) < t1
    assert qber_threshold(50.0) < 0.01
    with pytest.raises(ValueError):
        qber_threshold(0.9)
    with pytest.raises(ValueError):
        qber_threshold(float("nan"))


def test_qber_threshold_is_fast():
    start = time.perf_counter()
    for _ in range(100):
        qber_threshold(1.0)
    assert (time.perf_counter() - start) / 100 < 1e-3


def test_apply_deadtime():
    assert apply_deadtime(12345.0, 0.0) == 12345.0
    assert apply_deadtime(1e5, 1e-5) == pytest.approx(5e4)
    with pytest.raises(ValueError):
        apply_deadtime(-1.0, 1e-5)


def test_apply_deadtime_cap_and_monotonicity():
    rng = random.Random(3)
    prev_in, prev_out = -1.0, -1.0
    for rate in sorted(rng.uniform(0, 1e9) for _ in range(1000)):
        out = apply_deadtime(rate, 1e-5)
        assert out <= min(rate, 1e5) + 1e-9
        assert out >= prev_out  # monotone in the input rate
        prev_out = out
    assert apply_deadtime(1e9, 1e-5) == pytest.approx(1e5, rel=1e-3)


def test_distillation_rates_perfect_channel():
    det = build_gpon_scenario(deadtime_s=0.0).detector
    params = KeyRateParams(q=0.5, f=1.0)
    yg = YieldGain(q_mu=0.05, e_mu=0.0, y1_low=1.0, e1_up=0.0, q1_low=0.05)
    rates = distillation_rates(det, params, yg)
    assert rates.raw_bps == pytest.approx(det.pulse_rate_hz * 0.05)
    assert rates.sifted_bps == pytest.approx(0.5 * rates.raw_bps)
    assert rates.secret_bps == pytest.approx(rates.sifted_bps)


def test_distillation_rates_at_threshold():
    det = build_gpon_scenario().detector
    params = KeyRateParams(q=0.5, f=1.0)
    x = qber_threshold(1.0) + 1e-6
    yg = YieldGain(q_mu=0.05, e_mu=x, y1_low=1.0, e1_up=x, q1_low=0.05)
    rates = distillation_rates(det, params, yg)
    assert rates.secret_bps == 0.0
    assert rates.sifted_bps > 0.0


def test_secret_rate_is_capped_at_the_error_corrected_rate():
    # q1_low <= q_mu whenever the decoy bound is safe, so no evaluated link
    # reaches the cap; a parameter stage whose exp(-mu) term is inflated
    # breaks it, and so does a YieldGain given to the oracle's helper
    scenario = build_gpon_scenario(deadtime_s=0.0)
    terms = list(scenario.inputs.decoy_terms)
    i = terms.index(math.exp(-scenario.decoy.mu))
    terms[i] *= 50.0
    inputs = scenario.inputs._replace(decoy_terms=tuple(terms))
    result = evaluate_point(scenario.link.at(1.0), inputs)
    q_mu, e_mu, y1_low, e1_up, q1_low, ec, secret = [
        result[RESULT_FIELDS.index(name)] for name in
        ("q_mu", "qber", "y1_low", "e1_up", "q1_low", "ec_corrected_bps", "secret_bps")]
    yg = YieldGain(q_mu=q_mu, e_mu=e_mu, y1_low=y1_low, e1_up=e1_up, q1_low=q1_low)
    assert yg.q1_low > yg.q_mu
    uncapped = scenario.detector.pulse_rate_hz * secret_fraction(
        scenario.keyrate_params, yg, h2(yg.e_mu))
    assert uncapped > ec > 0.0
    assert secret == ec

    det = scenario.detector
    params = KeyRateParams(q=0.5, f=1.05)
    yg = YieldGain(q_mu=0.01, e_mu=0.02, y1_low=1.0, e1_up=0.0, q1_low=0.05)
    rates = distillation_rates(det, params, yg)
    uncapped = det.pulse_rate_hz * secret_fraction(params, yg, h2(yg.e_mu))
    assert uncapped > rates.ec_corrected_bps > 0.0
    assert rates.secret_bps == rates.ec_corrected_bps


def test_decoy_estimate_clamps_e1_at_zero():
    # E_nu Q_nu e^nu >= e0 Y0 on every simulated channel; a known Y0 above
    # it would make the E1 bound negative
    mu, nu, y0_known = 0.5, 0.05, 0.01
    q_nu, e_nu = 0.01, 0.01
    assert e_nu * q_nu * math.exp(nu) < 0.5 * y0_known
    yg = decoy_estimate(0.02, 0.03, q_nu, e_nu, mu, nu, y0_known)
    assert yg.y1_low > 0.0
    assert yg.e1_up == 0.0


def test_distillation_rates_ordering():
    """raw >= sifted >= ec_corrected >= secret >= 0 on random channels."""
    rng = random.Random(42)
    for _ in range(1000):
        y0 = rng.uniform(0.0, 1e-3)
        eta = 10.0 ** rng.uniform(-4, -0.3)
        mu = rng.uniform(0.2, 1.0)
        nu = rng.uniform(0.01, mu / 2.0)
        e_det = rng.uniform(0.0, 0.05)
        det = build_gpon_scenario(pulse_rate_hz=10.0 ** rng.uniform(5, 9),
                                  deadtime_s=rng.choice([0.0, 1e-5]),
                                  misalignment_error=e_det).detector
        params = KeyRateParams(q=rng.uniform(0.1, 1.0), f=rng.uniform(1.0, 1.3))
        q_mu, e_mu, q_nu, e_nu = _channel(y0, eta, mu, nu, e_det)
        try:
            yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0)
        except BoundCollapse:
            yg = YieldGain(q_mu=q_mu, e_mu=e_mu, y1_low=0.0, e1_up=0.5, q1_low=0.0)
        r = distillation_rates(det, params, yg)
        assert r.raw_bps >= r.sifted_bps >= r.ec_corrected_bps >= r.secret_bps >= 0.0


def test_optimize_mu_monotone_regime_hits_scan_boundary():
    # a rate that keeps growing with mu pushes the optimum to the upper end
    assert optimize_mu(lambda mu: 1.0 - math.exp(-mu)) > 1.49


def test_optimize_mu_lossless_channel():
    # error-free channel: secret ~ Y1*mu*exp(-mu), maximized at mu = 1
    det = build_gpon_scenario(deadtime_s=0.0, misalignment_error=0.0).detector
    params = KeyRateParams(q=0.5, f=1.0)

    def rate(mu):
        q_mu, e_mu, q_nu, e_nu = _channel(0.0, 1.0, mu, mu / 20.0, 0.0)
        yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, mu / 20.0, 0.0)
        return distillation_rates(det, params, yg).secret_bps

    assert optimize_mu(rate) == pytest.approx(1.0, abs=0.05)


def test_optimize_mu_infeasible():
    with pytest.raises(NoPositiveRate):
        optimize_mu(lambda mu: 0.0)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BUNDLED_MU_CASES = [(name, km) for name in ("backbone", "backbone_two_fiber", "gpon")
                    for km in (0.0, 1.5, 2.0, 3.0)]


def _command_objective(name, length_km):
    # the objective qkdmetro optimize-mu builds: one link point, mu and nu
    # varied at the config's ratio
    scenario, _ = parse_config_file(CONFIG_DIR / f"{name}.cfg")
    ratio = scenario.decoy.nu / scenario.decoy.mu
    point = scenario.link.at(length_km)
    inputs_of = variation(scenario, (("mu",), ("nu",)))
    secret = RESULT_FIELDS.index("secret_bps")
    return lambda mu: evaluate_point(point, inputs_of((mu, mu * ratio)),
                                     on_collapse="zero")[secret]


def _fine_argmax(f):
    """argmax of f over [MU_SCAN_LO, MU_SCAN_HI] by nested grids: a scan at
    1e-3, then around each best point a grid 20 times finer, down to a
    step under 1e-9.  NaN counts as below every number."""
    def best_of(points):
        return max(points, key=lambda m: -math.inf if math.isnan(f(m)) else f(m))

    step = 1e-3
    best = best_of([min(MU_SCAN_LO + i * step, MU_SCAN_HI)
                    for i in range(round((MU_SCAN_HI - MU_SCAN_LO) / step) + 1)])
    while step > 1e-9:
        lo, step = best - step, step / 20.0
        best = best_of([m for m in (lo + i * step for i in range(41))
                        if MU_SCAN_LO <= m <= MU_SCAN_HI] + [best])
    return best


def _kinked(mu):
    return 1.0 - (mu - 0.6123 if mu > 0.6123 else 3.0 * (0.6123 - mu))


def _nan_stretch(mu):
    # the maximum is at 0.75, the best scan point is 0.73, and the
    # search's first step lands in the NaN stretch left of it
    return math.nan if 0.69 < mu < 0.72 else mu * math.exp(-mu / 0.75)


SYNTHETIC_MU_OBJECTIVES = {
    "smooth": lambda mu: 1.0 - (mu - 0.6789) ** 2,
    "skewed": lambda mu: mu ** 5 * math.exp(-5.0 * mu / 0.43),
    "kinked": _kinked,
    "max_at_low_end": lambda mu: math.exp(-mu),
    "max_at_high_end": lambda mu: 1.0 - math.exp(-mu),
    "nan_stretch": _nan_stretch,
}


def _check_mu_search(f):
    calls = []
    mu_star = optimize_mu(lambda mu: calls.append(mu) or f(mu))
    step = (MU_SCAN_HI - MU_SCAN_LO) / (MU_SCAN_POINTS - 1)
    scan = [f(MU_SCAN_LO + i * step) for i in range(MU_SCAN_POINTS)]
    assert abs(mu_star - _fine_argmax(f)) <= MU_TOL / 2.0
    # mu* is a point the search evaluated, as good as the whole scan
    assert mu_star in calls
    assert f(mu_star) >= max(v for v in scan if not math.isnan(v))
    # no point is evaluated twice
    assert len(set(calls)) == len(calls)
    return len(calls)


@pytest.mark.parametrize("name", sorted(SYNTHETIC_MU_OBJECTIVES))
def test_optimize_mu_finds_the_maximum_of_synthetic_objectives(name):
    _check_mu_search(SYNTHETIC_MU_OBJECTIVES[name])


def test_optimize_mu_finds_the_command_maximum_in_few_evaluations():
    # the scan's 21 calls and ~6 of Brent's refinement: golden section
    # took 18 after the scan, 39 in all
    calls = [_check_mu_search(_command_objective(name, km))
             for name, km in BUNDLED_MU_CASES]
    assert max(calls) <= 31
    assert sum(calls) / len(calls) <= 28


def test_decoy_params_defaults_and_validation():
    p = build_gpon_scenario().decoy
    assert p.mu == 0.79
    assert p.nu == pytest.approx(0.79 / 20.0)
    assert DecoyParams(0.5, None, "exact_y0").nu == 0.5 / 20.0
    with pytest.raises(ValueError):
        DecoyParams(1.6, None, "exact_y0")
    with pytest.raises(ValueError):
        DecoyParams(0.5, 0.6, "exact_y0")
    with pytest.raises(ValueError):
        DecoyParams(0.79, None, "guesswork")


def test_keyrate_params_validation():
    with pytest.raises(ValueError):
        KeyRateParams(q=0.0, f=1.05)
    with pytest.raises(ValueError):
        KeyRateParams(q=0.5, f=0.9)
    with pytest.raises(ValueError, match="error-correction efficiency"):
        KeyRateParams(q=0.5, f=math.nan)


# The clamps of the parameter stage, as min/max calls: decoy_estimate and
# distillation_rates clamp with comparisons, which must return exactly what
# these return, NaN and -0.0 included.  Each copy below is the function's
# arithmetic with its clamps written as the builtins and with the value
# each clamp is given recorded in seen, so the tests can check that every
# special value reaches it.


def _special(x):
    """x's repr if it is an infinity or a zero, "nan" if NaN, else None."""
    if math.isnan(x):
        return "nan"
    return repr(x) if math.isinf(x) or x == 0.0 else None


def _builtin_decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0_known, e0, seen):
    spread = mu * nu - nu * nu
    exp_nu = math.exp(nu)
    y0_for_y1 = y0_known if y0_known > 0.0 else e_nu * q_nu * exp_nu / e0
    y1_low = (mu / spread) * (
        q_nu * exp_nu
        - q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0_for_y1
    )
    seen.add(("y1_low", _special(y1_low)))
    if y1_low <= 0.0:
        raise BoundCollapse("no single-photon yield provable from these gains")
    y1_low = min(y1_low, 1.0)
    e1_up = (e_nu * q_nu * exp_nu - e0 * y0_known) / (y1_low * nu)
    seen.add(("e1_up", _special(e1_up)))
    e1_up = min(max(e1_up, 0.0), 0.5)
    q1_low = y1_low * mu * math.exp(-mu)
    return (q_mu, e_mu, y1_low, e1_up, q1_low)


def _builtin_distillation_rates(detector, params, yg, seen):
    ideal_clicks = detector.pulse_rate_hz * yg.q_mu
    raw = apply_deadtime(ideal_clicks, detector.deadtime_s)
    saturation = raw / ideal_clicks if ideal_clicks > 0 else 1.0
    sifted = params.q * raw
    h_mu = h2(yg.e_mu)
    kept = 1.0 - params.f * h_mu
    seen.add(("kept", _special(kept)))
    ec = sifted * max(0.0, kept)
    secret = detector.pulse_rate_hz * secret_fraction(params, yg, h_mu) * saturation
    seen.add(("secret", _special(secret)))
    seen.add(("ec", _special(ec)))
    seen.add(("secret, ec", (_special(secret), _special(ec))))
    return (raw, sifted, ec, min(secret, ec))


def _bits(values):
    return [struct.pack("<d", v) for v in values]


def _outcome(f, *args):
    """f(*args)'s float bits, or the type and text of what it raised."""
    try:
        return _bits(f(*args))
    except (ArithmeticError, QkdMetroError, ValueError) as exc:
        return type(exc), str(exc)


def test_decoy_clamps_are_the_builtins_bit_for_bit():
    seen = set()
    mu, nu, e0 = 0.5, 0.05, 0.5
    for q_mu, q_nu, e_nu, y0_known in itertools.product(
            (0.0, 0.01, math.nan, math.inf, -math.inf),
            (-0.0, 0.0, 5e-4, 0.01, math.nan, math.inf),
            (-0.0, 0.0, 0.03, 0.9, -0.9, math.nan, math.inf, -math.inf),
            (0.0, 1e-5)):
        args = (q_mu, 0.03, q_nu, e_nu, mu, nu, y0_known, e0)
        assert _outcome(decoy_estimate, *args) == _outcome(
            _builtin_decoy_estimate, *args, seen)
    # each special value reaches each clamp; at or below 0, the Y1 bound
    # collapses before its clamp
    assert {(name, s) for name in ("y1_low", "e1_up") for s in
            ("nan", "-inf", "inf", "-0.0", "0.0")} <= seen


def test_distillation_clamps_are_the_builtins_bit_for_bit():
    seen = set()
    for pulse, deadtime, q, f, q_mu, e_mu, q1_low in itertools.product(
            (1e6, 1e308, math.inf, math.nan),
            # 1 + 1e308 * -0.7e-308 is 0.3 and 1 + 1e308 * -1.3e-308 is
            # -0.3: the rate at 1e308 overflows to inf and to -inf
            (1e-5, 0.0, -0.7e-308, -1.3e-308, -math.inf, math.nan),
            (0.5, -0.0, math.inf, math.nan),
            (1.05, 1.0, math.inf, -math.inf, math.nan),
            (1e-3, 1.0, 0.0, math.inf),
            (0.0, 0.01, 0.5),
            (0.0, 1e-3)):
        detector = SimpleNamespace(pulse_rate_hz=pulse, deadtime_s=deadtime)
        params = SimpleNamespace(q=q, f=f)
        yg = YieldGain(q_mu, e_mu, 1.0, 0.0, q1_low)
        assert _outcome(distillation_rates, detector, params, yg) == _outcome(
            _builtin_distillation_rates, detector, params, yg, seen)
    # 1.0 - f*h_mu is never -0.0
    assert {("kept", s) for s in ("nan", "-inf", "inf", "0.0")} <= seen
    assert {(name, s) for name in ("secret", "ec") for s in
            ("nan", "-inf", "inf", "-0.0", "0.0")} <= seen
    # a NaN secret rate and an infinite ec, where min returns the NaN and
    # secret if secret < ec else ec would return ec
    assert ("secret, ec", ("nan", "inf")) in seen
