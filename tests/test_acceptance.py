"""Acceptance criteria for the feasibility planner.

Each test covers one numbered criterion and prints a single PASS/FAIL
line so the gate can be read off the test log directly.  Tolerances are
pinned here, not in the code under test.
"""

import io
import math
import random
import time
from importlib import resources

import pytest

from qkdmetro.calibrate import apply_fit, calibrate, load_anchors
from qkdmetro.config import SweepSpec, parse_config
from qkdmetro.errors import BoundCollapse, NoPositiveRate
from qkdmetro.keyrate import (apply_deadtime, decoy_estimate, gain, optimize_mu,
                              qber, qber_threshold)
from qkdmetro.network import (build_backbone_scenario, build_gpon_scenario,
                              evaluate_link, with_overrides)
from qkdmetro.noise import raman_backward, raman_forward
from qkdmetro.sweep import SweepRecord, aes_rekey, read_csv, run_sweep, write_csv


def _verdict(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def _bundled_anchors():
    text = resources.files("qkdmetro").joinpath(
        "data/measured_anchors.csv").read_text()
    return load_anchors(io.StringIO(text))


def _calibrated(build, **overrides):
    scenario = build(**overrides)
    result = calibrate(scenario, _bundled_anchors(), ["rho", "launch_dbm"])
    return apply_fit(scenario, result.params)


def test_criterion_01_qber_threshold():
    start = time.perf_counter()
    value = qber_threshold(1.0)
    elapsed = time.perf_counter() - start
    _verdict(1, "QBER threshold at f=1 is 11%",
             0.1095 <= value <= 0.1105 and elapsed < 1e-3)


def test_criterion_02_aes_rekey_arithmetic():
    value = aes_rekey(160 * 2.4e9, 1000.0, 256)
    _verdict(2, "AES rekey arithmetic: 160 x 2.4 Gbit/s at 1 kbit/s key rate",
             value == 9.8304e10 and value < 2 ** 37)


def test_criterion_03_deadtime_cap():
    rng = random.Random(3)
    capped = all(apply_deadtime(rng.uniform(0, 1e12), 1e-5) <= 1e5
                 for _ in range(10000))
    limit = apply_deadtime(1e9, 1e-5)
    _verdict(3, "10 us deadtime caps the detection rate at 100 kbit/s",
             capped and abs(limit - 1e5) / 1e5 < 1e-3)


def test_criterion_04_aggregate_losses():
    loss = lambda s: s.link.loss_db(0.0, 1550.0)
    backbone = loss(build_backbone_scenario())
    gpon = loss(build_gpon_scenario())
    _verdict(4, "no-fiber aggregate losses are 8 dB (backbone) / 9 dB (GPON)",
             abs(backbone - 8.0) <= 0.01 and abs(gpon - 9.0) <= 0.01)


def test_criterion_05_gpon_calibration():
    start = time.perf_counter()
    scenario = _calibrated(build_gpon_scenario)
    at = lambda L: evaluate_link(scenario, L, on_collapse="zero")
    qber0 = at(0.0).yield_gain.e_mu
    s0 = at(0.0).rates.secret_bps
    s35 = at(3.5).rates.secret_bps
    s45 = at(4.5).rates.secret_bps
    elapsed = time.perf_counter() - start
    _verdict(5, "calibrated GPON reproduces QBER 4% and the secret-rate anchors",
             abs(qber0 - 0.04) <= 0.001 and 250.0 <= s0 <= 1000.0
             and 10.0 <= s35 <= 40.0 and s45 == 0.0 and elapsed < 30.0)


def test_criterion_06_backbone_calibration():
    start = time.perf_counter()
    scenario = _calibrated(build_backbone_scenario, filter_width_nm=0.4)
    at = lambda L: evaluate_link(scenario, L, on_collapse="zero")
    s6 = at(6.0).rates.secret_bps
    s10 = at(10.0).rates.secret_bps
    worst_qber = max(at(0.5 * i).yield_gain.e_mu for i in range(21))
    elapsed = time.perf_counter() - start
    _verdict(6, "calibrated backbone (0.4 nm filters) reproduces the rate anchors",
             250.0 <= s6 <= 1000.0 and 50.0 <= s10 <= 200.0
             and worst_qber < 0.11 and elapsed < 30.0)


def test_criterion_07_optimal_mu():
    scenario = _calibrated(build_backbone_scenario, filter_width_nm=0.4)
    ratio = scenario.decoy.nu / scenario.decoy.mu

    def rate(mu):
        s = with_overrides(scenario, mu=mu, nu=mu * ratio)
        return evaluate_link(s, 6.0, on_collapse="zero").rates.secret_bps

    try:
        mu_star = optimize_mu(rate)
    except NoPositiveRate:
        mu_star = math.nan
    _verdict(7, "optimal signal intensity on the calibrated backbone is 0.79",
             abs(mu_star - 0.79) <= 0.05)


def test_criterion_08_raman_oracle_equivalence():
    def trapezoid(p, rho, dlam, length, alpha_db, direction, n=4000):
        a = alpha_db * math.log(10.0) / 10.0
        f = lambda z: rho * dlam * p * math.exp(-a * z) * math.exp(
            -a * ((length - z) if direction == "fwd" else z))
        h = length / n
        return h * (0.5 * (f(0.0) + f(length))
                    + sum(f(i * h) for i in range(1, n)))

    start = time.perf_counter()
    rng = random.Random(8)
    ok = True
    for _ in range(100):
        p = 10.0 ** rng.uniform(-6, -2)
        rho = 10.0 ** rng.uniform(-11, -8)
        dlam = rng.uniform(0.1, 20.0)
        length = rng.uniform(0.1, 50.0)
        alpha = rng.uniform(0.15, 0.4)
        fwd = raman_forward(p, rho, dlam, length, alpha)
        bwd = raman_backward(p, rho, dlam, length, alpha)
        ok = ok and math.isclose(
            fwd, trapezoid(p, rho, dlam, length, alpha, "fwd"), rel_tol=1e-6)
        ok = ok and math.isclose(
            bwd, trapezoid(p, rho, dlam, length, alpha, "bwd"), rel_tol=1e-6)
    elapsed = time.perf_counter() - start
    _verdict(8, "Raman closed forms match trapezoid integration to 1e-6",
             ok and elapsed < 1.0)


def test_criterion_09_decoy_bound_safety():
    start = time.perf_counter()
    rng = random.Random(9)
    e0 = 0.5
    violations = 0
    checked = 0
    for _ in range(10000):
        eta = 10.0 ** rng.uniform(-3, math.log10(0.5))
        mu = rng.uniform(0.2, 1.0)
        nu = rng.uniform(0.01, mu / 2.0)
        y0 = rng.uniform(0.0, 1e-3)
        e_det = rng.uniform(0.0, 0.05)
        q_mu, q_nu = gain(y0, eta, mu), gain(y0, eta, nu)
        e_mu = qber(y0, eta, mu, e_det, e0)
        e_nu = qber(y0, eta, nu, e_det, e0)
        true_y1 = y0 + eta
        true_e1 = (e0 * y0 + e_det * eta) / true_y1
        for y0_known in (y0, 0.0):
            try:
                yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0_known, e0)
            except BoundCollapse:
                continue
            checked += 1
            if yg.y1_low > true_y1 + 1e-15 or yg.e1_up < true_e1 - 1e-15:
                violations += 1
    elapsed = time.perf_counter() - start
    _verdict(9, f"decoy bounds safe on {checked} random channels",
             violations == 0 and checked > 5000 and elapsed < 5.0)


def test_criterion_10_monotonicity_suite():
    start = time.perf_counter()
    ok = True
    for build in (build_backbone_scenario, build_gpon_scenario):
        scenario = build()
        perfs = [evaluate_link(scenario, 0.5 * i, on_collapse="zero")
                 for i in range(31)]
        secrets = [p.rates.secret_bps for p in perfs]
        qbers = [p.yield_gain.e_mu for p in perfs]
        ok = ok and all(a >= b for a, b in zip(secrets, secrets[1:]))
        ok = ok and all(a <= b for a, b in zip(qbers, qbers[1:]))
        halved = build(filter_width_nm=scenario.filter_width_nm / 2.0)
        for length in (0.0, 2.0, 4.0):
            wide = evaluate_link(scenario, length, on_collapse="zero")
            narrow = evaluate_link(halved, length, on_collapse="zero")
            ok = ok and narrow.yield_gain.e_mu < wide.yield_gain.e_mu
    elapsed = time.perf_counter() - start
    _verdict(10, "secret rate and QBER monotone in length; narrower filters win",
             ok and elapsed < 10.0)


def test_criterion_11_pipeline_ordering():
    start = time.perf_counter()
    rng = random.Random(11)
    ok = True
    for _ in range(1000):
        scenario = build_gpon_scenario(
            mu=rng.uniform(0.2, 1.0),
            down_power_dbm=rng.uniform(-10.0, 5.0),
            up_power_dbm=rng.uniform(-10.0, 5.0),
            efficiency=rng.uniform(0.05, 0.3),
            dark_count_prob=10.0 ** rng.uniform(-6, -4),
        )
        r = evaluate_link(scenario, rng.uniform(0.0, 10.0),
                          on_collapse="zero").rates
        ok = ok and (r.raw_bps >= r.sifted_bps >= r.ec_corrected_bps
                     >= r.secret_bps >= 0.0)
    elapsed = time.perf_counter() - start
    _verdict(11, "distillation pipeline ordering raw >= sifted >= ec >= secret",
             ok and elapsed < 1.0)


def test_criterion_12_round_trips():
    records = run_sweep(build_gpon_scenario(), SweepSpec(0.0, 5.0, 0.5))
    buf = io.StringIO()
    write_csv(records, buf)
    buf.seek(0)
    back = read_csv(buf)
    # a named tuple equals any tuple of its values, so check the types too
    csv_ok = back == records and all(type(r) is SweepRecord for r in back + records)

    scenario, spec = parse_config(
        "[scenario]\nkind = backbone\n"
        "[sweep]\nstart_km = 0\nstop_km = 10\nstep_km = 0.5\n")
    det = scenario.detector
    defaults_ok = (det.efficiency == 0.10 and det.gate_width_s == 1e-9
                   and det.dark_count_prob == 2e-5 and det.deadtime_s == 1e-5
                   and det.misalignment_error == 0.001
                   and det.pulse_rate_hz == 1e6
                   and scenario.decoy.mu == 0.79
                   and scenario.decoy.nu == pytest.approx(0.79 / 20.0)
                   and scenario.keyrate_params.f == 1.05
                   and scenario.filter_width_nm == 0.8
                   and len(spec.lengths()) == 21)
    _verdict(12, "sweep CSV and default config round-trip exactly",
             csv_ok and defaults_ok)
