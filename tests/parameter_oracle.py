"""Reference oracle: the parameter stage composed of one helper per formula.

The product runs the parameter stage (network.evaluate_point) in one
frame, with the invariants of its decoy record computed once (the decoy
terms of network.Inputs).  This module composes it from the
helpers that state one formula each: combine_noise scales a link point's
noise response by the launch powers and Raman coefficients and counts
its photons (power_to_photon_rate), keyrate.gain and keyrate.qber give
the signal and decoy gains and QBERs, keyrate.decoy_estimate the decoy
bounds, and distillation_rates the bits per second at each stage,
through keyrate.apply_deadtime, h2 and secret_fraction.  The tests
require the product's results, and the type and text of what it raises,
to equal these bit for bit: the oracle's QkdPerformance, flattened to
the product's plain result (network.RESULT_FIELDS).

The oracle reads parameter records: the DetectorModel and KeyRateParams
built from the Inputs' plain values, and the decoy record that the decoy
terms begin with, never the terms compiled from it.  Background counts
carry error rate 0.5, which the product fixes.
"""

import math
import struct

from qkdmetro.errors import BoundCollapse, DomainError
from qkdmetro.keyrate import (DistillationRates, KeyRateParams, YieldGain,
                              apply_deadtime, decoy_estimate, gain, qber)
from qkdmetro.network import QUANTUM_NM, RESULT_FIELDS, QkdPerformance
from qkdmetro.noise import LIGHT_SPEED_M_S, PLANCK_J_S, DetectorModel, NoiseBudget
from qkdmetro.optical_path import transmittance


def power_to_photon_rate(p_w, wavelength_nm):
    """Photon flux of an optical power at the given wavelength, in 1/s."""
    if p_w < 0 or wavelength_nm <= 0:
        raise ValueError("need non-negative power and positive wavelength")
    return p_w * wavelength_nm * 1e-9 / (PLANCK_J_S * LIGHT_SPEED_M_S)


def combine_noise(response, rhos, powers_w, q_nm, detector):
    """The NoiseBudget of a noise_response with the Raman coefficients
    rhos (indexed by the terms' slots) and each launch's power in W, its
    photons counted at the quantum wavelength q_nm.  A launch of power 0
    adds nothing, whatever its response."""
    forward_w = 0.0
    backward_w = 0.0
    crosstalk_w = 0.0
    for k, pump_w in enumerate(powers_w):
        if pump_w == 0.0:
            continue
        co, terms, crosstalk = response[k]
        if co:
            for slot, raman in terms:
                forward_w += pump_w * (rhos[slot] * raman)
        else:
            for slot, raman in terms:
                backward_w += pump_w * (rhos[slot] * raman)
        crosstalk_w += pump_w * crosstalk

    total_w = forward_w + backward_w + crosstalk_w
    photon_yield = (power_to_photon_rate(total_w, q_nm)
                    * detector.gate_width_s * detector.efficiency)
    dark = detector.dark_count_prob
    return NoiseBudget(forward_w, backward_w, crosstalk_w, dark, dark + photon_yield)


def h2(x):
    """Shannon binary entropy in bits, with 0*log(0) := 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"binary entropy needs x in [0, 1], got {x}")
    return _binary_entropy(x)


def _binary_entropy(x):
    # unchecked h2; arguments outside (0, 1) give 0
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def secret_fraction(params, yg, h_mu):
    """GLLP secret fraction per pulse, clamped at zero; h_mu is h2(yg.e_mu)."""
    r = params.q * (-yg.q_mu * params.f * h_mu
                    + yg.q1_low * (1.0 - _binary_entropy(yg.e1_up)))
    return r if r > 0.0 else 0.0


def distillation_rates(detector, params, yg):
    """Bits per second at each distillation stage.

    Deadtime acts on the detection rate before sifting; the secret rate
    inherits the same saturation factor.
    """
    ideal_clicks = detector.pulse_rate_hz * yg.q_mu
    raw = apply_deadtime(ideal_clicks, detector.deadtime_s)
    saturation = raw / ideal_clicks if ideal_clicks > 0 else 1.0
    sifted = params.q * raw
    h_mu = h2(yg.e_mu)
    # max(0.0, kept) and min(secret, ec) as comparisons
    kept = 1.0 - params.f * h_mu
    ec = sifted * (kept if kept > 0.0 else 0.0)
    secret = detector.pulse_rate_hz * secret_fraction(params, yg, h_mu) * saturation
    return DistillationRates(raw, sifted, ec, ec if ec < secret else secret)


def key_rate(loss, nb, detector, decoy, params, on_collapse="raise"):
    """The QkdPerformance of a link of loss dB whose noise is the
    NoiseBudget nb, with the parameter records detector, decoy and params.
    A collapsed decoy bound is a zero yield if on_collapse is "zero"."""
    eta = transmittance(loss) * detector.efficiency
    y0 = nb.total_y0
    mu, nu = decoy.mu, decoy.nu
    e_det = detector.misalignment_error
    e0 = 0.5
    q_mu = gain(y0, eta, mu)
    e_mu = qber(y0, eta, mu, e_det, e0)
    q_nu = gain(y0, eta, nu)
    e_nu = qber(y0, eta, nu, e_det, e0)
    y0_known = y0 if decoy.estimator_mode == "exact_y0" else 0.0
    try:
        yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0_known, e0)
    except BoundCollapse:
        if on_collapse != "zero":
            raise
        yg = YieldGain(q_mu=q_mu, e_mu=e_mu, y1_low=0.0, e1_up=0.5, q1_low=0.0)
    # the QBER is NaN only where Y0 overflowed; h2 would name itself
    if not 0.0 <= e_mu <= 1.0:
        raise DomainError(f"the QBER is {e_mu!r}, not in [0, 1]: the background "
                          f"yield Y0 = {y0!r} overflowed")
    return QkdPerformance(loss, eta, nb, yg, distillation_rates(detector, params, yg))


def flatten(perf):
    """The QkdPerformance perf as network.evaluate_point's plain tuple: each
    of RESULT_FIELDS read by name, the loss, Y0 and QBER under their
    record names."""
    nb, yg = perf.noise, perf.yield_gain
    by_name = {**nb._asdict(), **yg._asdict(), **perf.rates._asdict(),
               "total_loss_db": perf.loss_db, "eta": perf.eta, "y0": nb.total_y0,
               "qber": yg.e_mu}
    return tuple([by_name[name] for name in RESULT_FIELDS])


def flat_bits(result):
    """The type of a plain result, and every float's bits, which the tests
    compare: -0.0 and 0.0 differ there, and a NaN equals itself."""
    return type(result), [struct.pack("<d", x) for x in result]


def reference_point(point, inputs, on_collapse="raise"):
    """network.evaluate_point(point, inputs, on_collapse), composed."""
    loss, response = point
    rho, rho_beyond, launch_w, detector, decoy_terms, keyrate = inputs
    detector, keyrate = DetectorModel._make(detector), KeyRateParams._make(keyrate)
    nb = combine_noise(response, (rho, rho_beyond), launch_w, QUANTUM_NM, detector)
    return flatten(key_rate(loss, nb, detector, decoy_terms[0], keyrate, on_collapse))
