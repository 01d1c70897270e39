"""Optical noise reaching the quantum detector and the background yield Y0.

Two noise routes matter in CWDM/GPON coexistence: spontaneous Raman
scattering of the classical launch power inside the fiber spans, and
residual crosstalk of the classical carriers through the receiver's
demux/filter chain.  Both are converted to a per-gate detection
probability and added to the detector dark counts.
"""

import math
from dataclasses import dataclass

PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 2.99792458e8
LN10 = math.log(10.0)

# Crosstalk is treated as a broadband floor inside the acceptance band, so
# it scales with the filter width relative to this reference.
REFERENCE_FILTER_WIDTH_NM = 0.8


@dataclass(frozen=True)
class DetectorModel:
    efficiency: float = 0.10
    gate_width_s: float = 1.0e-9
    dark_count_prob: float = 2.0e-5
    deadtime_s: float = 1.0e-5
    misalignment_error: float = 0.001
    pulse_rate_hz: float = 1.0e6

    def __post_init__(self):
        if not 0 < self.efficiency <= 1:
            raise ValueError("detector efficiency must be in (0, 1]")
        if not 0 <= self.misalignment_error < 0.5:
            raise ValueError("misalignment error must be in [0, 0.5)")
        if not (0 <= self.gate_width_s < math.inf and 0 <= self.deadtime_s < math.inf):
            raise ValueError("gate width and deadtime must be finite and non-negative")
        if not 0 <= self.dark_count_prob <= 1:
            raise ValueError("dark count probability must be in [0, 1]")
        if not 0 < self.pulse_rate_hz < math.inf:
            raise ValueError("pulse rate must be finite and positive")


@dataclass(frozen=True)
class NoiseBudget:
    forward_raman_w: float
    backward_raman_w: float
    crosstalk_w: float
    dark_yield: float
    total_y0: float


def raman_forward(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km):
    """Co-propagating Raman noise power at the fiber output, in W."""
    _check_raman_args(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km)
    return _forward_w(p_launch_w, rho, dlambda_nm,
                      raman_length_factors(length_km, alpha_db_per_km))


def raman_backward(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km):
    """Counter-propagating Raman noise power at the pump entry end, in W."""
    _check_raman_args(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km)
    return _backward_w(p_launch_w, rho, dlambda_nm,
                       raman_length_factors(length_km, alpha_db_per_km))


def raman_length_factors(length_km, alpha_db_per_km):
    """The factors of a span's Raman noise that depend on its length alone.

    Returns (L, exp(-aL), num, den): the forward noise is
    P rho dlambda L exp(-aL) and the backward noise P rho dlambda num / den,
    with num / den = -expm1(-2aL) / 2a, or L / 1 in a lossless span.
    """
    alpha = alpha_db_per_km * LN10 / 10.0
    decay = math.exp(-alpha * length_km)
    if alpha == 0.0:
        return length_km, decay, length_km, 1.0
    return length_km, decay, -math.expm1(-2.0 * alpha * length_km), 2.0 * alpha


# Unchecked Raman products for noise_budget's per-span loop.
def _forward_w(p_launch_w, rho, dlambda_nm, factors):
    return p_launch_w * rho * dlambda_nm * factors[0] * factors[1]


def _backward_w(p_launch_w, rho, dlambda_nm, factors):
    return p_launch_w * rho * dlambda_nm * factors[2] / factors[3]


def _check_raman_args(p, rho, dlam, length, alpha):
    if min(p, rho, dlam, length, alpha) < 0:
        raise ValueError("raman arguments must be non-negative")


def crosstalk_leak(p_launch_w, isolation_db):
    """Classical power leaking through a component with the given isolation."""
    if p_launch_w < 0 or isolation_db < 0:
        raise ValueError("power and isolation must be non-negative")
    return p_launch_w * 10.0 ** (-isolation_db / 10.0)


def power_to_photon_rate(p_w, wavelength_nm):
    """Photon flux of an optical power at the given wavelength, in 1/s."""
    if p_w < 0 or wavelength_nm <= 0:
        raise ValueError("need non-negative power and positive wavelength")
    return p_w * wavelength_nm * 1e-9 / (PLANCK_J_S * LIGHT_SPEED_M_S)


def noise_budget(rows, rhos, launches, filter_width_nm, q_nm, detector):
    """Raman and crosstalk noise of a flattened light path, and its Y0.

    rows describe the elements before the terminal chain, source end
    first, as (fiber, down_t, factors, pump_t): fiber indexes the span's
    Raman coefficient in rhos (None for a lumped element, whose down_t and
    factors are unused), down_t is the in-band transmittance from just
    after the element to the detector, factors are the span's
    raman_length_factors at its attenuation at the quantum wavelength, and
    pump_t is the element's transmittance at each launch's wavelength.
    launches are (pump_w, direction, position, iso_db), position indexing
    the row before which the launch enters and iso_db the terminal chain's
    rejection at its wavelength.
    """
    width_factor = filter_width_nm / REFERENCE_FILTER_WIDTH_NM
    terminal_start = len(rows)
    forward_w = 0.0
    backward_w = 0.0
    crosstalk_w = 0.0
    for k, (pump_w, direction, position, iso_db) in enumerate(launches):
        if pump_w == 0.0:
            continue
        if direction == "co":
            for i in range(position, terminal_start):
                fiber, down_t, factors, pump_t = rows[i]
                if fiber is not None:
                    forward_w += down_t * _forward_w(
                        pump_w, rhos[fiber], filter_width_nm, factors)
                pump_w *= pump_t[k]
            crosstalk_w += crosstalk_leak(pump_w, iso_db) * width_factor
        elif direction == "counter":
            # Adjacent transmitter at the receiver side couples directly
            # into the terminal chain.
            crosstalk_w += crosstalk_leak(pump_w, iso_db) * width_factor
            for i in range(min(position, terminal_start) - 1, -1, -1):
                fiber, down_t, factors, pump_t = rows[i]
                if fiber is not None:
                    backward_w += down_t * _backward_w(
                        pump_w, rhos[fiber], filter_width_nm, factors)
                pump_w *= pump_t[k]
        else:
            raise ValueError(f"unknown launch direction {direction!r}")

    total_w = forward_w + backward_w + crosstalk_w
    photon_yield = (power_to_photon_rate(total_w, q_nm)
                    * detector.gate_width_s * detector.efficiency)
    return NoiseBudget(
        forward_raman_w=forward_w,
        backward_raman_w=backward_w,
        crosstalk_w=crosstalk_w,
        dark_yield=detector.dark_count_prob,
        total_y0=detector.dark_count_prob + photon_yield,
    )
