"""Optical noise reaching the quantum detector and the background yield Y0.

Two noise routes matter in CWDM/GPON coexistence: spontaneous Raman
scattering of the classical launch power inside the fiber spans, and
residual crosstalk of the classical carriers through the receiver's
demux/filter chain.  Both are converted to a per-gate detection
probability and added to the detector dark counts.

Both are linear in each launch's power and each span's Raman coefficient,
so the kernel has two stages: noise_response walks a light path once and
gives each launch's noise per W and per unit coefficient, and
network.evaluate_point, the parameter stage, scales that response by the
powers and coefficients and counts its photons at the quantum wavelength.
"""

import math
from collections import namedtuple

from .params import FrozenRecord, check_fields

PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 2.99792458e8
LN10 = math.log(10.0)

# Crosstalk is treated as a broadband floor inside the acceptance band, so
# it scales with the filter width relative to this reference.
REFERENCE_FILTER_WIDTH_NM = 0.8


class DetectorModel(FrozenRecord):
    _fields = ("efficiency", "gate_width_s", "dark_count_prob", "deadtime_s",
               "misalignment_error", "pulse_rate_hz")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        check_fields(self)


# Noise powers at the detector in W, and the per-gate yields.  A named
# tuple, built as tuple.__new__(NoiseBudget, (...)), which skips the
# constructor's Python frame, as one is built on every evaluation.
NoiseBudget = namedtuple("NoiseBudget", ("forward_raman_w", "backward_raman_w",
                                         "crosstalk_w", "dark_yield", "total_y0"))


def raman_forward(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km):
    """Co-propagating Raman noise power at the fiber output, in W."""
    _check_raman_args(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km)
    length, decay, _, _ = raman_length_factors(length_km, alpha_db_per_km)
    return p_launch_w * rho * dlambda_nm * length * decay


def raman_backward(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km):
    """Counter-propagating Raman noise power at the pump entry end, in W."""
    _check_raman_args(p_launch_w, rho, dlambda_nm, length_km, alpha_db_per_km)
    _, _, num, den = raman_length_factors(length_km, alpha_db_per_km)
    return p_launch_w * rho * dlambda_nm * num / den


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


def _check_raman_args(p, rho, dlam, length, alpha):
    if min(p, rho, dlam, length, alpha) < 0:
        raise ValueError("raman arguments must be non-negative")


def crosstalk_leak(p_launch_w, isolation_db):
    """Classical power leaking through a component with the given isolation."""
    if p_launch_w < 0 or isolation_db < 0:
        raise ValueError("power and isolation must be non-negative")
    return p_launch_w * 10.0 ** (-isolation_db / 10.0)


def noise_response(rows, launches, filter_width_nm):
    """The length stage: each launch's noise at the detector per W
    launched and per unit Raman coefficient.

    rows describe the elements before the terminal chain, source end
    first, as (fiber, down_t, factors, pump_t): fiber is the span's slot in
    the Raman coefficients that the parameter stage is given (None for a lumped
    element, whose down_t and factors are unused), down_t is the in-band
    transmittance from just after the element to the detector, factors are
    the span's raman_length_factors at its attenuation at the quantum
    wavelength, and pump_t is the element's transmittance at each launch's
    wavelength.  launches are (co, iso_db): co whether the launch enters
    at the source end and pumps every row in order (else it enters at the
    detector end and pumps them in reverse), iso_db the terminal chain's
    rejection at its wavelength.

    Returns a list of one (co, terms, crosstalk) per launch: terms one
    (slot, raman) per fiber it pumps, in pumping order, raman being that
    span's Raman noise at the detector per W and per unit of its
    coefficient, and crosstalk the launch's leak through the terminal
    chain per W, scaled to the filter width.  The noise is linear in each
    launch's power and each span's coefficient, so a response serves
    every power and coefficient.
    """
    # raman_forward's and raman_backward's products with unit power and
    # rho, inlined, as they run per fiber and launch at every link point
    width_factor = filter_width_nm / REFERENCE_FILTER_WIDTH_NM
    response = []
    for k, (co, iso_db) in enumerate(launches):
        terms = []
        pump = 1.0
        if co:
            for fiber, down_t, factors, pump_t in rows:
                if fiber is not None:
                    terms.append((fiber, down_t * (
                        pump * filter_width_nm * factors[0] * factors[1])))
                pump *= pump_t[k]
            response.append((True, terms,
                             crosstalk_leak(pump, iso_db) * width_factor))
        else:
            # Adjacent transmitter at the receiver side couples directly
            # into the terminal chain.
            crosstalk = crosstalk_leak(pump, iso_db) * width_factor
            for fiber, down_t, factors, pump_t in reversed(rows):
                if fiber is not None:
                    terms.append((fiber, down_t * (
                        pump * filter_width_nm * factors[2] / factors[3])))
                pump *= pump_t[k]
            response.append((False, terms, crosstalk))
    return response
