"""Optical noise reaching the quantum detector and the background yield Y0.

Two noise routes matter in CWDM/GPON coexistence: spontaneous Raman
scattering of the classical launch power inside the fiber spans, and
residual crosstalk of the classical carriers through the receiver's
demux/filter chain.  Both are converted to a per-gate detection
probability and added to the detector dark counts.

Both are linear in each launch's power and each span's Raman coefficient,
so the noise is computed in two stages: network.LinkModel.at, the length
stage, walks the compiled light path and gives each launch's noise per W
and per unit coefficient, from raman_length_factors and the leak through
the terminal chain, and network.evaluate_point, the parameter stage,
scales that response by the powers and coefficients and counts its
photons at the quantum wavelength.
"""

import math
from collections import namedtuple

from .params import check_fields

PLANCK_J_S = 6.62607015e-34
LIGHT_SPEED_M_S = 2.99792458e8
LN10 = math.log(10.0)

# Crosstalk is treated as a broadband floor inside the acceptance band, so
# it scales with the filter width relative to this reference.
REFERENCE_FILTER_WIDTH_NM = 0.8


class DetectorModel(namedtuple("DetectorModel", (
        "efficiency", "gate_width_s", "dark_count_prob", "deadtime_s",
        "misalignment_error", "pulse_rate_hz"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_fields(self)
        return self


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
