"""Optical elements and their per-wavelength losses.

All losses are in dB and compose additively along a route; transmittance
converts to the linear domain.  Elements are immutable; a route is a tuple
of them (see network.transparent_path).
"""

import math
from dataclasses import dataclass

from .params import DEFAULT_ATTENUATION, check


@dataclass(frozen=True)
class FiberSpan:
    length_km: float
    atten_db_per_km: tuple = DEFAULT_ATTENUATION
    raman_coeff: float = 3.0e-10  # W per W pump per km per nm, calibrated
    fiber_label: str = "smf"

    def __post_init__(self):
        if self.length_km < 0:
            raise ValueError("fiber length must be non-negative")
        check("alpha_table", self.atten_db_per_km)
        check("rho", self.raman_coeff)

    def alpha_db_per_km(self, wavelength_nm):
        pts = sorted(self.atten_db_per_km)
        if wavelength_nm <= pts[0][0]:
            return pts[0][1]
        if wavelength_nm >= pts[-1][0]:
            return pts[-1][1]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if x0 <= wavelength_nm <= x1:
                t = (wavelength_nm - x0) / (x1 - x0)
                return y0 + t * (y1 - y0)
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class Fiber:
    span: FiberSpan


@dataclass(frozen=True)
class Connector:
    loss_db: float = 0.5


@dataclass(frozen=True)
class RoadmNode:
    express_loss_db: float = 2.5
    add_drop_loss_db: float = 2.0
    isolation_db: float = 30.0
    mode: str = "express"  # add | express | drop, set when the path is built

    def traversal_loss_db(self):
        return self.express_loss_db if self.mode == "express" else self.add_drop_loss_db


@dataclass(frozen=True)
class Splitter:
    ratio: int
    excess_loss_db: float = 0.0

    def __post_init__(self):
        check("splitter_ratio", self.ratio)


@dataclass(frozen=True)
class Filter:
    center_nm: float
    width_nm: float
    insertion_loss_db: float = 1.5
    out_of_band_rejection_db: float = 90.0

    def __post_init__(self):
        check("filter_width_nm", self.width_nm)

    def in_band(self, wavelength_nm):
        return abs(wavelength_nm - self.center_nm) <= self.width_nm / 2.0


@dataclass(frozen=True)
class MuxDemux:
    insertion_loss_db: float = 1.0
    adjacent_isolation_db: float = 30.0


def dbm_to_watts(dbm):
    return 1e-3 * 10.0 ** (dbm / 10.0)


def element_loss(element, wavelength_nm):
    """In-band loss of one element at the given wavelength, in dB."""
    if isinstance(element, Fiber):
        return element.span.length_km * element.span.alpha_db_per_km(wavelength_nm)
    if isinstance(element, Connector):
        return element.loss_db
    if isinstance(element, RoadmNode):
        return element.traversal_loss_db()
    if isinstance(element, Splitter):
        return 10.0 * math.log10(element.ratio) + element.excess_loss_db
    if isinstance(element, Filter):
        if element.in_band(wavelength_nm):
            return element.insertion_loss_db
        return element.insertion_loss_db + element.out_of_band_rejection_db
    if isinstance(element, MuxDemux):
        return element.insertion_loss_db
    raise TypeError(f"not an optical element: {element!r}")


def element_rejection_db(element, wavelength_nm):
    """Loss seen by an out-of-band classical leak, in dB.

    Same as element_loss except that isolation-bearing components add their
    rejection figure regardless of the leak wavelength.
    """
    if isinstance(element, Filter):
        return element.insertion_loss_db + element.out_of_band_rejection_db
    if isinstance(element, RoadmNode):
        return element.traversal_loss_db() + element.isolation_db
    if isinstance(element, MuxDemux):
        return element.insertion_loss_db + element.adjacent_isolation_db
    return element_loss(element, wavelength_nm)


def transmittance(loss_db):
    return 10.0 ** (-loss_db / 10.0)

