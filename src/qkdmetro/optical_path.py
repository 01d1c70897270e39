"""Optical elements and their per-wavelength losses.

All losses are in dB and compose additively along a light path;
transmittance converts to the linear domain.  Elements are named tuples
that take every field, as the scenario builders set them all; a light
path is a chain of them that each builder states (see network.LinkModel).
"""

import math
from collections import namedtuple

from .params import check


class FiberSpan(namedtuple("FiberSpan", ("length_km", "atten_db_per_km"))):
    """A fiber span; its Raman coefficient is the scenario's to set."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.length_km < 0:
            raise ValueError("fiber length must be non-negative")
        check("alpha_table", self.atten_db_per_km)
        return self

    def alpha_db_per_km(self, wavelength_nm):
        """Attenuation in dB/km: linear between the table's pivots, the end
        pivot's value beyond them."""
        if math.isnan(wavelength_nm):
            raise ValueError(f"wavelength {wavelength_nm!r} nm is not a number")
        pts = sorted(self.atten_db_per_km)
        if wavelength_nm <= pts[0][0]:
            return pts[0][1]
        if wavelength_nm >= pts[-1][0]:
            return pts[-1][1]
        # the segment that ends at the first pivot not below the wavelength
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            if wavelength_nm <= x1:
                break
        t = (wavelength_nm - x0) / (x1 - x0)
        return y0 + t * (y1 - y0)


# mode is add, express or drop; loss_db is the loss of that traversal
RoadmNode = namedtuple("RoadmNode", ("mode", "loss_db", "isolation_db"))


class Splitter(namedtuple("Splitter", ("ratio", "excess_loss_db"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check("splitter_ratio", self.ratio)
        return self


class Filter(namedtuple("Filter", (
        "center_nm", "width_nm", "insertion_loss_db", "out_of_band_rejection_db"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check("filter_width_nm", self.width_nm)
        return self

    def in_band(self, wavelength_nm):
        return abs(wavelength_nm - self.center_nm) <= self.width_nm / 2.0


MuxDemux = namedtuple("MuxDemux", ("insertion_loss_db", "adjacent_isolation_db"))


def dbm_to_watts(dbm):
    return 1e-3 * 10.0 ** (dbm / 10.0)


def element_loss(element, wavelength_nm):
    """In-band loss of one element at the given wavelength, in dB."""
    if isinstance(element, FiberSpan):
        return element.length_km * element.alpha_db_per_km(wavelength_nm)
    if isinstance(element, RoadmNode):
        return element.loss_db
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
        return element.loss_db + element.isolation_db
    if isinstance(element, MuxDemux):
        return element.insertion_loss_db + element.adjacent_isolation_db
    return element_loss(element, wavelength_nm)


def transmittance(loss_db):
    return 10.0 ** (-loss_db / 10.0)

