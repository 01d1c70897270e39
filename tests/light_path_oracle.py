"""Reference oracle: the per-length light path, built element by element.

The product compiles each scenario's chain once into a network.LinkModel
and splices the variable span in per length.  This module instead builds
the whole light path at each length, as a LightPath of elements, the
Raman coefficient of each fiber and the classical launch points that ride
on the same fiber, and sums its loss (path_loss) and noise
(background_yield) element by element, adding left to right from 0.0.
The tests require the LinkModel's results to equal these bit for bit.

The oracle shares with the product only the builder's chain (the
LinkModel's head and tail, read as fields), the layout of the variable
span (_variable_layout, of the LinkModel's terms), the launch plan (LAUNCH_PLANS) and the Raman
length factors (raman_length_factors); it never calls a LinkModel
method.  It builds the variable span's pieces from the parameters, and
the connectors that join them are its own elements.  Its noise kernel,
noise_response, is its own: it walks a flattened light path row by row,
and parameter_oracle.combine_noise scales its response.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from qkdmetro import optical_path
from qkdmetro.network import LAUNCH_PLANS, QUANTUM_NM, _variable_layout
from qkdmetro.noise import REFERENCE_FILTER_WIDTH_NM, raman_length_factors
from qkdmetro.optical_path import FiberSpan, dbm_to_watts, transmittance

from parameter_oracle import combine_noise

# A connector joining the variable span's fiber: loss only, no Raman
# scattering, and a classical leak sees its loss as its rejection.
Connector = namedtuple("Connector", ("loss_db",))


def element_loss(element, wavelength_nm):
    """optical_path.element_loss, with the connector's rule."""
    if isinstance(element, Connector):
        return element.loss_db
    return optical_path.element_loss(element, wavelength_nm)


def element_rejection_db(element, wavelength_nm):
    """optical_path.element_rejection_db, with the connector's rule."""
    if isinstance(element, Connector):
        return element.loss_db
    return optical_path.element_rejection_db(element, wavelength_nm)


@dataclass(frozen=True)
class LaunchPoint:
    """A classical transmitter coupled into the path.

    direction 'co' enters at the path start and propagates toward the path
    end (the quantum receiver), 'counter' enters at the end toward the
    start.
    """

    wavelength_nm: float
    power_dbm: float
    direction: str = "co"
    attenuation_db: float = 0.0

    def launch_watts(self):
        return dbm_to_watts(self.power_dbm - self.attenuation_db)


@dataclass(frozen=True)
class LightPath:
    """elements and the launches on them; rhos[i] is the Raman
    coefficient of elements[i] where that is a FiberSpan, None elsewhere,
    and is read only for the noise."""

    elements: tuple
    launches: tuple = field(default_factory=tuple)
    rhos: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.elements:
            raise ValueError("a light path needs at least one element")


def path_loss(path, wavelength_nm):
    """Total in-band loss along the path, in dB."""
    return reduce(add, [element_loss(e, wavelength_nm) for e in path.elements], 0.0)


def build_light_path(scenario, length_km):
    """LightPath of the scenario with the variable span at length_km:
    the head, the span's pieces, the connectors joining them, the tail."""
    pieces, n_conn = _variable_layout(scenario.link.terms, length_km)
    p = scenario.params
    link = scenario.link
    table = tuple(p["alpha_table"])

    # the first piece has the base fiber's rho, a second one rho_beyond,
    # every fixed span the base fiber's
    piece_rhos = (p["rho"], p["rho_beyond"])[:len(pieces)]
    rho_of = lambda e: p["rho"] if isinstance(e, FiberSpan) else None
    elements = (*link.head, *[FiberSpan(length, table) for length in pieces],
                *[Connector(p["connector_loss_db"]) for _ in range(n_conn)],
                *link.tail)
    rhos = (*map(rho_of, link.head), *piece_rhos, *[None] * n_conn,
            *map(rho_of, link.tail))

    launches = tuple(
        LaunchPoint(wavelength_nm=wl, power_dbm=p[power], direction=direction,
                    attenuation_db=0.0 if atten is None else p[atten])
        for wl, power, direction, atten, _ in LAUNCH_PLANS[scenario.kind]
    )
    return LightPath(elements=elements, launches=launches, rhos=rhos)


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


def noise_budget(rows, rhos, launches, filter_width_nm, q_nm, detector):
    """Raman and crosstalk noise of a flattened light path, and its Y0.

    rows are noise_response's and rhos the Raman coefficient of each slot;
    launches are (pump_w, co, iso_db), pump_w being the launch power in W
    and the rest as in noise_response.
    """
    response = noise_response(rows, [launch[1:] for launch in launches],
                              filter_width_nm)
    return combine_noise(response, rhos, [launch[0] for launch in launches],
                         q_nm, detector)


def background_yield(path, detector, filter_width_nm, duty_cycle=1.0):
    """Per-gate background yield Y0 at the quantum receiver.

    The quantum receiver sits at the end of the path.  For every classical
    launch, Raman noise is generated per fiber span (direction dependent)
    and attenuated by all in-band elements between the span and the
    receiver; crosstalk leaks through the terminal demux/filter chain.
    """
    q_nm = QUANTUM_NM
    elements = path.elements
    fiber_idx = [i for i, e in enumerate(elements) if isinstance(e, FiberSpan)]
    terminal_start = (fiber_idx[-1] + 1) if fiber_idx else 0

    # In-band transmittance from just after element i to the detector.
    down_t = [1.0] * (len(elements) + 1)
    for i in range(len(elements) - 1, -1, -1):
        down_t[i] = down_t[i + 1] * transmittance(element_loss(elements[i], q_nm))

    launch_nms = [lp.wavelength_nm for lp in path.launches]
    rows, rhos = [], []
    for i, e in enumerate(elements[:terminal_start]):
        pump_t = tuple(transmittance(element_loss(e, c_nm)) for c_nm in launch_nms)
        if isinstance(e, FiberSpan):
            rows.append((len(rhos), down_t[i + 1], raman_length_factors(
                e.length_km, e.alpha_db_per_km(q_nm)), pump_t))
            rhos.append(path.rhos[i])
        else:
            rows.append((None, down_t[i + 1], None, pump_t))
    launches = [
        (lp.launch_watts() * duty_cycle, lp.direction == "co",
         reduce(add, [element_rejection_db(e, lp.wavelength_nm)
                      for e in elements[terminal_start:]], 0.0))
        for lp in path.launches
    ]
    return noise_budget(rows, rhos, launches, filter_width_nm, q_nm, detector)
