"""The two built-in testbeds and end-to-end link evaluation.

Each testbed has one light path from the QKD transmitter to its
receiver, which its builder states as a chain.  Backbone: the worst-case
arc of a three-node CWDM ROADM ring, where key grows between nodes 1 and
3 with node 2 in pass-through and the swept fiber sits between nodes 1
and 2 (worst case: all length on one segment): ROADM 1 add - variable
fiber - ROADM 2 express - fixed fiber - ROADM 3 drop - receiver filter.
Access: OLT mux - variable feeder fiber - 1:4 splitter - short drop
fiber - ONT filter.

The element losses are a fixed modeling split of the published no-fiber
aggregates (8 dB backbone, 9 dB GPON); the receiver-side element (the
drop ROADM, the splitter excess) is trimmed so the zero-length aggregate
is exact.  Elements that leave it no room are an error.

A Scenario holds its kind, its parameters, the parameter stage's Inputs
and the compiled LinkModel, which owns the structure: evaluate_link runs
the LinkModel's length stage at a length, then evaluate_point, the
parameter stage, on the Inputs.  Each stage is compiled once: the
LinkModel once per structure, and each Inputs field (the decoy terms hold
the decoy record and its invariants) once per value; a search at fixed
lengths, such as calibrate's or optimize-mu's, varies the Inputs through
variation.  evaluate_point returns plain floats in the RESULT_FIELDS
layout; only evaluate_link builds the QkdPerformance records from them.
"""

import math
from collections import namedtuple
from math import exp, expm1, log2
from operator import itemgetter

from .errors import BoundCollapse, DegenerateChannel, DomainError, involving
from .keyrate import DecoyParams, DistillationRates, KeyRateParams, YieldGain
from .noise import (LIGHT_SPEED_M_S, LN10, PLANCK_J_S, REFERENCE_FILTER_WIDTH_NM,
                    DetectorModel, NoiseBudget, raman_length_factors)
from .optical_path import (FiberSpan, Filter, MuxDemux, RoadmNode, Splitter,
                           dbm_to_watts, element_loss, element_rejection_db,
                           transmittance)
from .params import (DEFAULTS, LAUNCH_PLANS, PER_EVALUATION_PARAMS, QUANTUM_NM,
                     check_params, ordered_sum)

# The published loss of each testbed with no fiber, in dB, and the fixed
# element losses it is split into, in dB; see the module docstring.  The
# mux sits before the variable span, so its isolation never meets a leak.
NO_FIBER_LOSS_DB = {"backbone": 8.0, "gpon": 9.0}
ROADM_ADD_DROP_DB = 2.0
ROADM_EXPRESS_DB = 2.5
ROADM_ISOLATION_DB = 30.0
MUX_INSERTION_DB = 1.0
MUX_ISOLATION_DB = 30.0


# The parameter stage's inputs (see evaluate_point): the Raman
# coefficients of the variable span's first piece and of a second one past
# split_km, each launch of LAUNCH_PLANS[kind]'s power in W past its
# attenuation, times the duty cycle, the decoy terms (see decoy_terms),
# and the DetectorModel's and KeyRateParams' values, each a plain tuple in
# its record's field order, which CPython unpacks faster than a named tuple.
Inputs = namedtuple("Inputs", ("rho", "rho_beyond", "launch_w", "detector",
                               "decoy_terms", "keyrate"))


def decoy_terms(decoy):
    """The DecoyParams decoy's terms: the record, its intensities, its mode
    as a flag and the factors of the decoy bound that depend on mu and nu
    alone, exp(mu), exp(nu), exp(-mu), mu/(mu*nu - nu*nu), mu*mu and
    (mu*mu - nu*nu)/(mu*mu).  mu*nu - nu*nu > 0 for 0 < nu < mu, but it
    underflows to 0 for tiny ones; then the factors derived from it are
    None, and evaluate_point raises the named error where it takes the
    bound: compiling the terms raises nothing that evaluating them would
    not."""
    mu, nu = decoy.mu, decoy.nu
    spread = mu * nu - nu * nu
    exact_y0 = decoy.estimator_mode == "exact_y0"
    if spread > 0.0:
        # mu*mu >= mu*nu > 0 here, so it divides
        mu2 = mu * mu
        return (decoy, mu, nu, exact_y0, exp(mu), exp(nu), exp(-mu), mu / spread, mu2,
                (mu2 - nu * nu) / mu2)
    return (decoy, mu, nu, exact_y0, exp(mu), exp(nu), exp(-mu), None, None, None)


# A named tuple: with_overrides builds a child as tuple.__new__(Scenario,
# (...)), so Scenario runs no constructor code of its own.
class Scenario(namedtuple("Scenario", ("kind", "params", "inputs", "link"))):
    __slots__ = ()

    # read-only views for API callers, such as the acceptance gate
    detector = property(lambda self: tuple.__new__(DetectorModel, self.inputs.detector))
    decoy = property(lambda self: self.inputs.decoy_terms[0])
    keyrate_params = property(lambda self: tuple.__new__(KeyRateParams, self.inputs.keyrate))
    filter_width_nm = property(lambda self: self.params["filter_width_nm"])


# evaluate_link's result: the loss in dB, the channel transmittance with
# the detector efficiency, the NoiseBudget, the YieldGain and the
# DistillationRates.  A named tuple, built as tuple.__new__(QkdPerformance,
# (...)), which skips the constructor's Python frame (see README).
QkdPerformance = namedtuple("QkdPerformance", ("loss_db", "eta", "noise",
                                               "yield_gain", "rates"))

# The layout of evaluate_point's plain result: first the sweep CSV's
# columns after length_km, then the rest of the NoiseBudget and the
# YieldGain.  Callers read a field by RESULT_FIELDS.index(name).
RESULT_FIELDS = ("total_loss_db", "eta", "y0", "q_mu", "qber", "raw_bps", "sifted_bps",
                 "ec_corrected_bps", "secret_bps", "forward_raman_w", "backward_raman_w",
                 "crosstalk_w", "dark_yield", "y1_low", "e1_up", "q1_low")


def _merge(defaults, overrides):
    """defaults with overrides, each checked once: _CLASS_CHECKED ones when
    their class is built (every builder builds them all, with_overrides and
    variation those an override touches), the others here."""
    if not overrides.keys() <= defaults.keys():
        unknown = set(overrides).difference(defaults)
        raise ValueError(f"unknown scenario parameters: {sorted(unknown)}")
    check_params(overrides, _CLASS_CHECKED)
    return {**defaults, **overrides}


def _launch_watts(kind, p):
    duty = p["duty_cycle"]
    return tuple([dbm_to_watts(p[power] - (0.0 if atten is None else p[atten])) * duty
                  for _, power, _, atten, _ in LAUNCH_PLANS[kind]])


def _record(cls, p):
    """The cls parameter record of its fields' parameters, checked."""
    return cls(*[p[n] for n in cls._fields])


# The groups of the Inputs fields, in build order: each field's index, the
# parameters it is built from and build(kind, p), its value.  The builders
# run every group; with_overrides runs those an override touches, so a mu
# or nu override builds one DecoyParams and compiles its terms alone.
_LAUNCH_PARAMS = frozenset(key for plan in LAUNCH_PLANS.values()
                           for _, power, _, atten, _ in plan
                           for key in (power, atten) if key is not None)
_EVALUATION_GROUPS = tuple((Inputs._fields.index(field), frozenset(names), build)
                           for field, names, build in (
    ("detector", DetectorModel._fields, lambda kind, p: tuple(_record(DetectorModel, p))),
    ("decoy_terms", DecoyParams._fields, lambda kind, p: decoy_terms(_record(DecoyParams, p))),
    ("keyrate", KeyRateParams._fields, lambda kind, p: tuple(_record(KeyRateParams, p))),
    ("launch_w", _LAUNCH_PARAMS | {"duty_cycle"}, _launch_watts),
    ("rho", ["rho"], lambda kind, p: p["rho"]),
    ("rho_beyond", ["rho_beyond"], lambda kind, p: p["rho_beyond"]),
))

# the parameters that the parameter records check as their fields
_CLASS_CHECKED = frozenset(DetectorModel._fields + DecoyParams._fields
                           + KeyRateParams._fields)


def _check_split(p):
    # either alone would leave the span whole without a word
    if (p["split_km"] is None) != (p["rho_beyond"] is None):
        raise involving(ValueError("split_km and rho_beyond must be set together"),
                        "split_km", "rho_beyond")


def _spans(p):
    """The variable span, built at length 0, and the fixed one: the same
    fiber, its length fixed_km, which _merge has range-checked."""
    _check_split(p)
    var_span = FiberSpan(0.0, tuple(p["alpha_table"]))
    return var_span, var_span._replace(length_km=p["fixed_km"])


def _quantum_filter(p):
    return Filter(QUANTUM_NM, p["filter_width_nm"], p["filter_insertion_db"],
                  p["filter_rejection_db"])


def _trimmed(kind, element_dbs, *params):
    """The receiver-side element's loss that makes the kind's no-fiber loss
    exact: the target less each of the other elements' losses, in order.
    Elements that leave it below 0 are an error involving params."""
    rest = NO_FIBER_LOSS_DB[kind]
    for db in element_dbs:
        rest -= db
    if rest < 0:
        raise involving(ValueError("element defaults exceed the no-fiber loss target"),
                        "filter_insertion_db", "fixed_km", ("alpha_table", QUANTUM_NM),
                        *params)
    return rest


def build_backbone_scenario(**overrides):
    """Worst-case arc of a three-node CWDM ROADM ring (quantum at 1550 nm)."""
    p = _merge(DEFAULTS["backbone"], overrides)
    var_span, fixed = _spans(p)
    drop_db = _trimmed("backbone", (ROADM_ADD_DROP_DB, ROADM_EXPRESS_DB,
                                    p["filter_insertion_db"],
                                    p["fixed_km"] * fixed.alpha_db_per_km(QUANTUM_NM)))
    head = (RoadmNode("add", ROADM_ADD_DROP_DB, ROADM_ISOLATION_DB),)
    tail = (RoadmNode("express", ROADM_EXPRESS_DB, ROADM_ISOLATION_DB), fixed,
            RoadmNode("drop", drop_db, ROADM_ISOLATION_DB), _quantum_filter(p))
    return _scenario("backbone", p, head, var_span, tail)


def build_gpon_scenario(**overrides):
    """GPON access scenario: OLT - feeder fiber - splitter - drop - ONT."""
    p = _merge(DEFAULTS["gpon"], overrides)
    var_span, fixed = _spans(p)
    excess = _trimmed("gpon", (MUX_INSERTION_DB, 10.0 * math.log10(p["splitter_ratio"]),
                               p["filter_insertion_db"],
                               p["fixed_km"] * fixed.alpha_db_per_km(QUANTUM_NM)),
                      "splitter_ratio")
    head = (MuxDemux(MUX_INSERTION_DB, MUX_ISOLATION_DB),)
    tail = (Splitter(p["splitter_ratio"], excess), fixed, _quantum_filter(p))
    return _scenario("gpon", p, head, var_span, tail)


def _scenario(kind, p, head, var_span, tail):
    """The Scenario, with its LinkModel compiled from the builder's chain."""
    inputs = [None] * len(Inputs._fields)
    for i, _, build in _EVALUATION_GROUPS:
        inputs[i] = build(kind, p)
    return Scenario(kind, p, Inputs._make(inputs),
                    LinkModel.compile(kind, p, head, var_span, tail))


BUILDERS = {"backbone": build_backbone_scenario, "gpon": build_gpon_scenario}


def with_overrides(scenario, **overrides):
    """The scenario with some parameters replaced.

    The overridden parameters are range-checked, and rho_beyond against
    split_km, as the builders check theirs.  When every one is in
    PER_EVALUATION_PARAMS, the child shares the parent's LinkModel and only
    the Inputs fields whose parameters the override touches (see
    _EVALUATION_GROUPS) are rebuilt, in the builders' order; the parent's
    other fields were built and checked from the same values, and the
    child shares them.
    Any other override rebuilds the scenario, compiling a new LinkModel.
    """
    p = _merge(scenario.params, overrides)
    kind = scenario.kind
    if not overrides.keys() <= PER_EVALUATION_PARAMS:
        return BUILDERS[kind](**p)
    if "rho_beyond" in overrides:
        _check_split(p)
    inputs = list(scenario.inputs)
    for i, names, build in _EVALUATION_GROUPS:
        if not names.isdisjoint(overrides):
            inputs[i] = build(kind, p)
    return tuple.__new__(Scenario, (kind, p, tuple.__new__(Inputs, inputs),
                                    scenario.link))


def variation(scenario, names):
    """inputs_of(values): the scenario's Inputs with every parameter of the
    tuple names[j] set to values[j] and checked as with_overrides checks
    it, for a search at fixed lengths.  Each field a name sets (see
    _EVALUATION_GROUPS) is built once per key, the values that set it; the
    others are the scenario's own.  A name that is not a per-evaluation
    parameter of the scenario is a ValueError naming it."""
    kind, params = scenario.kind, scenario.params
    stray = {n for group in names for n in group} - PER_EVALUATION_PARAMS.intersection(params)
    if stray:
        raise ValueError(f"not per-evaluation parameters of a {kind} scenario: "
                         f"{sorted(stray)}")
    # (Inputs index, key getter, indices of the names that set it, build,
    # value by key); budget_db, which no group reads, is checked alone
    fields = []
    for i, group, build in (*_EVALUATION_GROUPS, (None, {"budget_db"}, lambda kind, p: None)):
        js = [j for j, varied in enumerate(names) if not group.isdisjoint(varied)]
        if js:
            fields.append((i, itemgetter(*js), js, build, {}))

    def inputs_of(values):
        inputs = list(scenario.inputs)
        for i, key_of, js, build, cache in fields:
            key = key_of(values)
            try:
                value = cache[key]
            except KeyError:
                overrides = {n: values[j] for j in js for n in names[j]}
                p = _merge(params, overrides)
                if "rho_beyond" in overrides:
                    _check_split(p)
                value = cache[key] = build(kind, p)
            if i is not None:
                inputs[i] = value
        return tuple.__new__(Inputs, inputs)

    return inputs_of


# The most connectors a variable span may hold: the length stage lists
# each one, so a span of more is a ValueError, not an overflow or a list
# that fills memory.  The same cap as config.MAX_SWEEP_POINTS.
MAX_CONNECTORS = 1_000_000


def _variable_layout(terms, length_km):
    """Pieces of the variable span and the connectors joining it, read
    from a LinkModel's terms (see LinkModel).

    The span is cut at split_km, if set and length_km runs past it; the
    second piece has rho_beyond.  One connector joins each started
    connector_every_km, if set (on the backbone), at most MAX_CONNECTORS,
    so a positive length has one at least.  Returns (piece lengths,
    connector count).  A negative or non-finite length is a ValueError.
    """
    if not 0.0 <= length_km < math.inf:
        if length_km < 0:
            raise ValueError("length must be non-negative")
        raise ValueError(f"length must be finite, got {length_km!r} km")
    split, every = terms[0], terms[1]
    if split is not None and length_km > split:
        pieces = (split, length_km - split)
    else:
        pieces = (length_km,)
    n_conn = 0
    if every is not None and length_km > 0:
        # the quotient can be inf, which math.ceil cannot take, or
        # underflow to 0.0 for a subnormal length
        spans = length_km / every
        if spans > MAX_CONNECTORS:
            raise ValueError(
                f"a {length_km!r} km span with a connector every "
                f"{every!r} km needs more than {MAX_CONNECTORS} connectors")
        n_conn = math.ceil(spans) or 1
    return pieces, n_conn


class LinkModel(namedtuple("LinkModel", ("head", "var_span", "tail", "terms"))):
    """A scenario's light path compiled to per-element floats.

    Holds the builder's chain, head (the lumped elements before the
    variable span), var_span (that span as built, of length 0) and tail
    (the fixed span and the terminal chain after it), and terms: what the
    length stage reads, which the per-evaluation parameters leave fixed,
    in one plain tuple that at unpacks once per call, as evaluate_point
    unpacks the Inputs.  terms is (split_km, connector_every_km,
    connector_db, connector_t, alpha_q, head_loss, tail_loss, tail_t,
    raman_alpha, raman_2alpha, filter_width_nm, width_factor, walks): the
    split and the connector spacing (None for none), the connector's loss
    and transmittance, the variable span's attenuation at QUANTUM_NM in
    dB/km, the quantum-band loss of the head, summed from 0.0, and of each
    tail element, the in-band transmittance from the tail to the
    detector, the span's Raman alpha (raman_length_factors' alpha, 1/km)
    and twice it, the filter width and its ratio to
    REFERENCE_FILTER_WIDTH_NM, and each launch's walk, in LAUNCH_PLANS
    order: everything of the launch's noise that does not depend on the
    length, computed once (see compile).
    The variable span (with any second piece and the connectors, see
    _variable_layout) is spliced in between head and tail per length.
    Both builders state a head of one lumped add element and a tail that
    holds a fixed span, so no fiber precedes the variable span and
    connectors never join the terminal chain; compile checks the first.

    Each builder call compiles one model; with_overrides children that
    change only per-evaluation parameters share their parent's, so a
    calibration or mu search compiles none.

    An evaluation has two stages.  at, the length stage, returns a link
    point (loss, response): the loss and each launch's noise per W and per
    unit rho.  It does only the per-length work, in one frame: the layout
    of the variable span, the loss sum, the in-band transmittance through
    the connectors and pieces, each piece's Raman length factors and pump
    transmittance, and each launch's walk over what lies between its
    compiled ends.  evaluate_point, the parameter stage, scales the
    point's response by the Inputs (the launch powers in W, built once per
    scenario with the duty cycle, and the Raman coefficients), a few
    products per fiber and launch, and goes on to the key rate with the
    Inputs' parameter records.  The cut at split_km is structural, so a point
    serves every scenario that shares the model, and a fit or mu search at
    a fixed length walks the light path once.  loss_db gives the loss at
    any wavelength, for path-loss.

    The tests hold a reference oracle that builds the per-length light
    path element by element and sums its loss through path_loss and its
    noise through the oracle's noise_response and combine_noise; the
    stages and loss_db do its float operations in its order, and the
    tests require their results to be bit-identical to it.
    """

    __slots__ = ()

    @classmethod
    def compile(cls, kind, p, head, var_span, tail):
        """The model of the kind's chain head, var_span, tail, whose
        elements past the tail's last fiber are the terminal chain, with
        the launches of LAUNCH_PLANS[kind].

        A launch's walk is (co, alpha, pump, tail, leak): co whether it
        enters at the source end, alpha the variable span's attenuation at
        its wavelength, and leak its crosstalk per W at the detector from
        the terminal chain's rejection.  A co launch pumps the route
        source end first: pump is its transmittance through the head, tail
        one (down_t, length, decay, pump_t) per tail element up to the
        terminal chain (down_t the in-band transmittance from just after
        a fiber to the detector, length and decay its first two Raman
        length factors, both None for a lumped element, pump_t the
        element's transmittance at the launch wavelength), and leak is per
        W reaching the terminal chain, before the width factor.  A counter
        launch enters at the detector end and pumps the tail first: tail
        is its terms of the fibers there, pump its transmittance through
        them, and leak its crosstalk with the width factor.
        """
        if any(isinstance(e, FiberSpan) for e in head):
            raise ValueError("the head before the variable span holds a fiber")
        filter_width_nm = p["filter_width_nm"]
        width_factor = filter_width_nm / REFERENCE_FILTER_WIDTH_NM
        n_rows = 1 + max(i for i, e in enumerate(tail) if isinstance(e, FiberSpan))
        tail_loss = tuple(element_loss(e, QUANTUM_NM) for e in tail)
        tail_down = [1.0]
        for loss in reversed(tail_loss):
            tail_down.append(tail_down[-1] * transmittance(loss))
        tail_down.reverse()
        # each tail element up to the terminal chain: (element, down_t,
        # Raman length factors), all None for a lumped one; every fixed
        # span has the base fiber's rho (slot 0)
        rows = [(e, down, raman_length_factors(e.length_km,
                                               e.alpha_db_per_km(QUANTUM_NM)))
                if isinstance(e, FiberSpan) else (e, None, (None,) * 4)
                for e, down in zip(tail[:n_rows], tail_down[1:])]

        walks = []
        for c_nm, _, direction, _, _ in LAUNCH_PLANS[kind]:
            iso_db = ordered_sum([element_rejection_db(e, c_nm) for e in tail[n_rows:]])
            leak = 10.0 ** (-iso_db / 10.0)
            alpha = var_span.alpha_db_per_km(c_nm)
            steps = [(down, factors, transmittance(element_loss(e, c_nm)))
                     for e, down, factors in rows]
            pump = 1.0
            if direction == "co":
                for e in head:
                    pump *= transmittance(element_loss(e, c_nm))
                walks.append((True, alpha, pump, tuple(
                    (down, factors[0], factors[1], pump_t)
                    for down, factors, pump_t in steps), leak))
            else:
                terms = []
                for down, factors, pump_t in reversed(steps):
                    if down is not None:
                        terms.append((0, down * (pump * filter_width_nm * factors[2]
                                                 / factors[3])))
                    pump *= pump_t
                walks.append((False, alpha, pump, tuple(terms), leak * width_factor))

        alpha_q = var_span.alpha_db_per_km(QUANTUM_NM)
        raman_alpha = alpha_q * LN10 / 10.0
        connector_db = p.get("connector_loss_db", 0.0)
        head_loss = ordered_sum([element_loss(e, QUANTUM_NM) for e in head])
        return cls(head, var_span, tail, (
            p["split_km"], p.get("connector_every_km"), connector_db,
            transmittance(connector_db), alpha_q, head_loss, tail_loss, tail_down[0],
            raman_alpha, 2.0 * raman_alpha, filter_width_nm, width_factor, tuple(walks)))

    def at(self, length_km):
        """The length stage: a link point of this model at length_km.

        The point is the tuple (loss, response): loss the loss in dB at
        the quantum wavelength, added in route order, and response one
        (co, terms, crosstalk) per launch: terms one (slot, raman) per
        fiber it pumps, in pumping order, raman being that span's Raman
        noise at the detector per W and per unit of its coefficient (slot
        1 that of the piece past split_km), and crosstalk the launch's
        leak through the terminal chain per W, scaled to the filter width.
        Plain tuples and lists, as one is built per evaluated length.
        """
        compiled = self.terms
        pieces, n_conn = _variable_layout(compiled, length_km)
        (_, _, connector_db, connector_t, alpha_q, loss, tail_loss, d, alpha, two_alpha,
         fw, width_factor, walks) = compiled
        # loss starts as the head's; d is the in-band transmittance from
        # just after the variable span to the detector, through the tail
        # and then the connectors
        for length in pieces:
            loss += length * alpha_q
        for _ in range(n_conn):
            loss += connector_db
            d *= connector_t
        for db in tail_loss:
            loss += db

        # each piece, from the detector end: (slot, length, d from just
        # after it, raman_length_factors' exp(-aL) and num); den is shared
        lossless = alpha == 0.0
        den = 1.0 if lossless else two_alpha
        backward = []
        for slot in range(len(pieces) - 1, -1, -1):
            length = pieces[slot]
            backward.append((slot, length, d, exp(-alpha * length),
                             length if lossless else -expm1(-two_alpha * length)))
            if slot:
                d *= 10.0 ** (-(length * alpha_q) / 10.0)

        response = []
        for co, a, pump, tail, leak in walks:
            if co:
                terms = []
                for slot, length, down, decay, _ in reversed(backward):
                    terms.append((slot, down * (pump * fw * length * decay)))
                    pump *= 10.0 ** (-(length * a) / 10.0)
                for _ in range(n_conn):
                    pump *= connector_t
                for down, length, decay, pump_t in tail:
                    if down is not None:
                        terms.append((0, down * (pump * fw * length * decay)))
                    pump *= pump_t
                response.append((True, terms, pump * leak * width_factor))
            else:
                terms = [*tail]
                for _ in range(n_conn):
                    pump *= connector_t
                for slot, length, down, _, num in backward:
                    terms.append((slot, down * (pump * fw * num / den)))
                    if slot:
                        pump *= 10.0 ** (-(length * a) / 10.0)
                response.append((False, terms, leak))
        return loss, response

    def loss_db(self, length_km, wavelength_nm):
        """Loss in dB at wavelength_nm along the route with the variable
        span at length_km, added in route order: head elements, variable
        pieces, connectors, tail elements."""
        pieces, n_conn = _variable_layout(self.terms, length_km)
        alpha = self.var_span.alpha_db_per_km(wavelength_nm)
        connector_db = self.terms[2]
        return ordered_sum([*[element_loss(e, wavelength_nm) for e in self.head],
                            *[length * alpha for length in pieces],
                            *[connector_db] * n_conn,
                            *[element_loss(e, wavelength_nm) for e in self.tail]])


def evaluate_link(scenario, length_km, on_collapse="raise"):
    """End-to-end QKD performance at the given variable fiber length: the
    scenario's length stage, then its parameter stage, as a QkdPerformance
    with its NoiseBudget, YieldGain and DistillationRates."""
    (loss, eta, y0, q_mu, e_mu, raw, sifted, ec, secret, forward_w, backward_w,
     crosstalk_w, dark, y1_low, e1_up, q1_low) = evaluate_point(
        scenario.link.at(length_km), scenario.inputs, on_collapse)
    return tuple.__new__(QkdPerformance, (
        loss, eta,
        tuple.__new__(NoiseBudget, (forward_w, backward_w, crosstalk_w, dark, y0)),
        tuple.__new__(YieldGain, (q_mu, e_mu, y1_low, e1_up, q1_low)),
        tuple.__new__(DistillationRates, (raw, sifted, ec, secret))))


# the energy of a photon times its wavelength, in J m
_PHOTON_J_M = PLANCK_J_S * LIGHT_SPEED_M_S

# The background counts' error rate: they are uncorrelated with the key
# bits (Ma, Qi, Zhao and Lo, PRA 72, 012326, 2005).  Less credits noise as key.
E0 = 0.5


def evaluate_point(point, inputs, on_collapse="raise"):
    """The parameter stage: the performance at a link point (see
    LinkModel.at) with the Inputs inputs, as one plain tuple of floats
    laid out as RESULT_FIELDS: the loss in dB, eta, Y0, Q_mu, the QBER
    E_mu, the raw, sifted, error-corrected and secret rates, the forward
    and backward Raman and crosstalk powers in W, the dark yield, and the
    decoy bounds Y1, e1 and Q1.  evaluate_link passes a scenario's and
    builds the records from it; calibrate and optimize-mu pass a
    variation's and read one field, run_sweep the first nine.
    A collapsed decoy bound raises BoundCollapse unless on_collapse is
    "zero", which gives a zero single-photon yield and so a zero rate.

    One frame combines the noise, then takes the gains and QBERs, the
    decoy bound and the distillation rates, reading the decoy bound's
    invariants that the Inputs' decoy terms computed once, and the
    background counts' error rate E0.  Every float operation is
    that of the reference helpers the tests compose (combine_noise, then
    gain and qber, decoy_estimate and distillation_rates), in their order,
    so each result is theirs bit for bit.
    """
    loss, response = point
    (rho, rho_beyond, launch_w,
     (efficiency, gate_width_s, dark, deadtime_s, e_det, pulse_rate_hz),
     (_, mu, nu, exact_y0, exp_mu, exp_nu, exp_neg_mu, mu_over_spread, mu2, mu2_rest),
     (q, f)) = inputs

    # The noise: each launch's response scaled by its power in W and the
    # Raman coefficients, indexed by the terms' slots.  A launch of power 0
    # adds nothing, whatever its response.
    rhos = (rho, rho_beyond)
    forward_w = 0.0
    backward_w = 0.0
    crosstalk_w = 0.0
    for pump_w, (co, terms, crosstalk) in zip(launch_w, response):
        if pump_w == 0.0:
            continue
        if co:
            for slot, raman in terms:
                forward_w += pump_w * (rhos[slot] * raman)
        else:
            for slot, raman in terms:
                backward_w += pump_w * (rhos[slot] * raman)
        crosstalk_w += pump_w * crosstalk
    # the photons per second at the quantum wavelength, per gate detected
    y0 = dark + ((forward_w + backward_w + crosstalk_w) * QUANTUM_NM * 1e-9
                 / _PHOTON_J_M * gate_width_s * efficiency)

    # gain Q = Y0 + 1 - exp(-eta*x) and QBER (E0*Y0 + e_det*(1 - exp(-eta*x))) / Q
    eta = 10.0 ** (-loss / 10.0) * efficiency
    m = expm1(-eta * mu)
    q_mu = y0 - m
    if q_mu == 0.0:
        raise DegenerateChannel("gain is zero; QBER undefined")
    e0_y0 = E0 * y0
    e_mu = (e0_y0 + e_det * -m) / q_mu
    m = expm1(-eta * nu)
    q_nu = y0 - m
    if q_nu == 0.0:
        raise DegenerateChannel("gain is zero; QBER undefined")
    e_nu = (e0_y0 + e_det * -m) / q_nu

    # The vacuum+weak decoy bounds (see keyrate.decoy_estimate), with the
    # background yield credited to the estimator: Y0 in exact_y0 mode, 0 in
    # one_decoy_bound mode, which bounds it by E_nu*Q_nu*e^nu/E0 instead.
    if mu_over_spread is None:
        raise DomainError(f"the decoy bound needs mu*nu - nu*nu > 0, which "
                          f"underflows to 0 at mu = {mu!r}, nu = {nu!r}")
    y0_known = y0 if exact_y0 else 0.0
    nu_errors = e_nu * q_nu * exp_nu
    y0_for_y1 = y0_known if y0_known > 0.0 else nu_errors / E0
    y1_low = mu_over_spread * (q_nu * exp_nu - q_mu * exp_mu * nu * nu / mu2
                               - mu2_rest * y0_for_y1)
    if y1_low <= 0.0:
        if on_collapse != "zero":
            raise BoundCollapse("no single-photon yield provable from these gains")
        y1_low, e1_up, q1_low = 0.0, 0.5, 0.0
    else:
        # each clamp returns what min(y1_low, 1.0) and min(max(e1_up, 0.0),
        # 0.5) return, NaN and -0.0 included
        if 1.0 < y1_low:
            y1_low = 1.0
        e1_up = (nu_errors - E0 * y0_known) / (y1_low * nu)
        if e1_up < 0.0:
            e1_up = 0.0
        elif 0.5 < e1_up:
            e1_up = 0.5
        q1_low = y1_low * mu * exp_neg_mu

    # Distillation: deadtime saturates the detection rate before sifting,
    # and the secret rate inherits the same saturation factor.
    ideal_clicks = pulse_rate_hz * q_mu
    raw = ideal_clicks / (1.0 + ideal_clicks * deadtime_s)
    saturation = raw / ideal_clicks if ideal_clicks > 0 else 1.0
    sifted = q * raw
    # the binary entropy of the QBER, 0 at 0 and 1; a QBER outside [0, 1]
    # is NaN, from a Y0 that overflowed (the noise is linear in rho and the
    # launch powers)
    if 0.0 < e_mu < 1.0:
        h_mu = -e_mu * log2(e_mu) - (1.0 - e_mu) * log2(1.0 - e_mu)
    elif 0.0 <= e_mu <= 1.0:
        h_mu = 0.0
    else:
        raise DomainError(f"the QBER is {e_mu!r}, not in [0, 1]: the background "
                          f"yield Y0 = {y0!r} overflowed")
    # max(0.0, kept) and min(secret, ec) as comparisons
    kept = 1.0 - f * h_mu
    ec = sifted * (kept if kept > 0.0 else 0.0)
    # the GLLP secret fraction per pulse, clamped at 0; e1_up <= 0.5 or NaN
    h_e1 = 0.0 if e1_up <= 0.0 else -e1_up * log2(e1_up) - (1.0 - e1_up) * log2(1.0 - e1_up)
    r = q * (-q_mu * f * h_mu + q1_low * (1.0 - h_e1))
    secret = pulse_rate_hz * (r if r > 0.0 else 0.0) * saturation
    return (loss, eta, y0, q_mu, e_mu, raw, sifted, ec, ec if ec < secret else secret,
            forward_w, backward_w, crosstalk_w, dark, y1_low, e1_up, q1_low)
