"""The two built-in testbeds and end-to-end link evaluation.

Backbone: three CWDM ROADM nodes in a ring, key growing between nodes 1
and 3 with node 2 in pass-through; the swept fiber sits between nodes 1
and 2 (worst case: all length on one segment).  Access: OLT - variable
feeder fiber - 1:4 splitter - short drop fiber - ONT.

Element loss defaults are a modeling split of the published no-fiber
aggregates (8 dB backbone, 9 dB GPON); the receiver-side element is
trimmed so the zero-length aggregate is exact.
"""

import math
from dataclasses import dataclass, replace

from . import channel_plan as cp
from .errors import NoPath, SplitTooLarge
from .keyrate import (DecoyParams, KeyRateParams, decoy_estimate,
                      distillation_rates, gain, qber, YieldGain)
from .errors import BoundCollapse
from .noise import DetectorModel, NoiseBudget, background_yield
from .optical_path import (Connector, Fiber, FiberSpan, Filter, LaunchPoint,
                           LightPath, MuxDemux, RoadmNode, Splitter,
                           DEFAULT_ATTENUATION, element_loss, path_loss,
                           transmittance)

MAX_SPLIT_RATIO = 4


@dataclass(frozen=True)
class Topology:
    nodes: dict            # node id -> kind
    edges: tuple           # (node a, node b, FiberSpan)
    node_elements: dict    # node id -> {"add": (...), "express": (...), "drop": (...)}


@dataclass(frozen=True)
class Scenario:
    kind: str
    params: dict
    topology: Topology
    plan: cp.ChannelPlan
    detector: DetectorModel
    decoy: DecoyParams
    keyrate_params: KeyRateParams
    classical_launches: tuple   # (wavelength nm, power dBm, direction, attenuation dB)
    filter_width_nm: float
    duty_cycle: float
    variable_edge: tuple
    endpoints: tuple
    budget_db: float


@dataclass(frozen=True)
class QkdPerformance:
    loss_db: float
    eta: float
    noise: NoiseBudget
    yield_gain: YieldGain
    rates: object


_COMMON_DEFAULTS = {
    # detector (fitted to the measured anchors, not vendor data)
    "efficiency": 0.10,
    "gate_width_s": 1.0e-9,
    "dark_count_prob": 2.0e-5,
    "deadtime_s": 1.0e-5,
    "misalignment_error": 0.001,
    "pulse_rate_hz": 1.0e6,
    # source / post-processing
    "mu": 0.79,
    "nu": None,            # defaults Decoy-side to mu/20
    "estimator_mode": "exact_y0",
    "q": 0.5,
    "f": 1.05,
    "e0": 0.5,
    # fiber
    "alpha_table": DEFAULT_ATTENUATION,
    "rho": 3.0e-10,
    "rho_beyond": None,    # second fiber type past split_km, if any
    "split_km": None,
    "fiber_label": "smf",
    # filtering
    "filter_width_nm": 0.8,
    "filter_insertion_db": 1.5,
    "filter_rejection_db": 90.0,
    # operation
    "duty_cycle": 1.0,
    "budget_db": 15.0,
    "fixed_km": 0.1,
}

BACKBONE_DEFAULTS = dict(
    _COMMON_DEFAULTS,
    base_loss_db=8.0,
    roadm_express_db=2.5,
    roadm_add_drop_db=2.0,
    roadm_isolation_db=30.0,
    connector_every_km=2.5,
    connector_loss_db=0.5,
    co_power_dbm=0.0,       # 1510 nm, co-propagating
    counter_power_dbm=0.0,  # 1470 nm, counter-propagating
)

GPON_DEFAULTS = dict(
    _COMMON_DEFAULTS,
    base_loss_db=9.0,
    mux_insertion_db=1.0,
    mux_isolation_db=30.0,
    splitter_ratio=4,
    splitter_excess_db=None,  # trimmed to hit base_loss_db when None
    allow_large_split=False,
    down_power_dbm=2.0,       # 1490 nm, attenuatable at the OLT
    up_power_dbm=1.0,         # 1310 nm, fixed power
    downstream_atten_db=0.0,
)


def _merge(defaults, overrides):
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ValueError(f"unknown scenario parameters: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def _detector(p):
    return DetectorModel(
        efficiency=p["efficiency"],
        gate_width_s=p["gate_width_s"],
        dark_count_prob=p["dark_count_prob"],
        deadtime_s=p["deadtime_s"],
        misalignment_error=p["misalignment_error"],
        pulse_rate_hz=p["pulse_rate_hz"],
    )


def _decoy(p):
    return DecoyParams(mu=p["mu"], nu=p["nu"], estimator_mode=p["estimator_mode"])


def _keyrate_params(p):
    return KeyRateParams(q=p["q"], f=p["f"], e0=p["e0"])


def _span(p, length_km, rho=None, label=None):
    return FiberSpan(
        length_km=length_km,
        atten_db_per_km=tuple(p["alpha_table"]),
        raman_coeff=p["rho"] if rho is None else rho,
        fiber_label=p["fiber_label"] if label is None else label,
    )


def _fiber_db(p, length_km, wavelength_nm):
    return length_km * _span(p, length_km or 1.0).alpha_db_per_km(wavelength_nm)


def build_backbone_scenario(**overrides):
    """Three-node CWDM ROADM ring scenario (quantum at 1550 nm)."""
    p = _merge(BACKBONE_DEFAULTS, overrides)
    plan = cp.cwdm_grid()
    plan = cp.assign_role(plan, 1510.0, "classical_downstream")
    plan = cp.assign_role(plan, 1470.0, "classical_upstream")
    plan = cp.assign_role(plan, 1550.0, "quantum")

    fixed_db = _fiber_db(p, p["fixed_km"], 1550.0)
    drop_db = (p["base_loss_db"] - p["roadm_add_drop_db"] - p["roadm_express_db"]
               - p["filter_insertion_db"] - fixed_db)
    if drop_db < 0:
        raise ValueError("element defaults exceed the no-fiber loss target")

    mk_roadm = lambda mode, loss: RoadmNode(
        express_loss_db=p["roadm_express_db"],
        add_drop_loss_db=loss,
        isolation_db=p["roadm_isolation_db"],
        mode=mode,
    )
    quantum_filter = Filter(
        center_nm=1550.0,
        width_nm=p["filter_width_nm"],
        insertion_loss_db=p["filter_insertion_db"],
        out_of_band_rejection_db=p["filter_rejection_db"],
    )
    node_elements = {
        "roadm1": {"add": (mk_roadm("add", p["roadm_add_drop_db"]),)},
        "roadm2": {"express": (mk_roadm("express", p["roadm_add_drop_db"]),)},
        "roadm3": {"drop": (mk_roadm("drop", drop_db), quantum_filter)},
    }
    topo = Topology(
        nodes={"roadm1": "roadm", "roadm2": "roadm", "roadm3": "roadm"},
        edges=(
            ("roadm1", "roadm2", _span(p, 0.0)),
            ("roadm2", "roadm3", _span(p, p["fixed_km"])),
        ),
        node_elements=node_elements,
    )
    launches = (
        (1510.0, p["co_power_dbm"], "co", 0.0),
        (1470.0, p["counter_power_dbm"], "counter", 0.0),
    )
    return Scenario(
        kind="backbone", params=p, topology=topo, plan=plan,
        detector=_detector(p), decoy=_decoy(p), keyrate_params=_keyrate_params(p),
        classical_launches=launches, filter_width_nm=p["filter_width_nm"],
        duty_cycle=p["duty_cycle"], variable_edge=("roadm1", "roadm2"),
        endpoints=("roadm1", "roadm3"), budget_db=p["budget_db"],
    )


def build_gpon_scenario(**overrides):
    """GPON access scenario: OLT - feeder fiber - splitter - drop - ONT."""
    p = _merge(GPON_DEFAULTS, overrides)
    if p["splitter_ratio"] > MAX_SPLIT_RATIO and not p["allow_large_split"]:
        raise SplitTooLarge(
            f"splitting factor {p['splitter_ratio']} exceeds the supported "
            f"maximum of {MAX_SPLIT_RATIO}")
    plan = cp.gpon_plan()

    drop_db = _fiber_db(p, p["fixed_km"], 1550.0)
    excess = p["splitter_excess_db"]
    if excess is None:
        excess = (p["base_loss_db"] - p["mux_insertion_db"]
                  - 10.0 * math.log10(p["splitter_ratio"])
                  - p["filter_insertion_db"] - drop_db)
        excess = max(0.0, excess)

    node_elements = {
        "olt": {"add": (MuxDemux(p["mux_insertion_db"], p["mux_isolation_db"]),)},
        "splitter": {"express": (Splitter(p["splitter_ratio"], excess),)},
        "ont": {"drop": (Filter(
            center_nm=1550.0,
            width_nm=p["filter_width_nm"],
            insertion_loss_db=p["filter_insertion_db"],
            out_of_band_rejection_db=p["filter_rejection_db"],
        ),)},
    }
    topo = Topology(
        nodes={"olt": "olt", "splitter": "splitter", "ont": "ont"},
        edges=(
            ("olt", "splitter", _span(p, 0.0)),
            ("splitter", "ont", _span(p, p["fixed_km"])),
        ),
        node_elements=node_elements,
    )
    launches = (
        (1490.0, p["down_power_dbm"], "co", p["downstream_atten_db"]),
        (1310.0, p["up_power_dbm"], "counter", 0.0),
    )
    return Scenario(
        kind="gpon", params=p, topology=topo, plan=plan,
        detector=_detector(p), decoy=_decoy(p), keyrate_params=_keyrate_params(p),
        classical_launches=launches, filter_width_nm=p["filter_width_nm"],
        duty_cycle=p["duty_cycle"], variable_edge=("olt", "splitter"),
        endpoints=("olt", "ont"), budget_db=p["budget_db"],
    )


BUILDERS = {"backbone": build_backbone_scenario, "gpon": build_gpon_scenario}


def with_overrides(scenario, **overrides):
    """Rebuild the scenario with some parameters replaced."""
    merged = dict(scenario.params)
    merged.update(overrides)
    return BUILDERS[scenario.kind](**merged)


def _simple_paths(adj, path, b):
    """Simple paths from path[-1] to b, depth-first in adjacency order."""
    for n in adj[path[-1]]:
        if n == b:
            yield path + [n]
        elif n not in path:
            yield from _simple_paths(adj, path + [n], b)


def transparent_path(topology, a, b, quantum_nm=1550.0, launches=()):
    """Shortest all-optical path from a to b as a LightPath.

    Shortest by hop count, ties broken by total dB loss at the quantum
    wavelength; on an exact tie the first path found depth-first, with
    neighbours in edge order, wins.  Node elements are inserted per
    traversal mode: add at the source, express at intermediates, drop at
    the destination.
    """
    if a == b:
        raise ValueError("endpoints must differ")
    adj = {n: {} for n in topology.nodes}
    for u, v, span in topology.edges:
        adj.setdefault(u, {})[v] = span
        adj.setdefault(v, {})[u] = span

    def compose(nodes):
        elements = []
        for i, n in enumerate(nodes):
            mode = "add" if i == 0 else ("drop" if i == len(nodes) - 1 else "express")
            elements.extend(topology.node_elements.get(n, {}).get(mode, ()))
            if i < len(nodes) - 1:
                elements.append(Fiber(adj[n][nodes[i + 1]]))
        return tuple(elements)

    best = None
    if a in adj and b in adj:
        for nodes in _simple_paths(adj, [a], b):
            elements = compose(nodes)
            loss = sum(element_loss(e, quantum_nm) for e in elements)
            key = (len(nodes), loss)
            if best is None or key < best[0]:
                best = (key, elements)
    if best is None:
        raise NoPath(f"no optical route between {a} and {b}")
    return LightPath(elements=best[1], launches=tuple(launches))


def build_light_path(scenario, length_km):
    """LightPath of the scenario with the variable edge set to length_km."""
    if length_km < 0:
        raise ValueError("length must be non-negative")
    p = scenario.params
    topo = scenario.topology
    var = frozenset(scenario.variable_edge)

    sub_spans = []
    if (p["split_km"] is not None and p["rho_beyond"] is not None
            and length_km > p["split_km"]):
        sub_spans.append(_span(p, p["split_km"]))
        sub_spans.append(_span(p, length_km - p["split_km"],
                               rho=p["rho_beyond"], label=p["fiber_label"] + "+"))
    else:
        sub_spans.append(_span(p, length_km))

    edges = []
    for u, v, span in topo.edges:
        if frozenset((u, v)) == var:
            edges.append((u, v, sub_spans[0]))
        else:
            edges.append((u, v, span))
    topo = replace(topo, edges=tuple(edges))

    path = transparent_path(topo, *scenario.endpoints)
    elements = list(path.elements)

    # locate the variable fiber and splice in any second sub-segment
    var_idx = next(i for i, e in enumerate(elements)
                   if isinstance(e, Fiber) and e.span is sub_spans[0])
    for offset, extra in enumerate(sub_spans[1:], start=1):
        elements.insert(var_idx + offset, Fiber(extra))
    last_var = var_idx + len(sub_spans) - 1

    # connectors joining fiber segments: loss only, one per started stretch
    if scenario.kind == "backbone" and length_km > 0:
        n_conn = math.ceil(length_km / p["connector_every_km"])
        for _ in range(n_conn):
            elements.insert(last_var + 1, Connector(p["connector_loss_db"]))

    launches = tuple(
        LaunchPoint(
            position=0 if direction == "co" else len(elements),
            wavelength_nm=wl, power_dbm=power, direction=direction,
            attenuation_db=atten)
        for wl, power, direction, atten in scenario.classical_launches
    )
    return LightPath(elements=tuple(elements), launches=launches)


def evaluate_link(scenario, length_km, on_collapse="raise"):
    """End-to-end QKD performance at the given variable fiber length."""
    path = build_light_path(scenario, length_km)
    q_nm = cp.quantum_channel(scenario.plan).center_nm
    loss = path_loss(path, q_nm)
    det = scenario.detector
    eta = transmittance(loss) * det.efficiency
    nb = background_yield(path, scenario.plan, det, scenario.filter_width_nm,
                          scenario.duty_cycle)
    y0 = nb.total_y0
    mu, nu = scenario.decoy.mu, scenario.decoy.nu
    e_det = det.misalignment_error
    e0 = scenario.keyrate_params.e0
    q_mu = gain(y0, eta, mu)
    e_mu = qber(y0, eta, mu, e_det, e0)
    q_nu = gain(y0, eta, nu)
    e_nu = qber(y0, eta, nu, e_det, e0)
    y0_known = y0 if scenario.decoy.estimator_mode == "exact_y0" else 0.0
    try:
        yg = decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0_known, e0)
    except BoundCollapse:
        if on_collapse == "raise":
            raise
        yg = YieldGain(q_mu=q_mu, e_mu=e_mu, y1_low=0.0, e1_up=0.5, q1_low=0.0)
    rates = distillation_rates(det, scenario.keyrate_params, yg)
    return QkdPerformance(loss_db=loss, eta=eta, noise=nb, yield_gain=yg,
                          rates=rates)


def relay_rate(hop_rates):
    """End-to-end key rate through trusted intermediates: the weakest hop."""
    if not hop_rates:
        raise ValueError("need at least one hop")
    if any(r < 0 for r in hop_rates):
        raise ValueError("hop rates must be non-negative")
    return min(hop_rates)
