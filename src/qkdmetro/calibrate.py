"""Fits noise coefficients to measured anchor points.

Deterministic: a coarse log-grid scan over documented bounds followed by
coordinate-wise golden-section refinement.  Free parameters are named
strings mapped onto scenario parameters, which the search varies through
one network.variation per fit.
"""

import csv
import itertools
import math
import warnings
from collections import namedtuple
from operator import itemgetter

from .keyrate import golden_bracket
from .network import (LAUNCH_PLANS, RESULT_FIELDS, evaluate_point, variation,
                      with_overrides)
from .params import KINDS, ordered_sum

# each observable's getter on evaluate_point's result, whose field it names
_GETTERS = {name: itemgetter(RESULT_FIELDS.index(name)) for name in ("qber", "secret_bps")}
OBSERVABLES = tuple(_GETTERS)

GRID_POINTS_PER_DECADE = 11  # 11 points per decade, endpoints included
REFINEMENT_ROUNDS = 3


class Anchor(namedtuple("Anchor", ("scenario", "length_km", "observable", "target",
                                   "weight"), defaults=(1.0,))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # calibrate fits a scenario to its kind's anchors only, so a
        # mistyped kind would drop the anchor without a word
        if self.scenario not in KINDS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.observable not in OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")
        for name in ("length_km", "target", "weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"anchor {name} must be finite")
        if self.length_km < 0 or self.weight < 0:
            raise ValueError("anchor length_km and weight must be >= 0")
        if self.observable == "secret_bps" and self.target < 0:
            raise ValueError("secret-rate targets must be >= 0")
        # the model's QBER lies in [0, 0.5]; a negative target would become
        # a hinge penalty on any QBER (see _residual)
        if self.observable == "qber" and not 0 <= self.target <= 0.5:
            raise ValueError("QBER targets must be in [0, 0.5]")
        return self


class FitParam(namedtuple("FitParam", ("name", "lo", "hi", "log_scale"))):
    """A calibratable parameter: bounds and grid live in transformed space."""
    __slots__ = ()

    def to_x(self, value):
        return math.log10(value) if self.log_scale else value

    def from_x(self, x):
        return 10.0 ** x if self.log_scale else x

    def grid(self):
        xlo, xhi = self.to_x(self.lo), self.to_x(self.hi)
        decades = (xhi - xlo) if self.log_scale else (xhi - xlo) / 10.0
        n = max(2, round((GRID_POINTS_PER_DECADE - 1) * decades) + 1)
        return [xlo + i * (xhi - xlo) / (n - 1) for i in range(n)]


# documented bounds; launch power is fitted in dBm (log in power already)
PARAM_REGISTRY = {
    "rho": FitParam("rho", 1e-11, 1e-7, log_scale=True),
    "rho_beyond": FitParam("rho_beyond", 1e-11, 1e-7, log_scale=True),
    "launch_dbm": FitParam("launch_dbm", -20.0, 10.0, log_scale=False),
    "e_det": FitParam("e_det", 1e-3, 1e-1, log_scale=True),
    "dark_count_prob": FitParam("dark_count_prob", 1e-7, 1e-3, log_scale=True),
}


def load_anchors(stream):
    """The anchors of a CSV whose header names Anchor's fields, in any
    order.  A row that is short, long, holds a non-number where a number
    belongs or fails Anchor's checks is a ValueError naming its line."""
    reader = csv.reader(stream)
    header = next(reader, [])
    if sorted(header) != sorted(Anchor._fields):
        raise ValueError(
            "anchor CSV must have header scenario,length_km,observable,target,weight")
    columns = [header.index(name) for name in Anchor._fields]
    anchors = []
    for row in reader:
        if not row:
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            scenario, length_km, observable, target, weight = [row[i] for i in columns]
            anchors.append(Anchor(scenario, float(length_km), observable,
                                  float(target), float(weight)))
        except ValueError as exc:
            raise ValueError(f"anchor CSV line {reader.line_num}: {exc}") from None
    return anchors


def fit_params(names):
    """The FitParam of each name, in order.  A name that PARAM_REGISTRY
    lacks, or one given twice, is a ValueError naming it."""
    params = []
    for name in names:
        if name not in PARAM_REGISTRY:
            raise ValueError(f"unknown free parameter {name!r}; choose from "
                             f"{', '.join(PARAM_REGISTRY)}")
        if PARAM_REGISTRY[name] in params:
            raise ValueError(f"free parameter {name!r} given twice")
        params.append(PARAM_REGISTRY[name])
    return params


def _override_keys(kind, name):
    """The scenario parameters that the free parameter name sets."""
    if name == "launch_dbm":
        return tuple(key for _, key, _, _, _ in LAUNCH_PLANS[kind])
    return ("misalignment_error",) if name == "e_det" else (name,)


def apply_fit(scenario, values):
    """Scenario with fitted parameter values applied."""
    return with_overrides(scenario, **{key: value for name, value in values.items()
                                       for key in _override_keys(scenario.kind, name)})


def _anchor_plan(link, anchors):
    """Each anchor as (link point, index of its length, observable's
    getter, target, weight), in order.  The point, link.at(length), is
    that of the first anchor at each length and None at the others: each
    length is evaluated once, for every anchor at it."""
    index = {}
    plan = []
    for a in anchors:
        k = index.get(a.length_km)
        point = None
        if k is None:
            k = index[a.length_km] = len(index)
            point = link.at(a.length_km)
        plan.append((point, k, _GETTERS[a.observable], a.target, a.weight))
    return plan


def _residual(model, target, weight):
    """An anchor's weighted residual: the squared relative error, or for a
    zero target a hinge penalty on any predicted rate."""
    if target > 0:
        return weight * ((model - target) / target) ** 2
    return weight * max(0.0, model) ** 2


def anchor_residuals(scenario, anchors, values):
    """Each anchor's weighted residual under the fitted values, in order."""
    for a in anchors:
        if a.scenario != scenario.kind:
            raise ValueError(f"a {a.scenario} anchor does not apply to a "
                             f"{scenario.kind} scenario")
    fitted = apply_fit(scenario, values)
    perfs = []
    out = []
    for point, k, observe, target, weight in _anchor_plan(fitted.link, anchors):
        if point is not None:
            perfs.append(evaluate_point(point, fitted.inputs, "zero"))
        out.append(_residual(observe(perfs[k]), target, weight))
    return out


CalibrationResult = namedtuple("CalibrationResult",
                               ("params", "residual", "residuals", "anchors"))


def calibrate(scenario, anchors, free_params):
    """Fit the named free parameters to the anchors.

    Returns the fitted values together with the final weighted residual and
    the per-anchor residual breakdown.  The grid scan stops evaluating a
    point once it cannot beat the best one (see objective).

    The objective is compiled once per fit and takes values, not x: each
    grid is converted once, the refinement only the coordinate it moves.
    Its variation checks and builds each value a free parameter takes once
    (e_det with dark_count_prob once per pair).  The anchor lengths' link
    points are built once for the objective (and once more for the final
    breakdown, by anchor_residuals), and each objective value evaluated in
    full is kept for the points the refinement revisits.
    """
    anchors = [a for a in anchors if a.scenario == scenario.kind]
    if not anchors:
        raise ValueError("no anchors apply to this scenario")
    params = fit_params(free_params)
    if not params:
        raise ValueError("need at least one free parameter")
    if len(anchors) < len(params):
        warnings.warn(
            f"{len(params)} free parameters but only {len(anchors)} anchors; "
            "the fit may be under-determined", stacklevel=2)

    # Every free parameter is per-evaluation, so each fitted scenario shares
    # the scenario's LinkModel: run the length stage once per anchor length.
    plan = _anchor_plan(scenario.link, anchors)
    inputs_of = variation(scenario, [_override_keys(scenario.kind, p.name) for p in params])
    perfs = [None] * len(plan)  # the current call's evaluate_point result by length
    full = {}  # objective values evaluated in full, by values tuple

    def objective(values, bound=math.nan):
        """The residuals' sum at values, added in anchor order from 0.0.
        Before each new length it stops once the sum so far reaches bound,
        and returns that partial sum; the NaN default reaches no bound."""
        value = full.get(values)
        if value is not None:
            return value
        inputs = inputs_of(values)
        total = 0.0
        for point, k, observe, target, weight in plan:
            if point is not None:
                # Every residual is >= 0, and rounded addition of non-negative
                # terms never decreases, so the full sum would reach bound
                # too.  A NaN sum compares false and evaluation goes on.
                if total >= bound:
                    return total  # cut short, so never kept
                perfs[k] = evaluate_point(point, inputs, "zero")
            total += _residual(observe(perfs[k]), target, weight)
        full[values] = total
        return total

    best, best_val = None, math.inf
    # each grid converted to values once; the last parameter varies fastest
    for values in itertools.product(*[[p.from_x(x) for x in p.grid()] for p in params]):
        val = objective(values, best_val)  # >= best_val if cut short
        if val < best_val:
            best, best_val = values, val

    for _ in range(REFINEMENT_ROUNDS):
        for d, param in enumerate(params):
            lo, hi = param.to_x(param.lo), param.to_x(param.hi)
            # minimise: -fc > -fd exactly when fc < fd
            a, b = golden_bracket(
                lambda t: -objective(best[:d] + (param.from_x(t),) + best[d + 1:]),
                lo, hi, tol=1e-4 * (hi - lo))
            values = best[:d] + (param.from_x(0.5 * (a + b)),) + best[d + 1:]
            val = objective(values)
            if val < best_val:
                best, best_val = values, val

    values = {p.name: value for p, value in zip(params, best)}
    residuals = tuple(anchor_residuals(scenario, anchors, values))
    return CalibrationResult(params=values, residual=ordered_sum(residuals),
                             residuals=residuals, anchors=tuple(anchors))
