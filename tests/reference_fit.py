"""A reference calibration for the tests: calibrate's grid scan and
golden-section refinement, with every objective call applying its values
through apply_fit and evaluating each anchor length from the length
through evaluate_link.  It keeps no value, link point or objective value
between calls and cuts no evaluation short, so calibrate, which does all
of these, must return a result equal to it.  Its sums add left to right
from 0.0, as calibrate's do, on every Python version.
"""

import itertools
import math
from functools import reduce
from operator import add

from qkdmetro.calibrate import (REFINEMENT_ROUNDS, CalibrationResult, apply_fit,
                                fit_params)
from qkdmetro.keyrate import golden_bracket
from qkdmetro.network import evaluate_link


def reference_residuals(scenario, anchors, values):
    """Each anchor's weighted residual under the fitted values, each
    anchor length evaluated once, from the length."""
    fitted = apply_fit(scenario, values)
    perfs = {}
    out = []
    for a in anchors:
        perf = perfs.get(a.length_km)
        if perf is None:
            perf = perfs[a.length_km] = evaluate_link(fitted, a.length_km,
                                                      on_collapse="zero")
        if a.observable == "qber":
            model = perf.yield_gain.e_mu
        else:
            model = perf.rates.secret_bps
        if a.target > 0:
            out.append(a.weight * ((model - a.target) / a.target) ** 2)
        else:
            out.append(a.weight * max(0.0, model) ** 2)
    return out


def reference_calibrate(scenario, anchors, free_params):
    anchors = [a for a in anchors if a.scenario == scenario.kind]
    params = fit_params(free_params)

    def values_at(xs):
        return {p.name: p.from_x(x) for p, x in zip(params, xs)}

    def objective(xs):
        return reduce(add, reference_residuals(scenario, anchors, values_at(xs)), 0.0)

    best_x, best_val = None, math.inf
    for xs in itertools.product(*[p.grid() for p in params]):
        val = objective(xs)
        if val < best_val:
            best_x, best_val = list(xs), val

    for _ in range(REFINEMENT_ROUNDS):
        for d, param in enumerate(params):
            lo, hi = param.to_x(param.lo), param.to_x(param.hi)
            a, b = golden_bracket(
                lambda t: -objective(best_x[:d] + [t] + best_x[d + 1:]),
                lo, hi, tol=1e-4 * (hi - lo))
            x = 0.5 * (a + b)
            val = objective(best_x[:d] + [x] + best_x[d + 1:])
            if val < best_val:
                best_x[d], best_val = x, val

    values = values_at(best_x)
    residuals = tuple(reference_residuals(scenario, anchors, values))
    return CalibrationResult(params=values, residual=reduce(add, residuals, 0.0),
                             residuals=residuals, anchors=tuple(anchors))
