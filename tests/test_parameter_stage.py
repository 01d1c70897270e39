"""The parameter stage, network.evaluate_point, against its reference.

evaluate_point runs the parameter stage in one frame with the records'
invariants computed once; parameter_oracle.reference_point composes it
from one helper per formula.  The two must agree bit for bit, and raise
the same exception with the same message, on every link point and set of
parameter records.
"""

import pytest
from hypothesis import given, settings, strategies as st

from qkdmetro.errors import QkdMetroError
from qkdmetro.network import (RESULT_FIELDS, build_gpon_scenario, evaluate_point,
                              with_overrides)

from parameter_oracle import flat_bits, reference_point

# the scenario whose parameter records the cases override; the stage
# reads no structural parameter, so one kind serves
BASE = build_gpon_scenario()

def _outcome(f, point, inputs, on_collapse):
    try:
        return flat_bits(f(point, inputs, on_collapse))
    except (ArithmeticError, QkdMetroError, ValueError) as exc:
        return type(exc), str(exc)


def _inputs(records, rho=3e-10, rho_beyond=None, launch_w=(1e-3, 1e-3)):
    return with_overrides(BASE, **records).inputs._replace(
        rho=rho, rho_beyond=rho_beyond, launch_w=launch_w)


def _logs(lo, hi):
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


@st.composite
def _stage_cases(draw):
    """A link point, Inputs whose record terms are built from drawn
    records, and on_collapse.  Tiny mu makes the decoy bound's mu*nu -
    nu*nu underflow, zero dark counts and noise with a huge loss make the
    gain 0, and a huge rho makes Y0 overflow."""
    mu = draw(st.one_of(st.floats(0.05, 1.5), st.just(1e-300)))
    records = {
        "efficiency": draw(st.floats(0.01, 1.0)),
        "gate_width_s": draw(st.one_of(st.just(0.0), _logs(-10, -8))),
        "dark_count_prob": draw(st.one_of(st.just(0.0), _logs(-8, -3))),
        "deadtime_s": draw(st.sampled_from([0.0, 1e-7, 1e-5])),
        "misalignment_error": draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1))),
        "pulse_rate_hz": draw(_logs(5, 9)),
        "mu": mu,
        "nu": mu * draw(st.floats(0.01, 0.5)),
        "estimator_mode": draw(st.sampled_from(["exact_y0", "one_decoy_bound"])),
        "q": draw(st.floats(0.1, 1.0)),
        "f": draw(st.floats(1.0, 1.5)),
        "e0": draw(st.one_of(st.just(0.5), st.floats(0.05, 0.5))),
    }
    rho = draw(st.one_of(st.just(0.0), _logs(-11, -8), st.just(1e300)))
    rho_beyond = draw(st.one_of(st.none(), _logs(-11, -8)))
    launch_w = tuple(draw(st.lists(st.one_of(st.just(0.0), _logs(-6, -1)),
                                   min_size=2, max_size=2)))
    slots = [0] if rho_beyond is None else [0, 1]
    response = [(draw(st.booleans()),
                 draw(st.lists(st.tuples(st.sampled_from(slots), _logs(-3, 2)),
                               max_size=3)),
                 draw(_logs(-13, -6)))
                for _ in launch_w]
    loss = draw(st.one_of(st.floats(0.0, 80.0), st.just(5000.0)))
    on_collapse = draw(st.sampled_from(["raise", "zero"]))
    return ((loss, response), _inputs(records, rho, rho_beyond, launch_w),
            on_collapse)


@settings(max_examples=200, deadline=None)
@given(_stage_cases())
def test_stage_is_the_reference_composition_bit_for_bit(case):
    point, inputs, on_collapse = case
    assert (_outcome(evaluate_point, point, inputs, on_collapse)
            == _outcome(reference_point, point, inputs, on_collapse))


# A default link point: 9.42 dB, the gpon noise response at 2 km.
POINT = BASE.link.at(2.0)
QUIET = (POINT[0], [(co, [], 0.0) for co, _, _ in POINT[1]])


def _fields(point, inputs, on_collapse, *names):
    """The named fields of the stage's result, in order."""
    result = evaluate_point(point, inputs, on_collapse)
    return tuple([result[RESULT_FIELDS.index(name)] for name in names])


# Corners the drawn cases may miss: (records, Inputs keywords, link point,
# on_collapse, what the stage must show there).
CORNERS = {
    "exact_y0": ({}, {}, POINT, "raise",
                 lambda p, i, c: _fields(p, i, c, "y1_low")[0] > 0.0),
    "one_decoy_bound": ({"estimator_mode": "one_decoy_bound"}, {}, POINT, "raise",
                        lambda p, i, c: _fields(p, i, c, "y1_low")[0] > 0.0),
    "no_deadtime": ({"deadtime_s": 0.0}, {}, POINT, "raise",
                    lambda p, i, c: _fields(p, i, c, "raw_bps")[0]
                    == i.detector_terms[0].pulse_rate_hz * _fields(p, i, c, "q_mu")[0]),
    "e0_below_half": ({"e0": 0.2}, {}, POINT, "raise",
                      lambda p, i, c: _fields(p, i, c, "e1_up")[0] < 0.5),
    "collapse_raises": ({"estimator_mode": "one_decoy_bound"}, {}, (60.0, POINT[1]),
                        "raise", None),
    "collapse_is_zero": ({"estimator_mode": "one_decoy_bound"}, {}, (60.0, POINT[1]),
                         "zero", lambda p, i, c: _fields(p, i, c, "y1_low", "e1_up",
                                                         "q1_low") == (0.0, 0.5, 0.0)),
    "e1_clamped_at_half": ({}, {"rho": 1e-8}, (32.0, POINT[1]), "raise",
                           lambda p, i, c: _fields(p, i, c, "e1_up")[0] == 0.5),
    "e1_at_zero": ({"dark_count_prob": 0.0, "misalignment_error": 0.0}, {}, QUIET,
                   "raise", lambda p, i, c: _fields(p, i, c, "e1_up", "qber") == (0.0, 0.0)),
    "degenerate_gain": ({"dark_count_prob": 0.0}, {}, (5000.0, QUIET[1]), "raise",
                        None),
    "underflowed_decoy_bound": ({"mu": 1e-300, "nu": 5e-302}, {}, POINT, "raise",
                                None),
    "overflowed_noise": ({}, {"rho": 1e300}, POINT, "raise", None),
}

# the exception each corner without a predicate raises, by its start
RAISES = {
    "collapse_raises": "BoundCollapse: no single-photon yield",
    "degenerate_gain": "DegenerateChannel: gain is zero",
    "underflowed_decoy_bound": "DomainError: the decoy bound needs",
    "overflowed_noise": "DomainError: the QBER is nan, not in [0, 1]: the "
                        "background yield Y0 = inf overflowed",
}


@pytest.mark.parametrize("name", sorted(CORNERS))
def test_stage_is_the_reference_composition_at_each_corner(name):
    records, keywords, point, on_collapse, shows = CORNERS[name]
    inputs = _inputs(records, **keywords)
    outcome = _outcome(evaluate_point, point, inputs, on_collapse)
    assert outcome == _outcome(reference_point, point, inputs, on_collapse)
    if shows is None:
        kind, message = outcome
        assert f"{kind.__name__}: {message}".startswith(RAISES[name])
    else:
        assert outcome[0] is tuple  # a plain result, not an exception
        assert shows(point, inputs, on_collapse)
