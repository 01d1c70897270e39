"""The scenario parameters, one row each, and their range checks.

A row is (parameter, section, key, converter, defaults, per-evaluation,
label, range).  The parameter is the builders' keyword, or None for a
config key that sets none of its own; section and key are None for e0,
which only the API sets, and a key with "{:.0f}" stands for one per
pivot of the attenuation table.  defaults gives the default of each kind
the row applies to.  The per-evaluation parameters build a scenario's
network.Inputs, which the parameter stage reads on every call; the others,
with the kind, fix the compiled LinkModel.  A range is an interval such
as "(0, 1]", where an open infinite end means finite and NaN is never
inside, with " or None" if None is allowed; a tuple of choices; or None.  The label names the value in a range error.
"""

import math

KINDS = ("backbone", "gpon")


def _all(default):
    return dict.fromkeys(KINDS, default)


def _optional_float(text):
    return None if text.lower() == "none" else float(text)


# Standard single-mode fiber attenuation; interpolated linearly in between.
DEFAULT_ATTENUATION = ((1310.0, 0.35), (1490.0, 0.24), (1550.0, 0.21))

# The quantum channel of both kinds: the 1550 nm CWDM slot on the
# backbone, the video slot on gpon.
QUANTUM_NM = 1550.0

# Classical launches of each kind: (wavelength nm, power parameter,
# direction, attenuation parameter or None, default power dBm).
LAUNCH_PLANS = {
    "backbone": ((1510.0, "co_power_dbm", "co", None, 0.0),
                 (1470.0, "counter_power_dbm", "counter", None, 0.0)),
    "gpon": ((1490.0, "down_power_dbm", "co", "downstream_atten_db", 2.0),
             (1310.0, "up_power_dbm", "counter", None, 1.0)),
}

TABLE = (
    (None, "scenario", "kind", str, _all(None), False, "scenario kind", KINDS),
    ("splitter_ratio", "scenario", "splitter_ratio", int, {"gpon": 4}, False,
     "splitter ratio", "[2, 4]"),
    ("duty_cycle", "scenario", "duty_cycle", float, _all(1.0), True,
     "duty cycle", "[0, 1]"),
    ("fixed_km", "scenario", "fixed_km", float, _all(0.1), False,
     "fixed fiber length", "[0, inf)"),
    # an attenuator has no gain
    ("downstream_atten_db", "scenario", "downstream_atten_db", float,
     {"gpon": 0.0}, True, "downstream attenuation", "[0, inf)"),
    ("budget_db", "scenario", "budget_db", float, _all(15.0), True,
     "loss budget", "(-inf, inf)"),
    # detector (fitted to the measured anchors, not vendor data)
    ("efficiency", "detector", "efficiency", float, _all(0.10), True,
     "detector efficiency", "(0, 1]"),
    ("gate_width_s", "detector", "gate_ns", lambda s: float(s) * 1e-9, _all(1.0e-9),
     True, "gate width", "[0, inf)"),
    ("dark_count_prob", "detector", "dark_count_prob", float, _all(2.0e-5), True,
     "dark count probability", "[0, 1]"),
    ("deadtime_s", "detector", "deadtime_us", lambda s: float(s) * 1e-6, _all(1.0e-5),
     True, "deadtime", "[0, inf)"),
    ("misalignment_error", "detector", "misalignment_error", float, _all(0.001),
     True, "misalignment error", "[0, 0.5)"),
    ("pulse_rate_hz", "detector", "pulse_rate_hz", float, _all(1.0e6), True,
     "pulse rate", "(0, inf)"),
    # source and post-processing; nu None is mu/20
    ("mu", "source", "mu", float, _all(0.79), True, "mu", "(0, 1.5]"),
    ("nu", "source", "nu", _optional_float, _all(None), True, "nu",
     "(0, 1.5] or None"),
    ("estimator_mode", "source", "estimator_mode", str, _all("exact_y0"), True,
     "estimator mode", ("exact_y0", "one_decoy_bound")),
    ("q", "source", "sifting_q", float, _all(0.5), True, "sifting factor", "(0, 1]"),
    ("f", "source", "ec_efficiency", float, _all(1.05), True,
     "error-correction efficiency", "[1, inf]"),
    ("e0", None, None, None, _all(0.5), True, "background error rate", "(0, 0.5]"),
    # fiber; rho_beyond is a second fiber type's past split_km, the two set
    # together or not at all (network._check_split).  The noise is linear
    # in rho and in each launch's power in W, so a non-finite one would
    # reach the key rate as NaN.
    ("alpha_table", "fiber", "alpha_{:.0f}_db_km", float,
     _all(DEFAULT_ATTENUATION), False, "fiber attenuation", "(0, inf)"),
    # Connectors are a metre apart at the least: the length stage lists
    # each one, so a tinier spacing asks for up to network.MAX_CONNECTORS
    # per length, for a loss of thousands of dB.
    ("connector_every_km", "fiber", "connector_every_km", float, {"backbone": 2.5},
     False, "connector spacing", "[0.001, inf)"),
    ("connector_loss_db", "fiber", "connector_loss_db", float, {"backbone": 0.5},
     False, "connector loss", "[0, inf)"),
    ("rho", "raman", "rho", float, _all(3.0e-10), True,
     "raman coefficient", "[0, inf)"),
    ("rho_beyond", "raman", "rho_beyond", _optional_float, _all(None), True,
     "raman coefficient", "[0, inf) or None"),
    ("split_km", "raman", "split_km", _optional_float, _all(None), False,
     "split length", "[0, inf) or None"),
    ("filter_width_nm", "filter", "width_nm", float, _all(0.8), False,
     "filter width", "(0, inf)"),
    ("filter_insertion_db", "filter", "insertion_db", float, _all(1.5), False,
     "filter insertion loss", "[0, inf)"),
    ("filter_rejection_db", "filter", "rejection_db", float, _all(90.0), False,
     "filter rejection", "[0, inf)"),
    # classical launches; power_dbm sets every launch of the kind.  The
    # upper end keeps the power in W, 10^(dBm/10) mW, finite: it overflows
    # just above 3082 dBm.
    (None, "classical", "power_dbm", float, _all(None), False,
     "launch power", "(-inf, 3000]"),
    *((power, "classical", f"power_{wl:.0f}_dbm", float, {kind: dbm}, True,
       "launch power", "(-inf, 3000]")
      for kind, plan in LAUNCH_PLANS.items() for wl, power, _, _, dbm in plan),
    *((None, "sweep", key, float, _all(None), False, key, None)
      for key in ("start_km", "stop_km", "step_km")),
)

# unbounded intervals in words; any other is printed as written
_PHRASES = {"(-inf, inf)": "finite", "(0, inf)": "finite and positive",
            "[0, inf)": "finite and non-negative", "[1, inf]": ">= 1",
            "[0.001, inf)": "finite and >= 0.001",
            "(-inf, 3000]": "finite and <= 3000"}


def _in_range(spec):
    """value -> whether value is in the range spec."""
    if spec is None:
        return lambda value: True
    if not isinstance(spec, str):
        return spec.__contains__
    interval, _, none = spec.partition(" or ")
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    # tested as lo < v <= hi in one comparison: a closed lower end and an
    # open upper end each move down to the next float, none lying between
    if interval[0] == "[":
        lo = math.nextafter(lo, -math.inf)
    if interval[-1] == ")":
        hi = math.nextafter(hi, -math.inf)
    return (lambda v: v is None or lo < v <= hi) if none else (lambda v: lo < v <= hi)


PARAMS = {row[0]: row for row in TABLE if row[0] is not None}

# (section, key) -> row; a key with "{:.0f}" stands for one per pivot
CONFIG_KEYS = {(row[1], row[2].format(nm)): row for row in TABLE
               if row[1] is not None for nm, _ in DEFAULT_ATTENUATION}

# parameter or (section, key) -> whether a value is in its range
_TESTS = {name: _in_range(row[7])
          for name, row in [*PARAMS.items(), *CONFIG_KEYS.items()]}
# the attenuation table is in range when it has a pivot and the value at
# each pivot is
_TESTS["alpha_table"] = lambda table, test=_TESTS["alpha_table"]: (
    len(table) > 0 and all(test(v) for _, v in table))

DEFAULTS = {kind: {param: row[4][kind] for param, row in PARAMS.items() if kind in row[4]}
            for kind in KINDS}

PER_EVALUATION_PARAMS = frozenset(param for param, row in PARAMS.items() if row[5])


def check(name, value):
    """Raise ValueError unless value is in the range of name, a parameter
    or a config (section, key)."""
    if not _TESTS[name](value):
        row = PARAMS[name] if isinstance(name, str) else CONFIG_KEYS[name]
        label, spec = row[6:]
        if not isinstance(spec, str):
            raise ValueError(f"{label} must be one of {sorted(spec)}, got {value!r}")
        interval = spec.partition(" or ")[0]
        raise ValueError(f"{label} must be {_PHRASES.get(interval, 'in ' + interval)}")


def check_fields(record):
    """check each field of the named tuple record, a parameter of the same
    name."""
    for name, value in zip(record._fields, record):
        if not _TESTS[name](value):
            check(name, value)


def check_params(values, skip=frozenset()):
    """check every parameter of the dict values but those in skip, which
    the caller leaves to their owner's check.  Of several out of range, the
    error names the first in table order, whatever the dict's order."""
    for name, value in values.items():
        if name not in skip and not _TESTS[name](value):
            for first in PARAMS:
                if first in values and first not in skip:
                    check(first, values[first])


def ordered_sum(values):
    """The sum of the floats values, added left to right from 0.0, as sum()
    adds floats before Python 3.12.  From 3.12 on sum() compensates its
    rounding, which changes last digits, so the package sums with this to
    give the same outputs on every supported Python."""
    total = 0.0
    for value in values:
        total += value
    return total

