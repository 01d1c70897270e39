"""Line-oriented scenario configuration files.

Format: bracketed section headers, ``key = value`` lines, ``#`` comments.
Every key has a documented default except scenario.kind and the [sweep]
section.  Unknown sections or keys, a key given a second time in its
section, values out of range and keys of another scenario kind (see
params.TABLE) are errors at their line; values each in range that the
builder rejects together are an error at the line of the first key
involved.
"""

import math
from collections import namedtuple

from .errors import MissingSection, ParseError, UnknownKey
from .network import BUILDERS
from .params import CONFIG_KEYS, DEFAULTS, LAUNCH_PLANS, PARAMS, check


# Most lengths a sweep may have; lengths() builds them all in one list.
MAX_SWEEP_POINTS = 1_000_000


class SweepSpec(namedtuple("SweepSpec", ("start_km", "stop_km", "step_km"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(map(math.isfinite, self)):
            raise ValueError("sweep start, stop and step must be finite")
        if self.start_km > self.stop_km:
            raise ValueError("sweep start must not exceed stop")
        if self.step_km <= 0:
            raise ValueError("sweep step must be positive")
        # one length more than the steps; an overflow to inf fails too
        if not self._steps() < MAX_SWEEP_POINTS:
            raise ValueError(f"sweep has more than {MAX_SWEEP_POINTS} points")
        return self

    def _steps(self):
        return (self.stop_km - self.start_km) / self.step_km + 1e-9

    def lengths(self):
        return [self.start_km + i * self.step_km
                for i in range(int(self._steps()) + 1)]


_SECTIONS = frozenset(section for section, _ in CONFIG_KEYS)


def _value(lineno, section, key, text):
    """The value of a config line, converted and range-checked."""
    try:
        value = CONFIG_KEYS[section, key][3](text)
    except ValueError as exc:
        raise ParseError(f"bad value for {key}: {exc}", lineno) from None
    try:
        check((section, key), value)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    return value


def parse_config(text):
    """Parse configuration text into (Scenario, SweepSpec)."""
    lines = {}     # (section, key) -> (line number, section, key, value text)
    headers = {}   # section -> the line of its first header
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", lineno)
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise UnknownKey(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ParseError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if (section, key) not in CONFIG_KEYS:
            raise UnknownKey(f"unknown key {key!r} in section [{section}]", lineno)
        if (section, key) in lines:
            raise ParseError(f"repeated key {key!r} in section [{section}]", lineno)
        lines[section, key] = (lineno, section, key, value.strip())

    if ("scenario", "kind") not in lines:
        raise MissingSection("[scenario] with a 'kind' key is required")
    kind = _value(*lines["scenario", "kind"])
    values = {}
    for lineno, section, key, text in lines.values():
        if kind not in CONFIG_KEYS[section, key][4]:
            raise UnknownKey(f"{key!r} does not apply to a {kind} scenario", lineno)
        values[section, key] = _value(lineno, section, key, text)

    if "sweep" not in headers:
        raise MissingSection("[sweep] section is required")
    bounds = []
    for key in ("start_km", "stop_km", "step_km"):
        if ("sweep", key) not in values:
            raise MissingSection(f"[sweep] is missing {key}")
        bounds.append(values["sweep", key])
    try:
        spec = SweepSpec(*bounds)
    except ValueError as exc:
        raise ParseError(str(exc), headers["sweep"]) from None

    overrides = {}
    # power_dbm sets every launch; a power_<nm>_dbm key, set below, one
    if ("classical", "power_dbm") in values:
        for _, param, _, _, _ in LAUNCH_PLANS[kind]:
            overrides[param] = values["classical", "power_dbm"]
    # each alpha_<nm>_db_km key sets the attenuation at one pivot
    pivot_key = PARAMS["alpha_table"][2]
    overrides["alpha_table"] = tuple(
        (nm, values.get(("fiber", pivot_key.format(nm)), alpha))
        for nm, alpha in DEFAULTS[kind]["alpha_table"])
    for (section, key), value in values.items():
        param = CONFIG_KEYS[section, key][0]
        if param not in (None, "alpha_table"):
            overrides[param] = value

    try:
        scenario = BUILDERS[kind](**overrides)
    except ValueError as exc:
        # a cross-field error (errors.involving) names its parameters and pivots
        pivots = {pivot_key.format(nm): ("alpha_table", nm)
                  for nm, _ in DEFAULTS[kind]["alpha_table"]}
        param_lines = {pivots.get(key, CONFIG_KEYS[section, key][0]): lineno
                       for lineno, section, key, _ in lines.values()}
        for param in getattr(exc, "params", ()):
            if param in param_lines:
                raise ParseError(str(exc), param_lines[param]) from None
        raise
    return scenario, spec


def parse_config_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
