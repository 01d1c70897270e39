"""Line-oriented scenario configuration files.

Format: bracketed section headers, ``key = value`` lines, ``#`` comments.
Every key has a documented default except scenario.kind and the [sweep]
section; unknown sections or keys are errors.
"""

import math
from dataclasses import dataclass

from .errors import MissingSection, ParseError, UnknownKey
from .network import BUILDERS, LAUNCH_PLANS


# Most lengths a sweep may have; lengths() builds them all in one list.
MAX_SWEEP_POINTS = 1_000_000


@dataclass(frozen=True)
class SweepSpec:
    start_km: float
    stop_km: float
    step_km: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.start_km, self.stop_km, self.step_km))):
            raise ValueError("sweep start, stop and step must be finite")
        if self.start_km > self.stop_km:
            raise ValueError("sweep start must not exceed stop")
        if self.step_km <= 0:
            raise ValueError("sweep step must be positive")
        # one length more than the steps; an overflow to inf fails too
        if not self._steps() < MAX_SWEEP_POINTS:
            raise ValueError(f"sweep has more than {MAX_SWEEP_POINTS} points")

    def _steps(self):
        return (self.stop_km - self.start_km) / self.step_km + 1e-9

    def lengths(self):
        return [self.start_km + i * self.step_km
                for i in range(int(self._steps()) + 1)]


def _bool(text):
    if text.lower() in ("true", "yes", "1", "on"):
        return True
    if text.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _optional_float(text):
    return None if text.lower() == "none" else float(text)


def _power_key(wavelength_nm):
    """The [classical] key of the launch at this wavelength."""
    return f"power_{wavelength_nm:.0f}_dbm"


# section -> key -> (converter, scenario parameter name)
_SCHEMA = {
    "scenario": {
        "kind": (str, None),
        "splitter_ratio": (int, "splitter_ratio"),
        "allow_large_split": (_bool, "allow_large_split"),
        "duty_cycle": (float, "duty_cycle"),
        "fixed_km": (float, "fixed_km"),
        "downstream_atten_db": (float, "downstream_atten_db"),
        "budget_db": (float, "budget_db"),
    },
    "detector": {
        "efficiency": (float, "efficiency"),
        "gate_ns": (lambda s: float(s) * 1e-9, "gate_width_s"),
        "dark_count_prob": (float, "dark_count_prob"),
        "deadtime_us": (lambda s: float(s) * 1e-6, "deadtime_s"),
        "misalignment_error": (float, "misalignment_error"),
        "pulse_rate_hz": (float, "pulse_rate_hz"),
    },
    "source": {
        "mu": (float, "mu"),
        "nu": (_optional_float, "nu"),
        "estimator_mode": (str, "estimator_mode"),
        "sifting_q": (float, "q"),
        "ec_efficiency": (float, "f"),
    },
    "fiber": {
        "alpha_1310_db_km": (float, None),
        "alpha_1490_db_km": (float, None),
        "alpha_1550_db_km": (float, None),
        "label": (str, "fiber_label"),
        "connector_every_km": (float, "connector_every_km"),
        "connector_loss_db": (float, "connector_loss_db"),
    },
    "filter": {
        "width_nm": (float, "filter_width_nm"),
        "insertion_db": (float, "filter_insertion_db"),
        "rejection_db": (float, "filter_rejection_db"),
    },
    "classical": {
        "power_dbm": (float, None),
        **{_power_key(wl): (float, None)
           for plan in LAUNCH_PLANS.values() for wl, _, _, _ in plan},
    },
    "raman": {
        "rho": (float, "rho"),
        "rho_beyond": (_optional_float, "rho_beyond"),
        "split_km": (_optional_float, "split_km"),
    },
    "sweep": {
        "start_km": (float, None),
        "stop_km": (float, None),
        "step_km": (float, None),
    },
}


def parse_config(text):
    """Parse configuration text into (Scenario, SweepSpec)."""
    sections = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise UnknownKey(f"unknown section [{name}]", lineno)
            section = name
            sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if section is None:
            raise ParseError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise UnknownKey(f"unknown key {key!r} in section [{section}]", lineno)
        conv = _SCHEMA[section][key][0]
        try:
            sections[section][key] = conv(value)
        except ValueError as exc:
            raise ParseError(f"bad value for {key}: {exc}", lineno) from None

    if "scenario" not in sections or "kind" not in sections["scenario"]:
        raise MissingSection("[scenario] with a 'kind' key is required")
    if "sweep" not in sections:
        raise MissingSection("[sweep] section is required")
    kind = sections["scenario"]["kind"]
    if kind not in BUILDERS:
        raise ParseError(f"scenario kind must be one of {sorted(BUILDERS)}, got {kind!r}")

    sweep = sections["sweep"]
    for key in ("start_km", "stop_km", "step_km"):
        if key not in sweep:
            raise MissingSection(f"[sweep] is missing {key}")
    spec = SweepSpec(sweep["start_km"], sweep["stop_km"], sweep["step_km"])

    overrides = {}
    alpha = dict(
        (nm, sections.get("fiber", {}).get(f"alpha_{nm:.0f}_db_km"))
        for nm in (1310.0, 1490.0, 1550.0))
    if any(v is not None for v in alpha.values()):
        base = {1310.0: 0.35, 1490.0: 0.24, 1550.0: 0.21}
        overrides["alpha_table"] = tuple(
            (nm, alpha[nm] if alpha[nm] is not None else base[nm])
            for nm in sorted(base))

    # power_<nm>_dbm sets the launch at that wavelength; power_dbm sets all
    power_keys = {_power_key(wl): param for wl, param, _, _ in LAUNCH_PLANS[kind]}
    classical = sections.get("classical", {})
    for key in classical:
        if key != "power_dbm" and key not in power_keys:
            raise UnknownKey(f"{key!r} does not apply to a {kind} scenario")
    if "power_dbm" in classical:
        for param in power_keys.values():
            overrides[param] = classical["power_dbm"]
    for key, param in power_keys.items():
        if key in classical:
            overrides[param] = classical[key]

    for name, body in sections.items():
        for key, value in body.items():
            param = _SCHEMA[name][key][1]
            if param is not None:
                overrides[param] = value

    scenario = BUILDERS[kind](**overrides)
    return scenario, spec


def parse_config_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
