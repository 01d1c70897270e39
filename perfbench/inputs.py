"""Seeded inputs for the benchmark workloads.

Everything the program sees is written here as config and anchor files; the
same seed always gives byte-identical files.  ``generate`` also returns the
plan that tells the worker which operations make up one round of each kind.
"""

import math
import os
import random

SWEEP_POINTS = 2000            # lengths per in-process sweep config
SEGMENT_POINTS = 10            # lengths per timed run_sweep call
MU_SEARCHES_PER_KIND = 8       # optimize_mu searches per scenario kind and round
ANCHOR_SPREAD = 0.15           # sigma of the log-normal target perturbation

# The anchors bundled with qkdmetro (data/measured_anchors.csv) at the commit
# the benchmark was written against: scenario, length_km, observable,
# target, weight.  Targets are perturbed per seed; zero targets stay zero.
BUNDLED_ANCHORS = (
    ("gpon", 0.0, "qber", 0.04, 50.0),
    ("gpon", 0.0, "secret_bps", 500.0, 1.0),
    ("gpon", 3.5, "secret_bps", 20.0, 0.1),
    ("gpon", 4.5, "secret_bps", 0.0, 0.01),
    ("backbone", 6.0, "secret_bps", 500.0, 1.0),
    ("backbone", 10.0, "secret_bps", 100.0, 1.0),
)

# Written into every config, so the Y0 >= dark count check knows its floor.
DARK_COUNT_PROB = 2e-5

# Bundled config sizes ([sweep] sections of configs/*.cfg).
BUNDLED_SWEEPS = {"backbone": (0.0, 10.0, 0.5), "two_fiber": (0.0, 10.0, 0.5),
                  "gpon": (0.0, 5.0, 0.5)}

# Non-default parameters of the bundled configs.
BUNDLED_PARAMS = {"backbone": {}, "gpon": {},
                  "two_fiber": {"rho": 3e-10, "rho_beyond": 8e-10, "split_km": 4.5}}

CALIBRATIONS = (("gpon", ("rho", "launch_dbm")),
                ("backbone", ("rho", "launch_dbm")),
                ("two_fiber", ("rho", "rho_beyond")))

# Probe wavelengths for path-loss: quantum and both classical channels.
WAVELENGTHS = {"backbone": (1550.0, 1510.0, 1470.0),
               "two_fiber": (1550.0, 1510.0, 1470.0),
               "gpon": (1550.0, 1490.0, 1310.0)}

# Sweep ranges (from 0 km) of the in-process sweeps.  They are the same for
# every seed, because a point's cost grows with its length (one more
# connector every 2.5 km): evaluate_link takes ~20% longer at 16 km than at
# 1 km on the backbone.  The gpon range runs past every seed's decoy cutoff.
SWEEP_STOP_KM = {"backbone": 14.0, "two_fiber": 12.0, "gpon": 6.5}

# Seeded two-fiber split point.  A point beyond the split costs ~14% more, so
# the range is narrow: 58-67% of the two-fiber points lie beyond it, which
# moves the work per sweep round by under 0.5% between seeds.
SPLIT_RANGE_KM = (4.0, 5.0)

# Lengths at which every seeded scenario keeps a positive key rate, so an
# optimize_mu search always has a maximum to find.
MU_MAX_KM = {"gpon": 2.0, "backbone": 8.0, "two_fiber": 6.0}


def _config_text(kind, params, sweep):
    scenario_kind = "gpon" if kind == "gpon" else "backbone"
    lines = ["[scenario]", f"kind = {scenario_kind}"]
    if kind == "gpon":
        lines.append("splitter_ratio = 4")
    if "duty_cycle" in params:
        lines.append(f"duty_cycle = {params['duty_cycle']!r}")
    lines += ["", "[detector]", f"dark_count_prob = {DARK_COUNT_PROB!r}"]
    if "width_nm" in params:
        lines += ["", "[filter]", f"width_nm = {params['width_nm']!r}"]
    powers = [k for k in params if k.startswith("power_")]
    if powers:
        lines += ["", "[classical]"] + [f"{k} = {params[k]!r}" for k in powers]
    raman = [k for k in ("rho", "rho_beyond", "split_km") if k in params]
    if raman:
        lines += ["", "[raman]"] + [f"{k} = {params[k]!r}" for k in raman]
    start, stop, step = sweep
    lines += ["", "[sweep]", f"start_km = {start!r}", f"stop_km = {stop!r}",
              f"step_km = {step!r}", ""]
    return "\n".join(lines)


def _seeded_params(rng, kind):
    """Link parameters the key rate depends on, drawn per seed.

    Raman and crosstalk noise both scale with launch power x duty cycle x
    filter width, so the launch powers absorb the drawn duty cycle and
    width up to a small jitter; on the backbone, where Raman noise
    dominates, they absorb rho as well.  That keeps every seed's decoy
    cutoff near the bundled configs': ~3-4.5 km on gpon, beyond 20 km on
    the backbone.  Crosstalk dominates on gpon, where a 0.3 dB change moves
    the cutoff by ~1 km, so rho and the jitter stay narrow there.
    """
    p = {"duty_cycle": round(rng.uniform(0.5, 1.0), 3),
         "width_nm": rng.choice((0.4, 0.8))}
    offset = -10.0 * math.log10(p["duty_cycle"] * p["width_nm"] / 0.8)
    if kind == "gpon":
        p["rho"] = round(rng.uniform(2.5, 3.5), 3) * 1e-10
        p["power_1490_dbm"] = round(2.0 + offset + rng.uniform(-0.2, 0.2), 2)
        p["power_1310_dbm"] = round(1.0 + offset + rng.uniform(-0.2, 0.2), 2)
        return p
    p["rho"] = round(rng.uniform(2.0, 5.0), 3) * 1e-10
    offset -= 10.0 * math.log10(p["rho"] / 3e-10)
    p["power_1510_dbm"] = round(offset + rng.uniform(-1.0, 1.0), 2)
    p["power_1470_dbm"] = round(offset + rng.uniform(-1.0, 1.0), 2)
    if kind == "two_fiber":
        p["rho_beyond"] = round(rng.uniform(5.0, 10.0), 3) * 1e-10
        p["split_km"] = round(rng.uniform(*SPLIT_RANGE_KM), 2)
    return p


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def generate(seed, workdir):
    """Write the seeded input files into workdir and return the plan."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"qkdmetro-bench-{seed}")
    kinds = ("backbone", "two_fiber", "gpon")
    params = {kind: _seeded_params(rng, kind) for kind in kinds}

    # sweep: dense sweeps; gpon runs well past its decoy cutoff.  Each config's
    # SWEEP_POINTS lengths are swept in strided segments of SEGMENT_POINTS,
    # one timed run_sweep call each, on the scenario built once from the
    # config: segment k holds lengths k, k + n, k + 2n, ... (n segments), so
    # every segment spans the whole range and costs nearly the same.
    sweep_ops = []
    segments = SWEEP_POINTS // SEGMENT_POINTS
    for kind in kinds:
        step = SWEEP_STOP_KM[kind] / (SWEEP_POINTS - 1)
        path = _write(os.path.join(workdir, f"sweep_{kind}.cfg"),
                      _config_text(kind, params[kind], (0.0, SWEEP_STOP_KM[kind], step)))
        split = params[kind].get("split_km")
        for k in range(segments):
            start, stop, stride = k * step, (k + segments * (SEGMENT_POINTS - 1)) * step, \
                segments * step
            # the count SweepSpec.lengths() gives for these bounds
            assert int((stop - start) / stride + 1e-9) + 1 == SEGMENT_POINTS
            lengths = [start + i * stride for i in range(SEGMENT_POINTS)]
            sweep_ops.append({
                "name": f"{kind}:{k}", "segment": k, "config": path,
                "start_km": start, "stop_km": stop, "step_km": stride,
                "points": SEGMENT_POINTS,
                "points_beyond_split": sum(1 for x in lengths if x > split) if split else 0})

    # fit: the bundled scenarios against perturbed bundled anchors
    fit_configs = {kind: _write(os.path.join(workdir, f"fit_{kind}.cfg"),
                                _config_text(kind, BUNDLED_PARAMS[kind],
                                             BUNDLED_SWEEPS[kind]))
                   for kind in kinds}
    rows = ["scenario,length_km,observable,target,weight"]
    for scenario, length, observable, target, weight in BUNDLED_ANCHORS:
        if target > 0:
            target = round(target * rng.lognormvariate(0.0, ANCHOR_SPREAD), 6)
        rows.append(f"{scenario},{length!r},{observable},{target!r},{weight!r}")
    anchors = _write(os.path.join(workdir, "anchors.csv"), "\n".join(rows) + "\n")
    calibrations = [{"name": name, "config": fit_configs[name], "free": list(free)}
                    for name, free in CALIBRATIONS]
    mu_ops = []
    for _ in range(MU_SEARCHES_PER_KIND):
        for kind in ("gpon", "backbone"):
            mu_ops.append({"name": kind, "config": fit_configs[kind],
                           "length_km": round(rng.uniform(0.0, MU_MAX_KM[kind]), 3)})

    # cli: cold invocations at the bundled sizes, seeded arguments and order
    cli_configs = {kind: _write(os.path.join(workdir, f"cli_{kind}.cfg"),
                                _config_text(kind, params[kind], BUNDLED_SWEEPS[kind]))
                   for kind in kinds}
    cli_ops = []
    for kind in kinds:
        out = os.path.join(workdir, f"cli_{kind}.csv")
        svg = os.path.join(workdir, f"cli_{kind}.svg")
        start, stop, step = BUNDLED_SWEEPS[kind]
        cli_ops.append({"kind": "sweep", "name": kind, "out": out, "svg": svg,
                        "points": int((stop - start) / step + 1e-9) + 1,
                        "argv": ["sweep", "--config", cli_configs[kind],
                                 "--out", out, "--svg", svg]})
    for pair in range(1):
        kind = rng.choice(kinds)
        wavelength = rng.choice(WAVELENGTHS[kind])
        near = round(rng.uniform(0.0, 5.0), 3)
        for length in (near, round(near + rng.uniform(0.5, 5.0), 3)):
            cli_ops.append({"kind": "path-loss", "name": kind, "pair": pair,
                            "length_km": length,
                            "argv": ["path-loss", "--config", cli_configs[kind],
                                     "--wavelength", repr(wavelength),
                                     "--length-km", repr(length)]})
    for _ in range(2):
        kind = rng.choice(kinds)
        length = round(rng.uniform(0.0, MU_MAX_KM[kind]), 3)
        cli_ops.append({"kind": "optimize-mu", "name": kind,
                        "config": cli_configs[kind], "length_km": length,
                        "argv": ["optimize-mu", "--config", cli_configs[kind],
                                 "--length-km", repr(length)]})
    for _ in range(1):
        total = float(rng.choice((10, 40, 100, 384))) * 1e9
        rate = round(rng.uniform(100.0, 5000.0), 1)
        bits = rng.choice((128, 192, 256))
        cli_ops.append({"kind": "rekey", "name": "rekey",
                        "expected": total / (rate / bits),
                        "argv": ["rekey", "--total-bps", repr(total),
                                 "--key-rate", repr(rate), "--key-bits", str(bits)]})
    rng.shuffle(cli_ops)

    return {"seed": seed, "sweep": sweep_ops, "anchors": anchors,
            "calibrations": calibrations, "mu": mu_ops, "cli": cli_ops,
            "configs": sorted(set([op["config"] for op in sweep_ops]
                                  + list(fit_configs.values())))}
