"""Output checks applied to every benchmark operation.

Each check returns a list of problems; an empty list means the operation's
output is correct.  The invariants hold for every seed.  On the default seed
the outputs must also match ``reference.json`` (recorded at the commit the
benchmark was written against) within the tolerances below, which leave
room for a different but equivalent order of floating-point operations.
"""

import math
import xml.etree.ElementTree as ET

# sweep records: every column, relative, with an absolute floor for zeros
SWEEP_REL_TOL = 1e-9
SWEEP_ABS_TOL = 1e-15
# fitted parameters, compared in fit space (log10 for log-scaled ones), as a
# share of the parameter's fit range; golden-section stops at 1e-4 of it
FIT_X_TOL = 1e-3
FIT_RESIDUAL_REL_TOL = 1e-4
# optimal mu, absolute; the search stops at 1e-4
MU_ABS_TOL = 1e-3
# a search must find a rate at least this share of the best scan point
MU_SCAN_SHARE = 1.0 - 1e-6

# documented calibration bounds (README "Calibration"): lo, hi, log-scaled
FIT_BOUNDS = {
    "rho": (1e-11, 1e-7, True),
    "rho_beyond": (1e-11, 1e-7, True),
    "launch_dbm": (-20.0, 10.0, False),
    "e_det": (1e-3, 1e-1, True),
    "dark_count_prob": (1e-7, 1e-3, True),
}

SWEEP_COLUMNS = ("length_km", "total_loss_db", "eta", "y0", "q_mu", "qber",
                 "raw_bps", "sifted_bps", "ec_corrected_bps", "secret_bps")
# every 10th strided sweep segment of a config is kept whole in the
# reference; each spans the config's whole range
REFERENCE_SEGMENTS_EVERY = 10


def link_invariants(where, raw, sifted, ec, secret, qber, y0, dark):
    problems = []
    if not 0.0 <= secret <= ec <= sifted <= raw:
        problems.append(f"{where}: need 0 <= secret <= EC <= sifted <= raw, got "
                        f"{secret!r}, {ec!r}, {sifted!r}, {raw!r}")
    if not 0.0 <= qber <= 0.5:
        problems.append(f"{where}: QBER {qber!r} outside [0, 0.5]")
    if not y0 >= dark:
        problems.append(f"{where}: Y0 {y0!r} below the dark count {dark!r}")
    return problems


def sweep_records(records, expected_points, dark, svg_text):
    """Invariants of one sweep's records, and its SVG parses."""
    problems = []
    if len(records) != expected_points:
        problems.append(f"{len(records)} records, expected {expected_points}")
    previous = None
    for rec in records:
        where = f"{rec.length_km!r} km"
        problems += link_invariants(where, rec.raw_bps, rec.sifted_bps,
                                    rec.ec_corrected_bps, rec.secret_bps,
                                    rec.qber, rec.y0, dark)
        if previous is not None and not (rec.length_km > previous.length_km and
                                         rec.total_loss_db >= previous.total_loss_db):
            problems.append(f"{where}: length or loss decreased along the sweep")
        previous = rec
    try:
        ET.fromstring(svg_text)
    except ET.ParseError as exc:
        problems.append(f"SVG does not parse: {exc}")
    return problems[:5]


def sweep_reference_rows(records):
    return [[getattr(rec, c) for c in SWEEP_COLUMNS] for rec in records]


def sweep_matches(records, reference_rows):
    rows = sweep_reference_rows(records)
    if len(rows) != len(reference_rows):
        return [f"{len(rows)} reference rows, expected {len(reference_rows)}"]
    for row, ref in zip(rows, reference_rows):
        for column, got, want in zip(SWEEP_COLUMNS, row, ref):
            if not math.isclose(got, want, rel_tol=SWEEP_REL_TOL,
                                abs_tol=SWEEP_ABS_TOL):
                return [f"{column} at {row[0]!r} km is {got!r}, reference {want!r}"]
    return []


def _fit_x(name, value):
    lo, hi, log_scale = FIT_BOUNDS[name]
    if log_scale:
        return math.log10(value), math.log10(hi) - math.log10(lo)
    return value, hi - lo


def calibration(result, free, n_anchors):
    problems = []
    if sorted(result.params) != sorted(free):
        problems.append(f"fitted {sorted(result.params)}, expected {sorted(free)}")
    for name, value in result.params.items():
        lo, hi, _ = FIT_BOUNDS.get(name, (-math.inf, math.inf, False))
        if not lo <= value <= hi:
            problems.append(f"{name} = {value!r} outside [{lo!r}, {hi!r}]")
    if len(result.residuals) != n_anchors:
        problems.append(f"{len(result.residuals)} residuals for {n_anchors} anchors")
    if not (math.isfinite(result.residual) and result.residual >= 0.0
            and math.isclose(result.residual, math.fsum(result.residuals),
                             rel_tol=1e-9, abs_tol=1e-300)):
        problems.append(f"residual {result.residual!r} is not the finite sum "
                        f"of the per-anchor residuals")
    return problems


def calibration_matches(result, reference):
    problems = []
    for name, want in reference["params"].items():
        got = result.params.get(name)
        if got is None or (FIT_BOUNDS[name][2] and got <= 0.0):
            problems.append(f"{name} = {got!r}, reference {want!r}")
            continue
        (x_got, span), (x_want, _) = _fit_x(name, got), _fit_x(name, want)
        if abs(x_got - x_want) > FIT_X_TOL * span:
            problems.append(f"{name} = {got!r}, reference {want!r}")
    if not math.isclose(result.residual, reference["residual"],
                        rel_tol=FIT_RESIDUAL_REL_TOL):
        problems.append(f"residual {result.residual!r}, "
                        f"reference {reference['residual']!r}")
    return problems


def mu_search(mu_star, rate_at_star, scan_rates):
    problems = []
    if not 0.05 <= mu_star <= 1.5:
        problems.append(f"mu* = {mu_star!r} outside the scan range [0.05, 1.5]")
    best = max(scan_rates)
    if not (rate_at_star > 0.0 and rate_at_star >= MU_SCAN_SHARE * best):
        problems.append(f"rate {rate_at_star!r} at mu* = {mu_star!r} is below "
                        f"the best scan rate {best!r}")
    return problems


def mu_matches(mu_star, reference):
    if abs(mu_star - reference) > MU_ABS_TOL:
        return [f"mu* = {mu_star!r}, reference {reference!r}"]
    return []


def path_loss_pair(near, far):
    """Loss at two lengths of one config and wavelength: finite, ordered."""
    (l_near, v_near), (l_far, v_far) = near, far
    if not (math.isfinite(v_near) and math.isfinite(v_far) and 0.0 <= v_near):
        return [f"path loss {v_near!r} / {v_far!r} dB is not a finite loss"]
    if l_near <= l_far and v_near > v_far:
        return [f"loss fell from {v_near!r} dB at {l_near!r} km "
                f"to {v_far!r} dB at {l_far!r} km"]
    return []
