"""Decoy-state BB84 performance engine.

The parameter records (DecoyParams, KeyRateParams), the per-evaluation
results (YieldGain, DistillationRates), the QBER threshold, the
one-dimensional search for the optimal signal intensity (a scan, then
Brent's method) and golden_bracket, whose one remaining caller is
calibrate's coordinate refinement (ROADMAP.md item 16 replaces it).

gain, qber, decoy_estimate and apply_deadtime state the gain/QBER model,
the vacuum+weak decoy bounds with known background yield and deadtime
saturation one formula each.  network.evaluate_point runs the same float
operations fused into one frame, with the decoy invariants computed once
(network.decoy_terms) and e0 = 0.5 (network.E0), and returns plain
floats, of which network.evaluate_link builds the YieldGain and
DistillationRates; these functions are the reference it is tested
against, and the acceptance gate calls them.
"""

import math
from collections import namedtuple

from .errors import (BoundCollapse, DegenerateChannel, DomainError, NoPositiveRate,
                     involving)
from .params import check, check_fields

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MU_SCAN_LO = 0.05
MU_SCAN_HI = 1.5
MU_SCAN_POINTS = 21
MU_TOL = 1e-4
QBER_TOL = 1e-9


class DecoyParams(namedtuple("DecoyParams", ("mu", "nu", "estimator_mode"))):
    __slots__ = ()

    def __new__(cls, mu, nu, estimator_mode):
        # built by tuple.__new__, which skips the named tuple's own
        # constructor frame: a mu search builds one per step
        if nu is None:
            nu = mu / 20.0
        self = tuple.__new__(cls, (mu, nu, estimator_mode))
        check_fields(self)
        if not nu < mu:
            raise involving(ValueError("need 0 < nu < mu"), "nu", "mu")
        return self


class KeyRateParams(namedtuple("KeyRateParams", ("q", "f"))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_fields(self)
        return self


# The per-evaluation results, named tuples: the signal gain and QBER with
# the decoy bounds on the single-photon terms, and the bits per second at
# each distillation stage.  Built as tuple.__new__(Record, (...)), which
# skips the constructor's Python frame (see README).
YieldGain = namedtuple("YieldGain", ("q_mu", "e_mu", "y1_low", "e1_up", "q1_low"))
DistillationRates = namedtuple("DistillationRates", (
    "raw_bps", "sifted_bps", "ec_corrected_bps", "secret_bps"))


def _binary_entropy(x):
    # Shannon binary entropy in bits, unchecked: arguments outside (0, 1)
    # give 0, as 0*log(0) := 0 does at 0 and 1.
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def gain(y0, eta, mu):
    """Signal gain Q_mu = Y0 + 1 - exp(-eta*mu)."""
    return y0 - math.expm1(-eta * mu)


def qber(y0, eta, mu, e_det, e0=0.5):
    """Signal QBER E_mu = (e0*Y0 + e_det*(1 - exp(-eta*mu))) / Q_mu."""
    m = math.expm1(-eta * mu)
    q_mu = y0 - m  # gain's float operations
    if q_mu == 0.0:
        raise DegenerateChannel("gain is zero; QBER undefined")
    return (e0 * y0 + e_det * -m) / q_mu


def decoy_estimate(q_mu, e_mu, q_nu, e_nu, mu, nu, y0_known, e0=0.5):
    """Vacuum+weak decoy bounds on the single-photon contribution.

    y0_known is the background yield credited to the estimator: the true
    simulator Y0 in exact_y0 mode, 0 in the conservative one_decoy_bound
    mode (the caller chooses).
    """
    if not 0 < nu < mu:
        raise ValueError("need 0 < nu < mu")
    # mu*nu - nu*nu > 0 for 0 < nu < mu, but it underflows to 0 for tiny ones
    spread = mu * nu - nu * nu
    if not spread > 0.0:
        raise DomainError(f"the decoy bound needs mu*nu - nu*nu > 0, which "
                          f"underflows to 0 at mu = {mu!r}, nu = {nu!r}")
    # Y0 enters the Y1 bound with a negative sign, so a *lower* Y0 bound is
    # unsafe there.  When Y0 is unknown (y0_known = 0) substitute the upper
    # bound e0*Y0 <= E_nu*Q_nu*e^nu implied by the decoy error rate.
    exp_nu = math.exp(nu)
    y0_for_y1 = y0_known if y0_known > 0.0 else e_nu * q_nu * exp_nu / e0
    y1_low = (mu / spread) * (
        q_nu * exp_nu
        - q_mu * math.exp(mu) * nu * nu / (mu * mu)
        - (mu * mu - nu * nu) / (mu * mu) * y0_for_y1
    )
    if y1_low <= 0.0:
        raise BoundCollapse("no single-photon yield provable from these gains")
    # The clamps are comparisons, not min/max calls, which cost a call
    # each; each returns what min(y1_low, 1.0) and min(max(e1_up, 0.0),
    # 0.5) return, NaN and -0.0 included.
    if 1.0 < y1_low:
        y1_low = 1.0
    e1_up = (e_nu * q_nu * exp_nu - e0 * y0_known) / (y1_low * nu)
    if e1_up < 0.0:
        e1_up = 0.0
    elif 0.5 < e1_up:
        e1_up = 0.5
    q1_low = y1_low * mu * math.exp(-mu)
    return tuple.__new__(YieldGain, (q_mu, e_mu, y1_low, e1_up, q1_low))


def qber_threshold(f):
    """QBER above which the secret fraction is zero even with Q1 = Q_mu.

    Root of f*h2(x) + h2(x) = 1 on (0, 0.5), located by bisection to
    within QBER_TOL.
    """
    check("f", f)
    lo, hi = 0.0, 0.5
    while hi - lo > QBER_TOL:
        mid = 0.5 * (lo + hi)
        if (f + 1.0) * _binary_entropy(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def apply_deadtime(rate_per_s, tau_dead_s):
    """Detection rate after deadtime saturation; asymptote 1/tau."""
    if rate_per_s < 0:
        raise ValueError("rate must be non-negative")
    return rate_per_s / (1.0 + rate_per_s * tau_dead_s)


def optimize_mu(secret_rate_of_mu):
    """Signal intensity maximizing the secret rate.

    A coarse MU_SCAN_POINTS-point scan over [MU_SCAN_LO, MU_SCAN_HI]
    brackets the maximum between the best scan point's neighbours, and
    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5: parabolic steps with a golden-section fallback) refines it from
    the best scan point and its known rate.  It stops once the best point
    so far lies within MU_TOL/2 of both ends of the bracket, and returns
    that point, so its rate is at least every scan rate.  The decoy
    intensity is the callable's business (the built-in scenarios keep the
    configured nu/mu ratio).
    """
    step = (MU_SCAN_HI - MU_SCAN_LO) / (MU_SCAN_POINTS - 1)
    grid = [MU_SCAN_LO + i * step for i in range(MU_SCAN_POINTS)]
    values = [secret_rate_of_mu(m) for m in grid]
    best = max(range(len(grid)), key=values.__getitem__)
    if values[best] <= 0.0:
        raise NoPositiveRate("secret rate non-positive over the whole scan range")
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    # x is the best point so far, w the second best and v the one before
    # w; e is the step before the last, d the last
    x = w = v = grid[best]
    fx = fw = fv = values[best]
    d = e = 0.0
    tol = 0.25 * MU_TOL  # no two points closer; stop at 2 * tol = MU_TOL / 2
    while x - a > 2.0 * tol or b - x > 2.0 * tol:
        mid = 0.5 * (a + b)
        p = q = r = 0.0
        if abs(e) > tol:
            # the vertex of the parabola through x, w and v is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        # accept the vertex if it lies inside the bracket and the step is
        # under half the step before last (NaN fails each comparison)
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                d = tol if x < mid else -tol
        else:
            e = (b - x) if x < mid else (a - x)
            d = (1.0 - GOLDEN) * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = secret_rate_of_mu(u)
        if fu >= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x


def golden_bracket(f, a, b, tol):
    """Golden-section search for a maximum of f: [a, b] narrowed to tol.

    Its one caller is calibrate's coordinate refinement (ROADMAP.md item
    16); optimize_mu refines with Brent's method.
    """
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    return a, b
