"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 usage or configuration error
(a value out of range too).  Diagnostics go to stderr; data to files or stdout.
"""

import argparse
import io
import math
import sys

from . import __version__
from .config import parse_config_file
from .errors import ConfigError, QkdMetroError
from .keyrate import optimize_mu
from .network import RESULT_FIELDS, evaluate_point, variation
from .sweep import aes_rekey, run_sweep, write_csv
from .svgchart import sweep_svg


def _finite_float(text):
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _bounded(convert, strict):
    """argparse type: a value of convert that is > 0 if strict, else >= 0.
    It takes convert's name, which argparse prints when convert raises a
    ValueError ("invalid int value: ...")."""
    what = "positive" if strict else "non-negative"

    def bounded(text):
        value = convert(text)
        if value < 0 or (strict and value == 0):
            raise argparse.ArgumentTypeError(f"not a {what} number: {text!r}")
        return value

    bounded.__name__ = convert.__name__
    return bounded


# a fiber length in km; and the rekey command's rates and key length
_length = _bounded(_finite_float, strict=False)
_positive_float = _bounded(_finite_float, strict=True)
_positive_int = _bounded(int, strict=True)


def _wavelength(text):
    """argparse type: a wavelength in nm in the O to U bands of ITU-T
    G.Sup39, where single-mode fiber carries light."""
    value = _finite_float(text)
    if not 1260.0 <= value <= 1675.0:
        raise argparse.ArgumentTypeError(
            f"{text!r} nm lies outside the O to U bands, 1260-1675 nm")
    return value


def _free_params(text):
    """argparse type: the comma-separated names of calibrate's free
    parameters, at least one, each a known one, given once."""
    from .calibrate import fit_params  # only the calibrate command parses one

    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("need at least one free parameter")
    try:
        fit_params(names)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return names


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qkdmetro",
        description="QKD feasibility planner for shared metro optical networks")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run a distance sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p.add_argument("--svg", help="also write a dual-axis SVG chart")
    p.add_argument("--strict", action="store_true",
                   help="abort on per-point errors instead of recording zero rate")

    p = sub.add_parser("calibrate", help="fit noise parameters to anchors")
    p.add_argument("--config", required=True)
    p.add_argument("--anchors", default=None,
                   help="anchor CSV file (default: bundled measured anchors)")
    p.add_argument("--out", required=True, help="fitted parameter file, or -")
    p.add_argument("--free", type=_free_params, default="rho,launch_dbm",
                   help="comma-separated free parameters (default rho,launch_dbm)")

    p = sub.add_parser("optimize-mu", help="search the optimal signal intensity")
    p.add_argument("--config", required=True)
    p.add_argument("--length-km", type=_length, default=0.0)

    p = sub.add_parser("rekey", help="bits encrypted per AES key")
    p.add_argument("--total-bps", type=_positive_float, required=True)
    p.add_argument("--key-rate", type=_positive_float, required=True)
    p.add_argument("--key-bits", type=_positive_int, required=True)

    p = sub.add_parser("path-loss", help="path loss at a wavelength")
    p.add_argument("--config", required=True)
    p.add_argument("--wavelength", type=_wavelength, required=True)
    p.add_argument("--length-km", type=_length, default=0.0)
    return parser


def _cmd_sweep(args):
    scenario, spec = parse_config_file(args.config)
    records = run_sweep(scenario, spec, strict=args.strict)
    if args.out == "-":
        write_csv(records, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_csv(records, fh)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(sweep_svg(records, title=f"{scenario.kind} sweep"))
    return 0


def _cmd_calibrate(args):
    # imported here, so that no other command pays for the modules
    from importlib import resources

    from .calibrate import calibrate, load_anchors

    scenario, _ = parse_config_file(args.config)
    if args.anchors is None:
        text = resources.files("qkdmetro").joinpath("data/measured_anchors.csv").read_text()
        anchors = load_anchors(io.StringIO(text))
    else:
        with open(args.anchors, encoding="utf-8") as fh:
            anchors = load_anchors(fh)
    result = calibrate(scenario, anchors, args.free)
    lines = [f"{name} = {value!r}" for name, value in sorted(result.params.items())]
    lines.append(f"# weighted residual = {result.residual!r}")
    for anchor, res in zip(result.anchors, result.residuals):
        lines.append(f"# anchor {anchor.scenario} {anchor.observable}"
                     f"@{anchor.length_km} km: residual {res:.6g}")
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _cmd_optimize_mu(args):
    scenario, _ = parse_config_file(args.config)
    ratio = scenario.decoy.nu / scenario.decoy.mu
    # mu and nu leave the link structure as it is: one length stage serves
    point = scenario.link.at(args.length_km)
    inputs_of = variation(scenario, (("mu",), ("nu",)))
    secret = RESULT_FIELDS.index("secret_bps")

    def rate_of_mu(mu):
        return evaluate_point(point, inputs_of((mu, mu * ratio)), on_collapse="zero")[secret]

    print(repr(optimize_mu(rate_of_mu)))
    return 0


def _cmd_rekey(args):
    print(repr(aes_rekey(args.total_bps, args.key_rate, args.key_bits)))
    return 0


def _cmd_path_loss(args):
    scenario, _ = parse_config_file(args.config)
    print(repr(scenario.link.loss_db(args.length_km, args.wavelength)))
    return 0


_COMMANDS = {
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "optimize-mu": _cmd_optimize_mu,
    "rekey": _cmd_rekey,
    "path-loss": _cmd_path_loss,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QkdMetroError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
