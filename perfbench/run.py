"""End-to-end and per-layer benchmark of qkdmetro.

Usage:
    python3 perfbench/run.py --workload {sweep,fit} --seed N
                             --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from ``src/``
of the checkout this file sits in (nothing is installed).  The seed makes
every input: config files, anchor file and CLI arguments are written to a
scratch directory inside the checkout, which is removed at the end.

With ``--trace 0`` the end-to-end metrics are measured: set-up time is the
median of several fresh worker processes, then one worker runs the
workload for S seconds.  With ``--trace 1`` a separate run records layer
spans and prints the per-layer metrics.  Every line before the last is for
people; the last line is the JSON result.  See README.md in this directory
for what each workload and metric means.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "fit")
DEFAULT_SEED = 1
REFERENCE = HERE / "reference.json"


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv, env):
    """Run argv to completion: (exit code, CLOCK_MONOTONIC spawn time, peak RSS MB)."""
    spawned = monotonic()
    proc = subprocess.Popen(argv, stdout=sys.stderr, env=env, cwd=ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, spawned, usage.ru_maxrss / 1024.0


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def by_op(samples):
    """Each operation's times over the run, by its index in the round.

    Samples are [round, index, seconds, ...].
    """
    times = {}
    for sample in samples:
        times.setdefault(sample[1], []).append(sample[2])
    return times


def end_to_end(result, worker_ready_s, worker_rss_mb):
    """The end-to-end metrics; a timing is None if any of its operations failed."""
    s = result["samples"]
    failed = result["bucket_failed"]

    def timing(bucket, statistic):
        return statistic(s[bucket]) if s[bucket] and not failed[bucket] else None

    def points_per_s(samples):
        # Samples are [round, index, seconds, points, config].  The strided
        # segments of a config span the same lengths, so each config's time
        # per point is its best segment's, and its sweep takes that for all
        # of its points.
        points, best = {}, {}
        for _, index, seconds, n, config in samples:
            points.setdefault(config, {})[index] = n
            best[config] = min(best.get(config, math.inf), seconds / n)
        total = {config: sum(by_index.values()) for config, by_index in points.items()}
        return sum(total.values()) / sum(total[c] * best[c] for c in total)

    def mean_best(samples):
        return statistics.fmean(min(t) for t in by_op(samples).values())

    def mean(samples):
        # long operations (0.2-0.9 s): every one runs equally often
        return statistics.fmean(sample[2] for sample in samples)

    def p90(samples):
        return statistics.quantiles([sample[2] for sample in samples], n=10,
                                    method="inclusive")[8]

    attempted = result["attempted"]
    return {
        "setup_s": (timing("setup", lambda samples: statistics.median(
            [v for _, _, v in samples] + [worker_ready_s])), "s"),
        "sweep_points_per_s": (timing("sweep", points_per_s), "1/s"),
        "calibrate_s": (timing("calibrate", mean), "s"),
        "optimize_mu_ms": (timing("mu", lambda samples: mean_best(samples) * 1e3), "ms"),
        "cli_mean_s": (timing("cli", mean), "s"),
        "cli_p90_s": (timing("cli", p90), "s"),
        "peak_rss_mb": (worker_rss_mb, "MB"),
        "ops_ok_ratio": ((attempted - result["failed"]) / attempted, "ratio"),
    }


def per_layer(result):
    # in-process layers from the worker's spans; the CLI's own layers
    # (config parse, SVG chart, interpreter start and import) from the traced
    # qkdmetro processes, kept apart
    stats, cli_stats = {}, {}
    if result["spans"]:
        tracer.summarize(result["spans"], stats)
    interpreter, imports = [], []
    for path, spawned in result["cli_spans"]:
        extra = tracer.summarize(path, cli_stats)["extra"]
        interpreter.append(extra["started"] - spawned)
        imports.append(extra["imported"] - extra["started"])
    # spans come from the traced blocks only; the worker's own counts from
    # every block, untraced and traced, which run the same operations
    blocks = result["blocks"]
    traced_wall = result["wall"]["traced"]
    counts = result["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(name, source=stats):
        return source.get(name, {}).get("calls", 0)

    def us(*names, key="self", source=stats):
        total = sum(source.get(n, {}).get(key, 0.0) for n in names)
        return ratio(total, sum(calls(n, source) for n in names)) * 1e6

    def share(name):
        return ratio(stats.get(name, {}).get("self", 0.0), traced_wall)

    def per_block(name):
        return calls(name) / blocks

    def mean(values):
        return ratio(sum(values), len(values))

    collapses = stats.get("keyrate.decoy_estimate", {}).get("errors", {}).get(
        "BoundCollapse", 0)
    tp, blp = "network.transparent_path", "network.build_light_path"
    bs, ev = "network.build_scenario", "network.evaluate_link"
    ar = "calibrate.anchor_residuals"
    return {
        f"{tp}.calls": (per_block(tp), "count"),
        f"{tp}.us": (us(tp), "us"),
        f"{tp}.share": (share(tp), "ratio"),
        f"{blp}.self_us": (us(blp), "us"),
        f"{blp}.total_us": (us(blp, key="total"), "us"),
        f"{blp}.share": (share(blp), "ratio"),
        f"{bs}.calls": (per_block(bs), "count"),
        f"{bs}.us": (us(bs), "us"),
        f"{bs}.share": (share(bs), "ratio"),
        "network.with_overrides.total_us": (us("network.with_overrides", key="total"), "us"),
        f"{ev}.calls": (per_block(ev), "count"),
        f"{ev}.self_us": (us(ev), "us"),
        f"{ev}.total_us": (us(ev, key="total"), "us"),
        "noise.background_yield.us": (us("noise.background_yield"), "us"),
        "noise.background_yield.share": (share("noise.background_yield"), "ratio"),
        "optical_path.path_loss.us": (us("optical_path.path_loss"), "us"),
        "keyrate.gain_qber.us": (us("keyrate.gain", "keyrate.qber"), "us"),
        "keyrate.decoy_estimate.us": (us("keyrate.decoy_estimate"), "us"),
        "keyrate.decoy_estimate.calls": (per_block("keyrate.decoy_estimate"), "count"),
        "keyrate.bound_collapse.count": (collapses / blocks, "count"),
        "keyrate.collapse_ratio": (ratio(collapses, calls("keyrate.decoy_estimate")), "ratio"),
        "keyrate.distillation_rates.us": (us("keyrate.distillation_rates"), "us"),
        "keyrate.optimize_mu.calls": (per_block("keyrate.optimize_mu"), "count"),
        "keyrate.optimize_mu.evals": (mean(counts["mu_evals"]), "count"),
        "calibrate.calibrate.calls": (per_block("calibrate.calibrate"), "count"),
        f"{ar}.calls": (per_block(ar), "count"),
        f"{ar}.calls_per_fit": (ratio(calls(ar), calls("calibrate.calibrate")), "count"),
        f"{ar}.self_us": (us(ar), "us"),
        "calibrate.grid_points": (mean(counts["grid_points"]), "count"),
        "sweep.points": (counts["sweep_points"] / (2 * blocks), "count"),
        "sweep.past_cutoff_share": (ratio(counts["zero_rate_points"], counts["sweep_points"]),
                                    "ratio"),
        "sweep.two_fiber_share": (ratio(counts["points_beyond_split"], counts["sweep_points"]),
                                  "ratio"),
        "sweep.write_csv.us": (us("sweep.write_csv"), "us"),
        "sweep.csv_bytes": (counts["csv_bytes"] / (2 * blocks), "bytes"),
        "svgchart.sweep_svg.us": (us("svgchart.sweep_svg", source=cli_stats), "us"),
        "config.parse_config.us": (us("config.parse_config", source=cli_stats), "us"),
        "cli.interpreter_s": (median_or_zero(interpreter), "s"),
        "cli.import_s": (median_or_zero(imports), "s"),
        "trace.overhead_ratio": (ratio(traced_wall, result["wall"]["untraced"]), "ratio"),
    }


def git_revision():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown (git not available)"
    return out.stdout.strip() or "unknown"


def run(args, work):
    plan = inputs.generate(args.seed, str(work))
    pythonpath = os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    plan.update({
        "workload": args.workload, "seconds": args.seconds, "trace": bool(args.trace),
        "root": str(ROOT), "workdir": str(work), "pythonpath": pythonpath,
        "cli_shim": str(HERE / "cli_shim.py"), "worker": str(HERE / "worker.py"),
        "plan_path": str(work / "plan.json"), "dark_count_prob": inputs.DARK_COUNT_PROB,
        "reference": str(REFERENCE) if args.seed == DEFAULT_SEED else None,
        "record_reference": str(REFERENCE) if args.record_reference else None,
    })
    with open(plan["plan_path"], "w", encoding="utf-8") as fh:
        json.dump(plan, fh, indent=1)
    # bytecode caching on, as for an installed package, and the caches filled
    # before anything is timed, so no sample pays for compiling
    env = dict(os.environ, PYTHONPATH=pythonpath)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    worker = [sys.executable, plan["worker"], plan["plan_path"]]
    for argv in (worker + [str(work / "warm.json"), "--setup-only"],
                 [sys.executable, "-c", "import qkdmetro.cli"]):
        code, _, _ = spawn(argv, env)
        if code != 0:
            print(f"error: could not import the package (exit code {code})",
                  file=sys.stderr)
            return 1
    path = work / "result.json"
    code, spawned, rss_mb = spawn(worker + [str(path)], env)
    if code != 0:
        print(f"error: the worker exited with {code}", file=sys.stderr)
        return 1
    result = read_json(path)
    if args.trace:
        metrics = per_layer(result)
    else:
        metrics = end_to_end(result, result["ready"] - spawned, rss_mb)
    for problem in result["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value!r} {unit}")
    if not args.trace:
        print("# rounds " + json.dumps(result["rounds"]))
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "backend": result["backend"],
            "git_revision": git_revision(),
            "reference_checked": plan["reference"] is not None}
    print("# run " + json.dumps(meta))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"write the default seed's outputs to {REFERENCE.name} "
                             "instead of checking them")
    args = parser.parse_args()
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error(f"--record-reference needs the default seed {DEFAULT_SEED}")
    if not (ROOT / "src" / "qkdmetro" / "__init__.py").is_file():
        print(f"error: no qkdmetro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_run" / str(os.getpid())
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
