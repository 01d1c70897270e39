"""Runs one benchmark workload in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN RESULT [--setup-only]

PLAN is the JSON written by run.py.  The worker sets up (imports, config
parse, scenario build: everything before the first timed operation) and
records the CLOCK_MONOTONIC time at which it is ready; with --setup-only it
stops there.

Otherwise, for the planned seconds, it runs rounds of operations of every
kind (sweep segments, calibrations, mu searches, CLI calls, set-up-only
workers), interleaved one operation at a time, each kind taking the
workload's share of the time for it (SHARES), so every end-to-end metric is
measured on every workload and no metric's samples bunch up in one stretch
of time.  A round is left only when all its operations have run, so every
operation of a kind runs equally often.
Every operation's output is checked; a failed check is counted and the run
goes on.  With tracing on, untraced and traced blocks alternate instead (a
block is three rounds of each of the workload's own kinds and one of every
other) and the spans are written next to RESULT.
"""

import json
import math
import sys
import time
from collections import namedtuple


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# The same line the installed ``qkdmetro`` console script runs.
CLI_ENTRY = "import sys; from qkdmetro.cli import main; sys.exit(main())"
KINDS = ("sweep", "calibrate", "mu", "cli")
OWN_KINDS = {"sweep": ("sweep",), "fit": ("calibrate", "mu")}
# Share of the run's time by kind.  The workload's own kinds get the most,
# and every kind enough time for its metric on both workloads (see
# README.md): a sweep segment or a mu search takes milliseconds and is timed
# by its best run, which a few seconds find; a calibration (0.4-0.9 s) or a
# CLI call (0.2-0.3 s) is timed by the mean over the run, which settles only
# over many calls because the host's speed changes from second to second.
# A set-up-only worker takes ~0.3 s, so 16-20 of them run.
SHARES = {
    "sweep": {"sweep": 0.30, "calibrate": 0.26, "mu": 0.06, "cli": 0.28, "setup": 0.10},
    "fit": {"sweep": 0.08, "calibrate": 0.42, "mu": 0.14, "cli": 0.26, "setup": 0.10},
}
OWN_ROUNDS_PER_BLOCK = 3  # traced runs: own rounds per block, next to one of each other
MU_SCAN = [0.05 + i * (1.5 - 0.05) / 20 for i in range(21)]

# bucket: the metric the sample feeds; value(out, elapsed): the sample, which
# starts with the operation's index in its round and its time where it has one
Op = namedtuple("Op", "bucket label call check value")


class Programs:
    """The package modules plus every config and anchor file of the plan."""

    def __init__(self, plan):
        from qkdmetro import calibrate, config, keyrate, network, sweep, svgchart
        self.calibrate, self.keyrate, self.network = calibrate, keyrate, network
        self.sweep, self.svgchart = sweep, svgchart
        self.scenarios = {path: config.parse_config_file(path)
                          for path in plan["configs"]}
        with open(plan["anchors"], encoding="utf-8") as fh:
            self.anchors = calibrate.load_anchors(fh)


class Runner:
    def __init__(self, plan, programs, result_path):
        # imported only now, so set-up-only workers pay for nothing but the program
        import io
        import os
        import subprocess
        import checks
        self.io, self.os, self.subprocess, self.checks = io, os, subprocess, checks
        self.plan = plan
        self.programs = programs
        self.result_path = result_path
        self.tracer = None
        self.tracing = False
        if plan["trace"]:
            import tracer
            self.tracer = tracer.Tracer()
        self.reference = None
        if plan["reference"] and not plan["record_reference"]:
            with open(plan["reference"], encoding="utf-8") as fh:
                self.reference = json.load(fh)
        self.record = ({"seed": plan["seed"], "sweep": {}, "calibrate": {},
                        "mu": [None] * len(plan["mu"])}
                       if plan["record_reference"] else None)
        self.env = dict(os.environ, PYTHONPATH=plan["pythonpath"])
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.wall = {False: 0.0, True: 0.0}
        self.blocks = 0
        self.rounds = {}
        self.samples = {"sweep": [], "calibrate": [], "mu": [], "cli": [], "setup": []}
        self.bucket_failed = dict.fromkeys(self.samples, 0)
        self.cli_spans = []
        self.counts = {"sweep_points": 0, "zero_rate_points": 0,
                       "points_beyond_split": 0, "csv_bytes": 0,
                       "mu_evals": [], "grid_points": []}
        self.path_loss = {}
        self.mu_in_process = {}
        self.mu_rates = {}

    # -- running and checking one operation ------------------------------

    def execute(self, op, round_id):
        """Time op.call() (traced when tracing), then check its output untraced."""
        self.attempted += 1
        tr = self.tracer if self.tracing else None
        if tr is not None:
            tr.op_id = self.attempted
            tr.install()
        try:
            start = time.perf_counter()
            out = op.call()
            elapsed = time.perf_counter() - start
        except Exception as exc:  # a failing operation is counted, not fatal
            self.fail(op, f"raised {exc!r}")
            return
        finally:
            if tr is not None:
                tr.uninstall()
        self.wall[self.tracing] += elapsed
        try:
            problems = op.check(out)
        except Exception as exc:  # so is a check that cannot read the output
            problems = [f"check raised {exc!r}"]
        if problems:
            self.fail(op, "; ".join(problems))
            return
        self.samples[op.bucket].append([round_id] + op.value(out, elapsed))

    def fail(self, op, message):
        self.failed += 1
        self.bucket_failed[op.bucket] += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.label}: {message}"[:600])

    def spawn(self, argv, name):
        """Run argv to completion.

        Returns exit code, spawn time, peak RSS in MB, stdout and stderr paths.
        """
        work = self.plan["workdir"]
        stdout_path = self.os.path.join(work, f"{name}.out")
        stderr_path = self.os.path.join(work, f"{name}.err")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            spawned = monotonic()
            proc = self.subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                         cwd=self.plan["root"])
            _, status, usage = self.os.wait4(proc.pid, 0)
        proc.returncode = self.os.waitstatus_to_exitcode(status)
        return proc.returncode, spawned, usage.ru_maxrss / 1024.0, stdout_path, stderr_path

    @staticmethod
    def exit_problem(code, stderr_path):
        with open(stderr_path, encoding="utf-8", errors="replace") as fh:
            return [f"exit code {code}: {fh.read()[-300:]}"]

    def round_ops(self, kind):
        return getattr(self, f"{kind}_ops")()

    # -- set-up ----------------------------------------------------------

    def setup_ops(self):
        """One round: one set-up-only worker."""
        path = self.os.path.join(self.plan["workdir"], "setup.json")

        def call():
            code, spawned, _, _, stderr_path = self.spawn(
                [sys.executable, self.plan["worker"], self.plan["plan_path"], path,
                 "--setup-only"], "setup")
            if code != 0:
                return code, stderr_path, None
            with open(path, encoding="utf-8") as fh:
                return code, stderr_path, json.load(fh)["ready"] - spawned

        return [Op("setup", "set-up-only worker", call,
                   lambda out: self.exit_problem(*out[:2]) if out[0] else [],
                   lambda out, elapsed: [0, out[2]])]

    # -- sweep ---------------------------------------------------------

    def sweep_ops(self):
        p = self.programs
        from qkdmetro.config import SweepSpec
        ops = []
        for i, op in enumerate(self.plan["sweep"]):
            scenario = p.scenarios[op["config"]][0]
            spec = SweepSpec(op["start_km"], op["stop_km"], op["step_km"])

            def call(scenario=scenario, spec=spec):
                records = p.sweep.run_sweep(scenario, spec)
                buf = self.io.StringIO()
                p.sweep.write_csv(records, buf)
                return records, buf.getvalue()

            ops.append(Op("sweep", f"sweep {op['name']}", call,
                          lambda out, op=op: self.check_sweep(op, out),
                          lambda out, elapsed, i=i, config=op["config"]:
                              [i, elapsed, len(out[0]), config]))
        return ops

    def check_sweep(self, op, out):
        records, text = out
        p = self.programs
        svg = p.svgchart.sweep_svg(records, title=f"{op['name']} sweep")
        problems = self.checks.sweep_records(records, op["points"],
                                             self.plan["dark_count_prob"], svg)
        if p.sweep.read_csv(self.io.StringIO(text)) != records:
            problems.append("CSV does not round-trip exactly through read_csv")
        kept = op["segment"] % self.checks.REFERENCE_SEGMENTS_EVERY == 0
        if self.reference is not None and kept:
            problems += self.checks.sweep_matches(records,
                                                  self.reference["sweep"][op["name"]])
        if self.record is not None and kept:
            self.record["sweep"][op["name"]] = self.checks.sweep_reference_rows(records)
        self.counts["sweep_points"] += len(records)
        self.counts["zero_rate_points"] += sum(1 for r in records if r.secret_bps == 0.0)
        self.counts["points_beyond_split"] += op["points_beyond_split"]
        self.counts["csv_bytes"] += len(text.encode())
        return problems

    # -- fit: calibrate and optimize_mu -----------------------------------

    def calibrate_ops(self):
        p = self.programs
        ops = []
        for i, cal in enumerate(self.plan["calibrations"]):
            scenario = p.scenarios[cal["config"]][0]
            anchors = [a for a in p.anchors if a.scenario == scenario.kind]
            ops.append(Op(
                "calibrate", f"calibrate {cal['name']}",
                lambda s=scenario, free=cal["free"]: p.calibrate.calibrate(s, p.anchors, free),
                lambda res, cal=cal, s=scenario, a=anchors:
                    self.check_calibration(cal, s, a, res),
                lambda out, elapsed, i=i: [i, elapsed]))
        return ops

    def mu_ops(self):
        p = self.programs
        ops = []
        for index, op in enumerate(self.plan["mu"]):
            scenario = p.scenarios[op["config"]][0]
            rate_of_mu, evals = self.mu_objective(scenario, op["length_km"])
            ops.append(Op(
                "mu", f"optimize_mu {op['name']} @ {op['length_km']} km",
                lambda f=rate_of_mu, n=evals: (p.keyrate.optimize_mu(f), n[0]),
                lambda out, f=rate_of_mu, i=index: self.check_mu(i, f, out),
                lambda out, elapsed, i=index: [i, elapsed]))
        return ops

    def mu_objective(self, scenario, length_km):
        """Secret rate as a function of mu: a copy of the objective that
        ``qkdmetro optimize-mu`` builds (``cli._cmd_optimize_mu``).

        The cli kind checks that the copy finds the same mu* as the command.
        """
        net = self.programs.network
        ratio = scenario.decoy.nu / scenario.decoy.mu
        evals = [0]

        def rate_of_mu(mu):
            evals[0] += 1
            s = net.with_overrides(scenario, mu=mu, nu=mu * ratio)
            return net.evaluate_link(s, length_km, on_collapse="zero").rates.secret_bps

        return rate_of_mu, evals

    def check_calibration(self, cal, scenario, anchors, result):
        p = self.programs
        registry = getattr(p.calibrate, "PARAM_REGISTRY", {})
        self.counts["grid_points"].append(math.prod(
            len(registry[name].grid()) if name in registry else 0 for name in cal["free"]))
        problems = self.checks.calibration(result, cal["free"], len(anchors))
        fitted = p.calibrate.apply_fit(scenario, result.params)
        for a in anchors:
            perf = p.network.evaluate_link(fitted, a.length_km, on_collapse="zero")
            problems += self.checks.link_invariants(
                f"fitted at {a.length_km!r} km", perf.rates.raw_bps,
                perf.rates.sifted_bps, perf.rates.ec_corrected_bps,
                perf.rates.secret_bps, perf.yield_gain.e_mu, perf.noise.total_y0,
                self.plan["dark_count_prob"])
        if self.reference is not None:
            problems += self.checks.calibration_matches(
                result, self.reference["calibrate"][cal["name"]])
        if self.record is not None:
            self.record["calibrate"][cal["name"]] = {"params": result.params,
                                                     "residual": result.residual}
        return problems

    def check_mu(self, index, rate_of_mu, out):
        mu_star, evals = out
        self.counts["mu_evals"].append(evals)
        # the objective is deterministic: its scan, and its rate at a mu*
        # seen before, are computed once per search
        rates = self.mu_rates.setdefault(index, {})
        for mu in MU_SCAN + [mu_star]:
            if mu not in rates:
                rates[mu] = rate_of_mu(mu)
        problems = self.checks.mu_search(mu_star, rates[mu_star],
                                         [rates[m] for m in MU_SCAN])
        if self.reference is not None:
            problems += self.checks.mu_matches(mu_star, self.reference["mu"][index])
        if self.record is not None:
            self.record["mu"][index] = mu_star
        return problems

    # -- cli -------------------------------------------------------------

    def cli_ops(self):
        ops = []
        for i, op in enumerate(self.plan["cli"]):
            def call(op=op, i=i, traced=self.tracing):
                spans = None
                if traced:
                    spans = self.os.path.join(self.plan["workdir"],
                                              f"cli_spans_{self.attempted}.bin")
                    argv = [sys.executable, self.plan["cli_shim"], spans] + op["argv"]
                else:
                    argv = [sys.executable, "-c", CLI_ENTRY] + op["argv"]
                code, spawned, rss, stdout_path, stderr_path = self.spawn(argv, f"cli_{i}")
                if spans is not None and self.os.path.exists(spans):
                    self.cli_spans.append([spans, spawned])
                return code, rss, stdout_path, stderr_path

            ops.append(Op("cli", f"qkdmetro {op['argv'][0]} ({op['name']})", call,
                          lambda out, op=op: self.check_cli(op, out[0], *out[2:]),
                          lambda out, elapsed, i=i: [i, elapsed, out[1]]))
        return ops

    def check_cli(self, op, code, stdout_path, stderr_path):
        if code != 0:
            return self.exit_problem(code, stderr_path)
        kind = op["kind"]
        if kind == "sweep":
            return self.check_cli_sweep(op)
        with open(stdout_path, encoding="utf-8") as fh:
            value = float(fh.read().strip())
        if kind == "path-loss":
            pair = self.path_loss.setdefault(op["pair"], {})
            pair[op["length_km"]] = value
            if len(pair) == 2:
                near, far = sorted(pair.items())
                del self.path_loss[op["pair"]]
                return self.checks.path_loss_pair(near, far)
            return [] if value >= 0.0 else [f"negative path loss {value!r}"]
        if kind == "optimize-mu":
            return self.check_cli_mu(op, value)
        if kind == "rekey":
            return ([] if math.isclose(value, op["expected"], rel_tol=1e-12)
                    else [f"rekey printed {value!r}, expected {op['expected']!r}"])
        return [f"unknown command kind {kind!r}"]

    def check_cli_mu(self, op, value):
        """mu* in range, and equal to what the benchmark's copy of the
        command's objective finds in process, so optimize_mu_ms keeps timing
        what the command runs."""
        if not 0.05 <= value <= 1.5:
            return [f"mu* = {value!r} out of range"]
        key = (op["config"], op["length_km"])
        if key not in self.mu_in_process:
            from qkdmetro import config, keyrate
            scenario = config.parse_config_file(op["config"])[0]
            self.mu_in_process[key] = keyrate.optimize_mu(
                self.mu_objective(scenario, op["length_km"])[0])
        copy = self.mu_in_process[key]
        if not math.isclose(value, copy, rel_tol=1e-12):
            return [f"qkdmetro optimize-mu printed mu* = {value!r}, the benchmark's "
                    f"copy of its objective finds {copy!r}"]
        return []

    def check_cli_sweep(self, op):
        from qkdmetro import sweep
        with open(op["out"], encoding="utf-8") as fh:
            text = fh.read()
        records = sweep.read_csv(self.io.StringIO(text))
        again = self.io.StringIO()
        sweep.write_csv(records, again)
        with open(op["svg"], encoding="utf-8") as fh:
            svg = fh.read()
        problems = self.checks.sweep_records(records, op["points"],
                                             self.plan["dark_count_prob"], svg)
        if again.getvalue() != text:
            problems.append("CSV does not round-trip exactly through read_csv")
        return problems

    # -- the run ---------------------------------------------------------

    def run(self):
        seconds = self.plan["seconds"]
        if self.tracer is not None:
            self.run_traced(seconds)
            return
        shares = SHARES[self.plan["workload"]]
        spent = dict.fromkeys(shares, 0.0)
        rounds = dict.fromkeys(shares, 0)
        queued = {kind: [] for kind in shares}
        deadline = monotonic() + seconds
        while True:
            if monotonic() < deadline:
                left = shares
            else:
                # finish the rounds begun (and run one of every kind not run
                # yet), so every operation of a kind has run equally often
                left = [kind for kind in shares if queued[kind] or not rounds[kind]]
                if not left:
                    break
            # the kind furthest behind its share of the time goes next
            kind = min(left, key=lambda k: spent[k] / shares[k])
            if not queued[kind]:
                queued[kind] = list(self.round_ops(kind))
                rounds[kind] += 1
            op = queued[kind].pop(0)
            started = monotonic()
            self.execute(op, rounds[kind] - 1)
            spent[kind] += monotonic() - started
        self.rounds = rounds

    def run_traced(self, seconds):
        own = OWN_KINDS[self.plan["workload"]]
        block = [kind for kind in own for _ in range(OWN_ROUNDS_PER_BLOCK)]
        block += [kind for kind in KINDS if kind not in own]
        deadline = monotonic() + seconds
        while True:
            # alternate which goes first, so warm-up does not favour either
            for traced in ((True, False) if self.blocks % 2 == 0 else (False, True)):
                self.tracing = traced
                for kind in block:
                    for op in self.round_ops(kind):
                        self.execute(op, self.blocks)
            self.blocks += 1
            if monotonic() >= deadline:
                break
        self.tracing = False

    def results(self, ready):
        import qkdmetro
        out = {
            "ready": ready, "attempted": self.attempted, "failed": self.failed,
            "problems": self.problems, "samples": self.samples, "counts": self.counts,
            "blocks": self.blocks, "rounds": self.rounds,
            "bucket_failed": self.bucket_failed,
            "wall": {"untraced": self.wall[False], "traced": self.wall[True]},
            "cli_spans": self.cli_spans, "spans": None,
            "backend": getattr(qkdmetro, "BACKEND_NAME", "unknown"),
        }
        if self.tracer is not None:
            out["spans"] = self.os.path.splitext(self.result_path)[0] + "_spans.bin"
            self.tracer.dump(out["spans"])
        if self.record is not None:
            with open(self.plan["record_reference"], "w", encoding="utf-8") as fh:
                json.dump(self.record, fh, indent=1)
                fh.write("\n")
        return out


def main():
    plan_path, result_path = sys.argv[1], sys.argv[2]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    programs = Programs(plan)
    ready = monotonic()
    if "--setup-only" in sys.argv[3:]:
        result = {"ready": ready}
    else:
        runner = Runner(plan, programs, result_path)
        runner.run()
        result = runner.results(ready)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
