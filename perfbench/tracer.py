"""Layer spans recorded from outside qkdmetro.

A Tracer replaces public functions at the module attributes their callers
look up (``qkdmetro.calibrate.evaluate_link``, ``qkdmetro.network.gain``,
...) with wrappers that record one span per call: name, start, end, parent
span and operation id.  Spans stay in memory until ``dump`` writes them out;
``summarize`` turns a dump into per-name call counts, total and self time.
Nothing inside the package is edited, and attributes a later version of the
package no longer has are skipped.
"""

import json
import sys
from array import array
from time import perf_counter

# (module, attribute looked up by callers, span name)
TARGETS = (
    ("qkdmetro.config", "parse_config", "config.parse_config"),
    ("qkdmetro.network", "with_overrides", "network.with_overrides"),
    ("qkdmetro.calibrate", "with_overrides", "network.with_overrides"),
    ("qkdmetro.cli", "with_overrides", "network.with_overrides"),
    ("qkdmetro.network", "transparent_path", "network.transparent_path"),
    ("qkdmetro.network", "build_light_path", "network.build_light_path"),
    ("qkdmetro.cli", "build_light_path", "network.build_light_path"),
    ("qkdmetro.network", "evaluate_link", "network.evaluate_link"),
    ("qkdmetro.sweep", "evaluate_link", "network.evaluate_link"),
    ("qkdmetro.calibrate", "evaluate_link", "network.evaluate_link"),
    ("qkdmetro.cli", "evaluate_link", "network.evaluate_link"),
    ("qkdmetro.network", "path_loss", "optical_path.path_loss"),
    ("qkdmetro.cli", "path_loss", "optical_path.path_loss"),
    ("qkdmetro.network", "background_yield", "noise.background_yield"),
    ("qkdmetro.network", "gain", "keyrate.gain"),
    ("qkdmetro.network", "qber", "keyrate.qber"),
    ("qkdmetro.network", "decoy_estimate", "keyrate.decoy_estimate"),
    ("qkdmetro.network", "distillation_rates", "keyrate.distillation_rates"),
    ("qkdmetro.keyrate", "optimize_mu", "keyrate.optimize_mu"),
    ("qkdmetro.cli", "optimize_mu", "keyrate.optimize_mu"),
    ("qkdmetro.calibrate", "anchor_residuals", "calibrate.anchor_residuals"),
    ("qkdmetro.calibrate", "calibrate", "calibrate.calibrate"),
    ("qkdmetro.cli", "calibrate", "calibrate.calibrate"),
    ("qkdmetro.sweep", "run_sweep", "sweep.run_sweep"),
    ("qkdmetro.cli", "run_sweep", "sweep.run_sweep"),
    ("qkdmetro.sweep", "write_csv", "sweep.write_csv"),
    ("qkdmetro.cli", "write_csv", "sweep.write_csv"),
    ("qkdmetro.svgchart", "sweep_svg", "svgchart.sweep_svg"),
    ("qkdmetro.cli", "sweep_svg", "svgchart.sweep_svg"),
)

# Scenario builders are looked up through this dict (by the config parser
# and by with_overrides), so its entries are wrapped in place.
BUILDERS = ("qkdmetro.network", "BUILDERS", "network.build_scenario")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.err = array("i")
        self.stack = []
        self.op_id = 0
        self._restore = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name):
        nid = self._id(span_name)

        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.err.append(-1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self.err[idx] = self._id(type(exc).__name__)
                raise
            finally:
                self.end[idx] = perf_counter()
                self.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target of the already imported qkdmetro modules."""
        for module_name, attr, span_name in TARGETS:
            module = sys.modules.get(module_name)
            if module is not None and callable(getattr(module, attr, None)):
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(original, span_name))
                self._restore.append((setattr, module, attr, original))
        module = sys.modules.get(BUILDERS[0])
        builders = getattr(module, BUILDERS[1], None)
        if isinstance(builders, dict):
            for kind, original in list(builders.items()):
                builders[kind] = self.wrap(original, BUILDERS[2])
                self._restore.append((dict.__setitem__, builders, kind, original))

    def uninstall(self):
        while self._restore:
            put, target, key, original = self._restore.pop()
            put(target, key, original)

    def dump(self, path, extra=None):
        """Write the spans: one JSON header line, then the raw arrays."""
        header = {"names": self.names, "count": len(self.name),
                  "typecodes": [a.typecode for a in self._arrays()],
                  "extra": extra or {}}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in self._arrays():
                arr.tofile(fh)

    def _arrays(self):
        return (self.name, self.start, self.end, self.parent, self.op, self.err)


def load(path):
    """Read a dump back: (header, name, start, end, parent, op, err)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in header["typecodes"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header, *arrays)


def summarize(path, stats):
    """Add one dump to stats and return its header.

    stats maps span name to calls, total and self seconds, and exceptions
    by type.  Self time is a span's duration minus the durations of its
    direct children.
    """
    header, name, start, end, parent, _op, err = load(path)
    names = header["names"]
    child = [0.0] * header["count"]
    for i in range(header["count"]):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    for i in range(header["count"]):
        s = stats.setdefault(names[name[i]], {"calls": 0, "total": 0.0, "self": 0.0,
                                              "errors": {}})
        dur = end[i] - start[i]
        s["calls"] += 1
        s["total"] += dur
        s["self"] += dur - child[i]
        if err[i] >= 0:
            exc = names[err[i]]
            s["errors"][exc] = s["errors"].get(exc, 0) + 1
    return header
