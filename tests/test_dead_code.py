"""Every top-level name of the package but a dunder has a reader in src/.

A name that nothing but its own definition mentions is dead code, or a
helper kept only for its tests; a module-private one is as dead as a
public one.  The exception is the API that the acceptance gate
(tests/test_acceptance.py) specifies.  Likewise every
field of every record, a named tuple, is read by name somewhere in src/:
a field nothing reads is a copy that is built and kept up to date for no
one.  The fields that src/ reads only by position, or only hands to API
callers, are listed in UNREAD_BY_NAME with their reasons.  The list
grows only when a change removes a field's only reader in src/ and the
field stays public, as evaluate_link's result records and the CSV
columns do; any other unread field is to be deleted, not listed.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkdmetro"

# API the acceptance gate specifies, which the package itself need not read
GATE_API = frozenset({"raman_forward", "raman_backward", "qber_threshold", "read_csv",
                      "gain", "qber", "decoy_estimate", "apply_deadtime",
                      "evaluate_link"})


def _definitions(tree):
    """(name, node) of each name but a dunder that the module binds at its
    top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _reads(tree):
    """How often each name is read in tree, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute))


def test_gate_api_is_defined_in_the_package():
    # an allowlisted name the package no longer defines must leave the list
    defined = {name for path in PACKAGE.glob("*.py")
               for name, _ in _definitions(ast.parse(path.read_text(encoding="utf-8")))}
    assert GATE_API <= defined


def test_every_public_name_has_a_reader():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    reads = sum(map(_reads, trees.values()), Counter())
    unread = [f"{module}: {name}" for module, tree in trees.items()
              for name, node in _definitions(tree)
              if name not in GATE_API and reads[name] == _reads(node)[name]]
    assert unread == []


# Record fields that nothing in src/ reads by name, each with its reason.
# Every entry must still be a field and still be unread: one that gains a
# reader leaves the table.
_UNPACKED = "unpacked by evaluate_point"
_PUBLIC = "part of evaluate_link's public result, for API callers"
_COLUMN = "a CSV column, written by position by write_csv"
_SERIES = "a CSV column, read by getattr through svgchart._RATE_SERIES"
UNREAD_BY_NAME = {
    "Inputs.rho": _UNPACKED,
    "Inputs.rho_beyond": _UNPACKED,
    "Inputs.launch_w": _UNPACKED,
    "DetectorModel.efficiency": _UNPACKED,
    "DetectorModel.gate_width_s": _UNPACKED,
    "DetectorModel.dark_count_prob": _UNPACKED,
    "DetectorModel.deadtime_s": _UNPACKED,
    "DetectorModel.misalignment_error": _UNPACKED,
    "DetectorModel.pulse_rate_hz": _UNPACKED,
    "KeyRateParams.q": _UNPACKED,
    "KeyRateParams.f": _UNPACKED,
    "QkdPerformance.eta": _PUBLIC,
    "QkdPerformance.noise": _PUBLIC,
    "QkdPerformance.yield_gain": _PUBLIC,
    "QkdPerformance.rates": _PUBLIC,
    "DistillationRates.raw_bps": _PUBLIC,
    "DistillationRates.sifted_bps": _PUBLIC,
    "DistillationRates.ec_corrected_bps": _PUBLIC,
    "DistillationRates.secret_bps": _PUBLIC,
    "NoiseBudget.forward_raman_w": _PUBLIC,
    "NoiseBudget.backward_raman_w": _PUBLIC,
    "NoiseBudget.crosstalk_w": _PUBLIC,
    "NoiseBudget.dark_yield": _PUBLIC,
    "NoiseBudget.total_y0": _PUBLIC,
    "YieldGain.q_mu": _PUBLIC,
    "YieldGain.e_mu": _PUBLIC,
    "YieldGain.y1_low": _PUBLIC,
    "YieldGain.e1_up": _PUBLIC,
    "YieldGain.q1_low": _PUBLIC,
    "RoadmNode.mode": "the chain's label, which the element's repr shows",
    "SweepRecord.total_loss_db": _COLUMN,
    "SweepRecord.eta": _COLUMN,
    "SweepRecord.y0": _COLUMN,
    "SweepRecord.q_mu": _COLUMN,
    "SweepRecord.raw_bps": _SERIES,
    "SweepRecord.sifted_bps": _SERIES,
    "SweepRecord.ec_corrected_bps": _SERIES,
    "SweepRecord.secret_bps": _SERIES,
}


def _record_fields(tree):
    """(record, field) of each field of a record that the module tree
    makes with namedtuple("Record", fields), fields being a literal or a
    constant of the module, such as sweep.CSV_HEADER."""
    constants = {target.id: node.value for node in tree.body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "namedtuple"):
            name, fields = node.args
            if isinstance(fields, ast.Name):
                fields = constants[fields.id]
            for field in ast.literal_eval(fields):
                yield ast.literal_eval(name), field


def test_every_record_field_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [(cls, field) for tree in trees for cls, field in _record_fields(tree)]
    # the check sees every record, SweepRecord's CSV_HEADER fields among them
    assert len({cls for cls, _ in fields}) >= 20 and ("SweepRecord", "y0") in fields
    unread = {f"{cls}.{field}" for cls, field in fields if field not in read}
    assert sorted(unread) == sorted(UNREAD_BY_NAME)
