"""Every top-level name of the package but a dunder has a reader in src/.

A name that nothing but its own definition mentions is dead code, or a
helper kept only for its tests; a module-private one is as dead as a
public one.  The exception is the API that the acceptance gate
(tests/test_acceptance.py) specifies.  Likewise every
field of a frozen record (params.FrozenRecord) is read somewhere in src/:
a field nothing reads is a copy that is built and kept up to date for no
one.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qkdmetro"

# API the acceptance gate specifies, which the package itself need not read
GATE_API = frozenset({"raman_forward", "raman_backward", "qber_threshold", "read_csv",
                      "gain", "qber", "decoy_estimate", "apply_deadtime"})


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


def _record_fields(tree):
    """(class, field) of each field that a FrozenRecord subclass lists in
    its _fields."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "FrozenRecord"
                for base in node.bases):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(target, ast.Name) and target.id == "_fields"
                        for target in stmt.targets):
                    for field in ast.literal_eval(stmt.value):
                        yield node.name, field


def test_every_record_field_is_read():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = [pair for tree in trees for pair in _record_fields(tree)]
    assert len(fields) > 20  # the check sees the records' fields
    assert [f"{cls}.{field}" for cls, field in fields if field not in read] == []
