"""Every definition in ``src/narrowgap`` is named somewhere else in ``src/``.

A function, class or method that no other line of the package names is code
no run reaches.  A reference that only the tests read belongs in
``tests/reference.py``; anything else goes.  The scan is by name: a
definition counts as reached when any ``src/`` module names it, as a
variable or as an attribute.  Dunders are called by Python itself.

A statistic is reached by its key, a string, not by the name of its
function: the ``STATISTICS`` table names every function, so each key must
also be written by a plan somewhere else in ``src/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "narrowgap"

# read from outside src/ on purpose
ALLOWED = {
    "recover_gradient": "ROADMAP item 4 reads the monomial statistic at exactly "
                        "x' = eps^(1/m) through it",
    "threads": "sweepbench/worker.py refuses a config whose threads is not 1",
}


def scan(src):
    """(definitions as (where, name), every name that src/ mentions)."""
    defs, named = [], set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return defs, named


def test_every_definition_is_reached():
    defs, named = scan(SRC)
    unreached = [f"{where} {name}" for where, name in defs
                 if name not in named and name not in ALLOWED]
    assert not unreached, "no src/ caller names: " + ", ".join(unreached)


def test_allowlist_names_only_unreached_definitions():
    defs, named = scan(SRC)
    defined = {name for _, name in defs}
    stale = [name for name in ALLOWED if name not in defined or name in named]
    assert not stale, f"allowlisted but defined nowhere or named in src/: {stale}"


def test_every_statistic_is_planned():
    keys, written = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and [getattr(t, "id", None) for t in node.targets] == ["STATISTICS"]):
                table |= {id(k) for k in node.value.keys}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                (keys if id(node) in table else written).add(node.value)
    assert keys, "no STATISTICS table found"
    unplanned = sorted(keys - written)
    assert not unplanned, f"statistics no src/ line names besides the table: {unplanned}"
