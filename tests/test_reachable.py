"""Every definition in ``src/narrowgap`` is named somewhere else in ``src/``.

A function, class or method, or a name assigned at module level, that no
other line of the package names is code no run reaches.  A reference that
only the tests read belongs in ``tests/reference.py``; anything else goes.
The scan is by name: a definition counts as reached when any ``src/`` module
reads it, as a variable or as an attribute; assigning a name does not read
it.  Dunders are called or read by Python itself.

A statistic is reached by its key, a string, not by the name of its
function: the ``STATISTICS`` table names every function, so each key must
also be written by a plan somewhere else in ``src/``.

The stack of unknowns is component-major and every other array is
node-major, so only ``discretize.py``, which converts between the two, may
move an axis.

The hypotheses are judged in one place: only ``cli.py`` calls the tensor
checks, at the gap each command solves.

The patch B'_{2R0} has one half-width, ``ProfilePair.patch_radius``: no
module but ``geometry.py`` multiplies R0 by 2.  The package root imports
none of its modules and names nothing for export: callers import the
modules themselves.

The box Jacobian has one producer: only ``PointSetup.build`` calls
``box_jacobian``, once per sweep point, and every transform and gradient
recovery at that point reads what it built.

A perturbed tensor's bounds are taken over the region the hypothesis record
checks, once: no module but ``coefficients.py`` reads a ``.reach``, so no
config or builder decides a reach of its own.

The symmetry of the stencil table comes from the tensor
(``CoefficientTensor.symmetric``), which decides the factorization: no
module tests arrays for equality at run time (``np.array_equal``).

Threads and the ctypes binding of LAPACK live in ``discretize.py`` alone,
and a helper thread runs only a band fill and that binding: the benchmark's
tracer (``sweepbench/layers.py``) keeps one span stack, and its gauge
samples on the main thread, so nothing it wraps may run on another.
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


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def scan(src):
    """(definitions as (where, name), every name that src/ reads)."""
    defs, named = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(f"{path.name}:{node.lineno}", t.id) for target in targets
                         for t in ast.walk(target)
                         if isinstance(t, ast.Name) and not _dunder(t.id)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not _dunder(node.name):
                    defs.append((f"{path.name}:{node.lineno}", node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def test_only_discretize_moves_axes():
    moved = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "discretize.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        moved += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "moveaxis" in (
                      getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert not moved, "np.moveaxis outside discretize.py: " + ", ".join(moved)


def test_only_cli_checks_the_tensor_hypotheses():
    checks = {"check_ann", "check_pointwise_ellipticity"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and checks & {
                      getattr(node.func, "attr", None), getattr(node.func, "id", None)}]
    assert not calls, "tensor hypothesis checks outside cli.py: " + ", ".join(calls)


def _called(node):
    """Names of the functions that calls inside ``node`` name, bare or as attributes."""
    return {getattr(c.func, "attr", None) or getattr(c.func, "id", None)
            for c in ast.walk(node) if isinstance(c, ast.Call)} - {None}


def test_helper_threads_run_only_band_fills_and_lapack():
    threaded = {"threading", "ctypes", "cython_lapack"}
    outside = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "discretize.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = ({a.name.split(".")[0] for a in node.names}
                     | {(getattr(node, "module", None) or "").split(".")[-1]}
                     if isinstance(node, (ast.Import, ast.ImportFrom))
                     else {getattr(node, "id", None), getattr(node, "attr", None)})
            outside += [f"{path.name}:{node.lineno}" for _ in names & threaded]
    assert not outside, "threads or ctypes outside discretize.py: " + ", ".join(outside)

    tree = ast.parse((SRC / "discretize.py").read_text(encoding="utf-8"))
    functions = {f.name: f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    starts = [f.name for f in functions.values() if "Thread" in _called(f)
              and not any(g is not f and "Thread" in _called(g) for g in ast.walk(f)
                          if isinstance(g, ast.FunctionDef))]
    assert starts == ["_on_both"], f"threads started outside _on_both: {starts}"
    targets = {getattr(c.args[0], "attr", None) or getattr(c.args[0], "id", None)
               for c in ast.walk(tree) if isinstance(c, ast.Call)
               and getattr(c.func, "id", None) == "_on_both"}
    bindings, fill = {"_pbtrf", "_tbtrs"}, {"_fill"}
    assert targets and targets <= set(functions)
    for name in targets - bindings:
        assert _called(functions[name]) <= bindings | fill, \
            f"{name} runs on a helper thread and calls more than a fill and LAPACK"

    layers = ast.parse((SRC.parents[1] / "sweepbench" / "layers.py").read_text(encoding="utf-8"))
    # every name layers.py patches is a string there, some in a loop's tuple
    wrapped = {c.value for c in ast.walk(layers) if isinstance(c, ast.Constant)
               and isinstance(c.value, str) and c.value.isidentifier()}
    assert {"solve_linear", "assemble", "gradient_nodes", "value"} <= wrapped
    reached, todo = set(), list(targets)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [n for n in _called(functions[name]) if n in functions]
    calls = set().union(*(_called(functions[n]) for n in reached))
    assert not calls & wrapped, f"a helper thread reaches what layers.py wraps: {calls & wrapped}"


def test_only_geometry_doubles_r0():
    doubled = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "geometry.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                sides = (node.left, node.right)
                if (any(isinstance(s, ast.Constant) and s.value == 2 for s in sides)
                        and any("R0" in (getattr(s, "id", None), getattr(s, "attr", None))
                                for s in sides)):
                    doubled.append(f"{path.name}:{node.lineno}")
    assert not doubled, "2 R0 outside geometry.py: " + ", ".join(doubled)


def test_package_root_reexports_nothing():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            own = node.level > 0 or (node.module or "").startswith("narrowgap")
        elif isinstance(node, ast.Import):
            own = any(a.name.startswith("narrowgap") for a in node.names)
        else:
            own = isinstance(node, ast.Name) and node.id == "__all__"
        if own:
            found.append(f"__init__.py:{node.lineno}")
    assert not found, "the package root imports a module or defines __all__: " + ", ".join(found)


def _calls_by_function(tree, prefix=""):
    """(innermost enclosing def or class by qualified name, called name, line) per call."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _calls_by_function(node, f"{prefix}{node.name}.")
        else:
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                found.append((prefix.rstrip(".") or "<module>", name, node.lineno))
            found += _calls_by_function(node, prefix)
    return found


def test_only_the_sweep_point_builds_the_box_jacobian():
    callers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers += [(where, f"{where} ({path.name}:{line})") for where, name, line
                    in _calls_by_function(tree) if name == "box_jacobian"]
    assert [where for where, _ in callers] == ["PointSetup.build"], \
        "box_jacobian called other than once, in PointSetup.build: " + ", ".join(
            at for _, at in callers)


def test_no_module_tests_arrays_for_equality():
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [f"{path.name}:{line}" for _, name, line in _calls_by_function(tree)
                  if name in ("array_equal", "array_equiv")]
    assert not calls, "np.array_equal in src/: " + ", ".join(calls)


def test_only_coefficients_reads_the_reach():
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "coefficients.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "reach"]
    assert not reads, ".reach read outside coefficients.py: " + ", ".join(reads)
