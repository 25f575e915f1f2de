"""Import hygiene: every name a module imports is read somewhere in it.

No linter ships with the project, so this scans the source with the stdlib
`ast` module. Package `__init__.py` files are exempt (they re-export), and
so is any name a module lists in `__all__`.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from hypflow import grids
from hypflow.hypersurface import SHAPE_KINDS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "hypflow").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree):
    """(bound name, line) for each import outside `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree):
    """Every name the module reads, plus the entries of `__all__`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _read_names(tree)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    unused = [hit for path in SOURCES if path.name != "__init__.py"
              for hit in unused_imports(path)]
    assert unused == []


def test_import_leaves_multiprocessing_unloaded():
    # the sweep loads its process pool on first use, so importing hypflow
    # pays nothing for it
    code = "import sys, hypflow; print(sorted(m for m in sys.modules if 'multiprocessing' in m))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert proc.stdout.strip() == "[]"


def test_import_leaves_scipy_optimize_unloaded():
    # the center search and the ball radius use the package's own Nelder-Mead
    # and Brent, so importing hypflow loads neither scipy.optimize nor the
    # scipy.linalg it pulls in
    code = ("import sys, hypflow; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.linalg'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), check=True)
    assert proc.stdout.strip() == "[]"


PACKAGE = ROOT / "src" / "hypflow"

#: public names no CLI path reads: geodesic_distances is the reference the
#: distance_range tests compare against, and the benchmark tracer wraps it
REACH_EXEMPT = {("hypersurface", "geodesic_distances")}


def _module_table(path: Path):
    """(definitions, imports) of one module: each module-level name with the
    statements that bind it, and each name bound by a relative import with
    the (module, name) it refers to; a bare module import maps to (module, None)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defs: dict = {}
    imports: dict = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs.setdefault(name.id, []).append(node)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                imports[bound] = (node.module, alias.name) if node.module else (alias.name, None)
    return defs, imports


def _references(stmt, module: str, imports: dict):
    """(module, name) of every name and module attribute the statement reads;
    strings, and so docstrings and __all__, never count."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield imports.get(node.id, (module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = imports.get(node.value.id)
            if target is not None and target[1] is None:
                yield target[0], node.attr


def unreachable_public_names() -> list:
    """Public module-level names of the package that no chain of name and
    attribute references starting at cli.main reaches."""
    tables = {path.stem: _module_table(path) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"}
    seen = {("cli", "main")}
    todo = [("cli", "main")]
    while todo:
        module, name = todo.pop()
        defs, imports = tables[module]
        for stmt in defs.get(name, []):
            for ref in _references(stmt, module, imports):
                if ref[0] in tables and ref[1] in tables[ref[0]][0] and ref not in seen:
                    seen.add(ref)
                    todo.append(ref)
    public = {(module, name) for module, (defs, _) in tables.items()
              for name in defs if not name.startswith("_")}
    return sorted(f"{module}.{name}" for module, name in public - seen - REACH_EXEMPT)


def test_every_public_name_reachable_from_cli():
    assert unreachable_public_names() == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _package_import(node) -> bool:
    """A `from` import of the package itself or of one of its modules."""
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or (node.module or "").partition(".")[0] == "hypflow")


def private_cross_reads() -> list:
    """Reads in the package of another package module's private name, by
    `from .x import _y` or by `x._y` on a module a `from` import binds;
    a module reaches another only through its public names."""
    hits = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imports = [node for node in ast.walk(tree) if _package_import(node)]
        modules = {alias.asname or alias.name for node in imports
                   if node.module in (None, "hypflow") for alias in node.names}
        hits += [f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
                 for node in imports for alias in node.names if _private(alias.name)]
        hits += [f"{path.relative_to(ROOT)}:{node.lineno} {node.value.id}.{node.attr}"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules and _private(node.attr)]
    return hits


def test_no_private_name_read_across_modules():
    assert private_cross_reads() == []


CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

#: defaulted parameters no caller needs to set: the loop guard of flow.run,
#: and the argv of cli.main, which the console script calls bare
DEFAULT_EXEMPT = {("flow", "run", "max_steps"), ("cli", "main", "argv")}


def _public_functions(tree):
    """(call name, function node, bound) of each public module-level function
    and each public method of a public class; an __init__ is called by its
    class name, and bound is 1 when the first parameter is self or cls."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    yield node.name, fn, 1
                elif not fn.name.startswith("_"):
                    yield fn.name, fn, 0 if static else 1


def _defaulted_parameters():
    """(module, call name, parameter, position) of every parameter with a
    default of a public function; position counts the positional
    parameters a call fills, None for a keyword-only parameter."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, fn, bound in _public_functions(tree):
            args = fn.args
            positional = (args.posonlyargs + args.args)[bound:]
            for arg in positional[len(positional) - len(args.defaults):]:
                yield path.stem, name, arg.arg, positional.index(arg)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield path.stem, name, arg.arg, None


def _calls():
    """Callee bare name -> list of (positional count, keyword names, starred)
    over every call in the package and the benchmark."""
    calls: dict = {}
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            keywords = {kw.arg for kw in node.keywords}
            starred = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            calls.setdefault(name, []).append((len(node.args), keywords, starred))
    return calls


def unset_defaults() -> list:
    """Defaulted parameters of public functions in the package that no call
    in the package or the benchmark passes, by keyword or by position;
    calls are matched on the callee's bare name."""
    calls = _calls()
    unset = []
    for module, name, param, position in _defaulted_parameters():
        if (module, name, param) in DEFAULT_EXEMPT:
            continue
        if not any(starred or param in keywords
                   or (position is not None and count > position)
                   for count, keywords, starred in calls.get(name, [])):
            unset.append(f"{module}.{name}({param})")
    return unset


def test_every_default_is_set_by_some_caller():
    assert unset_defaults() == []


_EQUALITY = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def comparisons_naming(names, paths) -> list:
    """Every comparison in the given modules whose operand is one of the
    names or a literal collection holding one."""

    def names_one(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(e, ast.Constant) and e.value in names for e in elts)

    hits = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, _EQUALITY) for op in node.ops)
                    and any(names_one(e) for e in (node.left, *node.comparators))):
                hits.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return hits


def test_no_comparison_against_a_kind_name():
    # a new kind must stay one table row
    assert comparisons_naming(SHAPE_KINDS, sorted(PACKAGE.glob("*.py"))) == []


#: modules that treat every grid alike: the grid methods answer for their backend
BACKEND_BLIND = ("flow", "stability")


def test_stepper_and_sweep_never_compare_a_backend_name():
    backends = {grids.FullSphereGrid.backend, grids.AxisymGrid.backend}
    assert comparisons_naming(backends, [PACKAGE / f"{name}.py" for name in BACKEND_BLIND]) == []


def _is_record(node: ast.ClassDef) -> bool:
    """A class decorated with dataclass, called or bare, or a NamedTuple subclass."""

    def named(expr, name):
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return getattr(expr, "id", getattr(expr, "attr", None)) == name

    return (any(named(d, "dataclass") for d in node.decorator_list)
            or any(named(b, "NamedTuple") for b in node.bases))


def unread_record_fields() -> list:
    """Fields of the package's dataclasses and NamedTuples that no attribute
    read in the package, the benchmark or the tests names; a field nothing
    reads is a value computed and stored for no one."""
    fields = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_record(node):
                fields += [(path.stem, node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
    read = set()
    for path in CALLERS + sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{module}.{cls}.{field}" for module, cls, field in fields if field not in read]


def test_every_record_field_is_read():
    assert unread_record_fields() == []


def _stores(tree):
    """Every attribute store `obj.attr = ...` in a module, augmented ones included."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]


def _on_self(node: ast.Attribute) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def undeclared_attribute_stores() -> list:
    """Stores `obj.attr = ...` in the package, outside `self`, to an attribute
    that no class of the package declares, by a name bound in its body or by a
    store on `self` in one of its methods; an attribute its class does not name
    is one no reader of that class can know about."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    declared = set()
    for tree in trees.values():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                declared |= {t.id for t in targets if isinstance(t, ast.Name)}
            declared |= {node.attr for node in _stores(cls) if _on_self(node)}
    return [f"{path.relative_to(ROOT)}:{node.lineno} {node.attr}"
            for path, tree in trees.items() for node in _stores(tree)
            if not _on_self(node) and node.attr not in declared]


def test_every_attribute_store_is_declared():
    assert undeclared_attribute_stores() == []


#: what a RadialGraph evaluates once, on first use, and shares with every caller
ONCE_PER_GRAPH = frozenset({"geometry_fields", "quermassintegrals", "inradius",
                            "distance_range"})

#: (module, top-level definition, callee) allowed outside RadialGraph: the
#: Euclidean geometry of the conformal image, which is no hyperbolic graph's own
EVALUATION_EXEMPT = {("conformal", "to_ball", "geometry_fields")}


def package_calls():
    """(path, enclosing top-level definition, callee bare name, line) of
    every call in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    yield path, owner, name, node.lineno


def evaluations_outside_the_graph() -> list:
    """Calls in the package to a function of ONCE_PER_GRAPH made anywhere but
    in the body of RadialGraph; a second call evaluates the same quantity of
    the same graph again."""
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for path, owner, name, line in package_calls()
            if name in ONCE_PER_GRAPH and owner != "RadialGraph"
            and (path.stem, owner, name) not in EVALUATION_EXEMPT]


def test_derived_quantities_are_evaluated_by_the_graph():
    assert evaluations_outside_the_graph() == []


#: (module, top-level definition) allowed to form the curvature quotient from
#: the E columns: FlowState, the one evaluator of a graph's order-m quantities,
#: and quotient_eval, which forms it from curvatures
QUOTIENT_HOMES = {("flow", "FlowState"), ("symfunc", "quotient_eval")}


def quotients_outside_the_state() -> list:
    """Calls in the package to quotient_from_esym made anywhere but in the
    body of a definition of QUOTIENT_HOMES; every other reader of F gets it
    from a FlowState."""
    return [f"{path.relative_to(ROOT)}:{line}" for path, owner, name, line in package_calls()
            if name == "quotient_from_esym" and (path.stem, owner) not in QUOTIENT_HOMES]


def test_curvature_quotient_is_formed_by_the_state():
    assert quotients_outside_the_state() == []


#: the two stages of a center search, the simplex and the polish
SEARCH_STAGES = frozenset({"_nelder_mead", "polish"})


def search_stages_outside_the_evaluator() -> list:
    """Calls in the package to a stage of SEARCH_STAGES made anywhere but in
    the body of NodeDistances, whose search runs both as one routine."""
    return [f"{path.relative_to(ROOT)}:{line} {name}" for path, owner, name, line in package_calls()
            if name in SEARCH_STAGES and owner != "NodeDistances"]


def test_center_search_stages_run_in_one_routine():
    assert search_stages_outside_the_evaluator() == []


def _tracer_tables() -> dict:
    """FUNCTIONS and METHODS as perfbench/tracer.py assigns them, read from
    its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("FUNCTIONS", "METHODS")}


def test_benchmark_traced_names_exist():
    # the benchmark tracer wraps these by name, a function through its module
    # and a method through its grid class's own __dict__; a rename in the
    # package would otherwise fail only inside a traced benchmark run
    tables = _tracer_tables()
    assert set(tables) == {"FUNCTIONS", "METHODS"}
    missing = [f"{home}.{name}" for home, names in tables["FUNCTIONS"].items()
               for name in names
               if not callable(getattr(importlib.import_module(f"hypflow.{home}"), name, None))]
    missing += [f"{cls}.{name}" for cls, names in tables["METHODS"].items()
                for name in names if name not in vars(getattr(grids, cls))]
    assert missing == []
