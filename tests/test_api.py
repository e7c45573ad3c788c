"""The public surface is what the package uses.  Each name is imported from
the module that defines it: the package namespace holds only __version__, so
a layer loads only the modules it imports, and the pure-Python layers load
without numpy.  Every public function, class and method in src/psiring has a
caller in src/psiring outside its own definition, every function and method
there runs under a short list of CLI commands, and every defaulted parameter
of a function there is passed by such a caller, apart from short allowlists.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from psiring import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "psiring"

# public names with no caller in src/psiring, each kept for the reason given
ALLOWED = {
    "koszul.dual_dimension_stacked":
        "the unblocked reference for the Koszul tower; tests and a demo run it",
    "geometry.jacobian_rank_at": "acceptance criterion 7, smoothness at sampled points",
    "series.total_hilbert":
        "the benchmark's tracer wraps it by name; with invert_unit_series it is the"
        " series-arithmetic route that tests check koszul_prediction against",
    "series.invert_unit_series":
        "the other half of that route: 1/h(t) by series arithmetic, not by closed form",
    "series.lee_coefficient":
        "the benchmark's tracer wraps it by name; it is the closed-form route that tests"
        " check series arithmetic against",
    "exactla.echelon_mod_p": "the benchmark's tracer wraps it by name",
    "exactla.rank_mod_p": "the benchmark's tracer wraps it by name",
    "exactla.nullspace_mod_p": "the benchmark's tracer wraps it by name",
    "exactla.mod_matmul": "the benchmark's tracer wraps it by name",
}


@pytest.mark.parametrize("module", ["series", "presentation", "orders", "fields", "poly",
                                    "symbols", "rng", "reports"])
def test_pure_python_layer_loads_without_numpy(module):
    # a fresh interpreter, so that no other test's imports count
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    code = f"import sys, psiring.{module}; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_only_exactla_imports_numpy():
    # the dense adapters perfbench's tracer wraps are the one matrix form
    # besides sparse rows; every other layer, the Koszul routes included,
    # computes without numpy
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"exactla"}


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and class, and
    of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def test_every_public_name_has_a_caller_in_the_package():
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    # where each identifier is mentioned, outside __init__'s re-exports
    mentions: dict[str, list[ast.AST]] = {}
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentions.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                mentions.setdefault(node.attr, []).append(node)
    uncalled = []
    for module, tree in trees.items():
        for qualname, node in public_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            name = qualname.rsplit(".", 1)[-1]
            if not any(id(n) not in inside for n in mentions.get(name, [])):
                uncalled.append(f"{module}.{qualname}")
    assert set(uncalled) == set(ALLOWED)


# small commands that together run every function in src/psiring: every
# subcommand, both fields, all three formats, a minor size of 0 (singular at
# n = 3, over both fields) and, last, a refusal
REACH_COMMANDS = [
    "presentation dump --kind bnm --n 2 --m 2 --field prime --format md",
    "hilbert lee --n 4 --max-total 2 --format csv",
    "hilbert brute --kind bnm --n 3 --m 1 --max-total 2",
    "hilbert verify --n 4 --max-total 3 --pivot custom:2,1,4,3",
    "hilbert verify --n 4 --max-total 4",
    "hilbert verify --kind bnm --n 2 --m 2 --max-total 3 --format md",
    "hilbert verify --n 3 --max-total 2 --format csv",
    "gb run --n 4",
    "gb run --n 4 --field prime --order lex",
    "gb run --n 4 --order block --cap 2",
    "koszul --n 4 --kmax 4",
    "sample --n 4 --count 2",
    "sample --kind bnm --n 3 --m 1 --count 2",
    "singular --n 3",
    "singular --n 3 --field rational",
    "singular --n 4",
    "singular --n 4 --field rational",
    "verify-theorem-a --n 4 --max-total 2",
    "koszul --n 4 --kmax 5 --budget 1000",
]

# functions those commands do not run, each kept for the reason given
UNREACHED = {
    **ALLOWED,
    "koszul._refuse_dense": "only dual_dimension_stacked calls it",
    **{f"exactla.{name}": "only the dense adapters the benchmark's tracer wraps reach it"
       for name in ("_sparse_rows", "_columns", "_chunk")},
    "koszul.relation_space_matrices":
        "only dual_dimension_stacked calls it; the tower eliminates R block by block",
}


def package_functions():
    """{code object: 'module.qualname'} of every function and method defined in
    src/psiring, nested ones included; dunders, lambdas and comprehensions are
    left out.  Empties each functools cache it meets, so that a cached result
    cannot hide a call."""
    out = {}

    def add(code, module, qualname):
        if code.co_filename.startswith(str(SRC)) and not code.co_name.startswith("<"):
            # co_qualname only exists from Python 3.11 on
            assert sys.version_info < (3, 11) or qualname == code.co_qualname
            out[code] = f"{module}.{qualname}"
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    add(const, module, f"{qualname}.<locals>.{const.co_name}")

    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"psiring.{path.stem}")
        for obj in list(vars(mod).values()):
            members = [obj]
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                members = list(vars(obj).values())
            for m in members:
                if isinstance(m, (staticmethod, classmethod)):
                    m = m.__func__
                if isinstance(m, property):
                    m = m.fget
                if hasattr(m, "cache_clear"):
                    m.cache_clear()  # a cached result would hide the call
                m = inspect.unwrap(m) if callable(m) else m
                if isinstance(m, types.FunctionType) and m.__module__ == mod.__name__:
                    add(m.__code__, path.stem, m.__qualname__)
    return {code: name for code, name in out.items() if not code.co_name.startswith("__")}


def test_every_function_runs_under_the_cli(capsysbinary):
    functions = package_functions()
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv.split()) for argv in REACH_COMMANDS]
    finally:
        sys.setprofile(None)
    capsysbinary.readouterr()
    assert codes == [0] * (len(REACH_COMMANDS) - 1) + [2]
    unreached = {name for code, name in functions.items() if code not in ran}
    assert unreached == set(UNREACHED)


# defaulted parameters that no call in src/psiring passes, each kept for the reason given
UNPASSED = {
    "cli.main": "the console script passes no argv; tests and perfbench pass a list",
    "series.lee_coefficient": ALLOWED["series.lee_coefficient"],
}


def defaulted_parameters(tree):
    """(qualified name, node, [(parameter, position or None)]) of every function,
    private and nested ones included, that has a defaulted parameter.  Positions
    count from the first argument a caller writes: self and cls are skipped."""
    def visit(node, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                yield from visit(sub, f"{prefix}{sub.name}.")
            elif isinstance(sub, ast.FunctionDef):
                args = sub.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in sub.decorator_list)
                method = isinstance(node, ast.ClassDef) and not static
                skip = 1 if method and positional else 0
                first = len(positional) - len(args.defaults)
                params = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
                params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                           if d is not None]
                if params:
                    yield f"{prefix}{sub.name}", sub, params
                yield from visit(sub, f"{prefix}{sub.name}.")
    yield from visit(tree, "")


def passes(call, param, pos):
    """Whether the call writes the parameter: by keyword, by position, or through * or **."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return pos is not None and (len(call.args) > pos
                                or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_in_the_package():
    trees = {f.stem: ast.parse(f.read_text()) for f in sorted(SRC.glob("*.py"))}
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for qualname, node, params in defaulted_parameters(tree):
            if f"{module}.{qualname}" in UNPASSED:
                continue
            inside = {id(n) for n in ast.walk(node)}
            parts = qualname.split(".")
            # a call to a class counts for its __init__
            name = parts[-2] if parts[-1] == "__init__" and len(parts) > 1 else parts[-1]
            outside = [c for c in calls.get(name, []) if id(c) not in inside]
            unpassed += [f"{module}.{qualname}({param}=)" for param, pos in params
                         if not any(passes(c, param, pos) for c in outside)]
    assert unpassed == []
