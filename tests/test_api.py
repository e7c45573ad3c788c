"""The public surface is what the package uses: every exported name resolves,
and every public function, class and method in src/psiring has a caller in
src/psiring outside its own definition, apart from a short allowlist.
"""

import ast
from pathlib import Path

import psiring

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
}


def test_every_exported_name_resolves():
    missing = [name for name in psiring.__all__ if not hasattr(psiring, name)]
    assert not missing


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
