"""Each module-level function and class of carta has a caller in the
package or in the benchmark, or is kept for a named acceptance criterion.
Unit tests do not count as callers: what only they reach no subcommand runs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions that only tests/test_acceptance.py calls
KEEP = {
    "dilatation_fd": "criterion 3",
    "gauss_scale": "criterion 5",
    "is_mobius": "criterion 7 (the verdict of schwarzian.py)",
    "schwarzian_cocycle_residual": "criterion 7",
    "spherical_polygon_area": "criterion 8",
}


def references(tree, skip=None) -> set[str]:
    """Names and attributes that the code of ``tree`` refers to, outside ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            found.add(getattr(node, "id", None) or getattr(node, "attr", None))
            stack.extend(ast.iter_child_nodes(node))
    return found


def test_every_definition_is_reached():
    src = {p.name: ast.parse(p.read_text()) for p in (ROOT / "src" / "carta").glob("*.py")}
    del src["__init__.py"]
    bench = [ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py")]
    unreached, defined = [], set()
    for name, tree in src.items():
        callers = set().union(*map(references, bench + [t for n, t in src.items() if n != name]))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if node.name not in KEEP.keys() | callers | references(tree, node):
                    unreached.append(f"{name}:{node.name}")
    assert unreached == []
    assert KEEP.keys() <= defined
