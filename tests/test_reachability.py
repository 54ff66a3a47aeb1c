"""Each module-level function and class of carta, and each method of its
classes, has a caller in the package or in the benchmark, or is kept for a
named acceptance criterion or ROADMAP item.  Unit tests do not count as
callers: what only they reach no subcommand runs.  The oracles that only
the tests need live in tests/oracles.py, outside the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# definitions that only the tests call
KEEP = {
    "SurfaceOfRevolution.gaussian_curvature": "ROADMAP item 5",
    "conformal_scale": "ROADMAP item 5",
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


def _trees():
    src = {p.name: ast.parse(p.read_text()) for p in (ROOT / "src" / "carta").glob("*.py")}
    del src["__init__.py"]
    return src, [ast.parse(p.read_text()) for p in (ROOT / "bench").glob("*.py")]


def test_every_definition_is_reached():
    src, bench = _trees()
    unreached, defined = [], set()
    for name, tree in src.items():
        callers = set().union(*map(references, bench + [t for n, t in src.items() if n != name]))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                if node.name not in KEEP.keys() | callers | references(tree, node):
                    unreached.append(f"{name}:{node.name}")
    assert unreached == []
    assert {name for name in KEEP if "." not in name} <= defined


def test_every_method_is_reached():
    # only attribute references (x.name) count, so that a local variable of
    # the same name cannot hide a dead method; dunder methods are called by
    # the language, all but __call__, which a call site names nowhere
    src, bench = _trees()
    called = {node.attr for tree in [*src.values(), *bench] for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    unreached, defined = [], set()
    for name, tree in src.items():
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                method = f"{cls.name}.{node.name}"
                defined.add(method)
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if (node.name not in called and method not in KEEP
                        and (not dunder or node.name == "__call__")):
                    unreached.append(f"{name}:{method}")
    assert unreached == []
    assert {name for name in KEEP if "." in name} <= defined
