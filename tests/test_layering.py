"""Module layering: each corpusforge module imports only from lower layers.

errors < text_pipeline < (word_align, lm) < (mine, selection, eval_mt)
< corpus_io < demo < cli

Every function, class and method the package defines is also used by the
package or the benchmark: code only tests use lives under tests/.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corpusforge"

LAYERS = {
    "__init__": 0,
    "errors": 0,
    "text_pipeline": 1,
    "word_align": 2,
    "lm": 2,
    "mine": 3,
    "selection": 3,
    "eval_mt": 3,
    "corpus_io": 4,
    "demo": 5,
    "cli": 6,
}


def _imported_modules(tree: ast.AST):
    """The corpusforge modules a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["corpusforge" if node.level else "", node.module]))
            if module == "corpusforge":
                names = [f"corpusforge.{alias.name}" for alias in node.names]
            else:
                names = [module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "corpusforge" and len(parts) > 1:
                yield parts[1]


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(LAYERS)


def test_imports_point_to_strictly_lower_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for imported in _imported_modules(tree):
            if LAYERS.get(imported, len(LAYERS)) >= LAYERS[path.stem]:
                upward.append(f"{path.stem} -> {imported}")
    assert upward == []


def _mentions(node: ast.AST):
    """The names a subtree refers to: names, attributes, imports and strings
    (the benchmark wraps functions by their attribute name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def test_every_definition_is_used_outside_the_tests():
    package = {path: ast.parse(path.read_text("utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text("utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    mentions = Counter(name for tree in [*package.values(), *bench] for name in _mentions(tree))
    # unused: every mention of the name lies inside its own definition
    unused = [
        f"{path.stem}.{qualname}"
        for path, tree in package.items()
        for qualname, node in _definitions(tree)
        if mentions[node.name] == Counter(_mentions(node))[node.name]
    ]
    assert unused == []
