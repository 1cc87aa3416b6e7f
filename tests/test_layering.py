"""Module layering: each corpusforge module imports only from lower layers.

errors < text_pipeline < (word_align, lm) < (mine, selection, eval_mt)
< corpus_io < demo < cli
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corpusforge"

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
