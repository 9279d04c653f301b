import ast
from pathlib import Path

import apec

SOURCES = sorted(Path(apec.__file__).parent.glob("*.py"))


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in SOURCES]


def _apec_error_classes(trees) -> set[str]:
    """Every class in the package that derives, directly or not, from ApecError."""
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    found = {"ApecError"}
    while True:
        more = {name for name, parents in bases.items() if parents & found} - found
        if not more:
            return found
        found |= more


def _caught_names(trees) -> set[str]:
    """Every name in an `except` clause, alone or in a tuple."""
    caught = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {name.id for name in names if isinstance(name, ast.Name)}
    return caught


def test_every_error_class_is_caught_by_name():
    trees = _trees()
    classes = _apec_error_classes(trees)
    assert {"ApecError", "UsageError", "TransientProviderError"} <= classes
    assert sorted(classes - _caught_names(trees)) == []


def _raised_names(trees) -> set[str]:
    """Every class named in a `raise`, called (`raise X(...)`) or not."""
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return raised


def test_every_error_class_is_raised():
    trees = _trees()
    classes = _apec_error_classes(trees)
    assert sorted(classes - _raised_names(trees)) == []
