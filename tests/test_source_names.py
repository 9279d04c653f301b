"""Dead names in the package source: an import that its module never uses,
a module-level private name (`_x`) that no module of the package refers
to, a public method or property of a class that no program file reads
(the package, `scripts/` and `perfbench/`; tests do not count), and a
module-level public function, class or constant that no program file
reads, beyond the package's `__init__` re-exporting it, and that README's
Library block does not name. Each is what a deletion tends to leave
behind."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "apec"
MODULES = sorted(PACKAGE.glob("*.py"))
PROGRAM = MODULES + sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def dotted(node) -> str | None:
    """`a.b.c` for a chain of attributes on a name read, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return ".".join([node.id, *reversed(parts)])
    return None


def unused_imports(tree: ast.Module) -> list[str]:
    """Each name an import binds that the module never reads. `import a.b`
    counts as used only where `a.b` or an attribute of it is read."""
    reads = {dotted(node) for node in ast.walk(tree)} - {None}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name
                if not any(read == name or read.startswith(name + ".") for read in reads):
                    unused.append(f"{name} (line {node.lineno})")
    return unused


def definitions(tree: ast.Module):
    """(name, line) of each module-level function, class or assigned name,
    but for dunder names such as `__version__`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node.lineno


def private_definitions(tree: ast.Module):
    """(name, line) of each definition whose name starts with one underscore."""
    return [(name, line) for name, line in definitions(tree) if name.startswith("_")]


def references(tree: ast.Module):
    """Every name the module reads, every attribute it names and every name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def public_members(tree: ast.Module):
    """(class, name, line) of each method or property, public by its name,
    that a class of the module defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield node.name, item.name, item.lineno


def member_reads(tree: ast.Module):
    """Every attribute the module reads, and every string constant, which
    may name one for getattr or for a tracer that wraps it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def export_reads(tree: ast.Module, reexports: bool = False):
    """Every name the module reads, every attribute it reads, every string
    constant (a tracer names what it wraps by string) and, unless the module
    only `reexports` them, every name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.ImportFrom) and not reexports:
            yield from (alias.name for alias in node.names)
    yield from member_reads(tree)


def library_block() -> ast.Module:
    """The Python code block under README's `## Library` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return ast.parse(re.search(r"^## Library\n+```python\n(.*?)^```", readme, re.M | re.S).group(1))


@pytest.mark.parametrize(
    # the package's __init__ imports only to re-export
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_used(path):
    assert unused_imports(parse(path)) == []


def test_every_private_name_is_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    assert len(trees) > 5  # the glob found the package
    referenced = {name for tree in trees.values() for name in references(tree)}
    unreferenced = [
        f"{module}:{line} {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in referenced
    ]
    assert unreferenced == []


def test_every_public_member_is_read():
    assert len(PROGRAM) > len(MODULES) + 2  # the globs found scripts/ and perfbench/
    reads = {name for path in PROGRAM for name in member_reads(parse(path))}
    unread = [
        f"{path.name}:{line} {cls}.{name}"
        for path in MODULES
        for cls, name, line in public_members(parse(path))
        if name not in reads
    ]
    assert unread == []


def test_every_public_export_is_read():
    library = set(export_reads(library_block()))
    assert {"embedding_top_k", "HashEmbeddingProvider"} <= library  # README's block was found
    reads = library | {
        name for path in PROGRAM for name in export_reads(parse(path), path.name == "__init__.py")
    }
    unread = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in definitions(parse(path))
        if not name.startswith("_") and name not in reads
    ]
    assert unread == []


def test_checks_catch_leftovers():
    tree = ast.parse(
        "import os\nimport urllib.parse\nimport urllib.request\n"
        "from array import array as column\nfrom .x import kept, dropped\n"
        "def _helper():\n    return kept\n"
        "_TABLE: dict = {}\n_USED = 1\n__all__ = ['x']\n"
        "print(os.sep, urllib.request.urlopen, _USED)\n"
    )
    assert unused_imports(tree) == ["urllib.parse (line 2)", "column (line 4)", "dropped (line 5)"]
    referenced = set(references(tree))
    assert [name for name, _ in private_definitions(tree) if name not in referenced] == [
        "_helper",
        "_TABLE",
    ]
    tree = ast.parse(
        "class Provider:\n"
        "    @property\n    def remaining(self):\n        return self._left\n"
        "    def complete(self):\n        return self._spend()\n"
        "    def close(self):\n        pass\n"
        "    def _spend(self):\n        self.remaining_count = 0\n"
        "provider = Provider()\nprint(provider.complete(), getattr(provider, 'close'))\n"
    )
    reads = set(member_reads(tree))
    assert [name for _, name, _ in public_members(tree) if name not in reads] == ["remaining"]
    tree = ast.parse(
        "from .x import exported, traced, read\n"
        "LIMIT = 3\nUNUSED = 4\n"
        "def helper():\n    return LIMIT\n"
        "def orphan():\n    return helper()\n"
        "class Gone:\n    pass\n"
        "WRAPPED = ('traced', read)\n"
    )
    init = ast.parse("from .x import exported, orphan\n")
    reads = set(export_reads(tree)) | set(export_reads(init, reexports=True))
    assert [name for name, _ in definitions(tree) if name not in reads] == [
        "UNUSED", "orphan", "Gone", "WRAPPED"
    ]
