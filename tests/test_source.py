import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "channelgeo"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_finds_a_stale_name():
    assert unused_imports("import numpy as np\nfrom .operators import hermitian, unitary\nunitary(np)\n") == [
        (2, "hermitian")
    ]


def test_every_import_in_the_package_is_used():
    """A module imports only what it reads; __init__.py re-exports by design."""
    paths = [path for path in sorted(_PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert paths
    stale = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in paths}
    assert {name: found for name, found in stale.items() if found} == {}


def unread_privates(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every module-level _private function, class or
    constant that no module reads, by name, as an attribute or by import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            defined += [(module, node.lineno, name) for name in private]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_unread_privates_finds_a_dead_helper():
    sources = {
        "a.py": "_LIMIT = 3\n_SEEN = 1\n\n\ndef _used():\n    return _LIMIT\n\n\ndef _dead():\n    return 0\n",
        "b.py": "from . import a\n\n\nclass _Old:\n    pass\n\n\nprint(a._used(), a._SEEN)\n",
    }
    assert unread_privates(sources) == [("a.py", 9, "_dead"), ("b.py", 4, "_Old")]


def test_every_private_name_in_the_package_is_read():
    """A module-level _private function, class or constant is read somewhere in
    the package, so a refactor leaves no helper behind."""
    paths = sorted(_PACKAGE.glob("*.py"))
    assert paths
    assert unread_privates({path.name: path.read_text(encoding="utf-8") for path in paths}) == []
