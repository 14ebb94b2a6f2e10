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
