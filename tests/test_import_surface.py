"""Every name the examples import, and every ``__all__`` entry, exists.

Deleting an exported name must break a test, not a reader's first run
of an example: the examples are scripts no other test imports, and a
stale ``__all__`` entry only fails on ``from package import *``.
"""

import ast
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO / "src" / "repro"

EXAMPLES = sorted((REPO / "examples").glob("*.py"))
PACKAGES = sorted(
    ".".join(init.parent.relative_to(PACKAGE_ROOT.parent).parts)
    for init in PACKAGE_ROOT.rglob("__init__.py")
)


def repro_imports(path: Path) -> list[tuple[str, str | None]]:
    """``(module, name)`` for each ``from repro… import name`` in a
    file, and ``(module, None)`` for each ``import repro…``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "repro" or node.module.startswith("repro."):
                found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None)
                for alias in node.names
                if alias.name == "repro" or alias.name.startswith("repro.")
            )
    return found


def resolves(module_name: str, name: str | None) -> bool:
    module = importlib.import_module(module_name)
    if name is None or hasattr(module, name):
        return True
    # ``from package import submodule`` also resolves.
    try:
        importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_the_surface_is_found():
    assert len(EXAMPLES) >= 5
    assert "repro" in PACKAGES and "repro.thermal" in PACKAGES
    assert all(repro_imports(path) for path in EXAMPLES)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    missing = [
        f"{module}:{name}"
        for module, name in repro_imports(path)
        if not resolves(module, name)
    ]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_package_all_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", [])
    missing = [name for name in exported if not resolves(package, name)]
    assert not missing, f"{package}.__all__ lists missing names: {missing}"
    assert len(set(exported)) == len(exported), f"{package}.__all__ has duplicates"
