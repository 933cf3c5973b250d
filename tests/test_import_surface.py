"""The import surface: names the scripts import exist, and every module
of ``src/repro`` is reached by a program.

Deleting an exported name must break a test, not a reader's first run
of an example: the examples and ``scripts/`` are files no other test
imports, and a stale ``__all__`` entry only fails on
``from package import *``.

The reverse holds too: a module that no program imports (the CLI, the
benchmarks, the examples, the scripts or the bench harness) is API only
its own tests reach.  It is either deleted, moved under ``tests/`` as
an oracle, or listed in :data:`UNREACHED_KEPT` with the ROADMAP item
that keeps it.
"""

import ast
import importlib
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO / "src" / "repro"

SCRIPTS = sorted((REPO / "examples").glob("*.py")) + sorted(
    (REPO / "scripts").glob("*.py")
)
PACKAGES = sorted(
    ".".join(init.parent.relative_to(PACKAGE_ROOT.parent).parts)
    for init in PACKAGE_ROOT.rglob("__init__.py")
)
#: Every module of the package, by dotted name, with its file.
MODULES = {
    ".".join(path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts)
    .removesuffix(".__init__"): path
    for path in PACKAGE_ROOT.rglob("*.py")
}
#: The programs: the CLI plus every file under these directories.
PROGRAM_DIRS = ("benchmarks", "examples", "scripts", "perfbench")
ROOT_MODULES = ("repro.__main__", "repro.cli")

#: Modules no program imports yet, each kept by an open ROADMAP item.
UNREACHED_KEPT = {
    "repro.core.optimal": "ROADMAP item 2: the scorecard's optimality-gap row",
    "repro.sim.regression": "ROADMAP item 2: the scorecard's results gate",
    "repro.workload.schedule": "ROADMAP item 8: arrivals in the batched engine",
}


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


def reached_modules(module: str, name: str | None) -> list[str]:
    """The modules ``from module import name`` (or ``import module``)
    reaches.  A package counts only through the one name it re-exports:
    ``from repro.core import HayatManager`` reaches the module that
    defines ``HayatManager``, not every module ``repro.core`` imports."""
    if name is not None and f"{module}.{name}" in MODULES:
        return [f"{module}.{name}"]
    path = MODULES.get(module)
    if path is None or name is None or path.name != "__init__.py":
        return [module] if path is not None else []
    for source, exported in repro_imports(path):
        if exported == name:
            return reached_modules(source, name)
    return []


def unreached_modules() -> set[str]:
    """Modules of ``src/repro`` (packages aside) no program imports."""
    pending = list(ROOT_MODULES)
    for directory in PROGRAM_DIRS:
        for path in (REPO / directory).rglob("*.py"):
            for module, name in repro_imports(path):
                pending.extend(reached_modules(module, name))
    reached: set[str] = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        if MODULES[module].name != "__init__.py":
            for imported, name in repro_imports(MODULES[module]):
                pending.extend(reached_modules(imported, name))
    return {
        module
        for module, path in MODULES.items()
        if path.name != "__init__.py" and module not in reached
    }


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
    assert len(SCRIPTS) >= 6
    assert "repro" in PACKAGES and "repro.thermal" in PACKAGES
    assert all(repro_imports(path) for path in SCRIPTS)
    assert "repro.core.manager" in MODULES and "repro.sim.fleet" in MODULES


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.name)
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


def test_every_module_is_reached_by_a_program():
    unreached = unreached_modules()
    stray = sorted(unreached - set(UNREACHED_KEPT))
    assert not stray, (
        f"no program imports {stray}: delete them, move them under tests/ "
        "as an oracle, or keep them in UNREACHED_KEPT with a ROADMAP item"
    )
    stale = sorted(set(UNREACHED_KEPT) - unreached)
    assert not stale, f"UNREACHED_KEPT lists reached or missing modules: {stale}"
