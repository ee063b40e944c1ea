"""Source checks that need no linter on ``src/histrisk``.

No top-level import goes unused, each module imports only the sibling
modules listed before it in ``LAYERS``, so no import cycle can form, and no
function rebinds module state other than the names in ``GLOBALS``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "histrisk"

# The only process-wide state a function may rebind: the last accepted calendar.
GLOBALS = {("ingestion", "_calendar")}

# Each module may import only the modules before it; ``__init__`` and ``__main__`` sit above them all.
LAYERS = ("errors", "measures", "stats", "ingestion", "backtest", "cli")


def unused_imports(source: str) -> list[str]:
    """Top-level imported names that no ``Name`` node reads, less ``__future__`` and ``__all__``."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_unused_imports_finds_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import datetime as dt\n"
        "from .x import kept, exported\n"
        "__all__ = ['exported']\n"
        "def f() -> dt.date:\n"
        "    return kept\n"
    )
    assert unused_imports(source) == ["os", "osp"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def sibling_imports(source: str) -> set[str]:
    """Sibling modules imported relatively: ``from .x import y`` names ``x``, ``from . import y`` names ``y``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names.update([node.module] if node.module else [alias.name for alias in node.names])
    return names


def test_sibling_imports_finds_relative_imports_only():
    source = (
        "import os\n"
        "from . import __version__\n"
        "from .errors import InputError\n"
        "def f():\n"
        "    from .stats import ols2\n"
    )
    assert sibling_imports(source) == {"__version__", "errors", "stats"}


def test_layers_name_every_module():
    assert {path.stem for path in SRC.glob("*.py")} - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("index, module", enumerate(LAYERS), ids=LAYERS)
def test_imports_follow_layers(index, module):
    imported = sibling_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    if module == "cli":
        imported.discard("__version__")  # the package version, set in __init__
    assert imported - set(LAYERS[:index]) == set()


def global_names(source: str) -> set[str]:
    """Every name a ``global`` statement in ``source`` declares, at any depth."""
    return {name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global) for name in node.names}


def test_global_names_finds_nested_statements():
    source = (
        "def f():\n"
        "    global a, b\n"
        "class C:\n"
        "    def g(self):\n"
        "        global c\n"
    )
    assert global_names(source) == {"a", "b", "c"}


def test_only_listed_globals():
    found = {(path.stem, name) for path in SRC.glob("*.py") for name in global_names(path.read_text(encoding="utf-8"))}
    assert found <= GLOBALS
