"""No module of the package reaches into another's private names."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _dotted(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def private_cross_module_reads(package_dir: Path) -> list[str]:
    """Each ``from .other import _name`` and each ``other._name`` read in the
    package, where ``other`` is one of its own modules, as "file:line name"."""
    modules = {path.stem for path in package_dir.glob("*.py")}
    found = []
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = set()  # the names under which this file holds a package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "invperm"):
                for alias in node.names:
                    if _is_private(alias.name):
                        found.append(f"{path.name}:{node.lineno} {alias.name}")
                    if node.module in (None, "invperm") and alias.name in modules:
                        bound.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                bound.update(
                    alias.asname or alias.name for alias in node.names if alias.name.split(".")[0] == "invperm"
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _is_private(node.attr) and _dotted(node.value) in bound:
                found.append(f"{path.name}:{node.lineno} {node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    """A name that starts with '_' is its module's own; one shared across
    modules is made public, not reached into.  (A public name imported
    under a private alias, as ``alpha_for_mu as _alpha_for_mu``, is fine.)"""
    assert private_cross_module_reads(ROOT / "src" / "invperm") == []


def test_private_reads_are_found(tmp_path):
    """The check sees both forms: a private import and a private attribute
    of a module bound by ``from . import``, ``from invperm import`` or
    ``import invperm.x``."""
    (tmp_path / "a.py").write_text("_hidden = 1\npublic = 2\n")
    (tmp_path / "b.py").write_text(
        "from .a import _hidden\n"
        "from .a import public as _alias\n"
        "from . import a\n"
        "from invperm import a as other\n"
        "import invperm.a\n"
        "x = a._hidden + other._hidden + invperm.a._hidden + a.public + a.__name__\n"
    )
    assert private_cross_module_reads(tmp_path) == [
        "b.py:1 _hidden", "b.py:6 _hidden", "b.py:6 _hidden", "b.py:6 _hidden",
    ]
