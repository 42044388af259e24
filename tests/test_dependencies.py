"""The third-party imports of the package match its declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent


def imported_top_level_modules(package_dir: Path) -> set[str]:
    names = set()
    for path in package_dir.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_equal_declared_dependencies():
    imported = imported_top_level_modules(ROOT / "src" / "invperm")
    third_party = imported - set(sys.stdlib_module_names) - {"invperm"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    names = {re.split(r"[\s<>=!~;\[]", spec, maxsplit=1)[0] for spec in declared}
    assert third_party == names
