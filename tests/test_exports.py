"""The package's export lists agree with what its modules define."""
import ast
import importlib
from pathlib import Path

import pytest

import suitaverify

MODULES = ["bergman", "checks", "domains", "green1d", "indicatrix", "numerics", "suita"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"suitaverify.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(suitaverify.__file__).read_text())
    unexported = [
        f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in importlib.import_module(f"suitaverify.{node.module}").__all__
    ]
    assert unexported == []
