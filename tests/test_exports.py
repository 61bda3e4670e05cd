"""The package's export lists agree with what its modules define, and importing
it loads only the scipy subpackages its commands use."""
import ast
import importlib
import json
import os
import subprocess
import sys
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


NO_LAZY_IMPORT = [
    ["suita-f", "--g2"],
    ["kernel", "--annulus", "0.2", "--w", "sqrt"],
    ["kernel", "--domain", '{"variant":"ellipsoid","p":[0.5,2.0]}', "--w", "[0.3,0.1]"],
    ["scan", "--family", "p", "--grid", "3", "--m-list", "2"],
]
# a fresh interpreter: this session has already imported every scipy subpackage
_PROBE = """
import contextlib, io, json, sys
import suitaverify
from suitaverify import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(argv)
    loaded.append([m for m in ("scipy.stats", "scipy.optimize", "scipy.integrate") if m in sys.modules])
print(json.dumps(loaded))
"""


def test_commands_load_scipy_subpackages_only_when_used():
    src = str(Path(suitaverify.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    commands = NO_LAZY_IMPORT + [["verify-all", "--quick"]]
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    *plain, quick = json.loads(proc.stdout.splitlines()[-1])
    assert plain == [[]] * len(NO_LAZY_IMPORT)
    assert "scipy.stats" not in quick
