"""The package's export lists agree with what its modules define, its modules import
one another without a cycle, and neither importing it nor running a command loads
scipy."""
import ast
import graphlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import suitaverify
from suitaverify import cli

MODULES = ["bergman", "checks", "domains", "green1d", "indicatrix", "numerics", "suita"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"suitaverify.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


PACKAGE = Path(suitaverify.__file__).parent


def _package_imports(name):
    """The package modules that module ``name`` imports, anywhere in its source, read from its AST."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            dotted = "suitaverify" + (f".{node.module}" if node.module else "") if node.level else node.module
            if dotted == "suitaverify":
                found |= {alias.name for alias in node.names}
            elif dotted.startswith("suitaverify."):
                found.add(dotted.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("suitaverify.")}
    return found


IMPORTS = {path.stem: _package_imports(path.stem) for path in PACKAGE.glob("*.py") if path.stem != "__init__"}


def test_module_imports_are_acyclic():
    assert set(IMPORTS) == set(MODULES) | {"cli"}
    order = list(graphlib.TopologicalSorter(IMPORTS).static_order())  # raises CycleError on a cycle
    assert order[0] == "numerics" and order[-1] == "cli"


def test_numerical_layers():
    # numerics is the base layer, and the Green functions rest on it alone
    assert IMPORTS["numerics"] == set()
    assert IMPORTS["green1d"] == {"numerics"}


COMMANDS = [
    ["suita-f", "--g2"],
    ["kernel", "--annulus", "0.2", "--w", "sqrt"],
    ["kernel", "--domain", '{"variant":"ellipsoid","p":[0.5,2.0]}', "--w", "[0.3,0.1]"],
    ["scan", "--family", "p", "--grid", "3", "--m-list", "2"],
    ["green", "--r", "0.2", "--levels=-1"],
    ["indicatrix", "--family", "ell1"],
    ["indicatrix", "--family", "g2"],
    ["indicatrix", "--family", "p"],
    ["verify-all"],
    ["experiment", "--r", "0.2", "--t-grid=-2,-1", "--samples", "4096"],
]
# a fresh interpreter: the test process has already imported scipy.  A bare ``import
# suitaverify`` loads the six numerical modules, not the command line's.  The first entry
# lists the scipy modules loaded by that import, each later one those after a command.
_PROBE = """
import contextlib, io, json, sys
import suitaverify
package = sorted(m for m in sys.modules if m.startswith("suitaverify."))
assert package == ["suitaverify." + m for m in ("bergman", "domains", "green1d", "indicatrix", "numerics", "suita")], package
from suitaverify import cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run(argv)
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""
# a numpy-only install: every ``import scipy`` fails, as it would without the package
_WITHOUT_SCIPY = """
import sys
class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None
sys.meta_path.insert(0, NoScipy())
from suitaverify import cli
sys.exit(cli.run(sys.argv[1:]))
"""


def _fresh_python(*args):
    src = str(Path(suitaverify.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", *args], capture_output=True, text=True, env=env, timeout=120)


def test_import_and_commands_load_no_scipy(tmp_path):
    # the boundary CSVs go to a temporary directory
    csvs = [tmp_path / "p.csv", tmp_path / "g2.csv"]
    commands = COMMANDS + [["indicatrix", "--family", path.stem, "--out", str(path)] for path in csvs]
    proc = _fresh_python(_PROBE, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[]] * (len(commands) + 1)
    assert all(path.read_text().startswith("rho,S\n") for path in csvs)


def test_verify_all_without_scipy_prints_the_same_table(capsys):
    proc = _fresh_python(_WITHOUT_SCIPY, "verify-all", "--quick")
    assert proc.returncode == cli.run(["verify-all", "--quick"])
    assert proc.stdout == capsys.readouterr().out
    assert proc.stdout.splitlines()[-1].endswith(("checks failed", "all checks passed")), proc.stderr
