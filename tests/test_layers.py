"""What the package's modules may import.  Only the sweep, pingpong/verify,
imports numpy when it loads: the scalar reference layers, which the bulk
numpy kernels are checked against, must not rest on numpy, and a run that
sweeps nothing should not pay for its import.  No module imports
dataclasses: each dataclass generates and compiles its methods when its
module loads, which every run of the command line pays."""

import ast
import subprocess
import sys
from pathlib import Path

import pingpong3

PACKAGE = Path(pingpong3.__file__).parent
MODULES = sorted(p.relative_to(PACKAGE).with_suffix("").as_posix() for p in PACKAGE.rglob("*.py"))


def _imports(module, at_load=False):
    """Every absolute module name ``module`` imports: anywhere in it, or
    with ``at_load`` only outside function bodies, where it loads."""
    names, nodes = set(), [ast.parse((PACKAGE / f"{module}.py").read_text())]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        if not (at_load and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))):
            nodes.extend(ast.iter_child_nodes(node))
    return names


def test_scalar_reference_modules_import_no_numpy():
    # the rule covers every module, not only the scalar layers
    assert "digits" in MODULES and "pingpong/words" in MODULES
    loading = [m for m in MODULES if "numpy" in {n.split(".")[0] for n in _imports(m, True)}]
    assert loading == ["pingpong/verify"]  # its import is seen


# run in a fresh interpreter: every module but the sweep and the two that
# import it, then the stages that need no sweep, at q = 2 and 3
NO_SWEEP_RUN = """
import importlib, random, sys
sys.path.insert(0, {src!r})
for name in {modules!r}:
    importlib.import_module(name)
from pingpong3.pingpong.constants import qi_constants
from pingpong3.pingpong.generators import make_generators
from pingpong3.pingpong.regular import find_regular
from pingpong3.pingpong.sigma import monte_carlo_check, sigma_exclusion
from pingpong3.pingpong.witness import irreducibility_witness
from pingpong3.pingpong.words import word_survey
for q in (2, 3):
    pair, candidate = make_generators(q), find_regular(q)
    sigma_exclusion(pair)
    constants = qi_constants(pair, candidate)
    assert word_survey(pair, candidate.g, 4, constants).passed
    assert irreducibility_witness(pair, candidate.g)
    monte_carlo_check(pair, random.Random(q), trials_per_case=5)
print("numpy" in sys.modules)
import pingpong3.pingpong.verify
print("numpy" in sys.modules)
"""


def test_runs_without_a_sweep_load_no_numpy():
    skip = {"pingpong/verify", "certificate", "cli"}
    modules = [
        ".".join(("pingpong3", *Path(m).parts)).removesuffix(".__init__")
        for m in MODULES
        if m not in skip
    ]
    code = NO_SWEEP_RUN.format(src=str(PACKAGE.parent), modules=modules)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False", "True"]  # the probe sees the sweep's import


def test_no_module_imports_dataclasses():
    assert "pingpong/words" in MODULES
    assert [module for module in MODULES if "dataclasses" in _imports(module)] == []
