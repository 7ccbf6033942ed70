"""What the package's modules may import.  The scalar reference layers
import no numpy: the bulk numpy kernels are checked against them, so the
reference must not rest on numpy.  No module imports dataclasses: each
dataclass generates and compiles its methods when its module loads, which
every run of the command line pays."""

import ast
from pathlib import Path

import pingpong3

PACKAGE = Path(pingpong3.__file__).parent

SCALAR_MODULES = (
    "field", "linalg", "projgeom", "spectral", "pingpong/generators", "pingpong/sigma",
)


def _imports(module):
    """Every absolute module name ``module`` imports, anywhere in it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_scalar_reference_modules_import_no_numpy():
    assert "numpy" in _imports("pingpong/verify")  # a bulk module's import is seen
    for module in SCALAR_MODULES:
        assert not [name for name in _imports(module) if name.split(".")[0] == "numpy"], module


def test_no_module_imports_dataclasses():
    modules = [p.relative_to(PACKAGE).with_suffix("").as_posix() for p in PACKAGE.rglob("*.py")]
    assert "pingpong/words" in modules
    assert [module for module in modules if "dataclasses" in _imports(module)] == []
