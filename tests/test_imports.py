"""Which scipy modules the package may import.

numpy and scipy each load their own OpenBLAS, each with its own worker
threads.  A hot loop that alternates calls into both leaves one library's
idle workers spinning on the cores the other needs, so the package keeps
its BLAS work on numpy and imports scipy only where listed here.  The
modules are read with ``ast``, not imported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "vqse"

ALLOWED = {
    # the Boys function; scipy.special runs no BLAS
    ("integrals/gaussians.py", "scipy.special"),
    # the Lanczos solve runs only on FCI blocks above DENSE_LIMIT determinants
    ("fci.py", "scipy.sparse.linalg"),
}


def scipy_imports(path: Path) -> set:
    """The scipy modules ``path`` imports, as dotted names."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "scipy":  # from scipy import linalg
                found.update(f"scipy.{alias.name}" for alias in node.names)
            else:
                found.add(node.module)
    return {name for name in found if name == "scipy" or name.startswith("scipy.")}


def test_scipy_imports_are_allow_listed():
    imports = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in scipy_imports(path)
    }
    assert imports - ALLOWED == set()


def test_scipy_import_scan_sees_every_form(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import scipy\n"
        "import scipy.linalg as sl\n"
        "from scipy import sparse\n"
        "from scipy.sparse.linalg import eigsh\n"
        "from .fci import ground_state\n"
        "import numpy\n"
        "def f():\n"
        "    from scipy.optimize import minimize\n"
    )
    assert scipy_imports(path) == {
        "scipy",
        "scipy.linalg",
        "scipy.sparse",
        "scipy.sparse.linalg",
        "scipy.optimize",
    }
