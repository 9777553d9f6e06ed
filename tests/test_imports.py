"""The package imports no scipy.

numpy and scipy each load their own OpenBLAS, each with its own worker
threads.  A hot loop that alternates calls into both leaves one library's
idle workers spinning on the cores the other needs, so the package runs on
numpy alone; scipy is a test dependency, for the oracles.  The modules are
read with ``ast``, not imported, and a fresh interpreter confirms that
importing the package loads no scipy module."""

import ast
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "vqse"


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


def test_package_imports_no_scipy():
    imports = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in scipy_imports(path)
    }
    assert imports == set()


def test_importing_the_package_loads_no_scipy():
    code = (
        "import sys\n"
        "import vqse.cli, vqse.fci, vqse.integrals, vqse.oo, vqse.subspace\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_numpy():
    """``vqse diff`` and ``vqse --version`` need no numpy, and the CLI
    module imports the numerical layers only inside the commands that run
    them, so importing it loads no numpy module."""
    code = (
        "import sys\n"
        "import vqse.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
        timeout=60,
    )
    assert done.stdout.strip() == "[]"


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


def test_exact_scan_point_loads_no_numpy_random(tmp_path):
    """An exact-RDM scan point with the full-FCI oracle, and an FCI solve
    past ``DENSE_LIMIT`` with the 2-RDM of its CI state, draw nothing at
    random: their Davidson start vectors are fixed, and loading
    ``numpy.random`` costs a process about 5 MB of resident memory.
    Configs with shots draw their noise from it.  None of them loads a
    scipy module either, so they run on numpy's BLAS alone."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from vqse import fci, rdm\n"
        "from vqse.cli import ScanConfig, run_scan\n"
        "from vqse.integrals import MolecularIntegrals\n"
        "config = ScanConfig(points_angstrom=[0.75], basis='6-31g', vqse=True, full_fci=True)\n"
        f"assert run_scan(config, {str(tmp_path)!r}) == 0\n"
        "n = 17\n"
        "h1 = np.diag(np.arange(n, dtype=float)) + 0.1\n"
        "mol = MolecularIntegrals(n_spatial=n, e_nuc=0.0, h1=h1, eri=np.zeros((n,) * 4))\n"
        "action = fci.build_hamiltonian_action(mol)\n"
        "assert fci.SectorBlock(action, 1, 1).size > fci.DENSE_LIMIT\n"
        "_, state = fci.ground_state(action, 2, sz=0)\n"
        "assert rdm.compute_rdm(state, 2).packed.shape == (561, 561)\n"
        "print('numpy.random' in sys.modules)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=PACKAGE.parent,
        timeout=120,
    )
    assert done.stdout.split() == ["False", "[]"]
