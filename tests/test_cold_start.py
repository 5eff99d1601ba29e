"""What a fresh `import srptsim.cli` loads.

Every CLI call is a new process, so the import is paid per call. The
package needs numpy and scipy.sparse (for ED) and nothing else from
scipy: its one root finder is circuit.brentq, and its constants are the
exact SI literals.
"""

import os
import subprocess
import sys
from pathlib import Path

import scipy.constants

from srptsim import constants

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_scipy_optimize_or_constants():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = ("import sys, srptsim.cli\n"
            "print(srptsim.cli.__file__)\n"
            "print(*sorted(sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    path, modules = proc.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(SRC)
    modules = modules.split()
    assert "scipy.sparse" in modules
    assert [m for m in modules if m.startswith(("scipy.optimize", "scipy.constants"))] == []


def test_constants_equal_scipy_constants():
    assert constants.h == scipy.constants.h
    assert constants.hbar == scipy.constants.hbar
    assert constants.e == scipy.constants.e
    assert constants.k_B == scipy.constants.k
    assert constants.PHI0 == scipy.constants.h / (2.0 * scipy.constants.e)
