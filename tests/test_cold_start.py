"""What a fresh `import srptsim` and the numpy-only CLI calls load.

Every CLI call is a new process, so the import is paid per call. Only ed
(and validate's ED checks) needs scipy.sparse; the package loads it on
first use. Nothing in the package needs any other part of
scipy: its one root finder is circuit.newton_root, ed's eigensolver is its
own Lanczos on scipy.sparse's matrix-vector product, and its constants are
the exact SI literals.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

from srptsim import constants

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """Run code in a new interpreter that imports srptsim from src; return its stdout lines."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def scipy_modules(names):
    return [m for m in names.split() if m.startswith("scipy")]


def assert_import_loads_no_scipy(module):
    path, modules = run_fresh(f"import sys, {module}\n"
                              f"print({module}.__file__)\n"
                              "print(*sorted(sys.modules))")
    assert Path(path).resolve().is_relative_to(SRC)
    assert scipy_modules(modules) == []


def test_package_import_loads_no_scipy():
    assert_import_loads_no_scipy("srptsim")


def test_cli_import_loads_no_scipy_optimize_or_constants():
    """Nor any other part of scipy: scipy.sparse waits for the ed and validate subcommands."""
    assert_import_loads_no_scipy("srptsim.cli")


@pytest.mark.parametrize("argv", [
    ["fluct", "--lr0", "0.3,0.6"],
    ["meanfield", "--lr0", "0.6", "--kt", "0,50", "--boundary"],
    ["validate", "--only", "vieta,gaussian-cosine"],
])
def test_meanfield_and_fluct_subcommands_load_no_scipy(argv):
    """Nor do validate's checks that run no ED."""
    *_, rc, modules = run_fresh("import sys\n"
                                "from srptsim import cli\n"
                                f"rc = cli.main({argv!r})\n"
                                "print(rc)\n"
                                "print(*sorted(sys.modules))")
    assert rc == "0"
    assert scipy_modules(modules) == []


def linear_algebra_modules(names):
    return [m for m in names.split() if m.startswith(("scipy.linalg", "scipy.sparse.linalg"))]


@pytest.mark.parametrize("code", [
    "import srptsim.ed",
    "from srptsim import cli\n"
    "assert cli.main(['ed', '--lr0', '0.3,0.6']) == 0",
], ids=["import", "ed"])
def test_ed_loads_scipy_sparse_and_no_scipy_linear_algebra(code):
    """ed's Lanczos needs scipy.sparse's matrix-vector product, and neither ARPACK nor LAPACK's wrappers."""
    *_, modules = run_fresh(f"import sys\n{code}\nprint(*sorted(sys.modules))")
    assert "scipy.sparse" in modules.split()
    assert linear_algebra_modules(modules) == []


def test_validate_writes_each_line_before_the_ed_checks_load_scipy():
    """Each check's line is written as it finishes; scipy.sparse loads with the first ED check,
    and no check loads scipy's linear algebra."""
    *_, rc, counts, recorded, modules = run_fresh(
        "import sys\n"
        "from srptsim import cli, validate\n"
        "class Recorder:\n"
        "    def __init__(self):\n"
        "        self.loaded = []\n"
        "    def write(self, text):\n"
        "        self.loaded += ['scipy.sparse' in sys.modules] * text.count('\\n')\n"
        "        return len(text)\n"
        "    def flush(self):\n"
        "        pass\n"
        "real, sys.stdout = sys.stdout, Recorder()\n"
        "rc = cli.main(['validate'])\n"
        "recorder, sys.stdout = sys.stdout, real\n"
        "print(rc)\n"
        "print(list(validate.CHECKS).index('dense-vs-sparse'), len(validate.CHECKS))\n"
        "print(*(int(flag) for flag in recorder.loaded))\n"
        "print(*sorted(sys.modules))")
    n_before, n_checks = map(int, counts.split())
    assert linear_algebra_modules(modules) == []
    loaded = recorded.split()
    assert rc == "0" and n_before == 9
    # one line per check and the summary
    assert len(loaded) == n_checks + 1
    assert loaded[:n_before] == ["0"] * n_before
    assert loaded[n_before:] == ["1"] * (len(loaded) - n_before)


def test_lazy_names_resolve_on_first_use():
    """ed and validate load on first access; their functions are not package names."""
    lines = run_fresh("import sys, srptsim\n"
                      "print(srptsim.ed.EdConfig.__module__)\n"
                      "print(srptsim.validate.run_checks.__module__)\n"
                      "for name in ('EdConfig', 'scan', 'no_such_name'):\n"
                      "    try:\n"
                      "        getattr(srptsim, name)\n"
                      "    except AttributeError:\n"
                      "        print('AttributeError')\n"
                      "print(*sorted(sys.modules))")
    config_module, checks_module, *missing, modules = lines
    assert (config_module, checks_module) == ("srptsim.ed", "srptsim.validate")
    assert missing == ["AttributeError"] * 3
    modules = modules.split()
    assert "scipy.sparse" in modules
    assert [m for m in modules if m.startswith(("scipy.optimize", "scipy.constants"))] == []


def test_package_names_only_layers_params_and_errors():
    """Every function lives in its layer module; the package adds no second name for it."""
    lines = run_fresh("import inspect, srptsim\n"
                      "print(*sorted(name for name, obj in vars(srptsim).items()\n"
                      "              if not name.startswith('_')\n"
                      "              and (inspect.isfunction(obj) or inspect.isclass(obj))))\n"
                      "print(*srptsim.__all__)\n"
                      "print(all(hasattr(srptsim, name) for name in srptsim.__all__))")
    public, exported, resolved = lines
    assert public.split() == ["CircuitParams", "ConfigError", "ConvergenceError"]
    assert {"circuit", "fock", "meanfield", "fluct", "ed", "validate"} <= set(exported.split())
    assert resolved == "True"


def test_constants_equal_scipy_constants():
    assert constants.h == scipy.constants.h
    assert constants.hbar == scipy.constants.hbar
    assert constants.e == scipy.constants.e
    assert constants.k_B == scipy.constants.k
    assert constants.PHI0 == scipy.constants.h / (2.0 * scipy.constants.e)
