"""scipy stays off the CLI start-up path, jsonschema off every run, and
each nvcdd module loads only what it imports.

The CLI checks configs itself; jsonschema, with the packages it pulls in,
is only the test suite's oracle for that checker. Each check runs in a
fresh interpreter, because the rest of the suite imports both into the
test process.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
DEFERRED = ("scipy.optimize", "scipy.stats", "scipy.special")
# jsonschema and the packages it imports
JSONSCHEMA_MODULES = ("jsonschema", "referencing", "rpds", "attrs")
# numpy and every module of the package
PACKAGE_MODULES = ("numpy", *(f"nvcdd.{path.stem}" for path
                              in sorted((SRC / "nvcdd").glob("*.py"))
                              if path.stem != "__init__"))


def _loaded_after(code: str, names=DEFERRED) -> set:
    """The names in sys.modules after running code.

    The names are printed on the last line, after anything code prints.
    """
    script = (f"{code}\nimport sys\nprint()\n"
              f"print(' '.join(m for m in {names!r} if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_cli_import_loads_no_scipy_fitting_modules():
    assert _loaded_after("import nvcdd.cli") == set()


def test_package_import_loads_no_module():
    assert _loaded_after("import nvcdd", PACKAGE_MODULES) == set()


@pytest.mark.parametrize("module", ["nvcdd.units", "nvcdd.spin_model"])
def test_leaf_module_loads_only_itself(module):
    assert _loaded_after(f"import {module}", PACKAGE_MODULES) == {module}


def test_ramsey_run_loads_no_scipy_fitting_modules(tmp_path):
    code = ("from nvcdd import cli\n"
            f"cli.main(['--out', {str(tmp_path)!r}, '--shots', '2', 'ramsey',"
            " '--tau-stop-us', '0.1'], standalone_mode=False)")
    assert _loaded_after(code) == set()
    assert (tmp_path / "ramsey_dressed_mp.csv").exists()


def test_first_fit_loads_optimize_not_stats():
    code = ("import numpy as np\n"
            "from nvcdd.fitting import FitParam, ModelFunction, nlls_fit\n"
            "model = ModelFunction('line', (FitParam('a', 1.0),),\n"
            "                      lambda theta, x: theta[0] * x)\n"
            "x = np.arange(10.0)\n"
            "nlls_fit(model, (x, 2.0 * x + 0.01 * np.cos(x)))")
    assert _loaded_after(code) == {"scipy.optimize", "scipy.special"}


def _cli_run(*args) -> str:
    return ("from nvcdd import cli\n"
            f"cli.main({list(args)!r}, standalone_mode=False)")


def test_cli_import_and_default_run_load_no_jsonschema(tmp_path):
    assert _loaded_after("import nvcdd.cli", ("jsonschema",)) == set()
    code = _cli_run("--out", str(tmp_path), "--shots", "2", "ramsey",
                    "--tau-stop-us", "0.1")
    assert _loaded_after(code, ("jsonschema",)) == set()


def test_config_run_loads_no_jsonschema(tmp_path):
    code = _cli_run("--config", str(REPO / "configs" / "nv2.json"),
                    "--out", str(tmp_path), "rates")
    assert _loaded_after(code, JSONSCHEMA_MODULES) == set()
    assert (tmp_path / "rates.txt").exists()


def test_monte_carlo_runs_load_no_numpy_ma(tmp_path):
    # numpy.ma comes with lazy numpy imports such as np.unique's, and adds
    # about 1.3 MB to a run's peak memory; numpy.polynomial holds the
    # Gauss-Hermite nodes, which only the simulator fit models evaluate
    code = "\n".join([
        _cli_run("--out", str(tmp_path), "--shots", "2", "spectra"),
        _cli_run("--out", str(tmp_path), "--shots", "2", "ramsey",
                 "--tau-stop-us", "0.1")])
    assert _loaded_after(code, ("numpy.ma", "numpy.polynomial")) == set()
    assert (tmp_path / "ramsey_dressed_mp.csv").exists()


def test_monte_carlo_runs_load_no_numpy_random(tmp_path):
    # the sampler draws every normal itself, numpy's slow path included;
    # numpy.random adds about 5 MB to a run's peak memory
    code = "\n".join([
        _cli_run("--out", str(tmp_path), "--shots", "50", "spectra"),
        _cli_run("--out", str(tmp_path), "--shots", "50", "ramsey",
                 "--tau-stop-us", "0.5"),
        "from nvcdd import pulse_sim",
        "assert pulse_sim._sample_block(5, 3, 111)[110].any()"])
    assert _loaded_after(code, ("numpy.random",)) == set()
    assert (tmp_path / "ramsey_dressed_mp.csv").exists()
