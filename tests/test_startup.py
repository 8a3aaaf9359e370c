"""Start-up cost: no subcommand imports scipy, which only the tests use as
an oracle, and no command loads a worker pool (``concurrent.*`` or
``multiprocessing``), also when a large table is formatted across CPUs.

Each check runs in a fresh interpreter, so modules imported by other tests
do not hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magictrap.cli

# the package under test, found the same way from any working directory
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(magictrap.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}

NO_SCIPY_SCRIPT = """
import json, sys
import magictrap, magictrap.cli
from magictrap.atomdata import data_dir

SCAN = ["--species", "sr87", "--state1", "1S0", "--state2", "3P0",
        "--from", "700nm", "--to", "900nm", "--points", "5"]
COMMANDS = [
    ["--version"],
    ["polarizability", *SCAN],
    # enough rows to split the table across CPUs where two are usable
    ["polarizability", *SCAN[:-1], "40000", "--out", "large.csv"],
    ["magic", *SCAN],
    ["trap", "--species", "sr87", "--state", "1S0", "--lattice-lambda", "813.428nm",
     "--waist", "30um", "--depth-erec", "50"],
    ["clock-line", "--duration", "0.5s", "--pi"],
    ["zeeman", "--spin", "9/2", "--dg", "108.4hz", "--field", "1e-4t"],
    ["sidebands", "--eta", "0.31", "--nu-z", "49khz", "--nbar", "1",
     "--width", "3khz", "--points", "11"],
    ["aggregate", str(data_dir() / "sr87_measurements.csv")],
    ["ladder", "--g0", "1e6hz", "--n", "2"],
    ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz",
     "--nmax", "3", "--points", "5", "--g2"],
    ["blockade", "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz", "--nmax", "4"],
]
codes = []
for argv in COMMANDS:
    codes.append(magictrap.cli.run(argv))
print(json.dumps({"codes": codes,
                  "commands": sorted({argv[0] for argv in COMMANDS} - {"--version"}),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "concurrent": sorted(m for m in sys.modules if m.startswith("concurrent")),
                  "multiprocessing": sorted(m for m in sys.modules
                                            if m.split(".")[0] == "multiprocessing")}))
"""

# the same commands with scipy unimportable: the runtime needs numpy alone
WITHOUT_SCIPY_SCRIPT = 'import sys\nsys.modules["scipy"] = None\n' + NO_SCIPY_SCRIPT


def run_script(script, cwd):
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_a_solver_never_import_scipy(tmp_path):
    result = run_script(NO_SCIPY_SCRIPT, tmp_path)
    assert result["codes"] == [0] * 12
    assert result["scipy"] == []
    assert result["concurrent"] == []
    assert result["multiprocessing"] == []


def test_every_command_runs_without_scipy_installed(tmp_path):
    result = run_script(WITHOUT_SCIPY_SCRIPT, tmp_path)
    assert result["commands"] == sorted(magictrap.cli.COMMANDS)
    assert result["codes"] == [0] * 12


# no command loads scipy any more (all are in the scripts above); these stay
# here to check the ``python -m magictrap`` entry point
@pytest.mark.parametrize("argv", [
    ["clock-line", "--duration", "0.5s", "--pi"],
    ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz",
     "--nmax", "3", "--points", "5"],
    ["blockade", "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz", "--nmax", "4"],
], ids=lambda argv: argv[0])
def test_commands_that_solve_with_scipy_still_run(argv, tmp_path):
    proc = subprocess.run([sys.executable, "-m", "magictrap", *argv], cwd=tmp_path,
                          env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
