"""Start-up cost: no subcommand imports scipy, which only the tests use as
an oracle, and no command loads a worker pool (``concurrent.*`` or
``multiprocessing``), also when a large table is formatted across CPUs.
Each subcommand imports only the physics modules it runs, and the parser
gives flags only to the subcommand being run, so help must still show them.

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
from magictrap.atomdata import data_dir

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


# the magictrap modules beyond cli and errors that a fresh run of each argv
# may load: its own physics, never another subcommand's
MODULES_SCRIPT = """
import json, sys
import magictrap.cli
code = magictrap.cli.run(sys.argv[1:])
print(json.dumps({"code": code, "configparser": "configparser" in sys.modules,
                  "modules": sorted(m.split(".")[1] for m in sys.modules
                                    if m.startswith("magictrap.")
                                    and m not in ("magictrap.cli", "magictrap.errors"))}))
"""
SCAN = ["--species", "sr87", "--state1", "1S0", "--state2", "3P0",
        "--from", "700nm", "--to", "900nm", "--points", "5"]
CAVITY = ["--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz"]
ATOM = ["angular", "atomdata", "constants", "fieldtrap", "polarizability"]
LOADS = [
    (["--version"], []),
    (["polarizability", *SCAN], ATOM),
    (["magic", *SCAN], ATOM),
    (["trap", "--species", "sr87", "--lattice-lambda", "813.428nm", "--waist", "30um",
      "--depth-erec", "50"], ATOM),
    (["clock-line", "--duration", "0.5s", "--pi"], ["clockspec"]),
    (["zeeman", "--dg", "108.4hz", "--field", "1e-4t"], ["clockspec"]),
    (["sidebands", "--eta", "0.31", "--nu-z", "49khz", "--nbar", "1", "--width", "3khz",
      "--points", "11"], ["clockspec"]),
    (["aggregate", str(data_dir() / "sr87_measurements.csv")], ["clockspec"]),
    (["cavity-spectrum", *CAVITY, "--nmax", "3", "--points", "5", "--g2"],
     ["cavityqed", "constants"]),
    (["blockade", *CAVITY, "--nmax", "4"], ["cavityqed", "constants"]),
    (["ladder", "--g0", "1e6hz", "--n", "2"], ["cavityqed", "constants"]),
]


@pytest.mark.parametrize("argv, modules", LOADS, ids=[argv[0] for argv, _ in LOADS])
def test_each_command_loads_only_its_own_modules(argv, modules, tmp_path):
    proc = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, *argv], cwd=tmp_path,
                          env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "configparser": False, "modules": modules}


def test_configparser_loads_only_with_config(tmp_path):
    (tmp_path / "run.ini").write_text("[cavity]\nkappa = 2e6hz\ngamma = 2e6hz\n")
    proc = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, "ladder", "--g0", "1e6hz",
                           "--n", "2", "--config", "run.ini"], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "configparser": True, "modules": ["cavityqed", "constants"]}


def _help(argv, capsys):
    assert magictrap.cli.run(argv) == 0
    # argparse wraps lines, also at hyphens: compare with whitespace removed
    return "".join(capsys.readouterr().out.split())


def test_top_help_lists_every_command(capsys):
    text = _help(["--help"], capsys)
    for name, command in magictrap.cli.COMMANDS.items():
        assert name in text
        assert "".join(command.help.split()) in text


@pytest.mark.parametrize("name", sorted(magictrap.cli.COMMANDS))
def test_command_help_lists_every_flag(name, capsys):
    text = _help([name, "--help"], capsys)
    for flag in magictrap.cli.COMMANDS[name].flags + magictrap.cli.COMMON:
        assert flag.name in text
        assert "".join(flag.help.split()) in text


def test_cli_forwards_only_its_name_table(monkeypatch):
    import magictrap.polarizability
    patched = object()
    monkeypatch.setattr(magictrap.polarizability, "find_magic", patched)
    assert magictrap.cli.find_magic is patched  # read on access, so a patch shows
    for name in ("__path__", "load_species", "aggregate_measurements"):
        assert not hasattr(magictrap.cli, name)
