"""Start-up cost: no subcommand imports scipy, which only the tests use as
an oracle, and no command loads a worker pool (``concurrent.*`` or
``multiprocessing``), also when a large table is written block by block.
Each subcommand imports only the physics modules it runs, and numpy only
where it builds an array (a scan, a spectrum of more than 2000 points, a
cavity solve), so version, help, usage errors and the float-only commands
never load it, and no command loads ``dataclasses``. The parser gives flags
only to the subcommand being run, so help must still show them.

Each check runs in a fresh interpreter, so modules imported by other tests
do not hide an eager import.
"""

import errno
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
    # enough rows for a table of many blocks
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
                  "numpy": "numpy" in sys.modules, "dataclasses": "dataclasses" in sys.modules,
                  "inspect": "inspect" in sys.modules,
                  "modules": sorted(m.split(".")[1] for m in sys.modules
                                    if m.startswith("magictrap.")
                                    and m not in ("magictrap.cli", "magictrap.errors"))}))
"""
SCAN = ["--species", "sr87", "--state1", "1S0", "--state2", "3P0",
        "--from", "700nm", "--to", "900nm", "--points", "5"]
CAVITY = ["--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz"]
ATOM = ["angular", "atomdata", "constants", "pairwise", "polarizability"]
CLOCK = ["clockspec", "pairwise"]
CLOCK_LINE = ["clock-line", "--duration", "0.5s", "--pi"]
SIDEBANDS = ["sidebands", "--eta", "0.31", "--nu-z", "49khz", "--nbar", "1", "--width", "3khz"]
# each argv, the magictrap modules it loads, whether it loads dataclasses,
# which no module imports, and whether it loads numpy, which only the
# commands that build an array import: a spectrum of more than 2000 points
# does, a default one runs on floats
LOADS = [
    (["--version"], [], False, False),
    (["polarizability", *SCAN], sorted([*ATOM, "floattext"]), False, True),  # a float table
    (["magic", *SCAN], ATOM, False, False),
    (["trap", "--species", "sr87", "--lattice-lambda", "813.428nm", "--waist", "30um",
      "--depth-erec", "50"], sorted([*ATOM, "fieldtrap"]), False, False),
    (CLOCK_LINE, CLOCK, False, False),
    (["zeeman", "--dg", "108.4hz", "--field", "1e-4t"], CLOCK, False, False),
    (SIDEBANDS, CLOCK, False, False),
    (["aggregate", str(data_dir() / "sr87_measurements.csv")], CLOCK, False, False),
    (["cavity-spectrum", *CAVITY, "--nmax", "3", "--points", "5", "--g2"],
     ["cavityqed", "constants", "pairwise"], False, True),  # pairwise builds the probe grid
    (["blockade", *CAVITY, "--nmax", "4"], ["cavityqed", "constants"], False, True),
    (["ladder", "--g0", "1e6hz", "--n", "2"], ["cavityqed", "constants"], False, False),
    ([*CLOCK_LINE, "--points", "2001"], sorted([*CLOCK, "floattext"]), False, True),
    ([*SIDEBANDS, "--points", "2001"], sorted([*CLOCK, "floattext"]), False, True),
]


def run_modules(argv, cwd):
    proc = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, *argv], cwd=cwd,
                          env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv, modules, dataclasses, numpy", LOADS, ids=[
    argv[0] + ("-2001-points" if argv[-1] == "2001" else "") for argv, *_ in LOADS])
def test_each_command_loads_only_its_own_modules(argv, modules, dataclasses, numpy, tmp_path):
    # inspect comes with numpy or dataclasses, and only with them
    assert run_modules(argv, tmp_path) == {"code": 0, "configparser": False, "numpy": numpy,
                                           "dataclasses": dataclasses,
                                           "inspect": numpy or dataclasses, "modules": modules}


# argv that ends before any runner computes: help, and each usage error
# found from argv alone, also those a runner checks before its imports
ARGV_ONLY = [
    (["--version"], 0),
    (["--help"], 0),
    (["magic", "--help"], 0),
    (["magic", *SCAN, "--bogus"], 1),
    (["magic", *SCAN[:7], "700", *SCAN[8:]], 1),  # --from without its unit suffix
    (["ladder", "--g0", "1e6hz", "--n", "2", "--config", "missing.ini"], 1),
    (["trap", "--species", "sr87", "--lattice-lambda", "813.428nm", "--waist", "30um"], 1),
    (["clock-line", "--duration", "0.5s"], 1),
    (["cavity-spectrum", *CAVITY, "--nmax", "2", "--g2"], 1),
    (["magic", *SCAN, "--scan-out", "magic.json"], 1),
    (["trap", "--species", "sr87", "--lattice-lambda", "813.428nm", "--waist", "1e-150m",
      "--depth-erec", "50"], 1),  # (2 pi c / waist)^2 overflows
    (["ladder", "--g0", "1e308hz", "--n", "2"], 1),  # 2 pi g0 overflows
    (["cavity-spectrum", "--g0", "2e307hz", "--kappa", "2e6hz", "--gamma", "2e6hz"],
     1),  # the default +-2 g0 window overflows in rad/s
]


@pytest.mark.parametrize("argv, code", ARGV_ONLY, ids=[
    "version", "help", "magic-help", "unknown-flag", "no-unit", "missing-config",
    "trap-depth-source", "clock-line-rabi-or-pi", "cavity-g2-nmax", "magic-scan-out",
    "trap-waist-range", "ladder-g0-range", "cavity-window-range"])
def test_argv_only_paths_do_not_load_numpy(argv, code, tmp_path):
    result = run_modules(argv, tmp_path)
    assert (result["code"], result["numpy"], result["modules"]) == (code, False, [])
    assert not (result["dataclasses"] or result["inspect"])


def test_configparser_loads_only_with_config(tmp_path):
    (tmp_path / "run.ini").write_text("[cavity]\nkappa = 2e6hz\ngamma = 2e6hz\n")
    result = run_modules(["ladder", "--g0", "1e6hz", "--n", "2", "--config", "run.ini"],
                         tmp_path)
    assert result == {"code": 0, "configparser": True, "numpy": False, "dataclasses": False,
                      "inspect": False, "modules": ["cavityqed", "constants"]}


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


# The process entry, ``main``: streams flushed, then ``os._exit`` without
# interpreter teardown. A pipe is block-buffered only without
# PYTHONUNBUFFERED, so each check sets or clears it.
LADDER = ["ladder", "--g0", "1e6hz", "--n", "2", "--out", "l2.csv"]
EPIPE_LINE = f"magictrap: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n"


def run_main(argv, cwd, unbuffered, **kwargs):
    env = {key: value for key, value in ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "magictrap", *argv], cwd=cwd, env=env,
                          stderr=subprocess.PIPE, text=True, **kwargs)


@pytest.mark.parametrize("argv", [["--version"], LADDER], ids=lambda argv: argv[0])
def test_closed_stdout_exits_0(argv, tmp_path):
    # the shell closes fd 1, so the process starts with sys.stdout None
    proc = subprocess.run(["sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m",
                           "magictrap", *argv], cwd=tmp_path, env=ENV,
                          stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert argv == ["--version"] or (tmp_path / "l2.csv").is_file()


@pytest.mark.parametrize("argv, unbuffered, code, stderr", [
    (["--version"], True, 0, ""),  # argparse ignores a failed write
    (["zeeman", "--dg", "108.4hz", "--field", "1e-4t"], True, 1, EPIPE_LINE),
    (LADDER, True, 1, EPIPE_LINE),
    # block-buffered, the summary fails only at the final flush
    (["--version"], False, 1, EPIPE_LINE),
    (["zeeman", "--dg", "108.4hz", "--field", "1e-4t"], False, 1, EPIPE_LINE),
    (LADDER, False, 1, EPIPE_LINE),
], ids=["version", "zeeman", "ladder", "version-buffered", "zeeman-buffered",
        "ladder-buffered"])
def test_gone_reader_exits_with_one_line(argv, unbuffered, code, stderr, tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_main(argv, tmp_path, unbuffered, stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, stderr)


@pytest.mark.parametrize("argv", [
    LADDER,
    ["zeeman", "--dg", "108.4hz", "--field", "1e-4t", "--out", "z.csv"],
    ["magic", *SCAN, "--out", "magic.json"],
    ["clock-line", "--duration", "0.5s", "--pi", "--out", "clock.csv"],
], ids=lambda argv: argv[0])
def test_block_buffered_pipe_gets_every_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert magictrap.cli.run(argv) == 0
    lines = capsys.readouterr().out
    assert lines.endswith(f"wrote {argv[-1]}\n")
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    proc = run_main(argv, fresh, unbuffered=False, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, lines, "")
    assert (fresh / argv[-1]).read_bytes() == (tmp_path / argv[-1]).read_bytes()


MAIN_SCRIPT = """
import atexit, os, sys
import magictrap.cli
atexit.register(os.write, 2, b"teardown\\n")
sys.argv = ["magictrap", *sys.argv[1:]]
magictrap.cli.main()
"""


def test_main_skips_teardown(tmp_path):
    proc = subprocess.run([sys.executable, "-c", MAIN_SCRIPT, *LADDER], cwd=tmp_path,
                          env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.endswith("wrote l2.csv\n")
