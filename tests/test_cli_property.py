"""Property test over ``cli.run``: any argv built from small valid values
and edge tokens ends in exit 0, 1 or 2, without a traceback, and every file
it leaves parses as CSV or JSON holding only finite numbers."""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

from magictrap.cli import run

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SUFFIX = {"length": "nm", "frequency": "hz", "time": "s", "bfield": "mt", "power": "w",
          "intensity": "kw_cm2", "accel": "mps2"}
WRONG_SUFFIX = {"length": "hz", "frequency": "nm", "time": "hz", "bfield": "s",
                "power": "nm", "intensity": "w", "accel": "t"}


def edge_tokens(kind: str, cap: int | None) -> list[str]:
    """0, -1, nan, inf, an overflow, 2.7, a missing and a wrong suffix, junk,
    a value above the cap."""
    if kind in SUFFIX:
        unit = SUFFIX[kind]
        return [f"0{unit}", f"-1{unit}", f"nan{unit}", f"inf{unit}", f"1e400{unit}",
                f"2.7{unit}", "2.7", f"2.7{WRONG_SUFFIX[kind]}"]
    tokens = ["0", "-1", "nan", "inf", "1e400", "2.7", "two"]
    return tokens + [str(cap + 1)] if cap is not None else tokens


def flag(kind, valid, cap=None, optional=True):
    return kind, valid, cap, optional


def need(kind, valid, cap=None):
    return flag(kind, valid, cap, optional=False)


SCAN = {"--species": need("str", ["sr87", "sr88"]),
        "--state1": need("str", ["1S0"]),
        "--state2": need("str", ["3P0", "3P1"]),
        "--from": need("length", ["700nm", "300nm"]),
        "--to": need("length", ["900nm", "3um"]),
        "--points": flag("int", ["2", "25", "50"], 1_000_000),
        "--jobs": flag("int", ["1", "2"], 64)}
CAVITY = {"--g0": need("frequency", ["20e6hz", "1e6hz"]),
          "--kappa": need("frequency", ["2e6hz"]),
          "--gamma": need("frequency", ["2e6hz", "5e5hz"]),
          "--drive": flag("frequency", ["2e5hz", "1e3hz"])}
COMMANDS = {
    "polarizability": SCAN,
    "magic": SCAN,
    "trap": {"--species": need("str", ["sr87", "cs133"]),
             "--state": flag("str", ["1S0", "3P0"]),
             "--lattice-lambda": need("length", ["813.428nm", "2um"]),
             "--waist": need("length", ["30um"]),
             "--power": flag("power", ["0.5w"]),
             "--intensity": flag("intensity", ["10kw_cm2"]),
             "--depth-erec": flag("float", ["50"]),
             "--probe": flag("length", ["698nm"]),
             "--gravity": flag("accel", ["9.80665mps2"])},
    "clock-line": {"--duration": need("time", ["0.5s", "20ms"]),
                   "--rabi": flag("frequency", ["1hz", "2hz"]),
                   "--span": flag("frequency", ["10hz", "200hz"]),
                   "--points": flag("int", ["3", "50", "2000", "2001"], 1_000_000),
                   "--saturation": flag("float", ["1", "3"]),
                   "--observed-width": flag("frequency", ["1.8hz"])},
    "zeeman": {"--spin": flag("half", ["9/2", "0", "1/2"], 10),
               "--dg": need("frequency", ["108.4hz", "-5hz"]),
               "--field": need("bfield", ["0.3mt", "-1mt"])},
    "sidebands": {"--eta": need("float", ["0.31", "0.9"]),
                  "--nu-z": need("frequency", ["49khz"]),
                  "--nbar": need("float", ["1", "0.2"]),
                  "--width": need("frequency", ["3khz"]),
                  "--span": flag("frequency", ["80khz"]),
                  "--points": flag("int", ["5", "50", "2000", "2001"], 1_000_000)},
    "cavity-spectrum": {**CAVITY,
                        "--delta-b": flag("frequency", ["3e6hz"]),
                        "--delta-e": flag("frequency", ["-3e6hz"]),
                        "--nmax": flag("int", ["3", "6"], 40),
                        "--from": flag("frequency", ["-40e6hz"]),
                        "--to": flag("frequency", ["40e6hz"]),
                        "--points": flag("int", ["3", "12"], 1_000_000),
                        "--jobs": flag("int", ["1", "2"], 64)},
    "blockade": {**CAVITY, "--nmax": flag("int", ["3", "6"], 40)},
    "ladder": {"--g0": need("frequency", ["1e6hz"]),
               "--n": need("int", ["1", "3"]),
               "--delta-b": flag("frequency", ["1e5hz"]),
               "--delta-e": flag("frequency", ["-1e5hz"])},
}
SWITCHES = {"magic": ["--calibrated"], "polarizability": ["--calibrated"],
            "trap": ["--gaussian"], "clock-line": ["--pi"], "cavity-spectrum": ["--g2"]}


@st.composite
def argvs(draw):
    """Valid values, with zero to two flags swapped for an edge token."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = COMMANDS[command]
    edged = draw(st.permutations(sorted(flags)))[:draw(st.sampled_from([0, 0, 1, 1, 2]))]
    argv = [command]
    for name, (kind, valid, cap, optional) in flags.items():
        # --flag=value, since argparse reads a separate '-1hz' as a flag
        if name in edged:
            argv.append(f"{name}={draw(st.sampled_from(edge_tokens(kind, cap)))}")
        elif not optional or draw(st.booleans()):
            argv.append(f"{name}={draw(st.sampled_from(valid))}")
    argv += [s for s in SWITCHES.get(command, []) if draw(st.booleans())]
    return argv + ["--format", draw(st.sampled_from(["csv", "json"]))]


def _finite(token):
    value = float(token)
    assert math.isfinite(value), f"non-finite number {token}"
    return value


def _reject(token):
    raise AssertionError(f"non-finite JSON token {token}")


def check_output(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        json.loads(text, parse_float=_finite, parse_constant=_reject)
        return
    assert path.suffix == ".csv", f"unexpected file {path.name}"
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    width = len(lines[0].split(","))
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == width
        for cell in cells:
            try:
                value = float(cell)
            except ValueError:
                continue
            assert math.isfinite(value), f"{path.name}: non-finite cell {cell}"


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
def test_every_argv_ends_in_a_documented_exit(argv):
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        finally:
            os.chdir(home)
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in out.getvalue() + err.getvalue()
        if code:
            assert len(err.getvalue().strip().splitlines()) >= 1
        for path in Path(work).iterdir():
            assert not path.name.endswith(".tmp"), f"temp file left: {path.name}"
            check_output(path)
