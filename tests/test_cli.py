import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magictrap.cli as cli
import magictrap.clockspec as clockspec
from magictrap.angular import CircularPolarization
from magictrap.atomdata import load_species
from magictrap.cli import emit, parse_quantity, resolve_species, run
from magictrap.errors import NumericalError, ValidationError
from magictrap.polarizability import find_magic

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args):
    """Run through the installed console entry (subprocess isolation)."""
    return subprocess.run([sys.executable, "-m", "magictrap.cli", *args],
                          capture_output=True, text=True)


class TestQuantities:
    def test_suffix_parsing(self):
        assert parse_quantity("813.428nm", "length") == pytest.approx(813.428e-9)
        assert parse_quantity("34e6hz", "frequency") == 34e6
        assert parse_quantity("49khz", "frequency") == 49e3
        assert parse_quantity("0.5s", "time") == 0.5
        assert parse_quantity("10kw_cm2", "intensity") == 1e8
        assert parse_quantity("1e-4t", "bfield") == 1e-4
        assert parse_quantity("9.80665mps2", "accel") == 9.80665

    def test_suffix_mandatory(self):
        with pytest.raises(ValidationError, match="unit suffix"):
            parse_quantity("813.428", "length")
        with pytest.raises(ValidationError, match="unit suffix"):
            parse_quantity("5kg", "length")


def _ulps_around(x: float, count: int) -> list[float]:
    """x and the count doubles on each side of it."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def _exact_ties() -> list[float]:
    """Doubles whose 18th significant digit is an exact 5 (x 10^j is an odd
    multiple of 1/2, j = 16 - X), a few per decade where any exist."""
    ties = []
    for x in range(-11, 15):
        j = 16 - x
        low = -(-2 * 10**16 // 5**j) | 1  # odd t with t 5^j / 2 of 17 digits
        for t in range(low, min(low + 40, 2 * 10**17 // 5**j, 2**53), 2):
            ties += [math.ldexp(t, -j - 1), -math.ldexp(t, -j - 1)]
    return ties


def _random_bits(rng, count: int, exponents: tuple[int, int] = (0, 2047)) -> np.ndarray:
    """Doubles from random bit patterns whose biased exponent field lies in
    [exponents[0], exponents[1]); 2047 (inf and nan) is never drawn."""
    sign_and_mantissa = rng.integers(0, 2**64, count, dtype=np.uint64, endpoint=False)
    sign_and_mantissa &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    exponent = rng.integers(*exponents, count).astype(np.uint64) << np.uint64(52)
    return (sign_and_mantissa | exponent).view(np.float64)


# doubles aimed at floattext's exact-digit kernel (1e-11 < |x| < 1e15), at
# its edges and at the numbers it leaves to '%', by family
KERNEL_DOUBLES = {
    "powers-of-ten": lambda: np.array(
        [v for k in range(-12, 17) for x in (10.0**k, -10.0**k) for v in _ulps_around(x, 6)]),
    "random-bits": lambda: np.concatenate((
        _random_bits(np.random.default_rng(151), 2000),
        _random_bits(np.random.default_rng(152), 4000, (986, 1073)))),  # 2^-37 ... 2^50
    "decades": lambda: np.concatenate([
        sign * np.random.default_rng(153 + d).uniform(1.0, 10.0, 100) * 10.0**d
        for d in range(-11, 15) for sign in (1, -1)]),
    "ties": lambda: np.array(_exact_ties() + [
        float(f"{sign}{digits}5e{x - 17}") for x in range(-11, 15) for sign in "+-"
        for digits in np.random.default_rng(154 + x).integers(10**16, 10**17, 20).tolist()]),
    "range-edges": lambda: np.array([
        v for x in (1e-11, 1e15, 1e-4, 1e-5, 1e16, 1e17, 2.2250738585072014e-308, 5e-324)
        for s in (1, -1) for v in _ulps_around(s * x, 4)]
        + [0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]),
    "outside-only": lambda: np.concatenate([  # a table the kernel takes no number of
        sign * np.random.default_rng(155 + i).uniform(1.0, 10.0, 50) * 10.0**d
        for i, d in enumerate((-320, -300, -100, -20, -12, 15, 16, 20, 100, 300))
        for sign in (1, -1)]
        + [np.array([0.0, -0.0])]),
}


class TestEmit:
    def test_csv_header_and_digits(self, tmp_path):
        out = tmp_path / "t.csv"
        emit(["a", "b"], [[math.pi, "x"], [1e-7, "y"]], "csv", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "# magictrap v0.1.0"
        assert lines[1] == "a,b"
        assert lines[2].startswith("3.1415926535897931,")
        assert (tmp_path / "t.csv.meta.json").exists()

    def test_empty_trace_is_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        emit(["x", "y"], [], "csv", out)
        assert out.read_text() == "# magictrap v0.1.0\nx,y\n"

    def test_json_round_trip_preserves_all_digits(self, tmp_path):
        rows = [[math.pi, 1 / 3, 2.0**0.5],
                [6.62607015e-34, -1.2345678901234567e8, 0.1],
                [1e300, 5e-324, 123456789.987654321]]
        out = tmp_path / "t.json"
        emit(["a", "b", "c"], rows, "json", out)
        loaded = json.loads(out.read_text())
        assert loaded["columns"] == ["a", "b", "c"]
        for got, want in zip(loaded["rows"], rows):
            assert got == want  # bit-exact after the 17-digit round trip

    def test_csv_round_trip_preserves_all_digits(self, tmp_path):
        rows = [[math.pi, 1 / 3], [5e-324, 1e300]]
        out = tmp_path / "t.csv"
        emit(["a", "b"], rows, "csv", out)
        body = out.read_text().splitlines()[2:]
        parsed = [[float(c) for c in line.split(",")] for line in body]
        assert parsed == rows

    def test_byte_identical_rewrites(self, tmp_path):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit(["x", "y"], rows, "json", a, meta={"k": 1})
        emit(["x", "y"], rows, "json", b, meta={"k": 1})
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_float_array_writes_the_bytes_of_the_per_cell_path(self, tmp_path, fmt):
        edges = [-0.0, 5e-324, 1e300, 1e16, 1e17, 1 / 3, -1.7976931348623157e308, 0.1]
        count = 3 * (cli._BLOCK_ROWS + 1)  # one block and one row
        rng = np.random.default_rng(5)
        wide = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 300, count)
        table = np.concatenate((edges, wide))[:count].reshape(-1, 3)
        assert len(table) == cli._BLOCK_ROWS + 1
        emit(["x", "y", "z"], table, fmt, tmp_path / f"array.{fmt}", meta={"k": 1})
        emit(["x", "y", "z"], table.tolist(), fmt, tmp_path / f"cells.{fmt}", meta={"k": 1})
        assert (tmp_path / f"array.{fmt}").read_bytes() == (tmp_path / f"cells.{fmt}").read_bytes()

    @pytest.mark.parametrize("columns", [2, 4])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("family", sorted(KERNEL_DOUBLES))
    def test_kernel_writes_the_bytes_of_the_per_cell_path(self, tmp_path, family, fmt, columns):
        values = KERNEL_DOUBLES[family]()
        table = values[:len(values) // columns * columns].reshape(-1, columns)
        names = [f"c{j}" for j in range(columns)]
        emit(names, table, fmt, tmp_path / f"array.{fmt}")
        emit(names, table.tolist(), fmt, tmp_path / f"cells.{fmt}")
        assert (tmp_path / f"array.{fmt}").read_bytes() == (tmp_path / f"cells.{fmt}").read_bytes()

    def test_empty_float_array(self, tmp_path):
        emit(["x", "y"], np.empty((0, 2)), "csv", tmp_path / "e.csv")
        assert (tmp_path / "e.csv").read_text() == "# magictrap v0.1.0\nx,y\n"
        emit(["x", "y"], np.empty((0, 2)), "json", tmp_path / "e.json")
        assert (tmp_path / "e.json").read_text().endswith('"columns":["x","y"],"rows":[]}\n')

    @pytest.mark.parametrize("fmt, body", [
        ("csv", "# magictrap v0.1.0\na,b,c,d\n9007199254740993,1,1152921504606846977,"
                "0.10000000000000001\n"),
        ("json", '{"meta":{"tool":"magictrap","version":"0.1.0"},"columns":["a","b","c","d"],'
                 '"rows":[[9007199254740993,true,1152921504606846977,0.10000000000000001]]}\n'),
    ])
    def test_integer_cells_keep_their_digits(self, tmp_path, fmt, body):
        # integers above 2**53 would lose their last digit through float
        emit(["a", "b", "c", "d"], [[np.int64(2**53 + 1), True, 2**60 + 1, 0.1]], fmt,
             tmp_path / f"t.{fmt}")
        assert (tmp_path / f"t.{fmt}").read_bytes() == body.encode()


class TestExitCodes:
    def test_unknown_flag_prints_usage_and_exits_1(self):
        proc = run_cli("magic", "--nonsense")
        assert proc.returncode == 1
        assert "usage" in proc.stderr.lower()

    def test_unknown_command_exits_1(self):
        assert run_cli("frobnicate").returncode == 1

    def test_validation_error_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(["magic", "--species", "no-such-species", "--state1", "1S0",
                    "--state2", "3P0", "--from", "700nm", "--to", "900nm"])
        assert code == 1

    def test_missing_unit_suffix_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run(["magic", "--species", "sr87", "--state1", "1S0",
                    "--state2", "3P0", "--from", "700", "--to", "900nm"])
        assert code == 1

    def test_numerical_failure_exits_2(self, monkeypatch):
        def boom(args, argv):
            raise NumericalError("synthetic failure")
        monkeypatch.setitem(cli._RUNNERS, "ladder", boom)
        assert run(["ladder", "--g0", "1e6hz", "--n", "2"]) == 2

    @pytest.mark.parametrize("command", [
        ["cavity-spectrum", "--points", "5", "--g2"], ["blockade"]], ids=lambda c: c[0])
    def test_singular_cavity_solve_exits_2_and_writes_nothing(self, command, tmp_path,
                                                              monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.chdir(tmp_path)
        assert run([*command, "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz",
                    "--nmax", "4", "--out", "out.csv"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_success_exits_0(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["ladder", "--g0", "1e6hz", "--n", "2"]) == 0


class TestHelp:
    def test_top_level_help(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("polarizability", "magic", "trap", "clock-line", "zeeman",
                    "sidebands", "aggregate", "cavity-spectrum", "blockade",
                    "ladder"):
            assert sub in proc.stdout

    @pytest.mark.parametrize("sub,unit_words", [
        ("polarizability", ["length", "700nm"]),
        ("magic", ["length", "700nm"]),
        ("trap", ["length", "power", "accel"]),
        ("clock-line", ["time", "frequency"]),
        ("zeeman", ["tesla", "bfield"]),
        ("sidebands", ["frequency"]),
        ("cavity-spectrum", ["frequency", "34e6hz"]),
        ("blockade", ["frequency"]),
        ("ladder", ["frequency"]),
    ])
    def test_subcommand_help_lists_units(self, sub, unit_words):
        proc = run_cli(sub, "--help")
        assert proc.returncode == 0
        for word in unit_words:
            assert word in proc.stdout


class TestSubcommands:
    def test_magic_near_813(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["magic", "--species", "sr87", "--state1", "1S0",
                    "--state2", "3P0", "--from", "700nm", "--to", "900nm",
                    "--calibrated"]) == 0
        data = json.loads((tmp_path / "magic.json").read_text())
        assert len(data["points"]) == 1
        assert abs(data["points"][0]["lambda_nm"] - 813.428) < 0.5

    def test_ladder_sqrt2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["ladder", "--g0", "1e6hz", "--n", "2", "--format", "json"]) == 0
        data = json.loads((tmp_path / "ladder.json").read_text())
        values = {row[0]: row[1] for row in data["rows"]}
        assert values["upper"] == pytest.approx(math.sqrt(2) * 1e6, rel=1e-12)
        assert values["lower"] == pytest.approx(-math.sqrt(2) * 1e6, rel=1e-12)

    def test_aggregate_prints_nu0_literal(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        from magictrap.atomdata import data_dir
        code = run(["aggregate", str(data_dir() / "sr87_measurements.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "429228004229800" in out

    def test_trap_summary(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(["trap", "--species", "sr87", "--state", "1S0",
                    "--lattice-lambda", "813.428nm", "--waist", "30um",
                    "--depth-erec", "50", "--probe", "698nm",
                    "--gravity", "9.80665mps2"])
        assert code == 0
        assert "49.07 kHz" in capsys.readouterr().out

    def test_clock_line_fwhm(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["clock-line", "--duration", "0.5s", "--pi"]) == 0
        assert "1.597" in capsys.readouterr().out

    def test_zeeman_ten_lines(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["zeeman", "--spin", "9/2", "--dg", "108.4hz",
                    "--field", "1e-4t", "--format", "json"]) == 0
        data = json.loads((tmp_path / "zeeman.json").read_text())
        assert len(data["rows"]) == 10

    def test_sidebands_and_blockade(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["sidebands", "--eta", "0.31", "--nu-z", "49khz",
                    "--nbar", "1", "--width", "3khz", "--points", "101"]) == 0
        assert run(["blockade", "--g0", "20e6hz", "--kappa", "2e6hz",
                    "--gamma", "2e6hz", "--format", "json"]) == 0
        data = json.loads((tmp_path / "blockade.json").read_text())
        g2 = {row[0]: row[2] for row in data["rows"]}
        assert g2["lower_polariton"] < 1.0
        assert g2["two_photon_resonance"] > 1.0

    def test_cavity_spectrum_blank_g2_column(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["cavity-spectrum", "--g0", "20e6hz", "--kappa", "2e6hz",
                    "--gamma", "2e6hz", "--points", "21"]) == 0
        lines = (tmp_path / "cavity_spectrum.csv").read_text().splitlines()
        assert lines[1] == "omega_p_over_2pi_hz,transmission,mean_n,g2"
        assert lines[2].endswith(",")  # g2 blank unless requested

    def test_config_file_fills_flags(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(
            "[cavity]\nkappa = 2e6hz\ngamma = 2e6hz\nnmax = 4\n")
        assert run(["cavity-spectrum", "--g0", "20e6hz", "--points", "11",
                    "--config", "run.ini"]) == 0
        meta = json.loads((tmp_path / "cavity_spectrum.csv.meta.json").read_text())
        assert meta["nmax"] == 4
        assert meta["kappa_rad_s"] == pytest.approx(2 * math.pi * 2e6)

    def test_config_hz_suffix_aliases(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.ini").write_text(
            "[cavity]\ng0_hz = 20e6hz\nkappa_hz = 2e6hz\ngamma_hz = 2e6hz\n"
            "delta_b_hz = 0hz\ndelta_e_hz = 0hz\nnmax = 3\n")
        assert run(["cavity-spectrum", "--points", "5", "--config", "run.ini"]) == 0
        meta = json.loads((tmp_path / "cavity_spectrum.csv.meta.json").read_text())
        assert meta["nmax"] == 3
        assert meta["g0_rad_s"] == pytest.approx(2 * math.pi * 20e6)

    def test_trap_from_power_and_antitrapping_note(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = run(["trap", "--species", "sr87", "--state", "1S0",
                    "--lattice-lambda", "813.428nm", "--waist", "30um",
                    "--power", "0.5w", "--probe", "698nm"])
        assert code == 0
        assert "anti-trapped" not in capsys.readouterr().out
        # 3P0 at 2 um sits in its negative-polarizability window
        code = run(["trap", "--species", "sr87", "--state", "3P0",
                    "--lattice-lambda", "2um", "--waist", "30um",
                    "--power", "0.5w"])
        assert code == 0
        assert "anti-trapped" in capsys.readouterr().out
        # the note follows the sign of alpha whatever sets the depth
        code = run(["trap", "--species", "sr87", "--state", "3P0",
                    "--lattice-lambda", "2um", "--waist", "30um",
                    "--depth-erec", "50"])
        assert code == 0
        assert "anti-trapped" in capsys.readouterr().out

    def test_species_resolution(self):
        assert resolve_species("sr87").name == "sr87.lines"
        assert resolve_species("sr87.lines").name == "sr87.lines"
        with pytest.raises(ValidationError):
            resolve_species("xx99")


class TestDeterminism:
    def test_identical_runs_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        args = ["magic", "--species", "sr87", "--state1", "1S0", "--state2",
                "3P0", "--from", "700nm", "--to", "900nm"]
        assert run(args + ["--out", "a.json"]) == 0
        assert run(args + ["--out", "b.json"]) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_jobs_do_not_change_bytes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "2e6hz",
                "--gamma", "2e6hz", "--points", "40"]
        assert run(base + ["--jobs", "1", "--out", "one.csv"]) == 0
        assert run(base + ["--jobs", "4", "--out", "four.csv"]) == 0
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "four.csv").read_bytes()

    def test_golden_magic_scan(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["magic", "--species", "sr87", "--state1", "1S0",
                    "--state2", "3P0", "--from", "700nm", "--to", "900nm",
                    "--calibrated", "--out", "magic.json"]) == 0
        assert (tmp_path / "magic.json").read_bytes() == \
            (GOLDEN / "magic_sr87_700_900.json").read_bytes()

    def test_golden_polarizability_scan(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["polarizability", "--species", "sr87", "--state1", "1S0",
                    "--state2", "3P0", "--from", "700nm", "--to", "900nm",
                    "--points", "25", "--out", "scan.csv"]) == 0
        assert (tmp_path / "scan.csv").read_bytes() == \
            (GOLDEN / "polarizability_sr87_700_900.csv").read_bytes()

    @pytest.mark.parametrize("state2, m2", [("3P1", 1), ("3P1", -1), ("3P2", 2)])
    def test_golden_sublevel_magic(self, state2, m2, tmp_path):
        # sigma+ light, 1S0 m = 0 against one sublevel; 3P2 covers the J = 2 tensor term
        name = f"magic_sr87_{state2}_sigma+_m{m2:+d}.json"
        species = load_species(resolve_species("sr87"))
        found = find_magic(species, "1S0", state2, (300e-9, 3000e-9),
                           pol=CircularPolarization(+1), m1=0, m2=m2)
        cli.emit_magic_points(found, tmp_path / name,
                              meta={"species": species.name, "state1": "1S0", "state2": state2,
                                    "pol": "circular+1", "m1": 0, "m2": m2})
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_trap_depth_sources_mutually_exclusive(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = run(["trap", "--species", "sr87", "--state", "1S0",
                "--lattice-lambda", "813.428nm", "--waist", "30um",
                "--depth-erec", "50", "--power", "0.5w"])
    assert code == 1
    code = run(["trap", "--species", "sr87", "--state", "1S0",
                "--lattice-lambda", "813.428nm", "--waist", "30um"])
    assert code == 1


def test_magic_scan_out_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["magic", "--species", "sr87", "--state1", "1S0",
                "--state2", "3P0", "--from", "700nm", "--to", "900nm",
                "--points", "40", "--scan-out", "scan.csv"]) == 0
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[1] == "lambda_nm,alpha_au_state1,alpha_au_state2,delta_alpha_au"
    assert (tmp_path / "magic.json").exists()


def test_package_main_entry():
    proc = subprocess.run([sys.executable, "-m", "magictrap", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "magic" in proc.stdout


def test_verbose_echoes_invocation(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(["ladder", "--g0", "1e6hz", "--n", "1", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "# magictrap" in out and "data dir" in out


SCAN_ARGS = ["--species", "sr87", "--state1", "1S0", "--state2", "3P0",
             "--from", "700nm", "--to", "900nm"]
CAVITY_ARGS = ["--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz", "--points", "5"]


@pytest.mark.parametrize("argv", [
    # non-finite or zero physics values
    ["clock-line", "--duration", "0.5s", "--pi", "--saturation", "0"],
    ["clock-line", "--duration", "0.5s", "--pi", "--saturation", "nan"],
    ["sidebands", "--eta", "0.31", "--nu-z", "49khz", "--width", "3khz", "--format", "json",
     "--nbar", "nan"],
    ["zeeman", "--dg", "108.4hz", "--field", "nanmt"],
    ["trap", "--species", "sr87", "--lattice-lambda", "813.428nm", "--waist", "30um",
     "--depth-erec", "nan"],
    ["cavity-spectrum", *CAVITY_ARGS, "--drive", "0hz"],
    # integer flags and their size caps
    ["polarizability", *SCAN_ARGS, "--points", "2.7"],
    ["polarizability", *SCAN_ARGS, "--points", "0"],
    ["ladder", "--g0", "1e6hz", "--n", "2.7"],
    ["zeeman", "--dg", "108.4hz", "--field", "0.3mt", "--spin", "11"],
    ["cavity-spectrum", *CAVITY_ARGS, "--nmax", "41"],
    ["blockade", *CAVITY_ARGS[:-2], "--nmax", "2"],  # g2(0) needs 3 Fock levels
    ["cavity-spectrum", *CAVITY_ARGS, "--g2", "--nmax", "2"],
    # magic's two outputs and their sidecars need four different paths
    ["magic", *SCAN_ARGS, "--points", "40", "--out", "m.json", "--scan-out", "m.json"],
    ["magic", *SCAN_ARGS, "--points", "40", "--out", "m.json", "--scan-out", "m.json.meta.json"],
    ["magic", *SCAN_ARGS, "--points", "40", "--out", "s.csv.meta.json", "--scan-out", "s.csv"],
    ["magic", *SCAN_ARGS, "--points", "40", "--scan-out", "magic.json"],  # the default --out
    ["magic", *SCAN_ARGS, "--points", "40", "--out", "sub/../m.json", "--scan-out", "./m.json"],
    # an empty path is refused, not taken as the default or as no table
    ["ladder", "--g0", "1e6hz", "--n", "2", "--out", ""],
    ["magic", *SCAN_ARGS, "--points", "40", "--scan-out", ""],
    ["cavity-spectrum", *CAVITY_ARGS, "--jobs", "65"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_bad_values_exit_1_before_any_write(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"magictrap: {argv[-2]}")  # names the offending flag
    assert list(tmp_path.iterdir()) == []


LEDGER = "site,value_hz_minus_nu0,stat_hz,sys_hz\na,0.2,0.1,0.1\nb,0.4,0.1,0.1\n"
CONFIG = "[cavity]\nkappa = 2e6hz\ngamma = 2e6hz\n"
BLOCKADE = ["blockade", "--g0", "20e6hz", "--nmax", "4"]
TRAP = ["trap", "--lattice-lambda", "813.428nm", "--waist", "30um", "--depth-erec", "50"]


@pytest.mark.parametrize("name, text, argv, flag", [
    ("ledger.csv", LEDGER, ["aggregate", "ledger.csv", "--out", "ledger.csv"], "ledger"),
    ("aggregate.csv", LEDGER, ["aggregate", "aggregate.csv"], "ledger"),  # the default --out
    ("run.ini", CONFIG, [*BLOCKADE, "--config", "run.ini", "--out", "run.ini"], "--config"),
    ("run.ini.meta.json", CONFIG, [*BLOCKADE, "--config", "run.ini.meta.json", "--out",
                                   "sub/../run.ini"], "--config"),  # the output's sidecar
    ("sr87.lines", None, [*TRAP, "--species", "./sr87.lines", "--out", "sr87.lines"],
     "--species"),
], ids=["ledger", "ledger-default-out", "config", "config-sidecar", "species"])
def test_output_onto_an_input_exits_1_and_keeps_it(name, text, argv, flag, tmp_path,
                                                   monkeypatch, capsys):
    data = text.encode() if text is not None else resolve_species("sr87").read_bytes()
    (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("magictrap: --out ")
    assert f"overlaps the input {flag} " in err
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert (tmp_path / name).read_bytes() == data


def test_output_onto_a_bundled_species_exits_1_and_keeps_it(tmp_path, monkeypatch, capsys):
    # a --species name is an input too: the catalog resolve_species finds for it
    data = resolve_species("sr87").read_bytes()
    catalog = tmp_path / "sr87.lines"
    catalog.write_bytes(data)
    monkeypatch.setenv("MAGICTRAP_DATA", str(tmp_path))
    assert run([*TRAP, "--species", "sr87", "--out", str(catalog)]) == 1
    assert capsys.readouterr().err == (
        f"magictrap: --out {catalog} overlaps the input --species sr87: no output or "
        ".meta.json sidecar may replace an input or another output\n")
    assert [p.name for p in tmp_path.iterdir()] == ["sr87.lines"]
    assert catalog.read_bytes() == data


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
@pytest.mark.parametrize("make, name, what", [
    (os.mkfifo, "fifo", "{out} exists and is not a regular file"),
    (os.mkdir, "dir", "{out} exists and is not a regular file"),
    (lambda p: os.mkdir(f"{p}.meta.json"), "t.json", "{out}.meta.json exists and is not a "
                                                      "regular file"),
    (lambda p: None, "missing/t.json", "no directory {dir}"),
], ids=["fifo", "directory", "sidecar-directory", "missing-directory"])
def test_out_onto_a_path_that_is_not_a_regular_file_exits_1(make, name, what, tmp_path,
                                                             monkeypatch, capsys):
    out = tmp_path / name
    make(out)
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.chdir(tmp_path)
    assert run(["polarizability", *SCAN_ARGS, "--points", "5", "--format", "json",
                "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"magictrap: cannot write {out}: {what.format(out=out, dir=out.parent)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    if name == "fifo":
        assert out.is_fifo()


def test_size_caps_bound_the_work():
    """Caps reject huge requests in the flag table, before any work starts
    (the parent code built 2e9 Zeeman rows for --spin 1e9)."""
    flags = {(name, f.name): f for name, c in cli.COMMANDS.items() for f in c.flags}
    for key, over in [(("zeeman", "--spin"), "1e9"), (("polarizability", "--jobs"), "1e6"),
                      (("cavity-spectrum", "--nmax"), "1e3"),
                      (("cavity-spectrum", "--points"), "1e7"),
                      (("polarizability", "--points"), "1000001")]:
        with pytest.raises(ValidationError, match="<="):
            flags[key].convert(over)
    # every value used by the tests, the README and the benchmark stays allowed
    assert flags[("polarizability", "--points")].convert("200000") == 200000
    assert flags[("cavity-spectrum", "--nmax")].convert("20") == 20
    assert flags[("zeeman", "--spin")].convert("9/2") == 4.5
    assert flags[("cavity-spectrum", "--jobs")].convert("4") == 4


def test_clock_line_carrier_node_reports_undefined_fwhm(tmp_path, monkeypatch, capsys):
    # Omega T = 2 pi: the carrier sits on a node and no FWHM exists
    monkeypatch.chdir(tmp_path)
    assert run(["clock-line", "--duration", "0.5s", "--rabi", "2hz"]) == 0
    out = capsys.readouterr().out
    assert "FWHM undefined" in out and "Q at Fourier width" not in out
    from magictrap.clockspec import rabi_lineshape
    trace = rabi_lineshape(2 * math.pi * 2.0, 0.5, np.linspace(-10.0, 10.0, 801))
    body = (tmp_path / "clock_line.csv").read_text().splitlines()[2:]
    assert [[float(c) for c in line.split(",")] for line in body] == \
        np.column_stack((trace.detuning_hz, trace.response)).tolist()


def run_fresh(argv, cwd, **env):
    """A fresh ``python -m magictrap`` process, so numpy's RuntimeWarnings
    would reach its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, "-m", "magictrap", *argv], cwd=cwd, env=env,
                          capture_output=True, text=True)


@pytest.mark.parametrize("flag, argv", [
    ("--rabi", ["clock-line", "--duration", "0.5s", "--rabi", "1e-300hz"]),  # Omega^2 underflows
    ("--duration", ["clock-line", "--duration", "1e-300s", "--pi"]),  # Omega^2 overflows
    ("--span", ["clock-line", "--duration", "0.5s", "--pi", "--span", "1e300hz"]),  # the grid's w^2
], ids=["omega-squared-underflows", "omega-squared-overflows", "span-squared-overflows"])
def test_rabi_without_a_finite_square_exits_1_quietly(flag, argv, tmp_path):
    proc = run_fresh(argv, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"magictrap: {flag}: ")
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["clock-line", "--duration", "1e-200s", "--rabi", "1e150hz"],  # w^2 of the FWHM walk
], ids=["fwhm-walk-overflows"])
def test_rabi_overflow_exits_2_quietly(argv, tmp_path):
    proc = run_fresh(argv, tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "numerical failure" in proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


SR87_CLOCK_STATES = ["--species", "sr87", "--state1", "1S0", "--state2", "3P0"]
SR87_TRAP = ["trap", "--species", "sr87", "--waist", "30um", "--depth-erec", "50"]


@pytest.mark.parametrize("flag, argv", [
    ("--from", ["polarizability", *SR87_CLOCK_STATES, "--from", "1e-295nm", "--to", "2e-295nm",
                "--points", "3"]),  # (2 pi c / lambda)^2 overflows
    ("--from", ["magic", *SR87_CLOCK_STATES, "--from", "1e-295nm", "--to", "2e-295nm",
                "--points", "3"]),
    ("--from", ["polarizability", *SR87_CLOCK_STATES, "--from", "1e300m", "--to", "2e300m",
                "--points", "3"]),  # lambda^2 overflows
    ("--from", ["magic", *SR87_CLOCK_STATES, "--from", "1e300m", "--to", "2e300m",
                "--points", "3"]),
    ("--lattice-lambda", [*SR87_TRAP, "--lattice-lambda", "1e-295nm"]),  # lambda^2 underflows
    ("--probe", [*SR87_TRAP, "--lattice-lambda", "813.428nm", "--probe", "1e-300m"]),
    ("--waist", [*SR87_TRAP, "--lattice-lambda", "813.428nm", "--waist", "1e-150m"]),
    ("--waist", ["trap", "--species", "sr87", "--lattice-lambda", "813.428nm", "--waist", "1e200m",
                 "--power", "1w"]),
], ids=["scan-short", "magic-short", "scan-long", "magic-long", "trap-lattice", "trap-probe",
        "trap-waist-short", "trap-waist-long"])
def test_overflowing_wavelength_exits_1_before_the_species_loads(flag, argv, tmp_path,
                                                                 monkeypatch):
    proc = run_fresh(argv, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"magictrap: {flag} ")
    assert len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr("magictrap.atomdata.load_species",
                        lambda *a, **k: pytest.fail("species loaded"))
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1


CAVITY_RATES = ["--kappa", "4.1e6hz", "--gamma", "2.6e6hz"]
SIDEBANDS = ["sidebands", "--eta", "0.3", "--nbar", "1", "--width", "1khz"]


@pytest.mark.parametrize("flag, argv", [
    ("--g0", ["blockade", "--g0", "1e308hz", *CAVITY_RATES]),  # 2 pi x g0 overflows
    ("--kappa", ["cavity-spectrum", "--g0", "34e6hz", "--kappa", "1e308hz", "--gamma", "2.6e6hz",
                 "--points", "5"]),
    ("--from/--to", ["cavity-spectrum", "--g0", "2e307hz", *CAVITY_RATES,
                     "--points", "5"]),  # the default +-2 g0 window in rad/s
    ("--from", ["cavity-spectrum", "--g0", "34e6hz", *CAVITY_RATES, "--points", "5",
                "--from=-1e308hz", "--to", "1e308hz"]),
    ("--span", ["clock-line", "--duration", "0.5s", "--pi", "--span", "1e308hz"]),
    ("--span", [*SIDEBANDS, "--nu-z", "50khz", "--span", "1e308hz"]),
    ("--nu-z", [*SIDEBANDS, "--nu-z", "1e308hz"]),  # the default span 1.6 nu_z
    ("--g0", ["ladder", "--g0", "1e308hz", "--n", "2"]),
    ("--delta-e", ["ladder", "--g0", "1e6hz", "--n", "2", "--delta-e", "1e308hz"]),
    ("--dg", ["zeeman", "--dg", "1e308hz", "--field", "1mt"]),
    # E_rec = h^2 / (2 m lambda^2) underflows to 0, found once the species loads
    ("--lattice-lambda", [*SR87_TRAP, "--lattice-lambda", "1e150m"]),
    # half the shift difference in rad/s, squared
    ("--delta-e/--delta-b", ["ladder", "--g0", "1e6hz", "--n", "2",
                             "--delta-b=2.861117485757028e+307hz"]),
    ("--g0/--n/--delta-e/--delta-b", ["ladder", "--g0", "1e200hz", "--n", "2"]),  # n g^2
], ids=["blockade-g0", "spectrum-kappa", "spectrum-default-window", "spectrum-window",
        "clock-line-span", "sidebands-span", "sidebands-nu-z", "ladder-g0", "ladder-delta-e",
        "zeeman-dg", "trap-recoil", "ladder-shift-pair", "ladder-coupling"])
def test_overflowing_frequency_exits_with_one_line(flag, argv, tmp_path):
    assert_one_line_refusal(flag, argv, tmp_path)


def test_ladder_shift_pair_near_the_top_has_finite_offsets(tmp_path, monkeypatch):
    """Two shifts whose sum overflows in rad/s: the mean is formed from their
    halves, so the offsets stay finite."""
    monkeypatch.chdir(tmp_path)
    assert run(["ladder", "--g0", "1e6hz", "--n", "2", "--delta-e", "2.8e307hz",
                "--delta-b", "2.8e307hz"]) == 0
    rows = (tmp_path / "ladder.csv").read_text().splitlines()[2:]
    assert rows == ["lower,2.8000000000000001e+307", "upper,2.8000000000000001e+307"]


@pytest.mark.parametrize("flag, argv", [
    ("--span/--points", ["clock-line", "--duration", "0.5s", "--pi", "--span", "1e-320hz",
                         "--points", "1000000"]),
    ("--span/--points", [*SIDEBANDS, "--nu-z", "50khz", "--span", "1e-320hz",
                         "--points", "100000"]),
    ("--nu-z/--points", [*SIDEBANDS, "--nu-z", "1e-320hz", "--points", "100000"]),
], ids=["clock-line-span", "sidebands-span", "sidebands-nu-z"])
def test_too_narrow_span_exits_with_one_line(flag, argv, tmp_path):
    # a subnormal half-span over many points repeats detunings
    assert_one_line_refusal(flag, argv, tmp_path)


@pytest.mark.parametrize("points", [1, 2, 801, 1001, 2000])
def test_floats_match_numpy_detuning_grid(points):
    """Up to 2000 points the grid is a list with the bits of np.linspace,
    over seeded spans from subnormal to the top of the frequency range; a
    span numpy spreads into repeated points is refused naming its flags."""
    rng = np.random.default_rng(points)
    spans = [10.0, 5e-324, 2.861117485757028e+307, *10.0 ** rng.uniform(-323.3, 307.4, 60)]
    for span in spans:
        ref = np.linspace(-span, span, points)
        if not np.all(np.diff(ref) > 0):
            with pytest.raises(ValidationError, match="^--span/--points: "):
                cli._detuning_grid(span, points, "--span/--points")
            continue
        grid = cli._detuning_grid(span, points, "--span/--points")
        assert type(grid) is list
        assert np.array(grid).tobytes() == ref.tobytes(), span
    with pytest.raises(ValidationError, match="^--span/--points: "):
        cli._detuning_grid(1e-321, 2000, "--span/--points")


@pytest.mark.parametrize("argv", [
    ["sidebands", "--eta", "0.3", "--nu-z", "49khz", "--nbar", "1e16", "--width", "3khz"],
    ["sidebands", "--eta", "0.99", "--nu-z", "1hz", "--nbar", "1e308", "--width", "1e9hz",
     "--points", "5"],  # the spectrum's Lorentzian sum overflows
    ["sidebands", "--eta", "2.2250738585072014e-162", "--nu-z", "49khz", "--nbar", "1.5",
     "--width", "3khz"],  # eta^2 nbar and eta^2 (nbar + 1) round to one subnormal
], ids=["nbar-1e16", "nbar-1e308", "eta-squared-subnormal"])
def test_sideband_ratio_that_rounds_to_1_exits_with_one_line(argv, tmp_path):
    """Refused from the flags before the spectrum: one line naming --nbar,
    no RuntimeWarning, and no numpy for a grid of floats."""
    proc = run_fresh(argv, tmp_path, PYTHONPROFILEIMPORTTIME="1")
    lines = [line for line in proc.stderr.splitlines() if not line.startswith("import time:")]
    assert proc.returncode == 1, proc.stderr
    assert len(lines) == 1 and lines[0].startswith("magictrap: --nbar"), lines
    assert not re.search(r" numpy$", proc.stderr, re.M)
    assert list(tmp_path.iterdir()) == []


FLOAT_GRIDS = [
    ["clock-line", "--duration", "0.5s", "--pi"],
    ["sidebands", "--eta", "0.31", "--nu-z", "49khz", "--nbar", "1", "--width", "3khz"],
    ["magic", "--species", "sr87", "--state1", "1S0", "--state2", "3P1", "--from", "700nm",
     "--to", "1000nm", "--format", "json"],
]


def test_one_switch_moves_every_float_grid(tmp_path, monkeypatch, capsys):
    """pairwise.FLOAT_POINTS alone moves the clock-line and sideband grids
    and the magic search grid between lists and arrays, with the same bytes."""
    import magictrap.pairwise as pairwise
    import magictrap.polarizability as polarizability
    grids = []

    def spy(real):
        def wrapper(*args, **kwargs):
            grids.append(type(args[1]))  # the points of _evaluate, the omega of sums
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(clockspec, "_evaluate", spy(clockspec._evaluate))
    monkeypatch.setattr(polarizability._StateTerms, "sums", spy(polarizability._StateTerms.sums))
    monkeypatch.chdir(tmp_path)
    for argv in FLOAT_GRIDS:
        runs = []
        for points in (2000, 0):
            monkeypatch.setattr(pairwise, "FLOAT_POINTS", points)
            grids.clear()
            assert run([*argv, "--out", "out"]) == 0
            # the grid: clockspec's first evaluation, or any array of the search
            kind = grids[0] if argv[0] != "magic" else (
                np.ndarray if np.ndarray in grids else list)
            runs.append((kind, capsys.readouterr(), (tmp_path / "out").read_bytes()))
        (floats, *on_floats), (arrays, *on_arrays) = runs
        assert (floats, arrays) == (list, np.ndarray), argv
        assert on_floats == on_arrays, argv


@pytest.mark.parametrize("flag, argv", [
    ("--g0/--kappa/--gamma/--drive", ["blockade", "--g0", "2.8e307hz", *CAVITY_RATES]),
    ("--g2", ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2.8e307hz",
              "--from=-2.8e307hz", "--points", "5", "--g2"]),
], ids=["blockade", "cavity-spectrum-g2"])
def test_steady_state_without_photons_names_its_flags(flag, argv, tmp_path):
    # the drive vanishes against the largest rate, so g2(0) = <n(n-1)>/<n>^2 is 0/0
    assert_one_line_refusal(flag, argv, tmp_path)


SHORTEST = "1.4048915207848729e-145m"  # the shortest length the range rule accepts
SR87_TRAP = ["trap", "--species", "sr87", "--depth-erec", "50"]


@pytest.mark.parametrize("flag, argv", [
    ("--waist/--lattice-lambda",
     [*SR87_TRAP, "--lattice-lambda", "813.428nm", f"--waist={SHORTEST}", "--gaussian"]),
    ("--waist/--lattice-lambda",
     [*SR87_TRAP, "--lattice-lambda", "813.428nm", "--waist", "1e150m", "--gaussian"]),
    ("--lattice-lambda/--waist", ["trap", "--species", "sr87", "--lattice-lambda", "813.428nm",
                                  f"--waist={SHORTEST}", "--power", "0.5w"]),
    ("--lattice-lambda/--waist",
     [*SR87_TRAP, f"--lattice-lambda={SHORTEST}", f"--waist={SHORTEST}"]),
    ("--lattice-lambda/--waist",
     [*SR87_TRAP, "--lattice-lambda", "813.428nm", "--waist", "30um", "--gravity", "1e308mps2"]),
], ids=["rayleigh-squared-underflows", "rayleigh-squared-overflows", "radial-overflows",
        "shortest-lambda-and-waist", "site-offset-overflows"])
def test_trap_outside_float_range_names_its_geometry(flag, argv, tmp_path):
    # the Rayleigh range squared or a number of the table leaves the floats:
    # refused before the table is written, not a division by zero or an inf
    assert_one_line_refusal(flag, argv, tmp_path)


@pytest.mark.parametrize("argv", [
    ["blockade", "--g0", "20e6hz", "--kappa", "5e-324hz", "--gamma", "5e-324hz"],
    ["blockade", "--g0", "20e6hz", "--kappa", "5e-324hz", "--gamma", "2.861117485757028e+307hz"],
    ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "5e-324hz", "--gamma", "5e-324hz",
     "--points", "5", "--nmax", "3"],
    ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "5e-324hz",
     "--gamma", "2.861117485757028e+307hz", "--points", "5", "--nmax", "3"],
    ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "5e-324hz", "--gamma", "5e-324hz",
     "--points", "5", "--nmax", "3", "--g2"],
    ["cavity-spectrum", "--g0", "20e6hz", "--kappa", "5e-324hz",
     "--gamma", "2.861117485757028e+307hz", "--points", "5", "--nmax", "3", "--g2"],
], ids=["blockade-both-subnormal", "blockade-gamma-at-top", "spectrum-both-subnormal",
        "spectrum-gamma-at-top", "spectrum-g2-both-subnormal", "spectrum-g2-gamma-at-top"])
def test_decay_lost_beside_the_largest_rate_names_kappa_and_gamma(argv, tmp_path):
    # kappa over the solve's rate scale underflows, so the generator loses its
    # damping: refused in one line, not a singular Liouvillian; --g2 is not named
    flag = "--g0/--kappa/--gamma/--drive" if argv[0] == "blockade" else "--kappa/--gamma"
    assert_one_line_refusal(flag, argv, tmp_path)


def test_one_vanishing_decay_rate_still_solves(tmp_path, monkeypatch):
    """With only gamma lost beside the scale the cavity still damps the
    steady state, so the spectrum is written as before."""
    monkeypatch.chdir(tmp_path)
    assert run(["cavity-spectrum", "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "5e-324hz",
                "--points", "5", "--nmax", "3", "--out", "s.csv"]) == 0


def assert_one_line_refusal(flag, argv, tmp_path):
    proc = run_fresh(argv, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith(f"magictrap: {flag}")
    assert len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, name, inside, outside", [
    ("trap", "--waist", "1.4048915207848729e-145m", "1.4048915207848727e-145m"),
    ("trap", "--waist", "1.3407807929942596e+154m", "1.3407807929942597e+154m"),
    ("ladder", "--delta-b", "2.861117485757028e+307hz", "2.8611174857570283e+307hz"),
    ("ladder", "--delta-b", "-2.861117485757028e+307hz", "-2.8611174857570283e+307hz"),
], ids=["shortest-length", "longest-length", "highest-frequency", "lowest-frequency"])
def test_range_rules_end_at_the_documented_bounds(command, name, inside, outside):
    """The bounds the README gives are the last floats a length or a
    frequency may take; the next floats out are refused."""
    flag = next(f for f in cli.COMMANDS[command].flags if f.name == name)
    assert flag.convert(inside) == float(inside.rstrip("mhz"))
    with pytest.raises(ValidationError) as refused:
        flag.convert(outside)
    assert str(refused.value).startswith(f"{name} '{outside}' is out of range: ")


@pytest.mark.parametrize("argv", [
    [*SIDEBANDS, "--nu-z", "1e300hz"],
    ["sidebands", "--eta", "0.3", "--nbar", "1", "--nu-z", "50khz", "--width", "1e-300hz"],
], ids=["far-sidebands", "narrow-features"])
def test_sideband_tails_that_overflow_are_quietly_zero(argv, tmp_path, monkeypatch, capsys):
    """A Lorentzian tail whose square overflows adds 0, with no RuntimeWarning
    (pytest makes one an error)."""
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("duration", ["1e150s", "1e-150s"])
def test_clock_line_fwhm_keeps_significant_digits(duration, tmp_path, monkeypatch, capsys):
    """A pi pulse's FWHM is c/T, however small or large T is: the refinement
    tolerance scales with the walk step 1/(4T), so all six printed digits
    hold. c solves the dimensionless half-maximum condition (u = delta T)."""
    from scipy.optimize import brentq

    def prob(u):
        gen2 = math.pi**2 + (2 * math.pi * u) ** 2
        return math.pi**2 / gen2 * math.sin(math.sqrt(gen2) / 2) ** 2

    c = 2 * brentq(lambda u: prob(u) - 0.5, 0.1, 0.6, xtol=1e-16, rtol=1e-15)
    monkeypatch.chdir(tmp_path)
    assert run(["clock-line", "--duration", duration, "--pi"]) == 0
    text = re.search(r"numeric FWHM = (\S+) Hz", capsys.readouterr().out).group(1)
    assert len(text) <= 12
    assert text == f"{c / float(duration[:-1]):.6g}"


@pytest.mark.parametrize("fmt, table", [("csv", list), ("json", list), ("csv", np.array),
                                        ("json", np.array)],
                         ids=["csv", "json", "csv-array", "json-array"])
def test_emit_refuses_non_finite_and_writes_nothing(tmp_path, fmt, table):
    out = tmp_path / f"t.{fmt}"
    with pytest.raises(NumericalError, match="non-finite value nan$"):
        emit(["a", "b"], table([[1.0, 2.0], [3.0, math.nan]]), fmt, out)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(NumericalError):
        emit(["a"], [[1.0]], fmt, out, meta={"drive": math.inf})
    assert list(tmp_path.iterdir()) == []


def test_failed_emit_leaves_previous_output_intact(tmp_path):
    out = tmp_path / "t.csv"
    emit(["a"], [[1.0]], "csv", out)
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    for table in (list, np.array):  # per-cell and float-array paths
        with pytest.raises(NumericalError, match="non-finite value -inf$"):
            emit(["a"], table([[2.0], [-math.inf], [math.nan]]), "csv", out)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_magic_points_refuse_non_finite(tmp_path):
    from magictrap.polarizability import MagicPoint
    point = MagicPoint(wavelength_m=813e-9, residual_au=math.nan,
                       bracket_m=(812e-9, 814e-9))
    with pytest.raises(NumericalError):
        cli.emit_magic_points([point], tmp_path / "m.json")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_result_exits_2_without_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ledger.csv").write_text(
        "site,value_hz_minus_nu0,stat_hz,sys_hz\na,60,1,1\nb,70,1,1\n")
    result = clockspec.aggregate_measurements(clockspec.read_measurement_ledger("ledger.csv"))
    monkeypatch.setattr(clockspec, "aggregate_measurements",
                        lambda rows: result._replace(mean_hz=math.nan))
    assert run(["aggregate", "ledger.csv"]) == 2
    assert "numerical failure" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]


def test_config_values_pass_the_same_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text("[cavity]\nkappa = 2e6hz\ngamma = 2e6hz\nnmax = 2.7\n")
    assert run(["cavity-spectrum", "--g0", "20e6hz", "--points", "5",
                "--config", "run.ini"]) == 1
    (tmp_path / "run.ini").write_text("[cavity]\nkappa = 2e6hz\ngamma = 2e6hz\n"
                                      "format = xml\n")
    assert run(["cavity-spectrum", "--g0", "20e6hz", "--points", "5",
                "--config", "run.ini"]) == 1
    (tmp_path / "run.ini").write_text("kappa = 2e6hz\n")  # no section header
    assert run(["cavity-spectrum", "--g0", "20e6hz", "--config", "run.ini"]) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini"]


@pytest.mark.parametrize("row", ["a,nan,1,1", "a,70,nan,1", "a,70,1,inf"])
def test_non_finite_ledger_exits_1_without_output(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ledger.csv").write_text(
        f"site,value_hz_minus_nu0,stat_hz,sys_hz\n{row}\nb,70,1,1\n")
    assert run(["aggregate", "ledger.csv"]) == 1
    assert "finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ledger.csv"]


def test_non_finite_catalog_exits_1_without_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.lines").write_text(
        "species X mass_kg 1e-25 I 0\nlevel g energy_hz 0 J 0\nlevel e energy_hz 6.5e14 J 1\n"
        "line g e lambda_nm 461.2191661538 gamma_s nan\n")
    assert run(["polarizability", "--species", "x.lines", "--state1", "g", "--state2", "e",
                "--from", "700nm", "--to", "900nm", "--points", "5"]) == 1
    assert capsys.readouterr().err == "magictrap: x.lines:4: 'nan' is not a finite number\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.lines"]


def test_overflowing_catalog_strength_exits_1_with_its_location(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "x.lines").write_text(
        "species X mass_kg 1e-25 I 0\nlevel g energy_hz 0 J 0\nlevel e energy_hz 6.5e14 J 1\n"
        "line g e lambda_nm 461.2191661538 d_au 1e200\n")
    assert run(["magic", "--species", "x.lines", "--state1", "g", "--state2", "e",
                "--from", "700nm", "--to", "900nm", "--out", "m.json"]) == 1
    assert capsys.readouterr().err == (
        "magictrap: x.lines:4: d_au out of range: the line strength overflows\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.lines"]


@pytest.mark.parametrize("argv", [
    ["cavity-spectrum", *CAVITY_ARGS, "--delta-b", "-5e6hz"],
    ["cavity-spectrum", *CAVITY_ARGS, "--from", "-40e6hz", "--to", "-1e6hz"],
    ["cavity-spectrum", *CAVITY_ARGS, "--delta-e", "-.5e6hz", "--delta-b", "3e6hz"],
    ["zeeman", "--dg", "-108.4hz", "--field", "-0.3mt"],
    ["ladder", "--g0", "1e6hz", "--n", "2", "--delta-e", "-2e6hz"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_negative_quantity_as_its_own_token(argv, tmp_path, monkeypatch):
    """'--flag -5e6hz' reads like '--flag=-5e6hz' for a flag that takes any sign."""
    monkeypatch.chdir(tmp_path)
    joined = re.sub(r" (-\.?\d)", r"=\1", " ".join(argv)).split()
    assert len(joined) < len(argv)
    assert run(argv + ["--out", "apart.csv"]) == 0
    assert run(joined + ["--out", "joined.csv"]) == 0
    assert (tmp_path / "apart.csv").read_bytes() == (tmp_path / "joined.csv").read_bytes()


def test_negative_value_for_a_positive_flag_still_exits_1(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["cavity-spectrum", "--g0", "20e6hz", "--kappa", "-2e6hz",
                "--gamma", "2e6hz", "--points", "5"]) == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bounds", [("900nm", "700nm"), ("700nm", "700nm")])
def test_polarizability_needs_increasing_bounds(bounds, tmp_path, monkeypatch, capsys):
    """A reversed or empty window exits 1 for both scan commands, with one
    line naming both flags in nm, before a species loads."""
    monkeypatch.chdir(tmp_path)
    lo, hi = bounds
    monkeypatch.setattr(cli, "_load", lambda *args: pytest.fail("the species loaded"))
    for command in ("polarizability", "magic"):
        assert run([command, "--species", "sr87", "--state1", "1S0",
                    "--state2", "3P0", "--from", lo, "--to", hi]) == 1
        assert capsys.readouterr().err == (f"magictrap: --from {lo[:-2]} nm must be below "
                                           f"--to {hi[:-2]} nm\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("window, lo, hi", [
    (["--from", "10e6hz", "--to", "10e6hz"], "1e+07", "1e+07"),
    (["--from", "40e6hz", "--to", "-40e6hz"], "4e+07", "-4e+07"),
    (["--from", "50e6hz"], "5e+07", "4e+07"),  # the default --to is 2 g0
], ids=["equal", "reversed", "above-default-to"])
def test_cavity_spectrum_needs_increasing_bounds(window, lo, hi, tmp_path, monkeypatch, capsys):
    """A reversed or empty probe window exits 1 with one line naming both
    flags in Hz, before numpy or cavityqed would load."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(sys.modules, "numpy", None)  # an import of either now raises
    monkeypatch.setitem(sys.modules, "magictrap.cavityqed", None)
    assert run(["cavity-spectrum", "--g0", "20e6hz", "--kappa", "2e6hz", "--gamma", "2e6hz",
                *window]) == 1
    assert capsys.readouterr().err == f"magictrap: --from {lo} Hz must be below --to {hi} Hz\n"
    assert list(tmp_path.iterdir()) == []
