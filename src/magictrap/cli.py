"""magictrap command line: parse config, dispatch to the physics modules,
emit machine-readable tables and a one-screen summary.

Every dimensioned flag value carries a mandatory unit suffix (700nm,
34e6hz, 0.5s, 1e-4t, ...). Exit codes: 0 success, 1 validation/usage
error, 2 numerical failure. Data outputs are byte-identical for identical
inputs; run metadata goes to a sidecar <out>.meta.json.

Each flag is declared once, in ``COMMANDS``: the argparse subcommands, the
``--config`` overlay, unit conversion and range checks all come from that
table, so a runner only sees checked SI values, never raw text.

Each run loads only what its subcommand uses: a runner imports its physics
module when called, and ``build_parser`` gives flags to the one subcommand
argv names. numpy loads only where a run builds an array (see ``pairwise``):
``polarizability``, ``magic --scan-out``, a finer grid in ``magic``,
``clock-line`` and ``sidebands`` (or an FWHM walk past 1024 steps),
``cavity-spectrum`` and ``blockade``. Every other run computes on Python
floats with the bits numpy would give, and no run imports ``dataclasses``.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import math
import numbers
import os
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import __version__, data_dir
from .errors import NoPhotonsError, NumericalError, ValidationError

if TYPE_CHECKING:
    import numpy as np

TWO_PI = 2.0 * math.pi

# unit suffix -> SI factor, per dimension
UNITS = {
    "length": {"nm": 1e-9, "um": 1e-6, "mm": 1e-3, "m": 1.0},
    "frequency": {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9, "thz": 1e12},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "power": {"w": 1.0, "mw": 1e-3, "uw": 1e-6, "kw": 1e3},
    "intensity": {"w_m2": 1.0, "kw_m2": 1e3, "w_cm2": 1e4, "kw_cm2": 1e7},
    "bfield": {"t": 1.0, "mt": 1e-3, "ut": 1e-6, "gauss": 1e-4},
    "accel": {"mps2": 1.0},
}

# the quantities the physics forms from a length (a wavelength or a waist)
# and from a frequency: each must be a finite float, nonzero for a nonzero
# value, so no runner checks them again. Products, as float ** 2 raises
# OverflowError; c (exact, as constants.SPEED_OF_LIGHT) is written out so
# that converting a flag loads no physics module.
_TWO_PI_C = TWO_PI * 299_792_458.0
RANGES = {
    "length": (("L^2", lambda m: m * m),
               ("(2 pi c / L)^2", lambda m: (_TWO_PI_C / m) * (_TWO_PI_C / m))),
    "frequency": (("2 pi f", lambda hz: TWO_PI * hz),),
}

# Size caps: each bounds the work one flag can ask for (grid points, Fock
# levels, Zeeman lines, worker threads).
MAX_POINTS = 1_000_000
MAX_NMAX = 40
MAX_SPIN = 10
MAX_JOBS = 64


def parse_quantity(text: str, dimension: str) -> float:
    """'813.428nm' -> 8.13428e-07. The unit suffix is mandatory."""
    table = UNITS[dimension]
    lowered = text.strip().lower()
    for suffix in sorted(table, key=len, reverse=True):
        if lowered.endswith(suffix):
            head = lowered[: -len(suffix)]
            try:
                return float(head) * table[suffix]
            except ValueError:
                continue
    raise ValidationError(
        f"'{text}' needs a {dimension} unit suffix (one of: "
        f"{', '.join(sorted(table))})")


class Flag(NamedTuple):
    """One flag: its argparse form, config key, conversion and checks.

    ``kind`` is a UNITS dimension (converted to SI) or one of "int",
    "float", "half" (half-integer, '9/2' or '4.5'), "str" and "bool". Every
    number must be finite, and an "int" whole. ``low`` is the smallest
    allowed value, itself excluded when ``strict``, so a number must be
    positive unless its entry says otherwise; ``cap`` is the largest, and
    RANGES bounds a length or a frequency. ``default`` applies when neither
    argv nor the config section sets it.
    """

    name: str
    kind: str
    help: str
    default: object = None
    low: float | None = 0.0
    strict: bool = True
    cap: float | None = None
    required: bool = False
    dest: str | None = None
    choices: tuple[str, ...] | None = None

    @property
    def attr(self) -> str:
        return self.dest or self.name.lstrip("-").replace("-", "_")

    def convert(self, raw):
        """Raw argv or config text (None when unset) -> the checked value."""
        if raw is None:
            if self.required:
                raise ValidationError(f"missing required {self.name} (flag or config entry)")
            return self.default
        if self.kind in ("str", "bool"):
            if raw == "":  # names no file or level; an empty --out is not the default
                raise ValidationError(f"{self.name} must not be empty")
            if self.choices and raw not in self.choices:
                raise ValidationError(
                    f"{self.name} must be one of {', '.join(self.choices)}, got '{raw}'")
            return raw
        try:
            if self.kind in UNITS:
                value = parse_quantity(raw, self.kind)
            elif self.kind == "half":
                from fractions import Fraction
                value = float(Fraction(raw))
            else:
                value = float(raw)
        except ValidationError as exc:
            raise ValidationError(f"{self.name}: {exc}") from None
        except (ValueError, ArithmeticError):  # junk, '9/0', '1e400' as a fraction
            raise ValidationError(f"{self.name}: '{raw}' is not a finite number") from None
        step = {"int": 1, "half": 2}.get(self.kind)
        if not (math.isfinite(value)
                and (step is None or step * value == int(step * value))
                and (self.low is None or value > self.low
                     or (value == self.low and not self.strict))
                and (self.cap is None or value <= self.cap)):
            raise ValidationError(f"{self.name} must be {self.allowed()}, got '{raw}'")
        for quantity, form in RANGES.get(self.kind, ()):
            if not math.isfinite(q := form(value)) or (q == 0.0 and value != 0.0):
                raise ValidationError(f"{self.name} '{raw}' is out of range: {quantity} "
                                      f"{'overflows' if q else 'underflows to 0'}")
        return int(value) if self.kind == "int" else value

    def allowed(self) -> str:
        """The values this flag accepts, in words."""
        words = {"int": "a whole number", "half": "a half-integer"}.get(self.kind, "a finite number")
        if self.low is not None:
            words += f" {'>' if self.strict else '>='} {self.low:g}"
        return words + (f" and <= {self.cap}" if self.cap is not None else "")


class Command(NamedTuple):
    help: str
    section: str                  # the --config section it reads
    flags: tuple[Flag, ...]


def _points(default: int, what: str = "grid points") -> Flag:
    return Flag("--points", "int", f"{what} (dimensionless, default {default})", default,
                cap=MAX_POINTS)


def _nmax(default: int, low: int = 2) -> Flag:
    return Flag("--nmax", "int", f"Fock truncation (dimensionless, default {default})", default,
                low=low, strict=False, cap=MAX_NMAX)


SPECIES = Flag("--species", "str", "species file or bundled name (e.g. sr87)", required=True)
JOBS = Flag("--jobs", "int", "accepted and has no effect (default 1)", 1,
            cap=MAX_JOBS)
G0 = Flag("--g0", "frequency", "coupling g0 (frequency, e.g. 34e6hz)", required=True)
KAPPA = Flag("--kappa", "frequency", "cavity HWHM decay (frequency, e.g. 4.1e6hz)",
             required=True)
GAMMA = Flag("--gamma", "frequency", "atomic HWHM decay (frequency, e.g. 2.6e6hz)",
             required=True)
FORT_SHIFTS = (
    Flag("--delta-b", "frequency", "FORT shift of the ground level (frequency, default 0hz)", 0.0,
         low=None),
    Flag("--delta-e", "frequency", "FORT shift of the excited level (frequency, default 0hz)", 0.0,
         low=None))
COMMON = (
    Flag("--out", "str", "output file path"),
    Flag("--format", "str", "output format (csv or json)", "csv", choices=("csv", "json")),
    Flag("--config", "str", "INI config file with [trap]/[clock]/[cavity]/[scan] sections"),
    Flag("--verbose", "bool", "chattier summary"))


def _scan_flags(verb: str, points: Flag) -> tuple[Flag, ...]:
    return (SPECIES,
            Flag("--state1", "str", "first level label (e.g. 1S0)", required=True),
            Flag("--state2", "str", "second level label (e.g. 3P0)", required=True),
            Flag("--from", "length", f"{verb} start (length, e.g. 700nm)", dest="lo",
                 required=True),
            Flag("--to", "length", f"{verb} end (length, e.g. 900nm)", dest="hi",
                 required=True),
            points, JOBS,
            Flag("--calibrated", "bool", "apply the catalog's documented calibration multiplier"))


COMMANDS = {
    "polarizability": Command("scan two states' polarizabilities", "scan",
                              _scan_flags("scan", _points(200))),
    "magic": Command("find magic wavelengths (polarizability crossings)", "scan", (
        *_scan_flags("search", _points(2000, "scan grid points")),
        Flag("--scan-out", "str", "also write the delta-alpha scan table (CSV) to this path"))),
    "trap": Command("trap depth, frequencies, Lamb-Dicke parameter", "trap", (
        SPECIES._replace(help="species file or bundled name"),
        Flag("--state", "str", "level label (default: ground level)"),
        Flag("--lattice-lambda", "length", "trap light wavelength (length, e.g. 813.428nm)",
             dest="lam", required=True),
        Flag("--waist", "length", "beam waist w0 (length, e.g. 30um)", required=True),
        Flag("--power", "power", "single-beam power (power, e.g. 0.5w)", strict=False),
        Flag("--intensity", "intensity", "single-beam peak intensity (intensity, e.g. 10kw_cm2)",
             strict=False),
        Flag("--depth-erec", "float",
             "trap depth in photon recoils (dimensionless); bypasses power", strict=False),
        Flag("--gaussian", "bool", "single focused beam instead of the default 1D lattice"),
        Flag("--probe", "length", "probe wavelength for the Lamb-Dicke parameter "
             "(length, default: trap wavelength)"),
        Flag("--gravity", "accel", "local gravity for the site offset "
             "(accel, e.g. 9.80665mps2; default 0mps2)", 0.0, strict=False))),
    "clock-line": Command("Rabi lineshape of the clock transition", "clock", (
        Flag("--duration", "time", "pulse duration (time, e.g. 0.5s)", required=True),
        Flag("--rabi", "frequency",
             "Rabi frequency as ordinary frequency (frequency, e.g. 1hz); omit with --pi"),
        Flag("--pi", "bool", "use a resonant pi pulse (Omega = pi/T)"),
        Flag("--span", "frequency", "detuning half-span (frequency, default 10hz)", 10.0),
        _points(801),
        Flag("--saturation", "float",
             "saturation scale s, P clamped at 1 (dimensionless, default 1)", 1.0),
        Flag("--observed-width", "frequency",
             "optional measured linewidth for the Q report (frequency, e.g. 1.8hz)"))),
    "zeeman": Command("pi-transition Zeeman multiplet", "clock", (
        Flag("--spin", "half", "nuclear spin I (half-integer, e.g. 9/2)", 4.5,
             strict=False, cap=MAX_SPIN),
        Flag("--dg", "frequency", "differential g splitting per field per m_F "
             "(frequency per tesla, e.g. 108.4hz)", required=True, low=None),
        Flag("--field", "bfield", "bias field (bfield, e.g. 0.3mt)", required=True, low=None))),
    "sidebands": Command("carrier and motional sidebands", "clock", (
        Flag("--eta", "float", "Lamb-Dicke parameter (dimensionless)", required=True, strict=False,
             cap=math.nextafter(1.0, 0.0)),
        Flag("--nu-z", "frequency", "axial trap frequency (frequency, e.g. 49khz)",
             required=True),
        Flag("--nbar", "float", "mean motional occupation (dimensionless)", required=True,
             strict=False),
        Flag("--width", "frequency", "feature FWHM (frequency, e.g. 2khz)", required=True),
        Flag("--span", "frequency", "detuning half-span (frequency, default 1.6x nu_z)"),
        _points(1001))),
    "aggregate": Command("weighted mean of absolute-frequency measurements", "clock", (
        Flag("ledger", "str", "CSV ledger: site,value_hz_minus_nu0,stat_hz,sys_hz"),)),
    "cavity-spectrum": Command("vacuum-Rabi transmission spectrum", "cavity", (
        G0, KAPPA, GAMMA, *FORT_SHIFTS, _nmax(5),
        Flag("--drive", "frequency", "cavity drive amplitude (frequency; default 1e-3 x kappa)"),
        Flag("--from", "frequency", "probe offset start from bare resonance "
             "(frequency, default -2 g0)", dest="lo", low=None),
        Flag("--to", "frequency", "probe offset end (frequency, default +2 g0)", dest="hi",
             low=None),
        _points(200),
        Flag("--g2", "bool", "also compute g2(0) per point"),
        JOBS)),
    "blockade": Command("photon blockade g2(0) at the canonical probe points", "cavity", (
        G0, KAPPA._replace(help="cavity HWHM decay (frequency)"),
        GAMMA._replace(help="atomic HWHM decay (frequency)"), _nmax(8, low=3),  # g2_zero needs 3
        Flag("--drive", "frequency", "cavity drive amplitude (frequency; default 0.1 x kappa)"))),
    "ladder": Command("Jaynes-Cummings manifold eigenvalues", "cavity", (
        G0._replace(help="coupling g0 (frequency, e.g. 1e6hz)"),
        Flag("--n", "int", "manifold quanta n >= 1 (dimensionless)", required=True),
        *FORT_SHIFTS)),
}


# rows of a float table formatted by one floattext.table_text call in emit:
# emitting a 2e5 x 4 scan took a median 154-159 ns a number in 2048-row
# blocks and 162-166 ns in 1024-row ones; 4096-row ones took 146-149 ns but
# won only 6 of 10 CSV pairs against 2048
_BLOCK_ROWS = 2048


def _number(value) -> str:
    """17 significant digits; a non-finite number is refused."""
    if isinstance(value, numbers.Integral):  # int, bool and numpy's integers
        return str(int(value))
    x = float(value)
    if not math.isfinite(x):
        raise NumericalError(f"refusing to write the non-finite value {x}")
    return f"{x:.17g}"


def _fmt(value) -> str:
    if value is None:
        return ""
    return value if isinstance(value, str) else _number(value)


def _json_value(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return _number(value)


def _meta(meta: dict | None) -> tuple[dict, str]:
    """The metadata with tool and version filled in, and its JSON body."""
    meta = {"tool": "magictrap", "version": __version__, **(meta or {})}
    return meta, ",".join(f"{json.dumps(k)}:{_json_value(v)}" for k, v in sorted(meta.items()))


def _blocks(rows: np.ndarray, row: str, sep: str):
    """The text of a float table, _BLOCK_ROWS rows at a time, each block
    but the first with its leading separator."""
    from .floattext import table_text
    for i in range(0, len(rows), _BLOCK_ROWS):
        yield (sep if i else "") + table_text(rows[i:i + _BLOCK_ROWS], row, sep)


def _write(path: Path, chunks, meta: dict, argv: list[str] | None) -> None:
    """Write a data file from an iterable of text chunks, and its
    <path>.meta.json sidecar.

    Each file goes to a temp file in its own directory and is renamed over
    the target only when complete, so no reader ever sees a half-written
    output; when a chunk cannot be formatted (a non-finite number) the temp
    files are removed and the targets stay as they were. A target that
    exists but is not a regular file (a directory, a FIFO, a device) or a
    missing directory is refused before any temp file is opened.
    """
    path = Path(path)
    try:
        sidecar = json.dumps({"command": argv or [], **meta}, sort_keys=True, indent=1,
                             allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{path}.meta.json: {exc}") from None
    files = [(path, chunks), (Path(f"{path}.meta.json"), [sidecar])]
    for target, _ in files:
        if target.exists() and not target.is_file():
            raise ValidationError(f"cannot write {path}: {target} exists and is not a "
                                  "regular file")
    if not path.parent.is_dir():
        raise ValidationError(f"cannot write {path}: no directory {path.parent}")
    temps = [target.with_name(f".{target.name}.{os.getpid()}.tmp") for target, _ in files]
    try:
        for (_, body), tmp in zip(files, temps):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(body)
        for (target, _), tmp in zip(files, temps):
            os.replace(tmp, target)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def emit(columns, rows, fmt: str, path: Path, meta: dict | None = None,
         argv: list[str] | None = None) -> None:
    """Write a table as CSV or JSON with 17-significant-digit numbers.

    CSV starts with a '# magictrap v<version>' comment and a header row; an
    empty table is header-only. JSON is {meta, columns, rows}. Output bytes
    depend only on the data; run metadata lands in <path>.meta.json. A
    non-finite number raises NumericalError and leaves no file behind.

    ``rows`` is a sequence of rows, or a 2-D float array, which is written
    ``_BLOCK_ROWS`` rows at a time by ``floattext.table_text`` with the
    bytes of the per-cell path.
    """
    meta, meta_text = _meta(meta)
    if fmt == "csv":
        head = f"# magictrap v{__version__}\n" + ",".join(columns) + "\n"
        row, sep, cell, tail = "{}\n", "", _fmt, ""
    elif fmt == "json":
        head = ('{"meta":{' + meta_text + '},"columns":['
                + ",".join(json.dumps(c) for c in columns) + '],"rows":[')
        row, sep, cell, tail = "[{}]", ",", _json_value, "]}\n"
    else:
        raise ValidationError(f"unknown output format '{fmt}'")
    np = sys.modules.get("numpy")  # rows can be an array only once numpy is loaded
    if (np is not None and isinstance(rows, np.ndarray) and rows.ndim == 2
            and rows.dtype.kind == "f"):
        bad = ~np.isfinite(rows)
        if bad.any():
            raise NumericalError(f"refusing to write the non-finite value {float(rows[bad][0])}")
        body = _blocks(rows, row, sep)
    else:
        body = ((sep if i else "") + row.format(",".join(map(cell, r)))
                for i, r in enumerate(rows))
    _write(path, itertools.chain((head,), body, (tail,)), meta, argv)


def emit_magic_points(points, path: Path, meta: dict | None = None,
                      argv: list[str] | None = None) -> None:
    """Magic crossings as JSON records {lambda_nm, residual_au, bracket_nm}."""
    meta, meta_text = _meta(meta)
    recs = ",".join(
        "{" + f'"lambda_nm":{_json_value(p.wavelength_m * 1e9)},'
        f'"residual_au":{_json_value(p.residual_au)},'
        f'"bracket_nm":[{_json_value(p.bracket_m[0] * 1e9)},'
        f'{_json_value(p.bracket_m[1] * 1e9)}]' + "}" for p in points)
    _write(path, ["{" + f'"meta":{{{meta_text}}},"points":[{recs}]' + "}\n"], meta, argv)


def resolve_species(name: str) -> Path:
    """Literal path first, then the bundled data directory."""
    p = Path(name)
    if p.exists():
        return p
    stem = name[:-6] if name.endswith(".lines") else name
    candidate = data_dir() / f"{stem}.lines"
    if candidate.exists():
        return candidate
    raise ValidationError(
        f"species '{name}' is neither a file nor bundled data in {data_dir()}")


# a token such as -5e6hz or -.5mt: argparse reads it as an option, since a
# unit suffix is not a number to its negative-number test
_SIGNED_VALUE = re.compile(r"-\.?\d")


def _command_name(argv: list[str]) -> str | None:
    """The subcommand argv runs: its first token that names one. The top
    parser takes no option with a value, so no earlier token can be one."""
    return next((tok for tok in argv if tok in COMMANDS), None)


def _attach_signed_values(argv: list[str]) -> list[str]:
    """Write '--flag -5e6hz' as '--flag=-5e6hz' for each flag of the
    subcommand that COMMANDS lets take any sign."""
    name = _command_name(argv)
    if name is None:
        return argv
    signed = {flag.name for flag in COMMANDS[name].flags if flag.low is None}
    out = []
    for tok in argv:
        if out and out[-1] in signed and _SIGNED_VALUE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(f"{message}\n{self.format_usage()}")


def build_parser(argv: list[str]) -> _Parser:
    """The parser for argv. Every subcommand is listed, but only the one
    argv names gets its flags: argparse never reads the others'."""
    top = _Parser(prog="magictrap",
                  description="State-insensitive trap toolkit: polarizabilities, "
                              "magic wavelengths, clock spectra, cavity QED.")
    top.add_argument("--version", action="version", version=f"magictrap {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    chosen = _command_name(argv)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if name != chosen:
            continue
        for flag in command.flags + COMMON:
            if flag.kind == "bool":
                p.add_argument(flag.name, action="store_true", help=flag.help)
            elif flag.name.startswith("-"):  # raw text; defaults apply after the overlay
                p.add_argument(flag.name, dest=flag.attr, choices=flag.choices, help=flag.help)
            else:
                p.add_argument(flag.name, help=flag.help)
    return top


def _resolve(args: argparse.Namespace) -> None:
    """Overlay the --config section on unset flags, then convert every flag."""
    command = COMMANDS[args.command]
    flags = command.flags + COMMON
    if args.config:
        import configparser
        cfg = configparser.ConfigParser()
        try:
            if not cfg.read(args.config):
                raise ValidationError(f"config file not found: {args.config}")
            items = cfg.items(command.section) if cfg.has_section(command.section) else []
        except configparser.Error as exc:
            raise ValidationError(f"config file {args.config}: {exc}") from None
        attrs = {flag.attr for flag in flags}
        for key, raw in items:
            attr = key.replace("-", "_")
            if attr.endswith("_hz") and attr not in attrs:
                attr = attr[:-3]  # accept g0_hz/kappa_hz/... aliases
            if attr in attrs and getattr(args, attr) is None:
                setattr(args, attr, raw)
    for flag in flags:
        setattr(args, flag.attr, flag.convert(getattr(args, flag.attr)))


def _out_path(args) -> Path:
    """--out, by default <command>.<format>; magic.json for magic, which writes JSON."""
    if args.out:
        return Path(args.out)
    return Path("magic.json" if args.command == "magic"
                else f"{args.command.replace('-', '_')}.{args.format}")


# the flag of each input a run reads from a file, by its attribute
_INPUTS = {"ledger": "ledger", "config": "--config", "species": "--species"}


def _check_paths(args) -> None:
    """Refuse an output or its .meta.json sidecar that resolves to an input
    file or to another output's path, before anything is read or written.
    A --species name counts as the file resolve_species finds for it."""
    taken = {}
    for attr, flag in _INPUTS.items():
        name = getattr(args, attr, None)
        path = resolve_species(name) if name and attr == "species" else name
        if path and os.path.isfile(path):
            taken[os.path.realpath(path)] = f"the input {flag} {name}"
    outputs = [("--out", _out_path(args))]
    if getattr(args, "scan_out", None):
        outputs.append(("--scan-out", args.scan_out))
    for flag, path in outputs:
        targets = [os.path.realpath(f"{path}{tail}") for tail in ("", ".meta.json")]
        for target in targets:
            if target in taken:
                raise ValidationError(f"{flag} {path} overlaps {taken[target]}: no output or "
                                      ".meta.json sidecar may replace an input or another output")
        taken.update(dict.fromkeys(targets, f"{flag} {path}"))


def _finish(args, argv, columns, rows, meta: dict, *summary: str) -> int:
    """Emit the table to --out (see _out_path), then print the summary."""
    out = _out_path(args)
    emit(columns, rows, args.format, out, meta=meta, argv=argv)
    for line in summary + (f"wrote {out}",):
        print(line)
    return 0


def _load(name: str, calibrated: bool = False):
    from .atomdata import load_species
    return load_species(resolve_species(name), use_calibration=calibrated)


SCAN_COLUMNS = ["lambda_nm", "alpha_au_state1", "alpha_au_state2", "delta_alpha_au"]


def _emit_scan(species, args, fmt: str, path: Path, argv) -> int:
    """The delta-alpha table of both polarizability and magic --scan-out."""
    import numpy as np

    from .polarizability import scan_delta_alpha
    lams, a1, a2, d = scan_delta_alpha(species, args.state1, args.state2,
                                       args.lo, args.hi, args.points)
    rows = np.column_stack((lams * 1e9, a1, a2, d))
    emit(SCAN_COLUMNS, rows, fmt, path, meta=_scan_meta(species, args), argv=argv)
    return len(rows)


def _scan_meta(species, args) -> dict:
    return {"species": species.name, "state1": args.state1,
            "state2": args.state2, "calibrated": args.calibrated}


def _check_window(args) -> None:
    """Refuse a reversed or empty --from/--to window before a species loads."""
    if not args.lo < args.hi:
        raise ValidationError(f"--from {args.lo*1e9:g} nm must be below --to "
                              f"{args.hi*1e9:g} nm")


def _run_polarizability(args, argv):
    _check_window(args)
    species = _load(args.species, args.calibrated)
    out = _out_path(args)
    count = _emit_scan(species, args, args.format, out, argv)
    print(f"polarizability scan {args.state1}/{args.state2}: {count} points "
          f"over {args.lo*1e9:g}-{args.hi*1e9:g} nm -> {out}")
    return 0


def _run_magic(args, argv):
    _check_window(args)
    from .polarizability import find_magic
    out = _out_path(args)
    species = _load(args.species, args.calibrated)
    found = find_magic(species, args.state1, args.state2, (args.lo, args.hi),
                       grid_points=args.points)
    if args.scan_out:
        _emit_scan(species, args, "csv", Path(args.scan_out), argv)
    emit_magic_points(found, out, meta=_scan_meta(species, args), argv=argv)
    for pt in found:
        print(f"magic {args.state1}/{args.state2}: lambda_L = "
              f"{pt.wavelength_m*1e9:.4f} nm (residual {pt.residual_au:.2e} au)")
    if not found:
        print(f"magic {args.state1}/{args.state2}: no crossing in "
              f"{args.lo*1e9:g}-{args.hi*1e9:g} nm")
    print(f"wrote {out}")
    return 0


def _run_trap(args, argv):
    if sum(v is not None for v in (args.depth_erec, args.power, args.intensity)) != 1:
        raise ValidationError("give exactly one of --power, --intensity, or --depth-erec")
    from .fieldtrap import (FieldConfig, GaussianBeam, Lattice1D, intensity_at, recoil,
                            trap_parameters)
    from .polarizability import alpha_scalar, stark_shift
    species = _load(args.species)
    state, lam = args.state, args.lam
    e_rec = recoil(species.mass_kg, lam)[0]
    if e_rec == 0.0:  # lambda above 7.8e140 m for Sr87
        raise ValidationError(f"--lattice-lambda {lam:g} m is out of range: the {species.name} "
                              "recoil h^2/(2 m lambda^2) underflows to 0")
    if state is None:
        state = next(lv.label for lv in species.levels if lv.energy_hz == 0.0)
    geom = GaussianBeam(args.waist) if args.gaussian else Lattice1D(args.waist)
    z0 = geom.rayleigh_range(lam) if args.gaussian else 1.0
    if not 0.0 < z0 * z0 < math.inf:  # the Gaussian axial curvature divides by z0^2
        raise ValidationError(f"--waist/--lattice-lambda: the squared Rayleigh range of a "
                              f"{args.waist:g} m waist at {lam:g} m is out of range")
    alpha = alpha_scalar(species, state, lam)
    if args.depth_erec is not None:
        depth_j = args.depth_erec * e_rec
    else:
        field = FieldConfig(lam, power_w=args.power, intensity_w_m2=args.intensity)
        depth_j = abs(stark_shift(alpha, intensity_at(field, geom, 0.0, 0.0)).potential_j)
    tp = trap_parameters(depth_j, geom, lam, species.mass_kg,
                         args.probe if args.probe is not None else lam, args.gravity)
    if bad := [name for name, value in zip(tp._fields, tp) if not math.isfinite(value)]:
        raise ValidationError(f"--lattice-lambda/--waist: a trap at {lam:g} m with a "
                              f"{args.waist:g} m waist has no finite {', '.join(bad)}")
    rows = [["state", state, ""], ["alpha_scalar_au", alpha.alpha_scalar_au, "a.u."],
            ["depth", tp.depth_j, "J"], ["depth_rec", tp.depth_rec, "E_rec"],
            ["depth_hz", tp.depth_hz, "Hz"], ["nu_axial_hz", tp.nu_axial_hz, "Hz"],
            ["nu_radial_hz", tp.nu_radial_hz, "Hz"], ["recoil_hz", tp.recoil_hz, "Hz"],
            ["eta", tp.eta, ""], ["site_offset_hz", tp.site_offset_hz, "Hz"]]
    summary = [f"trap at {lam*1e9:g} nm: depth {tp.depth_rec:.2f} E_rec, "
               f"nu_z {tp.nu_axial_hz/1e3:.2f} kHz, nu_r {tp.nu_radial_hz:.1f} Hz, "
               f"eta {tp.eta:.3f}"]
    if alpha.alpha_scalar_au < 0:
        summary.append(f"note: alpha({state}) < 0 here; the state is anti-trapped "
                       "(depth shown is the potential magnitude)")
    return _finish(args, argv, ["quantity", "value", "unit"], rows,
                   {"species": species.name, "state": state}, *summary)


def _detuning_grid(span: float, points: int, flags: str) -> list[float] | np.ndarray:
    """``points`` detunings from -span to +span, as ``np.linspace(-span,
    span, points)`` spaces them, a list or an array as ``pairwise.linspace``
    decides. Refused in one line naming ``flags`` where a step does not
    increase (a subnormal span spread over many points)."""
    from .pairwise import increasing, linspace
    grid = linspace(-span, span, points)
    if not increasing(grid):
        raise ValidationError(f"{flags}: a span of +-{span:g} Hz is too narrow for {points} "
                              "increasing points")
    return grid


def _trace_rows(trace) -> list | np.ndarray:
    """A spectrum's (detuning, value) rows: pairs of floats, which emit
    writes a cell at a time, or for an array grid the float table, which it
    writes in blocks."""
    if isinstance(trace.detuning_hz, list):
        return list(zip(trace.detuning_hz, trace.response))
    import numpy as np
    return np.column_stack((trace.detuning_hz, trace.response))


def _run_clock_line(args, argv):
    if args.pi == (args.rabi is not None):
        raise ValidationError("give exactly one of --rabi or --pi")
    from .clockspec import NU0_OFFSET_HZ, quality_factor, rabi_lineshape
    duration = args.duration
    omega = math.pi / duration if args.pi else TWO_PI * args.rabi
    if not 0.0 < omega * omega < math.inf:
        raise ValidationError(f"{'--duration' if args.pi else '--rabi'}: Omega = {omega:g} rad/s "
                              "has no finite nonzero square")
    if not math.isfinite((TWO_PI * args.span) * (TWO_PI * args.span)):
        raise ValidationError(f"--span: (2 pi x {args.span:g} Hz)^2 overflows")
    grid = _detuning_grid(args.span, args.points, "--span/--points")
    trace = rabi_lineshape(omega, duration, grid, args.saturation)
    nu_clock = float(NU0_OFFSET_HZ)
    if trace.fwhm_hz is None:  # e.g. Omega T = 2 pi puts a node on the carrier
        summary = [f"Rabi line, T = {duration:g} s: FWHM undefined "
                   "(no half-maximum crossing next to the carrier)"]
    else:
        summary = [f"Rabi line, T = {duration:g} s: numeric FWHM = {trace.fwhm_hz:.6g} Hz",
                   f"Q at Fourier width: {quality_factor(nu_clock, trace.fwhm_hz):.3e}"]
    if args.observed_width is not None:
        summary.append(f"Q at observed width {args.observed_width:g} Hz: "
                       f"{quality_factor(nu_clock, args.observed_width):.3e}")
    return _finish(args, argv, ["detuning_hz", "excitation"], _trace_rows(trace),
                   {"omega_rad_s": omega, "duration_s": duration}, *summary)


def _run_zeeman(args, argv):
    from .clockspec import ClockTransition, zeeman_multiplet
    transition = ClockTransition(nuclear_spin=args.spin, dg_hz_per_t=args.dg)
    multiplet = zeeman_multiplet(transition, args.field)
    return _finish(args, argv, ["m_f", "offset_hz"], multiplet,
                   {"field_t": args.field, "dg_hz_per_t": args.dg},
                   f"pi multiplet: {len(multiplet)} lines, "
                   f"adjacent gap {args.dg * args.field:g} Hz")


def _run_sidebands(args, argv):
    # the red/blue weight ratio, as sideband_spectrum weighs the sidebands
    blue = args.eta**2 * (args.nbar + 1.0)
    ratio = args.eta**2 * args.nbar / blue if blue > 0 else 0.0
    if not ratio < 1.0:  # nbar of about 1e16 or more, or eta^2 subnormal
        raise ValidationError(f"--nbar/--eta: the red/blue sideband ratio at --nbar "
                              f"{args.nbar:g} and --eta {args.eta:g} rounds to 1")
    if args.width / 2.0 == 0.0:
        raise ValidationError(f"--width: half of {args.width:g} Hz underflows to 0")
    from .clockspec import nbar_from_asymmetry, sideband_spectrum
    span = args.span if args.span is not None else 1.6 * args.nu_z
    grid = _detuning_grid(span, args.points,
                          "--span/--points" if args.span is not None else "--nu-z/--points")
    trace = sideband_spectrum(args.eta, args.nu_z, args.nbar, args.width, grid)
    return _finish(args, argv, ["detuning_hz", "amplitude"],
                   _trace_rows(trace),
                   {"eta": args.eta, "nbar": args.nbar, "nu_z_hz": args.nu_z},
                   "features: " + ", ".join(f"{f.name}@{f.offset_hz:+g} Hz (w={f.weight:.4g})"
                                            for f in trace.labels),
                   f"red/blue ratio = {ratio:.6f} -> nbar = {nbar_from_asymmetry(ratio):.6f}")


def _run_aggregate(args, argv):
    from .clockspec import aggregate_measurements, read_measurement_ledger
    result = aggregate_measurements(read_measurement_ledger(args.ledger))
    chi2 = (f"reduced chi^2 = {result.chi2_reduced:.3f}" if result.chi2_valid else
            "reduced chi^2 undefined for a single measurement (reported 0)")
    return _finish(args, argv,
                   ["n", "mean_hz_minus_nu0", "sigma_mean_hz", "chi2_reduced", "chi2_valid"],
                   [[result.n, result.mean_hz, result.sigma_mean_hz, result.chi2_reduced,
                     int(result.chi2_valid)]],
                   {"ledger": str(args.ledger)},
                   "nu0 offset: 429228004229800 Hz",
                   f"{result.n} measurements: mean = nu0 + {result.mean_hz:.3f} Hz "
                   f"(sigma {result.sigma_mean_hz:.3f} Hz)", chi2)


def _cavity_system(args, delta_b: float = 0.0, delta_e: float = 0.0):
    from .cavityqed import CavitySystem
    return CavitySystem(g0=TWO_PI * args.g0, kappa=TWO_PI * args.kappa,
                        gamma=TWO_PI * args.gamma, delta_b=TWO_PI * delta_b,
                        delta_e=TWO_PI * delta_e, n_max=args.nmax)


def _drive(args, kappa: float, fraction: float) -> float:
    """--drive in rad/s, by default ``fraction`` x kappa. A given drive must
    leave the transmission's scale (kappa / drive)^2 finite and nonzero."""
    if args.drive is None:
        return fraction * kappa
    drive = TWO_PI * args.drive
    if not 0.0 < (kappa / drive) * (kappa / drive) < math.inf:
        raise ValidationError(f"--drive/--kappa: (kappa / drive)^2 at --drive {args.drive:g} Hz "
                              f"and --kappa {args.kappa:g} Hz is out of range")
    return drive


def _run_cavity_spectrum(args, argv):
    if args.g2 and args.nmax < 3:  # g2(0) needs 3 Fock levels
        raise ValidationError(f"--nmax must be >= 3 with --g2, got '{args.nmax}'")
    # before numpy loads: the window (default +-2 g0) must increase, and its width and
    # the FORT-shift difference must be finite in rad/s
    lo = args.lo if args.lo is not None else -2.0 * args.g0
    hi = args.hi if args.hi is not None else +2.0 * args.g0
    if not lo < hi:
        raise ValidationError(f"--from {lo:g} Hz must be below --to {hi:g} Hz")
    if not math.isfinite(TWO_PI * hi - TWO_PI * lo):
        raise ValidationError(f"--from/--to: a window from {lo:g} to {hi:g} Hz overflows in rad/s")
    if not math.isfinite(TWO_PI * args.delta_e - TWO_PI * args.delta_b):
        raise ValidationError("--delta-e/--delta-b: their difference in rad/s overflows")
    import numpy as np

    from .cavityqed import vacuum_rabi_spectrum
    sys_ = _cavity_system(args, args.delta_b, args.delta_e)
    drive = _drive(args, sys_.kappa, 1e-3)
    grid = np.linspace(TWO_PI * lo, TWO_PI * hi, args.points)
    try:
        result = vacuum_rabi_spectrum(sys_, drive, grid, with_g2=args.g2)
    except NoPhotonsError as exc:  # a probe point whose steady state holds no photons
        raise ValidationError(f"--g2: {exc}") from None
    except ValidationError as exc:  # a decay rate lost beside the largest rate
        raise ValidationError(f"--kappa/--gamma: {exc}") from None
    g2 = result.g2 if result.g2 is not None else [None] * args.points
    rows = [[w / TWO_PI, t, n, g]
            for w, t, n, g in zip(result.omega_p, result.transmission, result.mean_n, g2)]
    peaks = ", ".join(f"{p/TWO_PI/1e6:+.3f} MHz" for p in result.peak_omegas)
    return _finish(args, argv, ["omega_p_over_2pi_hz", "transmission", "mean_n", "g2"], rows,
                   {"g0_rad_s": sys_.g0, "kappa_rad_s": sys_.kappa, "gamma_rad_s": sys_.gamma,
                    "drive_rad_s": drive, "nmax": sys_.n_max},
                   f"vacuum-Rabi spectrum: {args.points} points, peaks at [{peaks}]")


def _run_blockade(args, argv):
    from .cavityqed import blockade_detuning, g2_zero
    sys_ = _cavity_system(args)
    drive = _drive(args, sys_.kappa, 0.1)
    lower, two_photon = -sys_.g0, -sys_.g0 / math.sqrt(2.0)
    try:
        g2_lower = g2_zero(sys_, drive, lower)
        g2_two = g2_zero(sys_, drive, two_photon)
    except ValidationError as exc:  # no photons, or a decay rate lost, beside the largest rate
        raise ValidationError(f"--g0/--kappa/--gamma/--drive: {exc}") from None
    detuning = blockade_detuning(sys_.g0)
    return _finish(args, argv, ["probe", "omega_p_over_2pi_hz", "g2"],
                   [["lower_polariton", lower / TWO_PI, g2_lower],
                    ["two_photon_resonance", two_photon / TWO_PI, g2_two]],
                   {"g0_rad_s": sys_.g0, "blockade_detuning_rad_s": detuning,
                    "nmax": sys_.n_max},
                   f"g2(0) on the lower polariton: {g2_lower:.4f} "
                   f"({'blockade' if g2_lower < 1 else 'no blockade'})",
                   f"g2(0) at the two-photon resonance: {g2_two:.4f}",
                   f"n=1->2 step detuning: {detuning/TWO_PI/1e6:.4f} MHz = (sqrt(2)-1) g0")


def _run_ladder(args, argv):
    # the ladder squares half the FORT-shift difference in rad/s
    half = 0.5 * (TWO_PI * args.delta_e - TWO_PI * args.delta_b)
    if not math.isfinite(half * half):
        raise ValidationError("--delta-e/--delta-b: half their difference in rad/s, squared, "
                              "overflows")
    from .cavityqed import CavitySystem, jc_ladder
    g0, n = TWO_PI * args.g0, args.n
    sys_ = CavitySystem(g0=g0, kappa=1.0, gamma=1.0,  # decay does not enter the ladder
                        delta_b=TWO_PI * args.delta_b, delta_e=TWO_PI * args.delta_e,
                        n_max=max(n, 2))
    lower, upper = (offset / TWO_PI for offset in jc_ladder(sys_, n))
    if not (math.isfinite(lower) and math.isfinite(upper)):  # n g^2, or the mean shift and root
        raise ValidationError(f"--g0/--n/--delta-e/--delta-b: the manifold n={n} offsets "
                              "overflow")
    return _finish(args, argv, ["branch", "offset_hz"], [["lower", lower], ["upper", upper]],
                   {"g0_rad_s": g0, "n": n},
                   f"manifold n={n}: offsets {lower:+.6g} Hz, {upper:+.6g} Hz "
                   "relative to n*omega_0")


_RUNNERS = {
    "polarizability": _run_polarizability,
    "magic": _run_magic,
    "trap": _run_trap,
    "clock-line": _run_clock_line,
    "zeeman": _run_zeeman,
    "sidebands": _run_sidebands,
    "aggregate": _run_aggregate,
    "cavity-spectrum": _run_cavity_spectrum,
    "blockade": _run_blockade,
    "ladder": _run_ladder,
}


def run(argv: list[str]) -> int:
    """Parse argv and execute one subcommand; returns the exit code."""
    parser = build_parser(argv)
    try:
        args = parser.parse_args(_attach_signed_values(argv))
        _resolve(args)
        _check_paths(args)
        if args.verbose:
            print(f"# magictrap {__version__}: {args.command} " + " ".join(argv[1:]))
            print(f"# data dir: {data_dir()}")
        return _RUNNERS[args.command](args, argv)
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except (NumericalError, ArithmeticError) as exc:
        print(f"magictrap: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ValueError, OSError) as exc:
        print(f"magictrap: {exc}", file=sys.stderr)
        return 1


# physics names read from this module from outside the package
# (bench/selftest.py checks that cli.find_magic shows the tracer's patch);
# each is looked up in its module on access, so a patch there shows here
_FORWARDED = {"find_magic": "polarizability"}


def __getattr__(name: str):
    if name not in _FORWARDED:  # also __path__: this module is no package
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__package__}.{_FORWARDED[name]}"), name)


def main() -> None:
    """The process entry of ``magictrap`` and ``python -m magictrap``: runs
    the command, flushes stdout and stderr, and ends with ``os._exit``, so the
    process skips the interpreter's teardown. A failed flush exits 1 with one
    line; an exception that escapes ``run`` propagates as usual. ``run(argv)``
    is the in-process API.
    """
    code = run(sys.argv[1:])
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when its fd was closed at start-up
                stream.flush()
    except OSError as exc:  # the reader of stdout is gone, or the disk is full
        code = 1
        try:
            print(f"magictrap: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
