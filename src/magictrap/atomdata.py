"""Atomic species catalogs: levels, dipole-coupled lines, and the file loader.

Species files are UTF-8 line-oriented text (grammar in the README):

    species <name> mass_kg <float> I <half-integer>
    level <label> energy_hz <float> J <half-integer> [parity <+1|-1>]
    line <lower> <upper> lambda_nm <float> (gamma_s <float> | d_au <float>)
         [cal <float>]    # source

``#`` starts a comment; blank lines are ignored. Exactly one of gamma_s
(partial decay rate upper->lower, 1/s) or d_au (reduced dipole matrix
element, atomic units) is given per line record; the other is derived on
load. ``cal`` is an optional strength calibration multiplier (default 1.0)
applied only when the loader is asked to (see ``load_species``).
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from . import data_dir
from .constants import DIPOLE_AU, GAMMA_PREFACTOR, SPEED_OF_LIGHT
from .errors import CatalogError, ValidationError

# Relative mismatch allowed between a line's stored wavelength and the
# frequency implied by its level energies.
FREQUENCY_CONSISTENCY_TOL = 1e-6


class Level(NamedTuple):
    label: str
    energy_hz: float       # above the ground level
    J: float               # total electronic angular momentum
    parity: int | None = None


class TransitionLine(NamedTuple):
    lower: str
    upper: str
    frequency_hz: float    # ordinary frequency of the transition
    gamma_s: float         # partial decay rate upper -> lower
    d_au: float            # reduced dipole matrix element, |<i||d||k>|, a.u.


class Species(NamedTuple):
    """An immutable catalog. The constructor checks nothing: ``load_species``
    checks every field of the catalogs it returns."""

    name: str
    mass_kg: float
    nuclear_spin: float
    levels: tuple[Level, ...]
    lines: tuple[TransitionLine, ...]

    def level(self, label: str) -> Level:
        for lv in self.levels:
            if lv.label == label:
                return lv
        raise ValidationError(f"species {self.name}: unknown level '{label}'")

    def lines_touching(self, label: str) -> tuple[TransitionLine, ...]:
        self.level(label)
        return tuple(ln for ln in self.lines if label in (ln.lower, ln.upper))


def dipole_from_gamma(gamma_s: float, frequency_hz: float, upper_degeneracy: int) -> float:
    """Reduced dipole matrix element (a.u.) from a partial decay rate.

    Inverts gamma = omega^3 |<i||d||k>|^2 / (3 pi eps0 hbar c^3 (2J_k+1)),
    with omega the angular transition frequency and J_k the upper level.
    """
    if gamma_s <= 0 or frequency_hz <= 0 or upper_degeneracy <= 0:
        raise ValidationError("dipole_from_gamma: all inputs must be > 0")
    omega = 2.0 * math.pi * frequency_hz
    d_si = math.sqrt(gamma_s * GAMMA_PREFACTOR * upper_degeneracy / omega**3)
    return d_si / DIPOLE_AU


def gamma_from_dipole(d_au: float, frequency_hz: float, upper_degeneracy: int) -> float:
    """Partial decay rate (1/s); inverse of ``dipole_from_gamma``."""
    if d_au <= 0 or frequency_hz <= 0 or upper_degeneracy <= 0:
        raise ValidationError("gamma_from_dipole: all inputs must be > 0")
    omega = 2.0 * math.pi * frequency_hz
    d_si = d_au * DIPOLE_AU
    return omega**3 * d_si**2 / (GAMMA_PREFACTOR * upper_degeneracy)


def _parse_half_integer(token: str, where: str) -> float:
    try:
        if "/" in token:
            num, den = token.split("/")
            value = float(int(num)) / float(int(den))
        else:
            value = float(token)
    except (ValueError, ZeroDivisionError):
        raise CatalogError(f"{where}: '{token}' is not a half-integer") from None
    if not 0 <= value < math.inf or abs(2 * value - round(2 * value)) > 1e-9:
        raise CatalogError(f"{where}: '{token}' is not a non-negative half-integer")
    return value


def _parse_float(token: str, where: str, finite: bool = True) -> float:
    try:
        value = float(token)
    except ValueError:
        raise CatalogError(f"{where}: '{token}' is not a number") from None
    if finite and not math.isfinite(value):
        raise CatalogError(f"{where}: '{token}' is not a finite number")
    return value


def bundled_species_path(stem: str) -> Path:
    path = data_dir() / f"{stem}.lines"
    if not path.exists():
        raise ValidationError(f"no bundled species file '{stem}.lines' in {data_dir()}")
    return path


def load_species(path: str | Path, use_calibration: bool = False) -> Species:
    """Parse and validate a species file.

    With ``use_calibration=True`` each line's strength (the squared dipole
    moment, hence also gamma) is multiplied by its ``cal`` field. Loading is
    deterministic: identical file bytes give an identical Species.
    """
    path = Path(path)
    if not path.exists():
        raise CatalogError(f"species file not found: {path}")

    header = None
    levels: list[Level] = []
    raw_lines: list[tuple[int, list[str]]] = []

    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        where = f"{path.name}:{lineno}"
        kind = tokens[0]
        if kind == "species":
            if header is not None:
                raise CatalogError(f"{where}: duplicate species header")
            if len(tokens) != 6 or tokens[2] != "mass_kg" or tokens[4] != "I":
                raise CatalogError(f"{where}: malformed species header")
            header = (tokens[1], _parse_float(tokens[3], where),
                      _parse_half_integer(tokens[5], where))
        elif kind == "level":
            if len(tokens) not in (6, 8) or tokens[2] != "energy_hz" or tokens[4] != "J":
                raise CatalogError(f"{where}: malformed level record")
            parity = None
            if len(tokens) == 8:
                if tokens[6] != "parity":
                    raise CatalogError(f"{where}: malformed level record")
                # finite=False: nan and inf get the parity message below
                parity = _parse_float(tokens[7], where, finite=False)
                if parity not in (-1, 1):
                    raise CatalogError(f"{where}: parity must be +1 or -1")
                parity = int(parity)
            energy_hz = _parse_float(tokens[3], where)
            J = _parse_half_integer(tokens[5], where)
            if energy_hz < 0:
                raise CatalogError(f"{where}: level {tokens[1]}: energy {energy_hz} < 0")
            levels.append(Level(tokens[1], energy_hz, J, parity))
        elif kind == "line":
            raw_lines.append((lineno, tokens))
        else:
            raise CatalogError(f"{where}: unknown record kind '{kind}'")

    if header is None:
        raise CatalogError(f"{path.name}: missing species header")
    name, mass_kg, nuclear_spin = header

    if not levels:
        raise CatalogError(f"{path.name}: no levels (no ground state)")
    labels = [lv.label for lv in levels]
    if len(set(labels)) != len(labels):
        dup = sorted({l for l in labels if labels.count(l) > 1})
        raise CatalogError(f"{path.name}: duplicate level labels {dup}")
    ground = [lv for lv in levels if lv.energy_hz == 0.0]
    if len(ground) != 1:
        raise CatalogError(
            f"{path.name}: need exactly one ground level with energy_hz 0, found {len(ground)}")
    by_label = {lv.label: lv for lv in levels}

    lines: list[TransitionLine] = []
    for lineno, tokens in raw_lines:
        where = f"{path.name}:{lineno}"
        if len(tokens) not in (7, 9):
            raise CatalogError(f"{where}: malformed line record")
        lower_label, upper_label = tokens[1], tokens[2]
        for lab in (lower_label, upper_label):
            if lab not in by_label:
                raise CatalogError(f"{where}: line references unknown level '{lab}'")
        if tokens[3] != "lambda_nm":
            raise CatalogError(f"{where}: expected 'lambda_nm', got '{tokens[3]}'")
        lam_nm = _parse_float(tokens[4], where)
        if lam_nm <= 0:
            raise CatalogError(f"{where}: lambda_nm must be > 0")
        strength_key = tokens[5]
        if strength_key not in ("gamma_s", "d_au"):
            raise CatalogError(
                f"{where}: strength must be 'gamma_s' or 'd_au', got '{strength_key}'")
        strength = _parse_float(tokens[6], where)
        if strength <= 0:
            raise CatalogError(f"{where}: {strength_key} must be > 0")
        cal = 1.0
        if len(tokens) == 9:
            if tokens[7] != "cal":
                raise CatalogError(f"{where}: expected 'cal', got '{tokens[7]}'")
            cal = _parse_float(tokens[8], where)
            if cal <= 0:
                raise CatalogError(f"{where}: cal must be > 0")

        lower, upper = by_label[lower_label], by_label[upper_label]
        if lower.energy_hz >= upper.energy_hz:
            raise CatalogError(
                f"{where}: lower level {lower_label} must lie below {upper_label}")

        frequency_hz = SPEED_OF_LIGHT / (lam_nm * 1e-9)
        implied_hz = upper.energy_hz - lower.energy_hz
        if abs(frequency_hz - implied_hz) / frequency_hz >= FREQUENCY_CONSISTENCY_TOL:
            raise CatalogError(
                f"{where}: lambda_nm {lam_nm} inconsistent with level energies "
                f"({frequency_hz:.6e} Hz vs {implied_hz:.6e} Hz)")

        mult = cal if use_calibration else 1.0
        degeneracy = round(2 * upper.J) + 1
        if strength_key == "gamma_s":
            gamma_s = strength * mult
            d_au = dipole_from_gamma(gamma_s, frequency_hz, degeneracy)
        else:
            # cal multiplies the line strength d^2, so d scales by sqrt(cal)
            d_au = strength * math.sqrt(mult)
            gamma_s = gamma_from_dipole(d_au, frequency_hz, degeneracy)
        if gamma_s <= 0 or d_au <= 0:  # the conversion underflowed
            raise CatalogError(f"line {lower_label}-{upper_label}: strength must be > 0")
        lines.append(TransitionLine(lower_label, upper_label, frequency_hz, gamma_s, d_au))

    if mass_kg <= 0:
        raise CatalogError(f"species {name}: mass must be > 0")
    return Species(name, mass_kg, nuclear_spin, tuple(levels), tuple(lines))
