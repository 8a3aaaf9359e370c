"""Output checks shared by every workload.

A task fails when it exits non-zero, prints a traceback, leaves an output
missing, unparseable or holding a non-finite number, or breaks one of the
physics checks its workload attaches.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

TWO_PI = 2.0 * math.pi


class OutputError(Exception):
    """An output file is missing, malformed or holds a non-finite number."""


def _reject_constant(token):
    raise OutputError(f"non-finite JSON token {token}")


def _finite_float(token: str) -> float:
    value = float(token)  # json accepts 1e999, which float() turns into inf
    if not math.isfinite(value):
        raise OutputError(f"non-finite JSON number {token}")
    return value


def _cell(text: str, where: str):
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        return text
    if not math.isfinite(value):
        raise OutputError(f"{where}: non-finite number '{text}'")
    return value


def load_output(path: Path) -> dict:
    """Parse a CSV or JSON output into a dict; CSV becomes {columns, rows}."""
    if not path.is_file():
        raise OutputError(f"{path.name}: missing")
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        try:
            doc = json.loads(text, parse_constant=_reject_constant,
                             parse_float=_finite_float)
        except ValueError as exc:
            raise OutputError(f"{path.name}: invalid JSON ({exc})") from None
        except OutputError as exc:
            raise OutputError(f"{path.name}: {exc}") from None
        if not isinstance(doc, dict):
            raise OutputError(f"{path.name}: top level is not an object")
        return doc
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not body:
        raise OutputError(f"{path.name}: no CSV header")
    reader = csv.reader(body)
    columns = next(reader)
    rows = []
    for row in reader:
        if len(row) != len(columns):
            raise OutputError(f"{path.name}: row of {len(row)} fields under "
                              f"{len(columns)} columns")
        rows.append([_cell(v, path.name) for v in row])
    return {"columns": columns, "rows": rows}


def task_problems(task, workdir: Path, code, stderr: str,
                  reference: Path | None = None) -> list[str]:
    """Every reason ``task`` failed, given its exit code and stderr. With a
    ``reference`` directory from an earlier, fully checked run of the same
    tasks, each output must instead equal the reference byte for byte."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "Traceback (most recent call last)" in stderr:
        problems.append("traceback on stderr")
    if reference is not None:
        for name in task.outputs:
            mine = workdir / name
            if not mine.is_file() or mine.read_bytes() != (reference / name).read_bytes():
                problems.append(f"{name} differs from the checked run's output")
        return problems
    docs = {}
    for name in task.outputs:
        try:
            docs[name] = load_output(workdir / name)
        except (OutputError, OSError, UnicodeDecodeError) as exc:
            problems.append(str(exc))
    if problems:
        return problems
    for check in task.checks:
        try:
            msg = check(workdir, docs)
        except Exception as exc:  # a malformed output must count, not abort the run
            msg = f"{check.__name__}: {type(exc).__name__}: {exc}"
        if msg:
            problems.append(msg)
    return problems


# --- physics checks: each returns None or a one-line problem -----------------

def same_bytes(name: str, reference: Path):
    """The output ``name`` equals the reference byte for byte; a relative
    reference names another output of the same pass."""
    def golden(workdir, docs):
        if (workdir / name).read_bytes() != (workdir / reference).read_bytes():
            return f"{name} differs from {reference.name}"
    return golden


def magic_roots(name: str, lo_nm: float, hi_nm: float):
    """Roots sit inside their bracket and the window, residual < 1e-6 a.u."""
    def roots(workdir, docs):
        for p in docs[name]["points"]:
            lam, (a, b) = p["lambda_nm"], p["bracket_nm"]
            if not (a <= lam <= b and lo_nm <= lam <= hi_nm):
                return f"{name}: root {lam} nm outside bracket [{a}, {b}]"
            if not p["residual_au"] < 1e-6:
                return f"{name}: residual {p['residual_au']} a.u. at {lam} nm"
    return roots


def scan_table(name: str, lo_nm: float, hi_nm: float, min_rows: int):
    """Increasing wavelengths inside the window; delta = alpha1 - alpha2."""
    def scan(workdir, docs):
        rows = docs[name]["rows"]
        if len(rows) < min_rows:
            return f"{name}: {len(rows)} rows, expected at least {min_rows}"
        prev = 0.0
        for lam, a1, a2, d in rows:
            if not (prev < lam and lo_nm * (1 - 1e-12) <= lam <= hi_nm * (1 + 1e-12)):
                return f"{name}: wavelength {lam} out of order or outside window"
            if abs(d - (a1 - a2)) > 1e-12 * max(abs(a1), abs(a2), 1.0):
                return f"{name}: delta != alpha1 - alpha2 at {lam} nm"
            prev = lam
    return scan


def weak_drive_transmission(omega_p, g, kappa, gamma, omega_a=0.0, omega_c=0.0):
    """Linear-response transmission of the cavity-driven atom-cavity system."""
    return abs(kappa / (1j * (omega_c - omega_p) + kappa
                        + g**2 / (1j * (omega_a - omega_p) + gamma))) ** 2


def weak_drive(name: str, g0_hz: float, kappa_hz: float, gamma_hz: float,
               delta_b_hz: float = 0.0, delta_e_hz: float = 0.0):
    """Transmission matches the linear-response oracle to 1e-3 relative."""
    g, kappa, gamma = TWO_PI * g0_hz, TWO_PI * kappa_hz, TWO_PI * gamma_hz
    omega_a = TWO_PI * (delta_e_hz - delta_b_hz)

    def oracle(workdir, docs):
        for row in docs[name]["rows"]:
            want = weak_drive_transmission(TWO_PI * row[0], g, kappa, gamma, omega_a)
            if abs(row[1] - want) > 1e-3 * want:
                return f"{name}: transmission {row[1]} vs oracle {want} at {row[0]} Hz"
    return oracle


def vacuum_rabi_peaks(name: str, g0_hz: float):
    """A degenerate spectrum peaks at -g0 and +g0, each within one grid step."""
    def peaks(workdir, docs):
        rows = docs[name]["rows"]
        nu = [r[0] for r in rows]
        t = [r[1] for r in rows]
        step = (nu[-1] - nu[0]) / (len(nu) - 1)
        found = [nu[i] for i in range(1, len(t) - 1) if t[i - 1] < t[i] > t[i + 1]]
        for target in (-g0_hz, g0_hz):
            if not any(abs(p - target) <= step for p in found):
                return f"{name}: no peak within one step of {target:+.6g} Hz (peaks {found})"
    return peaks


def blockade_g2(name: str):
    """g2 < 1 on the lower polariton, g2 > 1 at the two-photon resonance."""
    def blockade(workdir, docs):
        g2 = {row[0]: row[2] for row in docs[name]["rows"]}
        if not g2["lower_polariton"] < 1.0:
            return f"{name}: g2 = {g2['lower_polariton']} on the lower polariton"
        if not g2["two_photon_resonance"] > 1.0:
            return f"{name}: g2 = {g2['two_photon_resonance']} at the two-photon resonance"
    return blockade


def ladder_doublet(name: str, g0_hz: float, n: int):
    """Unshifted Jaynes-Cummings manifold n sits at -+sqrt(n) g0."""
    def doublet(workdir, docs):
        offsets = {row[0]: row[1] for row in docs[name]["rows"]}
        want = math.sqrt(n) * g0_hz
        for branch, sign in (("lower", -1.0), ("upper", 1.0)):
            if abs(offsets[branch] - sign * want) > 1e-12 * want:
                return f"{name}: {branch} branch {offsets[branch]} Hz, expected {sign * want}"
    return doublet


def unit_interval(name: str, column: int):
    """A probability column stays inside [0, 1]."""
    def bounded(workdir, docs):
        for row in docs[name]["rows"]:
            if not 0.0 <= row[column] <= 1.0:
                return f"{name}: value {row[column]} outside [0, 1]"
    return bounded
