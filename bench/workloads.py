"""Seeded task lists for the three workloads.

A task is one fresh ``python -m magictrap`` process (or, for sublevel
crossings, one run of ``bench/sublevel.py``). The seed draws the physical
parameters; the cost of a pass stays the same from seed to seed because the
grid sizes, truncations and task counts are fixed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

# Calibrated Sr87 1S0/3P0 crossing, as found by the golden magic search.
MAGIC_NM = "813.42803149333031nm"


@dataclass
class Task:
    label: str
    argv: list[str]
    outputs: list[str]
    checks: list = field(default_factory=list)
    script: bool = False                  # run bench/sublevel.py, not the CLI
    inputs: dict = field(default_factory=dict)   # file name -> text, written first


def _mhz(rng: random.Random, lo: float, hi: float) -> float:
    """A frequency in Hz drawn in MHz with three decimals, exact in argv."""
    return round(rng.uniform(lo, hi), 3) * 1e6


def _window(rng: random.Random) -> tuple[float, float]:
    lo = round(math.exp(rng.uniform(math.log(300.0), math.log(1500.0))), 1)
    hi = round(min(3000.0, lo * math.exp(rng.uniform(math.log(1.3), math.log(2.5)))), 1)
    return lo, hi


def magic_survey(rng: random.Random, golden: Path) -> list[Task]:
    """Trap-design session: magic searches, short commands, sublevel crossings."""
    tasks = [
        Task("magic sr87 700-900 calibrated (golden)",
             ["magic", "--species", "sr87", "--state1", "1S0", "--state2", "3P0",
              "--from", "700nm", "--to", "900nm", "--calibrated", "--out", "m0.json"],
             ["m0.json"],
             [checks.same_bytes("m0.json", golden / "magic_sr87_700_900.json"),
              checks.magic_roots("m0.json", 700.0, 900.0)]),
        Task("magic sr87 300-3000",
             ["magic", "--species", "sr87", "--state1", "1S0", "--state2", "3P0",
              "--from", "300nm", "--to", "3000nm", "--out", "m1.json"],
             ["m1.json"], [checks.magic_roots("m1.json", 300.0, 3000.0)]),
    ]
    for i, (species, calibrated) in enumerate(
            [("sr87", False), ("sr87", True), ("sr88", False), ("sr88", True)], start=2):
        lo, hi = _window(rng)
        state2 = rng.choice(["3P0", "3P1"])
        out = f"m{i}.json"
        tasks.append(Task(
            f"magic {species} 1S0/{state2} {lo:g}-{hi:g}" + (" calibrated" if calibrated else ""),
            ["magic", "--species", species, "--state1", "1S0", "--state2", state2,
             "--from", f"{lo}nm", "--to", f"{hi}nm", "--out", out]
            + (["--calibrated"] if calibrated else []),
            [out], [checks.magic_roots(out, lo, hi)]))

    waist = rng.randint(20, 60)
    depth = rng.randint(20, 200)
    tasks.append(Task(
        "trap at the magic wavelength",
        ["trap", "--species", "sr87", "--state", "1S0", "--lattice-lambda", MAGIC_NM,
         "--waist", f"{waist}um", "--depth-erec", str(depth), "--probe", "698nm",
         "--gravity", "9.80665mps2", "--out", "trap.csv"],
        ["trap.csv"]))
    duration = round(rng.uniform(0.1, 1.0), 3)
    tasks.append(Task(
        "clock-line pi pulse",
        ["clock-line", "--duration", f"{duration}s", "--pi",
         "--observed-width", f"{round(rng.uniform(1.0, 3.0), 2)}hz", "--out", "clock.csv"],
        ["clock.csv"], [checks.unit_interval("clock.csv", 1)]))
    tasks.append(Task(
        "zeeman 9/2",
        ["zeeman", "--spin", "9/2", "--dg", f"{round(rng.uniform(80.0, 120.0), 1)}hz",
         "--field", f"{round(rng.uniform(0.05, 1.0), 3)}mt", "--format", "json",
         "--out", "zeeman.json"],
        ["zeeman.json"]))
    tasks.append(Task(
        "sidebands",
        ["sidebands", "--eta", str(round(rng.uniform(0.1, 0.4), 3)),
         "--nu-z", f"{round(rng.uniform(30.0, 80.0), 2)}khz",
         "--nbar", str(round(rng.uniform(0.2, 3.0), 3)),
         "--width", f"{round(rng.uniform(1.0, 5.0), 2)}khz", "--out", "sidebands.csv"],
        ["sidebands.csv"]))
    ledger = ["site,value_hz_minus_nu0,stat_hz,sys_hz"] + [
        f"site{k},{round(rng.uniform(68.0, 78.0), 2)},{round(rng.uniform(0.5, 2.5), 2)},"
        f"{round(rng.uniform(0.8, 3.0), 2)}" for k in range(rng.randint(4, 8))]
    tasks.append(Task(
        "aggregate ledger", ["aggregate", "ledger.csv", "--out", "aggregate.csv"],
        ["aggregate.csv"], inputs={"ledger.csv": "\n".join(ledger) + "\n"}))
    g0 = _mhz(rng, 0.5, 50.0)
    n = rng.randint(1, 5)
    tasks.append(Task(
        "ladder", ["ladder", "--g0", f"{g0 / 1e6}e6hz", "--n", str(n), "--out", "ladder.csv"],
        ["ladder.csv"], [checks.ladder_doublet("ladder.csv", g0, n)]))

    species = rng.choice(["sr87", "sr88"])
    for pol, m2s in (("linear", (0, 1)), ("circular", (1, -1))):
        outs = [f"sub_{pol}{m2:+d}.json" for m2 in m2s]
        tasks.append(Task(
            f"sublevel {species} 1S0/3P1 {pol} m2={m2s}",
            ["--species", species, "--state1", "1S0", "--state2", "3P1",
             "--m2", *map(str, m2s), "--pol", pol, "--from", "300nm", "--to", "3000nm",
             "--out", *outs],
            outs, [checks.magic_roots(out, 300.0, 3000.0) for out in outs], script=True))
    return tasks


def scan_export(rng: random.Random, golden: Path) -> list[Task]:
    """Bulk polarizability scans written as CSV and JSON."""
    # 1S0/3P0 in both species: the same line count, so the same cost and memory
    species = rng.choice(["sr87", "sr88"])
    lo = round(rng.uniform(300.0, 400.0), 1)
    hi = round(rng.uniform(2500.0, 3000.0), 1)
    scan = ["polarizability", "--species", species, "--state1", "1S0", "--state2", "3P0",
            "--from", f"{lo}nm", "--to", f"{hi}nm", "--points", "200000"]
    if rng.random() < 0.5:
        scan.append("--calibrated")
    tasks = [
        Task("polarizability sr87 700-900 x25 (golden)",
             ["polarizability", "--species", "sr87", "--state1", "1S0", "--state2", "3P0",
              "--from", "700nm", "--to", "900nm", "--points", "25", "--out", "golden.csv"],
             ["golden.csv"],
             [checks.same_bytes("golden.csv", golden / "polarizability_sr87_700_900.csv")]),
        Task(f"polarizability 2e5 csv {species} 1S0/3P0", scan + ["--out", "scan.csv"],
             ["scan.csv"], [checks.scan_table("scan.csv", lo, hi, 199000)]),
        Task("polarizability 2e5 csv --jobs 2", scan + ["--jobs", "2", "--out", "scan2.csv"],
             ["scan2.csv"], [checks.same_bytes("scan2.csv", Path("scan.csv"))]),
        Task("polarizability 2e5 json", scan + ["--format", "json", "--out", "scan.json"],
             ["scan.json"], [checks.scan_table("scan.json", lo, hi, 199000)]),
    ]
    other = "sr88" if species == "sr87" else "sr87"
    lo, hi = round(rng.uniform(300.0, 400.0), 1), round(rng.uniform(2500.0, 3000.0), 1)
    tasks.append(Task(
        f"polarizability 2e5 csv {other} 1S0/3P0",
        ["polarizability", "--species", other, "--state1", "1S0", "--state2", "3P0",
         "--from", f"{lo}nm", "--to", f"{hi}nm", "--points", "200000", "--out", "scan_b.csv"],
        ["scan_b.csv"], [checks.scan_table("scan_b.csv", lo, hi, 199000)]))
    species = rng.choice(["sr87", "sr88"])
    lo, hi = round(rng.uniform(600.0, 750.0), 1), round(rng.uniform(850.0, 1000.0), 1)
    tasks.append(Task(
        f"magic --scan-out 1e5 {species}",
        ["magic", "--species", species, "--state1", "1S0", "--state2", "3P0",
         "--from", f"{lo}nm", "--to", f"{hi}nm", "--points", "100000", "--calibrated",
         "--scan-out", "magic_scan.csv", "--out", "magic.json"],
        ["magic.json", "magic_scan.csv"],
        [checks.magic_roots("magic.json", lo, hi),
         checks.scan_table("magic_scan.csv", lo, hi, 99000)]))
    return tasks


def _cavity(rng: random.Random) -> tuple[float, float, float, list[str]]:
    """Strong-coupling g0, kappa, gamma (Hz) and their flags."""
    g0, kappa, gamma = _mhz(rng, 25.0, 40.0), _mhz(rng, 2.5, 5.0), _mhz(rng, 1.5, 3.5)
    flags = ["--g0", f"{g0 / 1e6}e6hz", "--kappa", f"{kappa / 1e6}e6hz",
             "--gamma", f"{gamma / 1e6}e6hz"]
    return g0, kappa, gamma, flags


def cavity_spectra(rng: random.Random, golden: Path) -> list[Task]:
    """Vacuum-Rabi spectra with g2 and photon blockade at several truncations.

    Five spectra of similar length put the median task among them; the n_max 20
    part (two spectra, one blockade) and the rest each take about half a pass.
    """
    tasks = []
    g0, kappa, gamma, flags = _cavity(rng)
    tasks.append(Task(
        "cavity-spectrum n5 x150",
        ["cavity-spectrum", *flags, "--nmax", "5", "--points", "150", "--g2",
         "--out", "spec5.csv"], ["spec5.csv"],
        [checks.vacuum_rabi_peaks("spec5.csv", g0),
         checks.weak_drive("spec5.csv", g0, kappa, gamma)]))

    g0, kappa, gamma, flags = _cavity(rng)
    shift = _mhz(rng, 2.0, 10.0)
    tasks.append(Task(
        "cavity-spectrum n5 x150 magic FORT --jobs 2",
        ["cavity-spectrum", *flags, "--delta-b", f"{shift / 1e6}e6hz",
         "--delta-e", f"{shift / 1e6}e6hz", "--nmax", "5", "--points", "150", "--g2",
         "--jobs", "2", "--format", "json", "--out", "spec5j.json"], ["spec5j.json"],
        [checks.vacuum_rabi_peaks("spec5j.json", g0),
         checks.weak_drive("spec5j.json", g0, kappa, gamma, shift, shift)]))

    g0, kappa, gamma, flags = _cavity(rng)
    delta_b = -_mhz(rng, 2.0, 10.0)
    delta_e = delta_b + round(rng.uniform(0.1, 0.4) * g0, -3)
    tasks.append(Task(
        "cavity-spectrum n8 x100 FORT-shifted",
        ["cavity-spectrum", *flags, f"--delta-b={delta_b / 1e6}e6hz",
         f"--delta-e={delta_e / 1e6}e6hz", "--nmax", "8", "--points", "100", "--g2",
         "--out", "spec8.csv"], ["spec8.csv"],
        [checks.weak_drive("spec8.csv", g0, kappa, gamma, delta_b, delta_e)]))

    g0, kappa, gamma, flags = _cavity(rng)
    tasks.append(Task("blockade n8", ["blockade", *flags, "--out", "block8.csv"],
                      ["block8.csv"], [checks.blockade_g2("block8.csv")]))

    for k in range(2):
        g0, kappa, gamma, flags = _cavity(rng)
        out = f"spec20_{k}.csv"
        tasks.append(Task(
            f"cavity-spectrum n20 x45 #{k}",
            ["cavity-spectrum", *flags, "--nmax", "20", "--points", "45", "--g2",
             "--out", out], [out], [checks.weak_drive(out, g0, kappa, gamma)]))
    g0, kappa, gamma, flags = _cavity(rng)
    tasks.append(Task("blockade n20", ["blockade", *flags, "--nmax", "20", "--out", "block20.csv"],
                      ["block20.csv"], [checks.blockade_g2("block20.csv")]))
    return tasks


WORKLOADS = {
    "magic-survey": magic_survey,
    "scan-export": scan_export,
    "cavity-spectra": cavity_spectra,
}


def make_tasks(workload: str, seed: int, golden: Path) -> list[Task]:
    """The task list of one pass; the same (workload, seed) gives the same list."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), golden)
