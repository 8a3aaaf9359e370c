"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (run with -s or check the captured output). Tolerances are
pinned here, not configurable."""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from magictrap.atomdata import bundled_species_path, data_dir, load_species
from magictrap.cavityqed import (CavitySystem, blockade_detuning, coupling_g0,
                                 dressed_transitions, g2_zero, mode_volume,
                                 steady_state, vacuum_rabi_spectrum)
from magictrap.cli import run as cli_run
from magictrap.clockspec import (pair_average, quality_factor, rabi_lineshape,
                                 sideband_spectrum, zeeman_multiplet,
                                 ClockTransition)
from magictrap.fieldtrap import Lattice1D, recoil, site_offset, trap_frequencies
from magictrap.polarizability import alpha_scalar, find_magic

TWO_PI = 2 * math.pi
C = 299792458.0


@contextmanager
def criterion(num, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL {name}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} overran {budget_s}s ({elapsed:.1f}s)"
    print(f"[criterion {num:02d}] PASS {name} ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def sr87():
    return load_species(bundled_species_path("sr87"))


@pytest.fixture(scope="module")
def sr87_cal():
    return load_species(bundled_species_path("sr87"), use_calibration=True)


def test_criterion_01_magic_wavelength(sr87, sr87_cal):
    with criterion(1, "Sr 1S0/3P0 magic wavelength", 5.0):
        plain = find_magic(sr87, "1S0", "3P0", (700e-9, 900e-9))
        assert len(plain) == 1
        assert abs(plain[0].wavelength_m - 813.428e-9) <= 20e-9
        pinned = find_magic(sr87_cal, "1S0", "3P0", (700e-9, 900e-9))
        assert len(pinned) == 1
        assert abs(pinned[0].wavelength_m - 813.428e-9) <= 0.5e-9


def test_criterion_02_pole_structure(sr87):
    with criterion(2, "polarizability pole structure", 1.0):
        for lam in np.geomspace(465e-9, 2.95e-6, 20):
            assert alpha_scalar(sr87, "1S0", float(lam)).alpha_scalar_au > 0

        poles = [C / ln.frequency_hz for ln in sr87.lines_touching("3P0")]

        def pole_free_sign_changes(lo, hi, n=400):
            grid = np.geomspace(lo, hi, n)
            vals = np.array([alpha_scalar(sr87, "3P0", float(l)).alpha_scalar_au
                             for l in grid])
            count = 0
            for i in range(n - 1):
                if vals[i] * vals[i + 1] < 0 and not any(
                        grid[i] < p < grid[i + 1] for p in poles):
                    count += 1
            return count

        assert pole_free_sign_changes(1e-6, 3e-6) == 1
        assert pole_free_sign_changes(600e-9, 700e-9) == 1


def test_criterion_03_clock_line():
    with criterion(3, "Rabi clock line and Q", 1.0):
        duration = 0.5
        trace = rabi_lineshape(math.pi / duration, duration, np.array([0.0]))
        assert abs(trace.fwhm_hz - 1.60) <= 0.01
        q = quality_factor(4.292e14, 1.8)
        assert abs(q - 2.4e14) / 2.4e14 <= 0.05


def test_criterion_04_zeeman_multiplet():
    with criterion(4, "Zeeman pi multiplet and pair averaging", 1.0):
        transition = ClockTransition(nuclear_spin=4.5,
                                     dg_hz_per_t=108.4)
        nu0 = 137.25
        for field in (1e-5, 5e-5, 1e-4, 3e-4, 1e-3):
            lines = dict(zeeman_multiplet(transition, field))
            assert len(lines) == 10
            for m in (0.5, 1.5, 2.5, 3.5, 4.5):
                avg = pair_average(nu0 + lines[m], nu0 + lines[-m])
                assert abs(avg - nu0) <= 1e-12 * nu0


def test_criterion_05_lattice_mechanics(sr87):
    with criterion(5, "recoil, trap frequency, site offset", 1.0):
        _, nu_rec_clock = recoil(sr87.mass_kg, 698e-9)
        assert abs(nu_rec_clock - 4710.0) / 4710.0 <= 0.01

        e_rec, _ = recoil(sr87.mass_kg, 813.428e-9)
        nu_z, _ = trap_frequencies(50 * e_rec, Lattice1D(30e-6),
                                   813.428e-9, sr87.mass_kg)
        assert abs(nu_z - 49.0e3) / 49.0e3 <= 0.01

        offset = site_offset(sr87.mass_kg, 813.428e-9, 9.80665)
        assert abs(offset - 868.0) / 868.0 <= 0.01


def test_criterion_06_sideband_model():
    with criterion(6, "sideband weights vs thermal-sum oracle", 1.0):
        grid = np.linspace(-8e4, 8e4, 101)
        ground = sideband_spectrum(0.31, 4.9e4, 0.0, 2e3, grid)
        assert {f.name: f.weight for f in ground.labels}["red_sideband"] == 0.0

        n = np.arange(401)
        for nbar in (0.2, 1.0, 5.0):
            p = (1 / (nbar + 1)) * (nbar / (nbar + 1)) ** n
            oracle = float(np.sum(p * n) / np.sum(p * (n + 1)))
            trace = sideband_spectrum(0.31, 4.9e4, nbar, 2e3, grid)
            w = {f.name: f.weight for f in trace.labels}
            assert abs(w["red_sideband"] / w["blue_sideband"] - oracle) <= 1e-9


def test_criterion_07_dressed_state_algebra():
    with criterion(7, "dressed-state root identities", 1.0):
        rng = np.random.default_rng(2008)
        for _ in range(1000):
            delta_e, delta_b = rng.uniform(-1e8, 1e8, 2)
            g = rng.uniform(1e5, 5e8)
            sys_ = CavitySystem(g0=g, kappa=1.0, gamma=1.0,
                                delta_b=delta_b, delta_e=delta_e)
            pair = dressed_transitions(sys_)
            scale = max(abs(delta_e), abs(delta_b), g)
            assert abs(pair.delta_plus + pair.delta_minus - (delta_e - delta_b)) \
                <= 1e-12 * scale
            assert abs(pair.delta_plus * pair.delta_minus + g * g) \
                <= 1e-12 * scale * scale

        for _ in range(100):
            shift = rng.uniform(-1e8, 1e8)
            g = rng.uniform(1e5, 5e8)
            sys_ = CavitySystem(g0=g, kappa=1.0, gamma=1.0,
                                delta_b=shift, delta_e=shift)
            pair = dressed_transitions(sys_)
            assert pair.delta_plus == g and pair.delta_minus == -g

        for _ in range(100):
            delta0 = rng.uniform(-1e8, 1e8)
            g = rng.uniform(1e5, 5e8)
            sys_ = CavitySystem(g0=g, kappa=1.0, gamma=1.0,
                                delta_b=-delta0, delta_e=delta0)
            pair = dressed_transitions(sys_)
            root = math.sqrt(delta0**2 + g**2)
            assert abs(pair.delta_plus - (delta0 + root)) <= 1e-12 * (abs(delta0) + root)
            assert abs(pair.delta_minus - (delta0 - root)) <= 1e-12 * (abs(delta0) + root)


def test_criterion_08_cavity_coupling():
    with criterion(8, "g0 from the shipped Cs dipole and cavity geometry", 1.0):
        sheet = json.loads((data_dir() / "cs133_d2.json").read_text())
        omega_c = TWO_PI * C / (sheet["wavelength_nm"] * 1e-9)
        g0 = coupling_g0(sheet["cycling_dipole_cm"], omega_c,
                         mode_volume(24e-6, 42e-6))
        assert abs(g0 / TWO_PI - 34e6) / 34e6 <= 0.03


# shared systems for criteria 9-11
KAPPA = TWO_PI * 4.1e6


def _spectrum_system():
    return CavitySystem(g0=13 * KAPPA, kappa=KAPPA, gamma=KAPPA, n_max=5)


def _blockade_system():
    return CavitySystem(g0=13 * KAPPA, kappa=KAPPA, gamma=KAPPA, n_max=8)


def test_criterion_09_vacuum_rabi_spectrum():
    with criterion(9, "vacuum-Rabi spectrum vs weak-drive oracle", 30.0):
        sys_ = _spectrum_system()
        g, eps = sys_.g0, 1e-3 * KAPPA

        for omega_p in np.linspace(-2 * g, 2 * g, 50):
            ss = steady_state(sys_, eps, float(omega_p))
            oracle = abs(KAPPA / (1j * (0 - omega_p) + KAPPA
                                  + g**2 / (1j * (0 - omega_p) + KAPPA))) ** 2
            assert abs(ss.transmission - oracle) / oracle <= 1e-3

        grid = np.linspace(-2 * g, 2 * g, 200)
        result = vacuum_rabi_spectrum(sys_, eps, grid)
        step = grid[1] - grid[0]
        assert len(result.peak_omegas) == 2
        lower, upper = sorted(result.peak_omegas)
        assert abs(lower + g) <= step and abs(upper - g) <= step

        shifted = CavitySystem(g0=13 * KAPPA, kappa=KAPPA, gamma=KAPPA,
                               n_max=5, delta_b=-0.2 * g, delta_e=-0.2 * g)
        for x in (0.5 * g, g, 1.5 * g):
            up = steady_state(shifted, eps, +x).transmission
            down = steady_state(shifted, eps, -x).transmission
            assert abs(up - down) <= 1e-9


def test_criterion_10_photon_blockade():
    with criterion(10, "photon blockade", 60.0):
        sys_ = _blockade_system()
        g, eps = sys_.g0, 0.1 * KAPPA
        assert g2_zero(sys_, eps, -g) < 1.0
        assert g2_zero(sys_, eps, -g / math.sqrt(2)) > 1.0
        assert abs(blockade_detuning(g) - (math.sqrt(2) - 1) * g) \
            <= 1e-12 * g


def test_criterion_11_density_matrix_hygiene():
    with criterion(11, "steady-state density-matrix hygiene", 30.0):
        eps = 1e-2 * KAPPA
        for sys_ in (_spectrum_system(), _blockade_system()):
            g = sys_.g0
            for omega_p in (0.0, -g, -g / math.sqrt(2), 0.7 * g):
                rho = steady_state(sys_, eps, omega_p).rho
                assert abs(np.trace(rho) - 1) <= 1e-12
                assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
                assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-10

            bigger = CavitySystem(g0=sys_.g0, kappa=sys_.kappa, gamma=sys_.gamma,
                                  n_max=sys_.n_max + 2)
            small_n = steady_state(sys_, eps, -g).mean_n
            big_n = steady_state(bigger, eps, -g).mean_n
            assert abs(small_n - big_n) / big_n <= 1e-6


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    with criterion(12, "CLI byte-identical outputs", 10.0):
        monkeypatch.chdir(tmp_path)
        magic_args = ["magic", "--species", "sr87", "--state1", "1S0",
                      "--state2", "3P0", "--from", "700nm", "--to", "900nm",
                      "--calibrated"]
        assert cli_run(magic_args + ["--out", "m1.json"]) == 0
        assert cli_run(magic_args + ["--out", "m2.json"]) == 0
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

        spec_args = ["cavity-spectrum", "--g0", "40e6hz", "--kappa", "4e6hz",
                     "--gamma", "4e6hz", "--points", "60"]
        assert cli_run(spec_args + ["--jobs", "1", "--out", "s1.csv"]) == 0
        assert cli_run(spec_args + ["--jobs", "4", "--out", "s4.csv"]) == 0
        assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s4.csv").read_bytes()

        scan_args = ["polarizability", "--species", "sr87", "--state1", "1S0",
                     "--state2", "3P0", "--from", "700nm", "--to", "900nm",
                     "--points", "30", "--jobs", "4", "--out", "p4.csv"]
        assert cli_run(scan_args) == 0
        scan_args[-1] = "p1.csv"
        scan_args[scan_args.index("--jobs") + 1] = "1"
        assert cli_run(scan_args) == 0
        assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p4.csv").read_bytes()
