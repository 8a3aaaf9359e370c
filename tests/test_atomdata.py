import math

import numpy as np
import pytest

from magictrap.atomdata import (bundled_species_path, data_dir,
                                dipole_from_gamma, gamma_from_dipole,
                                load_species)
from magictrap.errors import CatalogError, ValidationError

# independent CODATA values for the oracle evaluations below
C = 299792458.0
HBAR = 6.62607015e-34 / (2 * math.pi)
EPS0 = 8.8541878128e-12
E_CHARGE = 1.602176634e-19
A0 = 5.29177210903e-11


def write_species(tmp_path, body, header="species X mass_kg 1e-25 I 0"):
    path = tmp_path / "x.lines"
    path.write_text(header + "\n" + body)
    return path


GOOD_BODY = """
level g energy_hz 0.0 J 0
level e energy_hz 6.5e14 J 1   # upper state
line g e lambda_nm 461.2191661538 gamma_s 2.0e8  # synthetic
"""


class TestLoader:
    def test_loads_bundled_sr87_levels(self, sr87):
        labels = {lv.label for lv in sr87.levels}
        for expected in ("1S0", "3P0", "3P1", "3P2", "1P1", "3S1", "3D1", "5p2_3P1"):
            assert expected in labels
        assert sr87.nuclear_spin == 4.5
        assert sr87.name == "Sr87"

    def test_unknown_level_reference_names_offender(self, tmp_path):
        path = write_species(tmp_path, GOOD_BODY + "line g X lambda_nm 500 gamma_s 1e6\n")
        with pytest.raises(CatalogError, match="'X'"):
            load_species(path)

    def test_empty_levels_rejected(self, tmp_path):
        path = write_species(tmp_path, "")
        with pytest.raises(CatalogError, match="ground"):
            load_species(path)

    def test_missing_ground_rejected(self, tmp_path):
        path = write_species(tmp_path, "level a energy_hz 1.0 J 0\n")
        with pytest.raises(CatalogError, match="ground"):
            load_species(path)

    def test_duplicate_labels_rejected(self, tmp_path):
        body = "level g energy_hz 0 J 0\nlevel g energy_hz 1e14 J 0\n"
        with pytest.raises(CatalogError, match="duplicate"):
            load_species(write_species(tmp_path, body))

    def test_wavelength_level_consistency_enforced(self, tmp_path):
        body = ("level g energy_hz 0.0 J 0\nlevel e energy_hz 6.5e14 J 1\n"
                "line g e lambda_nm 470 gamma_s 1e8\n")
        with pytest.raises(CatalogError, match="inconsistent"):
            load_species(write_species(tmp_path, body))

    def test_malformed_records_rejected(self, tmp_path):
        for body in ("level g energy_hz 0 J 0\nwidget 1 2 3\n",
                     "level g energy J 0\n",
                     "level g energy_hz 0 J 0\nline g g lambda_nm 1 gamma_s 1\n",
                     "level g energy_hz 0 J 0.3\n"):
            with pytest.raises(CatalogError):
                load_species(write_species(tmp_path, body))

    def test_negative_level_energy_rejected(self, tmp_path):
        path = write_species(tmp_path, "level g energy_hz 0 J 0\nlevel e energy_hz -5 J 1\n")
        with pytest.raises(CatalogError, match=r"^x\.lines:3: level e: energy -5\.0 < 0$"):
            load_species(path)

    @pytest.mark.parametrize("mass", ["0", "-1e-25"])
    def test_non_positive_mass_rejected(self, tmp_path, mass):
        path = write_species(tmp_path, GOOD_BODY, header=f"species X mass_kg {mass} I 0")
        with pytest.raises(ValidationError, match=r"^species X: mass must be > 0$"):
            load_species(path)

    def test_mass_is_checked_after_the_lines(self, tmp_path):
        # a file with several faults reports the first one the loader meets
        body = GOOD_BODY.replace("461.2191661538", "470")
        path = write_species(tmp_path, body, header="species X mass_kg -1 I 0")
        with pytest.raises(CatalogError, match="inconsistent"):
            load_species(path)

    @pytest.mark.parametrize("field, good", [
        ("mass_kg", "1e-25"), ("energy_hz", "6.5e14"), ("lambda_nm", "461.2191661538"),
        ("gamma_s", "2.0e8"), ("cal", "1.0")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_numbers_rejected(self, tmp_path, field, good, bad):
        header = "species X mass_kg 1e-25 I 0"
        body = GOOD_BODY.replace("gamma_s 2.0e8", "gamma_s 2.0e8 cal 1.0")
        if field == "mass_kg":
            header = header.replace(good, bad)
        else:
            body = body.replace(f"{field} {good}", f"{field} {bad}")
        lineno = {"mass_kg": 1, "energy_hz": 4, "lambda_nm": 5, "gamma_s": 5, "cal": 5}[field]
        with pytest.raises(CatalogError,
                           match=rf"^x\.lines:{lineno}: '{bad}' is not a finite number$"):
            load_species(write_species(tmp_path, body, header=header))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_dipole_rejected(self, tmp_path, bad):
        body = GOOD_BODY.replace("gamma_s 2.0e8", f"d_au {bad}")
        with pytest.raises(CatalogError, match=rf"^x\.lines:5: '{bad}' is not a finite number$"):
            load_species(write_species(tmp_path, body))

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_half_integer_rejected(self, tmp_path, bad):
        header = f"species X mass_kg 1e-25 I {bad}"
        with pytest.raises(CatalogError, match=rf"^x\.lines:1: '{bad}' is not a non-negative"):
            load_species(write_species(tmp_path, GOOD_BODY, header=header))
        body = GOOD_BODY.replace("J 1", f"J {bad}")
        with pytest.raises(CatalogError, match=rf"^x\.lines:4: '{bad}' is not a non-negative"):
            load_species(write_species(tmp_path, body))

    def test_underflowing_strength_rejected(self, tmp_path):
        for strength in ("gamma_s 1e-300", "d_au 1e-200"):
            body = GOOD_BODY.replace("gamma_s 2.0e8", strength)
            with pytest.raises(CatalogError, match=r"^line g-e: strength must be > 0$"):
                load_species(write_species(tmp_path, body))

    @pytest.mark.parametrize("energy, strength, calibrated, field", [
        # d_si**2 overflows while the derived gamma is computed
        ("6.5e14", "d_au 1e200", False, "d_au"),
        # gamma_s times cal is inf, and so is the derived d_au
        ("6.5e14", "gamma_s 1e300 cal 1e300", True, "gamma_s"),
        # omega**3 underflows to 0 under gamma_s
        ("2.99792458e-283", "gamma_s 1", False, "gamma_s"),
        # the derived gamma is finite but d_au squared is not
        ("1e12", "d_au 1e155", False, "d_au"),
    ])
    def test_overflowing_strength_names_its_field(self, tmp_path, energy, strength,
                                                  calibrated, field):
        lam_nm = 299792458.0 / float(energy) * 1e9
        body = (f"level g energy_hz 0.0 J 0\nlevel e energy_hz {energy} J 1\n"
                f"line g e lambda_nm {lam_nm!r} {strength}\n")
        with pytest.raises(CatalogError,
                           match=rf"^x\.lines:4: {field} out of range: the line strength overflows$"):
            load_species(write_species(tmp_path, body), use_calibration=calibrated)

    def test_calibration_overflow_is_checked_only_when_applied(self, tmp_path):
        path = write_species(tmp_path, GOOD_BODY.replace("2.0e8", "1e300 cal 1e300"))
        assert load_species(path).lines[0].gamma_s == 1e300

    @pytest.mark.parametrize("lam", ["1e-310", "1e-320"])
    def test_wavelength_with_infinite_frequency_rejected(self, tmp_path, lam):
        # 1e-310 nm is subnormal in metres and 1e-320 nm is 0; the consistency
        # check against the level energies would compare a nan and pass
        path = write_species(tmp_path, GOOD_BODY.replace("461.2191661538", lam))
        with pytest.raises(CatalogError, match=rf"^x\.lines:5: lambda_nm {lam} is too small: "
                                               r"its frequency overflows$"):
            load_species(path)

    def test_loading_is_deterministic(self, tmp_path):
        path = write_species(tmp_path, GOOD_BODY)
        assert load_species(path) == load_species(path)

    def test_every_bundled_catalog_is_consistent(self):
        for stem in ("sr87", "sr88", "cs133"):
            species = load_species(bundled_species_path(stem))
            for ln in species.lines:
                implied = (species.level(ln.upper).energy_hz
                           - species.level(ln.lower).energy_hz)
                assert abs(ln.frequency_hz - implied) / ln.frequency_hz < 1e-6

    def test_calibration_multiplier_scales_strength(self, tmp_path):
        body = ("level g energy_hz 0.0 J 0\nlevel e energy_hz 6.5e14 J 1\n"
                "line g e lambda_nm 461.2191661538 d_au 2.0 cal 1.21\n")
        path = write_species(tmp_path, body)
        plain = load_species(path)
        calibrated = load_species(path, use_calibration=True)
        assert plain.lines[0].d_au == 2.0
        # cal multiplies the strength d^2, so d scales by sqrt(cal)
        assert calibrated.lines[0].d_au == pytest.approx(2.0 * 1.1, rel=1e-12)
        assert calibrated.lines[0].gamma_s == pytest.approx(
            plain.lines[0].gamma_s * 1.21, rel=1e-12)

    def test_half_integer_forms(self, tmp_path):
        path = write_species(tmp_path, "level g energy_hz 0 J 3/2\n",
                             header="species X mass_kg 1e-25 I 4.5")
        species = load_species(path)
        assert species.nuclear_spin == 4.5
        assert species.level("g").J == 1.5

    def test_data_dir_override(self, tmp_path, monkeypatch):
        src = bundled_species_path("sr87").read_text()
        (tmp_path / "sr87.lines").write_text(src)
        monkeypatch.setenv("MAGICTRAP_DATA", str(tmp_path))
        assert data_dir() == tmp_path
        assert bundled_species_path("sr87") == tmp_path / "sr87.lines"


class TestDipoleGamma:
    def test_zero_gamma_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            gamma_from_dipole(0.0, 6.5e14, 3)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = rng.uniform(0.1, 6.0)
            freq = rng.uniform(1e13, 2e15)
            deg = int(rng.integers(1, 8))
            back = dipole_from_gamma(gamma_from_dipole(d, freq, deg), freq, deg)
            assert abs(back - d) / d < 1e-10

    def test_461_dipole_regression(self, sr87):
        """Oracle: independent CODATA evaluation of the conversion formula."""
        line = next(ln for ln in sr87.lines if ln.upper == "1P1")
        omega = 2 * math.pi * line.frequency_hz
        d_si = math.sqrt(line.gamma_s * 3 * math.pi * EPS0 * HBAR * C**3 * 3
                         / omega**3)
        oracle_au = d_si / (E_CHARGE * A0)
        assert line.d_au == pytest.approx(oracle_au, rel=1e-12)
        # frozen regression value for the bundled gamma = 1.9002e8 1/s
        assert line.d_au == pytest.approx(5.2478792852, rel=1e-9)


def test_parity_field_parses(tmp_path):
    path = tmp_path / "p.lines"
    path.write_text("species X mass_kg 1e-25 I 0\n"
                    "level g energy_hz 0 J 0 parity 1\n"
                    "level e energy_hz 5e14 J 1 parity -1\n")
    species = load_species(path)
    assert species.level("g").parity == 1
    assert species.level("e").parity == -1


@pytest.mark.parametrize("parity", ["1.5", "0", "nan", "inf", "-inf"])
def test_parity_must_be_exactly_one(tmp_path, parity):
    path = tmp_path / "p.lines"
    path.write_text("species X mass_kg 1e-25 I 0\n"
                    f"level g energy_hz 0 J 0 parity {parity}\n")
    with pytest.raises(CatalogError, match=r"^p\.lines:2: parity must be \+1 or -1$"):
        load_species(path)


def test_sr88_shares_the_crossing(tmp_path):
    from magictrap.polarizability import find_magic
    sr88 = load_species(bundled_species_path("sr88"), use_calibration=True)
    pts = find_magic(sr88, "1S0", "3P0", (700e-9, 900e-9))
    assert len(pts) == 1
    assert abs(pts[0].wavelength_m - 813.428e-9) < 0.5e-9
