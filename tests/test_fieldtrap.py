import math

import numpy as np
import pytest

from magictrap.errors import ValidationError
from magictrap.fieldtrap import (FieldConfig, GaussianBeam, Lattice1D,
                                 intensity_at, lamb_dicke, peak_intensity,
                                 recoil, site_offset, trap_frequencies,
                                 trap_parameters)

SR_MASS = 1.4431559e-25  # kg, as shipped in sr87.lines
H = 6.62607015e-34


class TestIntensity:
    def test_gaussian_axial_lorentzian(self):
        field = FieldConfig(1e-6, power_w=1.0)
        geom = GaussianBeam(20e-6)
        z0 = geom.rayleigh_range(1e-6)
        i0 = peak_intensity(field, geom)
        assert intensity_at(field, geom, 0.0, z0) == pytest.approx(i0 / 2, rel=1e-12)

    def test_lattice_antinode_interference(self):
        field = FieldConfig(813e-9, intensity_w_m2=5e7)
        geom = Lattice1D(30e-6)
        assert intensity_at(field, geom, 0.0, 0.0) == pytest.approx(4 * 5e7, rel=1e-12)
        node = intensity_at(field, geom, 0.0, 813e-9 / 4)
        assert node == pytest.approx(0.0, abs=1e-4)

    def test_peak_intensity_arithmetic(self):
        # oracle: I0 = 2P/(pi w0^2) = 1.105243e9 W/m^2 for P=1 W, w0=24 um
        field = FieldConfig(852e-9, power_w=1.0)
        i0 = peak_intensity(field, GaussianBeam(24e-6))
        assert i0 == pytest.approx(2.0 / (math.pi * (24e-6) ** 2), rel=1e-12)
        assert i0 == pytest.approx(1.105243e9, rel=1e-6)

    def test_intensity_nonnegative_and_peaked_at_focus(self):
        field = FieldConfig(1e-6, power_w=0.3)
        for geom in (GaussianBeam(20e-6), Lattice1D(20e-6)):
            peak = intensity_at(field, geom, 0.0, 0.0)
            for r in np.linspace(0, 60e-6, 7):
                for z in np.linspace(-40e-6, 40e-6, 9):
                    val = intensity_at(field, geom, float(r), float(z))
                    assert 0.0 <= val <= peak * (1 + 1e-12)

    def test_mirror_loss_scales_contrast(self):
        field = FieldConfig(813e-9, intensity_w_m2=1e8)
        lossy = Lattice1D(30e-6, mirror_loss=0.9)
        assert intensity_at(field, lossy, 0, 0) == pytest.approx(0.9 * 4e8, rel=1e-12)

    def test_rayleigh_consistency_enforced(self):
        derived = GaussianBeam(24e-6).rayleigh_range(852e-9)
        assert derived == pytest.approx(math.pi * (24e-6) ** 2 / 852e-9, rel=1e-12)

    def test_field_config_needs_exactly_one_source(self):
        with pytest.raises(ValidationError):
            FieldConfig(1e-6)
        with pytest.raises(ValidationError):
            FieldConfig(1e-6, power_w=1.0, intensity_w_m2=1.0)


class TestRecoil:
    def test_sr_clock_probe(self):
        _, nu = recoil(SR_MASS, 698e-9)
        assert nu == pytest.approx(4711.96, rel=1e-4)

    def test_sr_lattice(self):
        _, nu = recoil(SR_MASS, 813.428e-9)
        assert nu == pytest.approx(3469.56, rel=1e-4)

    def test_lambda_scaling_monotone(self):
        nus = [recoil(SR_MASS, lam)[1] for lam in (0.5e-6, 1e-6, 2e-6, 4e-6)]
        assert nus == sorted(nus, reverse=True)
        for lam in (0.6e-6, 1.1e-6, 2.3e-6):
            assert recoil(SR_MASS, 2 * lam)[1] == pytest.approx(
                recoil(SR_MASS, lam)[1] / 4, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            recoil(0.0, 1e-6)
        with pytest.raises(ValidationError):
            recoil(SR_MASS, -1.0)


class TestTrapFrequencies:
    def test_zero_depth(self):
        assert trap_frequencies(0.0, Lattice1D(30e-6), 813e-9, SR_MASS) == (0.0, 0.0)

    def test_lattice_axial_50_recoils(self):
        e_rec, _ = recoil(SR_MASS, 813.428e-9)
        nu_z, _ = trap_frequencies(50 * e_rec, Lattice1D(30e-6), 813.428e-9, SR_MASS)
        assert nu_z == pytest.approx(49067.0, rel=1e-4)

    def test_parabola_fit_oracle(self):
        """Curvature of U0 cos^2(kz) near z = 0 reproduces the closed form."""
        e_rec, _ = recoil(SR_MASS, 813.428e-9)
        u0 = 42.0 * e_rec
        lam = 813.428e-9
        k = 2 * math.pi / lam
        z = np.linspace(-lam / 400, lam / 400, 101)
        potential = -u0 * np.cos(k * z) ** 2
        # quartic fit so the cos^2 anharmonicity does not bias the curvature
        curvature = np.polyfit(z, potential, 4)[2] * 2.0
        nu_oracle = math.sqrt(curvature / SR_MASS) / (2 * math.pi)
        nu_z, _ = trap_frequencies(u0, Lattice1D(30e-6), lam, SR_MASS)
        assert nu_z == pytest.approx(nu_oracle, rel=1e-6)

    def test_sqrt_depth_scaling(self):
        e_rec, _ = recoil(SR_MASS, 813.428e-9)
        geom = Lattice1D(30e-6)
        base, base_r = trap_frequencies(10 * e_rec, geom, 813.428e-9, SR_MASS)
        for mult in (4.0, 9.0, 25.0):
            nu_z, nu_r = trap_frequencies(mult * 10 * e_rec, geom, 813.428e-9, SR_MASS)
            assert nu_z == pytest.approx(base * math.sqrt(mult), rel=1e-12)
            assert nu_r == pytest.approx(base_r * math.sqrt(mult), rel=1e-12)

    def test_gaussian_axial_from_rayleigh_curvature(self):
        u0 = 1e-27
        geom = GaussianBeam(24e-6)
        z0 = geom.rayleigh_range(852e-9)
        nu_z, nu_r = trap_frequencies(u0, geom, 852e-9, SR_MASS)
        assert nu_z == pytest.approx(
            math.sqrt(2 * u0 / (SR_MASS * z0**2)) / (2 * math.pi), rel=1e-12)
        assert nu_r > nu_z


class TestLambDicke:
    def test_clock_probe_value(self):
        eta = lamb_dicke(698e-9, 49067.0, SR_MASS)
        assert eta == pytest.approx(0.3099, rel=1e-3)

    def test_eta_squared_identity(self):
        for nu_z in (2e4, 5e4, 1.2e5):
            eta = lamb_dicke(698e-9, nu_z, SR_MASS)
            _, nu_rec = recoil(SR_MASS, 698e-9)
            assert eta**2 * nu_z == pytest.approx(nu_rec, rel=1e-12)

    def test_tight_trap_limit(self):
        assert lamb_dicke(698e-9, 1e12, SR_MASS) < 1e-3

    def test_zero_axial_rejected(self):
        with pytest.raises(ValidationError):
            lamb_dicke(698e-9, 0.0, SR_MASS)


class TestSiteOffset:
    def test_zero_gravity(self):
        assert site_offset(SR_MASS, 813.428e-9, 0.0) == 0.0

    def test_vertical_sr_lattice(self):
        # oracle: m g (lambda/2) / h = 868.69 Hz
        offset = site_offset(SR_MASS, 813.428e-9, 9.80665)
        oracle = SR_MASS * 9.80665 * (813.428e-9 / 2) / H
        assert offset == pytest.approx(oracle, rel=1e-12)
        assert offset == pytest.approx(868.69, rel=1e-4)

    def test_linear_in_wavelength(self):
        one = site_offset(SR_MASS, 813.428e-9, 9.80665)
        two = site_offset(SR_MASS, 2 * 813.428e-9, 9.80665)
        assert two == pytest.approx(2 * one, rel=1e-12)


def test_trap_parameters_bundle():
    e_rec, nu_rec = recoil(SR_MASS, 813.428e-9)
    params = trap_parameters(50 * e_rec, Lattice1D(30e-6), 813.428e-9,
                             SR_MASS, 698e-9, local_g=9.80665)
    assert params.depth_rec == pytest.approx(50.0, rel=1e-12)
    assert params.recoil_hz == pytest.approx(nu_rec, rel=1e-12)
    assert params.eta**2 * params.nu_axial_hz == pytest.approx(
        recoil(SR_MASS, 698e-9)[1], rel=1e-12)
    assert params.site_offset_hz > 0
