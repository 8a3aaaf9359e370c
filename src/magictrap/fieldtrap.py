"""Trapping light fields and geometry.

Intensity profiles for a focused Gaussian beam and a retro-reflected 1D
lattice, photon-recoil scales, harmonic trap frequencies, the Lamb-Dicke
parameter, and the gravitational offset between neighboring lattice sites.
All lengths in meters, all frequencies in ordinary Hz.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# the polarization classes live in angular; bench/sublevel.py reads them here
from .angular import CircularPolarization, LinearPolarization, Polarization  # noqa: F401
from .constants import PLANCK
from .errors import ValidationError, checked


@checked
class FieldConfig(NamedTuple):
    """Trap light: wavelength and either total power of one beam or its
    peak intensity (exactly one of the two)."""

    wavelength_m: float
    power_w: float | None = None
    intensity_w_m2: float | None = None

    def _check(self):
        if self.wavelength_m <= 0:
            raise ValidationError("wavelength must be > 0")
        given = (self.power_w is not None, self.intensity_w_m2 is not None)
        if sum(given) != 1:
            raise ValidationError("give exactly one of power_w or intensity_w_m2")
        value = self.power_w if self.power_w is not None else self.intensity_w_m2
        if value < 0:
            raise ValidationError("power/intensity must be >= 0")


@checked
class GaussianBeam(NamedTuple):
    """Focused TEM00 beam; its Rayleigh range z0 = pi w0^2 / lambda comes
    from the waist and the wavelength of the field it is used with."""

    waist_m: float

    def _check(self):
        if self.waist_m <= 0:
            raise ValidationError("waist must be > 0")

    def rayleigh_range(self, wavelength_m: float) -> float:
        return math.pi * self.waist_m**2 / wavelength_m


@checked
class Lattice1D(NamedTuple):
    """Retro-reflected standing wave. ``mirror_loss`` scales the ideal 4x
    antinode interference factor (1.0 = lossless)."""

    waist_m: float
    mirror_loss: float = 1.0

    def _check(self):
        if self.waist_m <= 0:
            raise ValidationError("waist must be > 0")
        if not 0.0 < self.mirror_loss <= 1.0:
            raise ValidationError("mirror_loss must be in (0, 1]")


TrapGeometry = GaussianBeam | Lattice1D


class TrapParameters(NamedTuple):
    """Derived mechanical parameters of a trap at a given depth."""

    depth_j: float
    depth_rec: float        # depth in units of the lattice photon recoil
    depth_hz: float
    nu_axial_hz: float
    nu_radial_hz: float
    eta: float              # Lamb-Dicke parameter at the probe wavelength
    recoil_hz: float
    site_offset_hz: float = 0.0


def peak_intensity(field: FieldConfig, geom: TrapGeometry) -> float:
    """Single-beam peak intensity I0 = 2P/(pi w0^2), or the configured one."""
    if field.intensity_w_m2 is not None:
        return field.intensity_w_m2
    return 2.0 * field.power_w / (math.pi * geom.waist_m**2)


def intensity_at(field: FieldConfig, geom: TrapGeometry, r: float, z: float) -> float:
    """Local intensity (W/m^2) at radial offset r and axial offset z.

    Gaussian beam: I0 / (1+(z/z0)^2) * exp(-2 r^2 / w(z)^2).
    Lattice: 4 I0 cos^2(2 pi z / lambda) exp(-2 r^2 / w0^2), times the
    mirror-loss factor.
    """
    i0 = peak_intensity(field, geom)
    if isinstance(geom, GaussianBeam):
        z0 = geom.rayleigh_range(field.wavelength_m)
        w2 = geom.waist_m**2 * (1.0 + (z / z0) ** 2)
        return i0 / (1.0 + (z / z0) ** 2) * math.exp(-2.0 * r**2 / w2)
    standing = math.cos(2.0 * math.pi * z / field.wavelength_m) ** 2
    return 4.0 * geom.mirror_loss * i0 * standing * math.exp(-2.0 * r**2 / geom.waist_m**2)


def recoil(mass_kg: float, wavelength_m: float) -> tuple[float, float]:
    """Photon recoil (E_rec in J, nu_rec in Hz): E_rec = h^2/(2 m lambda^2)."""
    if mass_kg <= 0 or wavelength_m <= 0:
        raise ValidationError("recoil: mass and wavelength must be > 0")
    e_rec = PLANCK**2 / (2.0 * mass_kg * wavelength_m**2)
    return e_rec, e_rec / PLANCK


def trap_frequencies(depth_j: float, geom: TrapGeometry, trap_wavelength_m: float,
                     mass_kg: float) -> tuple[float, float]:
    """Harmonic (nu_axial, nu_radial) in Hz from the potential curvature.

    Lattice axial: nu_z = 2 nu_rec sqrt(U0/E_rec). Gaussian axial uses the
    Rayleigh-range curvature. Radial is common to both geometries:
    nu_r = (1/2pi) sqrt(4 U0 / (m w0^2)).
    """
    if depth_j < 0:
        raise ValidationError("trap depth must be >= 0")
    if depth_j == 0.0:
        return 0.0, 0.0
    nu_radial = math.sqrt(4.0 * depth_j / (mass_kg * geom.waist_m**2)) / (2.0 * math.pi)
    if isinstance(geom, Lattice1D):
        e_rec, nu_rec = recoil(mass_kg, trap_wavelength_m)
        nu_axial = 2.0 * nu_rec * math.sqrt(depth_j / e_rec)
    else:
        z0 = geom.rayleigh_range(trap_wavelength_m)
        nu_axial = math.sqrt(2.0 * depth_j / (mass_kg * z0**2)) / (2.0 * math.pi)
    return nu_axial, nu_radial


def lamb_dicke(probe_wavelength_m: float, nu_axial_hz: float, mass_kg: float) -> float:
    """eta = sqrt(nu_rec(probe) / nu_axial)."""
    if nu_axial_hz <= 0:
        raise ValidationError("lamb_dicke: nu_axial must be > 0")
    _, nu_rec = recoil(mass_kg, probe_wavelength_m)
    return math.sqrt(nu_rec / nu_axial_hz)


def site_offset(mass_kg: float, lattice_wavelength_m: float, local_g: float) -> float:
    """Gravitational energy difference between neighboring sites, in Hz:
    delta nu = m g (lambda/2) / h. Zero gravity is allowed."""
    if mass_kg <= 0 or lattice_wavelength_m <= 0 or local_g < 0:
        raise ValidationError("site_offset: bad input")
    return mass_kg * local_g * (lattice_wavelength_m / 2.0) / PLANCK


def trap_parameters(depth_j: float, geom: TrapGeometry, trap_wavelength_m: float,
                    mass_kg: float, probe_wavelength_m: float,
                    local_g: float = 0.0) -> TrapParameters:
    """Bundle depth, frequencies, Lamb-Dicke parameter and site offset."""
    e_rec, nu_rec = recoil(mass_kg, trap_wavelength_m)
    nu_ax, nu_rad = trap_frequencies(depth_j, geom, trap_wavelength_m, mass_kg)
    eta = lamb_dicke(probe_wavelength_m, nu_ax, mass_kg) if nu_ax > 0 else 0.0
    offset = site_offset(mass_kg, trap_wavelength_m, local_g)
    return TrapParameters(
        depth_j=depth_j,
        depth_rec=depth_j / e_rec,
        depth_hz=depth_j / PLANCK,
        nu_axial_hz=nu_ax,
        nu_radial_hz=nu_rad,
        eta=eta,
        recoil_hz=nu_rec,
        site_offset_hz=offset,
    )
