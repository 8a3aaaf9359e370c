"""Lattice-clock spectra: Rabi lineshapes, Zeeman pi-multiplets, motional
sidebands, and aggregation of absolute-frequency measurements.

Detunings are ordinary frequencies in Hz; Rabi frequencies are angular
(rad/s). Absolute clock frequencies are reported relative to the fixed
offset NU0_OFFSET_HZ. numpy loads only with the spectra, which build
arrays; the Zeeman multiplet and the ledger mean run on plain floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError
from .pairwise import pairwise_sum

if TYPE_CHECKING:
    import numpy as np

# Reporting offset for absolute clock-frequency ledgers (Hz).
NU0_OFFSET_HZ = 429_228_004_229_800


@dataclass(frozen=True)
class ClockTransition:
    """Clock-transition bookkeeping for a species with F_g = F_e = I.

    ``dg_hz_per_t`` is the differential-g-factor splitting per unit field
    per unit m_F (Hz / (T * m_F)); it ships as configuration, not as a
    built-in constant.
    """

    nuclear_spin: float
    dg_hz_per_t: float

    def __post_init__(self):
        if self.nuclear_spin < 0 or abs(2 * self.nuclear_spin - round(2 * self.nuclear_spin)) > 1e-9:
            raise ValidationError("nuclear spin must be a non-negative half-integer")


class SpectralFeature(NamedTuple):
    name: str
    offset_hz: float
    weight: float


@dataclass(frozen=True)
class SpectrumTrace:
    detuning_hz: np.ndarray
    response: np.ndarray
    labels: tuple[SpectralFeature, ...] = ()
    fwhm_hz: float | None = None

    def __post_init__(self):
        import numpy as np
        d = np.asarray(self.detuning_hz, dtype=float)
        if d.size == 0:
            raise ValidationError("empty detuning grid")
        if d.size > 1 and not np.all(np.diff(d) > 0):
            raise ValidationError("detuning grid must be strictly increasing")


@dataclass(frozen=True)
class Measurement:
    site: str
    value_hz: float          # relative to the nu0 reporting offset
    stat_hz: float
    sys_hz: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.value_hz, self.stat_hz, self.sys_hz))):
            raise ValidationError(f"measurement {self.site}: values must be finite")
        if self.stat_hz <= 0 or self.sys_hz <= 0:
            raise ValidationError(f"measurement {self.site}: sigmas must be > 0")

    @property
    def total_sigma_hz(self) -> float:
        return math.hypot(self.stat_hz, self.sys_hz)


class AggregateResult(NamedTuple):
    mean_hz: float           # relative to nu0
    sigma_mean_hz: float
    chi2_reduced: float
    chi2_valid: bool
    n: int


def rabi_lineshape(omega_rabi: float, duration_s: float, detuning_hz,
                   saturation: float = 1.0) -> SpectrumTrace:
    """Excitation probability of a Rabi pulse over a detuning grid.

    P(delta) = Omega^2/(Omega^2 + w^2) sin^2(sqrt(Omega^2 + w^2) T / 2)
    with w = 2 pi delta. ``saturation`` scales P with a clamp at 1 (the
    illustrative saturated-line model). The FWHM of the central feature is
    located numerically and stored on the returned trace: a walk in steps
    of 1/(4T) brackets the first half-maximum crossing right of the
    carrier, and bisection of that step refines it. A numpy overflow
    or invalid value anywhere on the way raises ``FloatingPointError``.
    """
    if omega_rabi <= 0 or duration_s <= 0:
        raise ValidationError("rabi_lineshape: Omega and T must be > 0")
    if not 0.0 < omega_rabi * omega_rabi < math.inf:
        raise ValidationError(f"rabi_lineshape: Omega = {omega_rabi:g} rad/s has no "
                              "finite nonzero square")
    import numpy as np
    grid = np.asarray(detuning_hz, dtype=float)
    if grid.size == 0:
        raise ValidationError("rabi_lineshape: empty detuning grid")

    def prob(delta_hz):
        w = 2.0 * math.pi * np.asarray(delta_hz)
        rabi2 = omega_rabi**2
        gen = np.sqrt(rabi2 + w**2)
        p = rabi2 / (rabi2 + w**2) * np.sin(gen * duration_s / 2.0) ** 2
        return np.minimum(saturation * p, 1.0)

    with np.errstate(over="raise", invalid="raise"):
        response = prob(grid)
        peak = float(prob(0.0))
        half = peak / 2.0

        # first half-crossing right of the carrier; the line is symmetric
        fwhm = None
        if peak > 0:
            step = 1.0 / (4.0 * duration_s)
            limit = 1e6 / duration_s
            # the first hi in step, step + step, ... with P(hi) <= half or
            # hi >= limit, tested a block at a time: with the carrier on a node
            # (Omega T = 2 pi n) no crossing exists and the walk runs to the limit
            start = step
            while True:
                his = np.add.accumulate(np.r_[start, np.full(1023, step)])
                stop = np.flatnonzero((prob(his) <= half) | (his >= limit))
                if stop.size:
                    hi = float(his[stop[0]])
                    break
                start = his[-1] + step
            if float(prob(hi)) <= half:
                # P(hi - step) > half >= P(hi): bisect the walk's last step
                a, b = hi - step, hi
                while b - a > 1e-12 * step + 1e-14 * b:
                    mid = 0.5 * (a + b)
                    if mid <= a or mid >= b:
                        break  # no representable point left between the ends
                    if float(prob(mid)) > half:
                        a = mid
                    else:
                        b = mid
                fwhm = a + b  # twice the midpoint of the last bracket

        labels = (SpectralFeature("carrier", 0.0, peak),)
        return SpectrumTrace(grid, response, labels, fwhm)


def quality_factor(frequency_hz: float, fwhm_hz: float) -> float:
    if fwhm_hz <= 0:
        raise ValidationError("fwhm must be > 0")
    return frequency_hz / fwhm_hz


def zeeman_multiplet(transition: ClockTransition, field_t: float) -> list[tuple[float, float]]:
    """(m_F, offset_hz) for the 2I+1 pi components under a bias field.

    Offsets are m_F * dg * B; only Delta m_F = 0 excitation is modeled.
    """
    i2 = round(2 * transition.nuclear_spin)
    out = []
    for two_m in range(-i2, i2 + 1, 2):
        m_f = two_m / 2.0
        out.append((m_f, m_f * transition.dg_hz_per_t * field_t))
    return out


def pair_average(nu_plus_hz: float, nu_minus_hz: float) -> float:
    """Mean of a +/-m_F transition pair; cancels shifts odd in m_F."""
    if not (math.isfinite(nu_plus_hz) and math.isfinite(nu_minus_hz)):
        raise ValidationError("pair_average: inputs must be finite")
    return 0.5 * (nu_plus_hz + nu_minus_hz)


def sideband_spectrum(eta: float, nu_axial_hz: float, nbar: float,
                      carrier_width_hz: float, detuning_hz) -> SpectrumTrace:
    """Carrier and first-order motional sidebands in the Lamb-Dicke limit.

    Feature weights: carrier 1, red sideband eta^2 nbar at -nu_axial, blue
    sideband eta^2 (nbar + 1) at +nu_axial; red/blue = nbar/(nbar + 1).
    Each feature is drawn as a unit-peak Lorentzian of FWHM
    ``carrier_width_hz`` scaled by its weight, and the trace is normalized
    to a maximum of 1.
    """
    if not 0.0 <= eta < 1.0:
        raise ValidationError("sideband model needs 0 <= eta < 1")
    if nbar < 0:
        raise ValidationError("nbar must be >= 0")
    if nu_axial_hz <= 0 or carrier_width_hz <= 0:
        raise ValidationError("nu_axial and carrier_width must be > 0")
    import numpy as np
    grid = np.asarray(detuning_hz, dtype=float)

    features = (
        SpectralFeature("red_sideband", -nu_axial_hz, eta**2 * nbar),
        SpectralFeature("carrier", 0.0, 1.0),
        SpectralFeature("blue_sideband", +nu_axial_hz, eta**2 * (nbar + 1.0)),
    )
    half = carrier_width_hz / 2.0
    response = np.zeros_like(grid)
    with np.errstate(over="ignore"):  # a far tail's square overflows, and its term is 0
        for f in features:
            response += f.weight / (1.0 + ((grid - f.offset_hz) / half) ** 2)
    top = response.max() if grid.size else 0.0
    if top > 0:
        response = response / top
    return SpectrumTrace(grid, response, features)


def nbar_from_asymmetry(ratio: float) -> float:
    """Mean occupation from the red/blue sideband weight ratio:
    nbar = r/(1-r). Inverse of the ratio produced by sideband_spectrum."""
    if not 0.0 <= ratio < 1.0:
        raise ValidationError("sideband ratio must be in [0, 1)")
    return ratio / (1.0 - ratio)


def aggregate_measurements(measurements: list[Measurement]) -> AggregateResult:
    """Inverse-variance weighted mean with sigma_tot^2 = stat^2 + sys^2.

    A single measurement is returned as-is with the reduced chi^2 flagged
    undefined (reported as 0). Each sum adds in numpy's pairwise order, so
    the results keep the bits of ``np.sum`` over the same arrays.
    """
    if not measurements:
        raise ValidationError("no measurements to aggregate")
    n = len(measurements)
    values = [m.value_hz for m in measurements]
    sigmas = [m.total_sigma_hz for m in measurements]
    weights = [1.0 / (s * s) for s in sigmas]
    total = pairwise_sum(weights.__getitem__, 0, n)
    mean = pairwise_sum(lambda k: weights[k] * values[k], 0, n) / total
    sigma_mean = 1.0 / math.sqrt(total)
    if n == 1:
        return AggregateResult(mean, sigma_mean, 0.0, False, n)
    dev = [v - mean for v in values]
    chi2 = pairwise_sum(lambda k: weights[k] * (dev[k] * dev[k]), 0, n) / (n - 1)
    return AggregateResult(mean, sigma_mean, chi2, True, n)


def read_measurement_ledger(path) -> list[Measurement]:
    """Parse a measurement CSV: header site,value_hz_minus_nu0,stat_hz,sys_hz.

    ``#`` comment lines are ignored.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = None
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
                expected = ["site", "value_hz_minus_nu0", "stat_hz", "sys_hz"]
                if header != expected:
                    raise ValidationError(
                        f"measurement ledger header {header} != {expected}")
                continue
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != 4:
                raise ValidationError(f"bad ledger row: {line!r}")
            rows.append(Measurement(cells[0], float(cells[1]),
                                    float(cells[2]), float(cells[3])))
    if header is None:
        raise ValidationError("empty measurement ledger")
    return rows
