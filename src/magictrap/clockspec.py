"""Lattice-clock spectra: Rabi lineshapes, Zeeman pi-multiplets, motional
sidebands, and aggregation of absolute-frequency measurements.

Detunings are ordinary frequencies in Hz; Rabi frequencies are angular
(rad/s). Absolute clock frequencies are reported relative to the fixed
offset NU0_OFFSET_HZ. Each lineshape is one formula for a float or an
array, run on the grid's container as ``pairwise`` sets out, with the same
bits either way. The Zeeman multiplet and the ledger mean run on floats.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError, checked
from .pairwise import increasing, pairwise_sum

if TYPE_CHECKING:
    import numpy as np

# Reporting offset for absolute clock-frequency ledgers (Hz).
NU0_OFFSET_HZ = 429_228_004_229_800


@checked
class ClockTransition(NamedTuple):
    """Clock-transition bookkeeping for a species with F_g = F_e = I.

    ``dg_hz_per_t`` is the differential-g-factor splitting per unit field
    per unit m_F (Hz / (T * m_F)); it ships as configuration, not as a
    built-in constant.
    """

    nuclear_spin: float
    dg_hz_per_t: float

    def _check(self):
        if self.nuclear_spin < 0 or abs(2 * self.nuclear_spin - round(2 * self.nuclear_spin)) > 1e-9:
            raise ValidationError("nuclear spin must be a non-negative half-integer")


class SpectralFeature(NamedTuple):
    name: str
    offset_hz: float
    weight: float


@checked
class SpectrumTrace(NamedTuple):
    """A lineshape over its detuning grid: lists for a grid given as a list,
    numpy arrays otherwise."""

    detuning_hz: list[float] | np.ndarray
    response: list[float] | np.ndarray
    labels: tuple[SpectralFeature, ...] = ()
    fwhm_hz: float | None = None

    def _check(self):
        d = self.detuning_hz
        if not isinstance(d, list):  # an array, or a scalar as one point
            import numpy as np
            d = np.ravel(d)
        if len(d) == 0:
            raise ValidationError("empty detuning grid")
        if not increasing(d):
            raise ValidationError("detuning grid must be strictly increasing")


@checked
class Measurement(NamedTuple):
    site: str
    value_hz: float          # relative to the nu0 reporting offset
    stat_hz: float
    sys_hz: float

    def _check(self):
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


class _Floats:
    """The numpy functions a lineshape formula calls, for one Python float.
    sqrt and the square round correctly in both; numpy's float64 sin gives
    libm's bits, which tests/test_clockspec.py checks."""

    sqrt = staticmethod(math.sqrt)
    sin = staticmethod(math.sin)
    minimum = staticmethod(min)

    @staticmethod
    def square(x):
        return x * x


def _evaluate(formula, points, **errstate):
    """``formula(xp, x)`` over points: a list a point at a time on Python
    floats (xp = _Floats), any other grid once on a numpy array (xp = numpy)
    under ``np.errstate(**errstate)``. A float run that fails (math.sin of
    inf) or gives a non-finite value is run again in numpy, so that numpy
    raises or warns as it would have."""
    if isinstance(points, list):
        try:
            values = [formula(_Floats, x) for x in points]
            if all(map(math.isfinite, values)):
                return values
        except (ArithmeticError, ValueError):
            pass
    import numpy as np
    with np.errstate(**errstate):
        return formula(np, np.asarray(points, dtype=float))


def _grid(detuning_hz):
    """A grid given as a list as a list of floats, any other as a float array."""
    if isinstance(detuning_hz, list):
        return list(map(float, detuning_hz))
    import numpy as np
    return np.asarray(detuning_hz, dtype=float)


def rabi_lineshape(omega_rabi: float, duration_s: float, detuning_hz,
                   saturation: float = 1.0) -> SpectrumTrace:
    """Excitation probability of a Rabi pulse over a detuning grid.

    P(delta) = Omega^2/(Omega^2 + w^2) sin^2(sqrt(Omega^2 + w^2) T / 2)
    with w = 2 pi delta. ``saturation`` scales P with a clamp at 1 (the
    illustrative saturated-line model). The FWHM of the central feature is
    located numerically and stored on the returned trace: a walk in steps
    of 1/(4T) brackets the first half-maximum crossing right of the
    carrier, and bisection of that step refines it. The first 1024 steps
    of the walk and the bisection run on floats, a longer walk in numpy. A
    numpy overflow or invalid value anywhere on the way raises
    ``FloatingPointError``.
    """
    if omega_rabi <= 0 or duration_s <= 0:
        raise ValidationError("rabi_lineshape: Omega and T must be > 0")
    if not 0.0 < omega_rabi * omega_rabi < math.inf:
        raise ValidationError(f"rabi_lineshape: Omega = {omega_rabi:g} rad/s has no "
                              "finite nonzero square")
    grid = _grid(detuning_hz)
    rabi2 = omega_rabi**2

    def prob(xp, delta_hz):
        w = 2.0 * math.pi * delta_hz
        w2 = xp.square(w)
        gen = xp.sqrt(rabi2 + w2)
        p = rabi2 / (rabi2 + w2) * xp.square(xp.sin(gen * duration_s / 2.0))
        return xp.minimum(saturation * p, 1.0)

    def at(points):
        return _evaluate(prob, points, over="raise", invalid="raise")

    response = at(grid)
    peak = float(at([0.0])[0])
    half = peak / 2.0

    # first half-crossing right of the carrier; the line is symmetric
    fwhm = None
    if peak > 0:
        step = 1.0 / (4.0 * duration_s)
        limit = 1e6 / duration_s
        # the first hi in step, step + step, ... with P(hi) <= half or hi >=
        # limit, tested a block of 1024 at a time: with the carrier on a node
        # (Omega T = 2 pi n) no crossing exists and the walk runs to the limit.
        # The steps add one at a time, as np.add.accumulate adds them.
        his = list(itertools.accumulate(itertools.repeat(step, 1023), initial=step))
        hi, start = None, step
        if his[-1] < math.inf:  # else numpy raises on the sum that overflows
            hi = next((h for h, p in zip(his, at(his)) if p <= half or h >= limit), None)
            start = his[-1] + step
        if hi is None:
            import numpy as np
            with np.errstate(over="raise", invalid="raise"):
                while True:
                    his = np.add.accumulate(np.r_[start, np.full(1023, step)])
                    stop = np.flatnonzero((at(his) <= half) | (his >= limit))
                    if stop.size:
                        hi = float(his[stop[0]])
                        break
                    start = his[-1] + step
        if float(at([hi])[0]) <= half:
            # P(hi - step) > half >= P(hi): bisect the walk's last step
            a, b = hi - step, hi
            while b - a > 1e-12 * step + 1e-14 * b:
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    break  # no representable point left between the ends
                if float(at([mid])[0]) > half:
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
    grid = _grid(detuning_hz)
    features = (
        SpectralFeature("red_sideband", -nu_axial_hz, eta**2 * nbar),
        SpectralFeature("carrier", 0.0, 1.0),
        SpectralFeature("blue_sideband", +nu_axial_hz, eta**2 * (nbar + 1.0)),
    )
    half = carrier_width_hz / 2.0

    def lorentzians(xp, x):
        total = 0.0
        for f in features:
            total = total + f.weight / (1.0 + xp.square((x - f.offset_hz) / half))
        return total

    # a far tail's square overflows, and its term is 0
    response = _evaluate(lorentzians, grid, over="ignore")
    if isinstance(response, list):
        top = max(response, default=0.0)
        return SpectrumTrace(grid, [r / top for r in response] if top > 0 else response,
                             features)
    top = response.max() if response.size else 0.0
    return SpectrumTrace(grid, response / top if top > 0 else response, features)


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
