"""Dynamic polarizabilities, a.c. Stark shifts, and magic-wavelength search.

The scalar polarizability of state i is a sum over every catalog line
touching i, counter-rotating term retained:

    alpha(omega) = 1/(3(2J_i+1)) * sum_k |<i||d||k>|^2 * 2 w_ki/(w_ki^2 - w^2)

with signed w_ki = w_k - w_i so downward couplings enter with w_ki < 0.
Vector (J > 0) and tensor (J >= 1) parts carry the standard angular-momentum
weights (6-j symbols over the partner J) and resolve the sublevels of any J.
Everything internal is in atomic units.

``_StateTerms``, built once per state, holds all three line sums and the
state's pole table ``poles_au`` (|w_ki|), which the pole guards and the
magic search's segment edges read. ``_StateTerms.sums`` adds one line's
term num_k / (w_ki^2 - w^2) at a time, for a float omega or a scan grid,
in the order of numpy's ``.sum(axis=-1)`` over (points x lines), so its
results keep the bits of that reduction. Search and scan grids are
``pairwise.geomspace``'s. A magic search follows ``pairwise.FLOAT_POINTS``;
a single wavelength and a pole check run on floats, a scan grid in numpy.

Field convention: U = -alpha * I / (2 eps0 c) with I the local
time-averaged intensity. Hyperpolarizability O(E^4) is omitted throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .angular import LinearPolarization, Polarization, wigner_6j
from .atomdata import Species, TransitionLine
from .constants import (HARTREE_HZ, PLANCK, POLARIZABILITY_AU, SPEED_OF_LIGHT,
                        VACUUM_PERMITTIVITY)
from .errors import PoleError, ValidationError
from . import pairwise
from .pairwise import geomspace, pairwise_sum

# Relative detuning below which a requested wavelength is rejected as
# sitting on a catalog resonance.
POLE_GUARD = 1e-7

# Bisection refinement target for magic-wavelength crossings (relative in
# wavelength). Essentially machine precision: steep crossings wedged between
# two poles need the full float resolution to push the re-evaluated residual
# |delta alpha| below 1e-6 a.u.
REFINE_TOL = 4e-16

DEFAULT_SCAN_POINTS = 2000


class PolarizabilityResult(NamedTuple):
    state: str
    wavelength_m: float
    alpha_scalar_au: float
    alpha_scalar_si: float            # C m^2 / V
    alpha_vector_au: float
    alpha_tensor_au: float
    per_m_au: dict                    # m -> alpha_m (a.u.) for the requested polarization

    def per_m_si(self, m: float) -> float:
        if m not in self.per_m_au:
            raise ValidationError(f"{self.state}: no per-m polarizability for m = {m}; "
                                  f"available m: {sorted(self.per_m_au) or 'none'}")
        return self.per_m_au[m] * POLARIZABILITY_AU


class StarkShift(NamedTuple):
    state: str
    potential_j: float                # negative = trapping toward high intensity
    shift_hz: float


class MagicPoint(NamedTuple):
    wavelength_m: float
    residual_au: float                # |alpha1 - alpha2| re-evaluated at the root
    bracket_m: tuple[float, float]


class _StateTerms:
    """One state's line sums, built once per state: the pole table
    ``poles_au`` (|w_ki|, a.u.), and as float lists w_ki^2 and the per-line
    numerators of the scalar, vector (J > 0) and tensor (J >= 1) sums."""

    def __init__(self, species: Species, state: str):
        self.J = J = species.level(state).J
        self.lines: list[TransitionLine] = list(species.lines_touching(state))
        omega, d2, j_partner = [], [], []
        for ln in self.lines:
            sign = 1.0 if ln.lower == state else -1.0
            omega.append(sign * ln.frequency_hz / HARTREE_HZ)
            d2.append(ln.d_au**2)
            partner = ln.upper if ln.lower == state else ln.lower
            j_partner.append(species.level(partner).J)
        self.poles_au = [abs(w) for w in omega]
        self.omega2_au = [w * w for w in omega]
        self.scalar_num = [2.0 * w * d for w, d in zip(omega, d2)]
        # 6-j weights of the vector (J > 0) and tensor (J >= 1) line sums
        self.vector_num = self.tensor_num = None
        if J > 0:
            self.vector_num = [(-1.0) ** round(J + jk + 1) * wigner_6j(1, 1, 1, J, jk, J) * d * 2.0
                               for jk, d in zip(j_partner, d2)]
        if J >= 1:
            self.tensor_num = [(-1.0) ** round(J + jk) * wigner_6j(1, 2, 1, J, jk, J) * d * 2.0 * w
                               for jk, d, w in zip(j_partner, d2, omega)]

    def sums(self, omega, sublevel: bool = False):
        """Scalar line sum at omega (a.u., a float or an array); with
        ``sublevel`` the (scalar, vector, tensor) sums, a part the state
        lacks being 0."""
        if not self.lines:  # numpy's empty sum: +0.0 shaped like omega
            zero = 0.0 * omega
            return (zero, zero, zero) if sublevel else zero
        w2, o2, n = omega * omega, self.omega2_au, len(self.lines)
        s, v, t = self.scalar_num, self.vector_num, self.tensor_num
        a_s = pairwise_sum(lambda k: s[k] / (o2[k] - w2), 0, n) / (3.0 * (2.0 * self.J + 1.0))
        if not sublevel:
            return a_s
        J, a_v, a_t = self.J, 0.0, 0.0
        if v is not None:
            a_v = math.sqrt(6.0 * J / ((J + 1.0) * (2.0 * J + 1.0))) * pairwise_sum(
                lambda k: v[k] * omega / (o2[k] - w2), 0, n)
        if t is not None:
            a_t = math.sqrt(10.0 * J * (2.0 * J - 1.0)
                            / (3.0 * (J + 1.0) * (2.0 * J + 1.0) * (2.0 * J + 3.0))) * pairwise_sum(
                lambda k: t[k] / (o2[k] - w2), 0, n)
        return a_s, a_v, a_t

    def alpha(self, omega, m: float | None = None, pol: Polarization | None = None):
        """The scalar sum at omega, or with ``m`` sublevel m under ``pol``."""
        if m is None:
            return self.sums(omega)
        return _alpha_m(self.J, m, pol, *self.sums(omega, sublevel=True))


def _terms_at(species: Species, state: str, wavelength_m: float):
    """The state's terms and omega (a.u.) at a wavelength outside every
    pole guard band of the state."""
    terms = _StateTerms(species, state)
    if wavelength_m <= 0:
        raise ValidationError("wavelength must be > 0")
    omega = (SPEED_OF_LIGHT / wavelength_m) / HARTREE_HZ
    if terms.lines:
        rel = [abs(omega - p) / p for p in terms.poles_au]
        hit = min(range(len(rel)), key=rel.__getitem__)
        if rel[hit] < POLE_GUARD:
            ln = terms.lines[hit]
            raise PoleError(
                f"wavelength within pole guard band of line "
                f"{ln.lower}-{ln.upper} ({1e9 * SPEED_OF_LIGHT / ln.frequency_hz:.4f} nm)")
    return terms, omega


def alpha_scalar(species: Species, state: str, wavelength_m: float) -> PolarizabilityResult:
    """Scalar dynamic polarizability of ``state`` at ``wavelength_m``.

    Raises PoleError when the wavelength falls inside the guard band of a
    catalog line of the state.
    """
    terms, w = _terms_at(species, state, wavelength_m)
    a_s = float(terms.alpha(w))
    return PolarizabilityResult(
        state=state, wavelength_m=wavelength_m,
        alpha_scalar_au=a_s, alpha_scalar_si=a_s * POLARIZABILITY_AU,
        alpha_vector_au=0.0, alpha_tensor_au=0.0,
        per_m_au={0: a_s} if terms.J == 0 else {})


def _alpha_m(J: float, m: float, pol: Polarization, a_s, a_v, a_t):
    """Sublevel m of a level J from its scalar, vector and tensor parts (a.u.):

    alpha_m = alpha_s + A cos(kappa) (m/2J) alpha_v
              + [(3m^2 - J(J+1)) / (J(2J-1))] * [(3 cos^2 theta_p - 1)/2] alpha_t

    The vector part enters for J > 0 and the tensor part for J >= 1 only
    (its weight is 0/0 at J = 1/2).
    """
    alpha = a_s
    if J > 0:
        alpha = alpha + pol.circular_degree * (m / (2.0 * J)) * a_v
    if J >= 1:
        tensor_weight = (3.0 * m * m - J * (J + 1.0)) / (J * (2.0 * J - 1.0))
        alpha = alpha + tensor_weight * pol.tensor_angle_factor * a_t
    return alpha


def alpha_m_resolved(species: Species, state: str, wavelength_m: float,
                     pol: Polarization) -> PolarizabilityResult:
    """Sublevel-resolved polarizability under a given light polarization, for
    every m = -J..J of any J (see ``_alpha_m``). The keys of ``per_m_au``
    are ints for integer J and halves for half-integer J; for J = 0 the
    result is the scalar value with a single m = 0 entry.
    """
    terms, w = _terms_at(species, state, wavelength_m)
    a_s, a_v, a_t = map(float, terms.sums(w, sublevel=True))
    two_j = round(2 * terms.J)
    ms = [k / 2 if two_j % 2 else k // 2 for k in range(-two_j, two_j + 1, 2)]
    per_m = {m: _alpha_m(terms.J, m, pol, a_s, a_v, a_t) for m in ms}
    return PolarizabilityResult(
        state=state, wavelength_m=wavelength_m,
        alpha_scalar_au=a_s, alpha_scalar_si=a_s * POLARIZABILITY_AU,
        alpha_vector_au=a_v, alpha_tensor_au=a_t, per_m_au=per_m)


def stark_shift(alpha: PolarizabilityResult, intensity_w_m2: float,
                m: float | None = None) -> StarkShift:
    """a.c. Stark shift U = -alpha_eff I / (2 eps0 c) for time-averaged I.

    ``m`` selects a per_m entry; default is the scalar polarizability.
    """
    if intensity_w_m2 < 0:
        raise ValidationError("intensity must be >= 0")
    if m is None:
        a_si = alpha.alpha_scalar_si
    else:
        a_si = alpha.per_m_si(m)
    u = -a_si * intensity_w_m2 / (2.0 * VACUUM_PERMITTIVITY * SPEED_OF_LIGHT)
    return StarkShift(alpha.state, u, u / PLANCK)


def differential_clock_shift(species: Species, state1: str, state2: str,
                             wavelength_m: float, intensity_w_m2: float) -> float:
    """Trap-induced shift of the 1->2 transition in Hz:
    delta nu = -(alpha2 - alpha1) I / (2 eps0 c h). Zero at a magic point."""
    a1 = alpha_scalar(species, state1, wavelength_m)
    a2 = alpha_scalar(species, state2, wavelength_m)
    diff_si = a2.alpha_scalar_si - a1.alpha_scalar_si
    return -diff_si * intensity_w_m2 / (2.0 * VACUUM_PERMITTIVITY * SPEED_OF_LIGHT * PLANCK)


def find_magic(species: Species, state1: str, state2: str,
               search: tuple[float, float],
               pol: Polarization | None = None,
               grid_points: int = DEFAULT_SCAN_POINTS,
               m1: float | None = None, m2: float | None = None) -> list[MagicPoint]:
    """All wavelengths in ``search`` where the two states' polarizabilities
    cross, refined by bisection.

    By default the crossing condition uses scalar polarizabilities; passing
    ``m1``/``m2`` (with ``pol``) resolves those sublevels instead, for any J
    (an m that is not a sublevel of its state is rejected). The interval is
    split at every catalog pole of either state; each pole-free segment is
    scanned on a log-spaced grid (``pairwise.geomspace``, evaluated on floats
    up to ``pairwise.FLOAT_POINTS`` search points, in numpy above) and sign
    changes are bisected to a relative wavelength tolerance of REFINE_TOL
    (well inside the documented 1e-9). An empty list means no crossing;
    identical states are rejected.
    """
    if state1 == state2:
        raise ValidationError("state1 = state2: difference is identically zero")
    lo, hi = search
    if not (0 < lo < hi):
        raise ValidationError(f"bad search interval ({lo}, {hi})")
    if pol is None:
        pol = LinearPolarization()

    terms1, terms2 = _StateTerms(species, state1), _StateTerms(species, state2)
    for terms, m in ((terms1, m1), (terms2, m2)):
        if m is not None and (abs(m) > terms.J or not float(m - terms.J).is_integer()):
            raise ValidationError(f"m = {m} is not a sublevel of J = {terms.J}")

    def delta(lam):  # a float or an array of wavelengths
        omega = (SPEED_OF_LIGHT / lam) / HARTREE_HZ
        return terms1.alpha(omega, m1, pol) - terms2.alpha(omega, m2, pol)

    # split at poles, shaving a guard margin so no sample sits on a resonance;
    # endpoints handed in on a pole are nudged inward the same way
    all_poles = sorted({SPEED_OF_LIGHT / (w * HARTREE_HZ)
                        for terms in (terms1, terms2) for w in terms.poles_au})
    for p in all_poles:
        if abs(lo - p) < 2.0 * POLE_GUARD * p:
            lo = p * (1.0 + 2.0 * POLE_GUARD)
        if abs(hi - p) < 2.0 * POLE_GUARD * p:
            hi = p * (1.0 - 2.0 * POLE_GUARD)
    if hi <= lo:
        return []
    poles = [p for p in all_poles if lo < p < hi]
    edges = [lo]
    for p in poles:
        edges.extend([p * (1.0 - 2.0 * POLE_GUARD), p * (1.0 + 2.0 * POLE_GUARD)])
    edges.append(hi)

    points: list[MagicPoint] = []
    for seg_lo, seg_hi in zip(edges[0::2], edges[1::2]):
        if seg_hi <= seg_lo:
            continue
        n = max(8, int(round(grid_points * math.log(seg_hi / seg_lo) / math.log(hi / lo))))
        grid = geomspace(seg_lo, seg_hi, n)
        if grid_points <= pairwise.FLOAT_POINTS:
            values = [delta(lam) for lam in grid]
            steps = [i for i in range(n - 1)
                     if values[i] < 0 < values[i + 1] or values[i + 1] < 0 < values[i]]
        else:
            import numpy as np
            values = delta(np.asarray(grid))
            sign = np.sign(values)
            steps = np.nonzero(sign[:-1] * sign[1:] < 0)[0].tolist()
        for i in steps:  # each step whose ends have opposite signs
            a, b = float(grid[i]), float(grid[i + 1])
            fa = float(values[i])
            bracket = (a, b)
            while (b - a) / b > REFINE_TOL:
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    break  # no representable point left between the brackets
                fm = float(delta(mid))
                if fm == 0.0:
                    a = b = mid
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            root = 0.5 * (a + b)
            points.append(MagicPoint(
                wavelength_m=root, residual_au=abs(float(delta(root))), bracket_m=bracket))
    points.sort(key=lambda p: p.wavelength_m)
    return points


def scan_delta_alpha(species: Species, state1: str, state2: str,
                     lo_m: float, hi_m: float, points: int = 200):
    """(wavelengths, alpha1_au, alpha2_au, delta_au) on a log-spaced grid,
    with delta_au = alpha1_au - alpha2_au.

    Grid points that land inside a pole guard band are dropped.
    """
    if state1 == state2:
        raise ValidationError("state1 = state2: difference is identically zero")
    if not (0 < lo_m < hi_m):
        raise ValidationError(f"bad scan interval ({lo_m}, {hi_m})")
    import numpy as np

    terms1, terms2 = _StateTerms(species, state1), _StateTerms(species, state2)
    lams = np.asarray(geomspace(lo_m, hi_m, points))
    omega = (SPEED_OF_LIGHT / lams) / HARTREE_HZ
    keep = np.ones(lams.shape, dtype=bool)
    rel = np.empty_like(omega)  # |omega - w| / w, one pole at a time
    for w in (*terms1.poles_au, *terms2.poles_au):
        np.abs(np.subtract(omega, w, out=rel), out=rel)
        keep &= np.divide(rel, w, out=rel) >= POLE_GUARD
    lams, omega = lams[keep], omega[keep]
    a1, a2 = terms1.alpha(omega), terms2.alpha(omega)
    return lams, a1, a2, a1 - a2
