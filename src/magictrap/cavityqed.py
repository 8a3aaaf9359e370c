"""Strong-coupling cavity QED for one two-level atom in a FORT.

Conventions (documented; the literature is ambiguous):
  * kappa and gamma are HWHM field/polarization decay rates; the Lindblad
    jump operators are sqrt(2 kappa) a and sqrt(2 gamma) sigma-.
  * The probe drives the cavity only; transmission is normalized so an
    empty cavity (g = 0) probed at omega_p = omega_C gives T = 1, i.e.
    T = <a'a> (kappa/eps)^2.
  * delta_b, delta_e are the FORT Stark shifts (rad/s) of the ground and
    excited levels at the atom's position; the effective atomic frequency
    is omega_A + delta_e - delta_b.

Steady states come from a direct sparse solve of the vectorized Lindblad
generator with one row replaced by the trace condition. The generator is
affine in the probe frequency, L(omega_p) = L0 + omega_p D with D diagonal,
so it is assembled once per probe grid and each point costs one sparse LU.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, VACUUM_PERMITTIVITY
from .errors import NumericalError, ValidationError

# Fock-truncation hygiene thresholds
TOP_FOCK_WARN = 1e-6
DRIVE_FRACTION_WARN = 0.1


class TruncationWarning(UserWarning):
    """Steady state is leaking into the top Fock level."""


@dataclass(frozen=True)
class CavitySystem:
    g0: float                       # rad/s, single-photon coupling at an antinode
    kappa: float                    # rad/s, cavity field decay (HWHM)
    gamma: float                    # rad/s, atomic decay to non-cavity modes (HWHM)
    omega_a: float = 0.0            # rad/s, bare atomic frequency
    omega_c: float = 0.0            # rad/s, bare cavity frequency
    delta_b: float = 0.0            # rad/s, FORT shift of the ground level
    delta_e: float = 0.0            # rad/s, FORT shift of the excited level
    n_max: int = 5                  # Fock truncation (>= 2)
    mode_wavelength_m: float | None = None

    def __post_init__(self):
        if self.g0 <= 0 or self.kappa <= 0 or self.gamma <= 0:
            raise ValidationError("g0, kappa, gamma must all be > 0")
        if self.n_max < 2:
            raise ValidationError("n_max must be >= 2 for two-photon observables")

    def psi(self, z: float = 0.0) -> float:
        """Standing-wave mode function on axis; 1 at the default antinode."""
        if self.mode_wavelength_m is None:
            if z != 0.0:
                raise ValidationError(
                    "set mode_wavelength_m to evaluate psi away from the antinode")
            return 1.0
        return math.cos(2.0 * math.pi * z / self.mode_wavelength_m)

    def g_at(self, z: float = 0.0) -> float:
        return self.g0 * self.psi(z)


@dataclass(frozen=True)
class DressedPair:
    """n = 1 dressed-transition frequencies relative to the bare atomic
    resonance; Delta+ >= Delta-, with Delta+ + Delta- = delta_e - delta_b
    and Delta+ * Delta- = -g^2."""

    delta_plus: float
    delta_minus: float


@dataclass(frozen=True)
class CriticalNumbers:
    n0: float                       # saturation photon number gamma^2/g0^2
    n_atoms: float                  # critical atom number kappa gamma/g0^2
    strong_coupling: bool


@dataclass(frozen=True)
class SteadyState:
    mean_n: float
    transmission: float
    rho: np.ndarray
    top_fock_population: float


@dataclass(frozen=True)
class ProbeResult:
    omega_p: np.ndarray             # rad/s
    transmission: np.ndarray
    mean_n: np.ndarray
    g2: np.ndarray | None
    peak_omegas: tuple[float, ...]  # local maxima of the transmission


def coupling_g0(dipole_cm: float, omega_c: float, mode_volume_m3: float) -> float:
    """Single-photon coupling g0 = sqrt(d^2 omega_C / (2 hbar eps0 V_m))."""
    if dipole_cm < 0 or omega_c <= 0 or mode_volume_m3 <= 0:
        raise ValidationError("coupling_g0: omega_c and V_m must be > 0, dipole >= 0")
    return math.sqrt(dipole_cm**2 * omega_c
                     / (2.0 * HBAR * VACUUM_PERMITTIVITY * mode_volume_m3))


def mode_volume(waist_m: float, length_m: float) -> float:
    """TEM00 standing-wave Fabry-Perot mode volume (pi/4) w0^2 l."""
    if waist_m <= 0 or length_m <= 0:
        raise ValidationError("mode_volume: inputs must be > 0")
    return math.pi / 4.0 * waist_m**2 * length_m


def critical_numbers(sys: CavitySystem) -> CriticalNumbers:
    """Saturation photon number and critical atom number."""
    n0 = sys.gamma**2 / sys.g0**2
    n_atoms = sys.kappa * sys.gamma / sys.g0**2
    return CriticalNumbers(n0, n_atoms,
                           sys.g0 > sys.gamma and sys.g0 > sys.kappa)


def _require_degenerate(sys: CavitySystem):
    scale = max(abs(sys.omega_a), abs(sys.omega_c), 1.0)
    if abs(sys.omega_a - sys.omega_c) > 1e-12 * scale:
        raise ValidationError(
            f"omega_A != omega_C ({sys.omega_a} vs {sys.omega_c}); the dressed-state "
            "expressions assume a degenerate atom and cavity")


def dressed_transitions(sys: CavitySystem, z: float = 0.0) -> DressedPair:
    """Exact n = 0 -> 1 transition frequencies, relative to the bare atom.

    Delta+- = (delta_e - delta_b)/2 +- sqrt((delta_e - delta_b)^2/4 + g^2);
    requires omega_A = omega_C (dissipation neglected).
    """
    _require_degenerate(sys)
    g = sys.g_at(z)
    if sys.delta_e == sys.delta_b:
        # the magic-FORT case is exact algebra: +-g(r), no rounding through
        # the square root
        return DressedPair(abs(g), -abs(g))
    half = 0.5 * (sys.delta_e - sys.delta_b)
    disc = math.sqrt(half * half + g * g)
    return DressedPair(half + disc, half - disc)


def jc_ladder(sys: CavitySystem, n: int, z: float = 0.0) -> np.ndarray:
    """Eigenvalues of the n-quanta doublet, relative to n * omega_0.

    The 2x2 block on {|e, n-1>, |g, n>} is [[delta_e, sqrt(n) g],
    [sqrt(n) g, delta_b]]; with no Stark shifts the eigenvalues are
    +- sqrt(n) g.
    """
    if not 1 <= n <= sys.n_max:
        raise ValidationError(f"manifold n={n} outside 1..n_max={sys.n_max}")
    _require_degenerate(sys)
    g = sys.g_at(z)
    mean = 0.5 * (sys.delta_e + sys.delta_b)
    half = 0.5 * (sys.delta_e - sys.delta_b)
    disc = math.sqrt(half * half + n * g * g)
    return np.array([mean - disc, mean + disc])


def blockade_detuning(g0: float) -> float:
    """Detuning of the n=1 -> 2 ladder step from the bare resonance when the
    probe sits on the lower n=0 -> 1 branch: (sqrt(2) - 1) g0."""
    if g0 <= 0:
        raise ValidationError("g0 must be > 0")
    return (math.sqrt(2.0) - 1.0) * g0


def _operators(n_levels: int):
    """Cavity annihilation and atomic lowering on the joint space
    (cavity tensor atom, atom basis ordered [g, e])."""
    import scipy.sparse as sp

    a_c = sp.diags(np.sqrt(np.arange(1, n_levels)), 1)
    id_c = sp.identity(n_levels)
    id_a = sp.identity(2)
    sm_a = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    a = sp.kron(a_c, id_a, format="csr")
    sm = sp.kron(id_c, sm_a, format="csr")
    return a, sm


def _liouvillian(h: sp.spmatrix, collapse: list[sp.spmatrix]) -> sp.spmatrix:
    """Vectorized Lindblad generator, column-major vec convention."""
    import scipy.sparse as sp

    dim = h.shape[0]
    ident = sp.identity(dim)
    lv = -1j * (sp.kron(ident, h) - sp.kron(h.T, ident))
    for c in collapse:
        cdc = (c.conj().T @ c).tocsr()
        lv = lv + (sp.kron(c.conj(), c)
                   - 0.5 * sp.kron(ident, cdc)
                   - 0.5 * sp.kron(cdc.T, ident))
    return lv


def _probe_solver(sys: CavitySystem, drive: float, z: float, grid: np.ndarray):
    """Steady-state solver for every probe frequency of ``grid``.

    The generator is affine in the probe: with w = (omega_p - omega_C)/scale,
    L(omega_p) = L0 + w D, where the probe enters H only as
    -w (a'a + sigma+ sigma-), whose commutator is the diagonal D. L0 is
    assembled once, in CSC form with the trace row in place of the first
    equation and every diagonal entry stored, so each point only adds w D
    to a copy of L0's values before its own sparse LU. The probe is measured
    from omega_C so that an optical omega_C does not cancel against it.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    if drive < 0:
        raise ValidationError("drive amplitude must be >= 0")
    n_levels = sys.n_max + 1
    dim = 2 * n_levels
    size = dim * dim

    # dimensionless rates: the solve is invariant under a common rate scale,
    # fixed by the grid's extreme detunings (a one-point grid gives that
    # point's own scale)
    lo, hi = float(np.min(grid)), float(np.max(grid))
    omega_atom = sys.omega_a + sys.delta_e - sys.delta_b
    scale = max(sys.g0, sys.kappa, sys.gamma, drive,
                abs(sys.omega_c - lo), abs(sys.omega_c - hi),
                abs(omega_atom - lo), abs(omega_atom - hi))
    g_s, kappa_s, gamma_s, eps_s = (sys.g_at(z) / scale, sys.kappa / scale,
                                    sys.gamma / scale, drive / scale)

    a, sm = _operators(n_levels)
    h0 = ((omega_atom - sys.omega_c) / scale * (sm.conj().T @ sm)
          + g_s * (a.conj().T @ sm + a @ sm.conj().T)
          + eps_s * (a + a.conj().T))
    gen = _liouvillian(h0, [math.sqrt(2.0 * kappa_s) * a,
                            math.sqrt(2.0 * gamma_s) * sm]).tocoo()

    # trace row replaces the first equation; explicit zeros keep every
    # diagonal position stored
    keep = gen.row != 0
    diag = np.arange(size)
    rows = np.concatenate((gen.row[keep], np.zeros(dim, dtype=int), diag))
    cols = np.concatenate((gen.col[keep], np.arange(dim) * (dim + 1), diag))
    vals = np.concatenate((gen.data[keep], np.ones(dim), np.zeros(size)))
    l0 = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
    col_of = np.repeat(diag, np.diff(l0.indptr))
    diag_pos = np.flatnonzero(l0.indices == col_of)

    # D = i (N_ii - N_jj) at vec index i + j dim, N = a'a + sigma+ sigma-;
    # it vanishes on every population, the trace row's diagonal among them
    photons = np.repeat(np.arange(n_levels), 2)
    excitations = photons + np.tile([0, 1], n_levels)
    d_diag = 1j * (np.tile(excitations, dim) - np.repeat(excitations, dim))
    rhs = np.zeros(size, dtype=complex)
    rhs[0] = 1.0

    def solve(omega_p: float) -> SteadyState:
        values = l0.data.copy()
        values[diag_pos] += (omega_p - sys.omega_c) / scale * d_diag
        lv = sp.csc_matrix((values, l0.indices, l0.indptr), shape=l0.shape)
        try:
            lu = splu(lv)
        except RuntimeError as exc:
            raise NumericalError(
                f"singular Liouvillian (g0={sys.g0}, kappa={sys.kappa}, "
                f"gamma={sys.gamma}, omega_p={omega_p}, drive={drive}): {exc}") from exc
        x = lu.solve(rhs)
        x = x + lu.solve(rhs - lv @ x)   # one refinement step
        if not np.all(np.isfinite(x)):
            raise NumericalError("steady-state solve returned non-finite entries")

        rho = x.reshape((dim, dim), order="F")
        pops = np.real(np.diag(rho))
        mean_n = float(photons @ pops)
        transmission = mean_n * (sys.kappa / drive) ** 2 if drive > 0 else 0.0
        top_fock = float(pops[2 * sys.n_max] + pops[2 * sys.n_max + 1])
        if top_fock > TOP_FOCK_WARN:
            warnings.warn(f"top Fock level population {top_fock:.2e} exceeds "
                          f"{TOP_FOCK_WARN:.0e}; increase n_max",
                          TruncationWarning, stacklevel=3)
        if mean_n > DRIVE_FRACTION_WARN * sys.n_max:
            warnings.warn(f"<n> = {mean_n:.3g} exceeds {DRIVE_FRACTION_WARN} * n_max; "
                          "drive too strong for this truncation",
                          TruncationWarning, stacklevel=3)
        return SteadyState(mean_n, transmission, rho, top_fock)

    return solve


def steady_state(sys: CavitySystem, drive: float, omega_p: float,
                 z: float = 0.0) -> SteadyState:
    """Driven-dissipative steady state at probe frequency omega_p (rad/s).

    Solves L[rho] = 0 with the trace constraint replacing one row of the
    vectorized generator, then applies one step of iterative refinement.
    Warns when the truncated top Fock level is populated beyond 1e-6 or the
    drive pushes <n> past 0.1 n_max.
    """
    return _probe_solver(sys, drive, z, np.array([omega_p]))(omega_p)


def _g2_from_state(sys: CavitySystem, ss: SteadyState) -> float:
    if ss.mean_n <= 0.0:
        raise ValidationError("g2(0) undefined: steady state holds no photons")
    nvals = np.repeat(np.arange(sys.n_max + 1), 2)
    pops = np.real(np.diag(ss.rho))
    return float(np.sum(nvals * (nvals - 1) * pops)) / ss.mean_n**2


def g2_zero(sys: CavitySystem, drive: float, omega_p: float,
            z: float = 0.0) -> float:
    """Equal-time second-order correlation g2(0) = <a'a'aa>/<a'a>^2 of the
    steady state. Requires n_max >= 3; undefined at zero photon number."""
    if sys.n_max < 3:
        raise ValidationError("g2_zero needs n_max >= 3")
    return _g2_from_state(sys, steady_state(sys, drive, omega_p, z))


def vacuum_rabi_spectrum(sys: CavitySystem, drive: float, omega_p_grid,
                         z: float = 0.0, with_g2: bool = False,
                         jobs: int = 1) -> ProbeResult:
    """Map the steady state over a probe grid; peaks are local maxima.

    The generator is assembled once for the whole grid; each point is one
    sparse LU of it. Points are independent solves; results are merged by
    index, so the output is identical for any ``jobs``.
    """
    grid = np.asarray(omega_p_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("empty probe grid")
    if with_g2 and sys.n_max < 3:
        raise ValidationError("g2 over the spectrum needs n_max >= 3")

    solver = _probe_solver(sys, drive, z, grid)

    def solve(i):
        ss = solver(float(grid[i]))
        g2 = _g2_from_state(sys, ss) if with_g2 else math.nan
        return ss.transmission, ss.mean_n, g2

    if jobs <= 1:
        rows = [solve(i) for i in range(grid.size)]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(solve, range(grid.size)))

    transmission = np.array([r[0] for r in rows])
    mean_n = np.array([r[1] for r in rows])
    g2 = np.array([r[2] for r in rows]) if with_g2 else None

    peaks = tuple(
        float(grid[i]) for i in range(1, grid.size - 1)
        if transmission[i] > transmission[i - 1] and transmission[i] > transmission[i + 1])
    return ProbeResult(grid, transmission, mean_n, g2, peaks)
