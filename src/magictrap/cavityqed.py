"""Strong-coupling cavity QED for one two-level atom in a FORT.

Conventions (documented; the literature is ambiguous):
  * kappa and gamma are HWHM field/polarization decay rates; the Lindblad
    jump operators are sqrt(2 kappa) a and sqrt(2 gamma) sigma-.
  * Every frequency (rad/s) is measured from the bare atom-cavity
    resonance omega_0, shared by the bare atom and the cavity.
  * delta_b, delta_e are the FORT Stark shifts of the ground and excited
    levels at the atom's position; delta_e - delta_b is the atom's only
    offset from the cavity (0 in a magic FORT).
  * The probe drives the cavity only; transmission is normalized so an
    empty cavity (g = 0) probed on resonance (omega_p = 0) gives T = 1,
    i.e. T = <a'a> (kappa/eps)^2.

Steady states come from a direct solve of the vectorized Lindblad generator
with the trace condition in place of one equation, in numpy alone. With
N = a'a + sigma+ sigma-, rho_ij has coherence order q = N_i - N_j; only the
drive changes q, by +-1, so the generator is block tridiagonal in q and
the probe frequency shifts only the diagonal of each block. The blocks are
assembled once per probe grid, by index arithmetic on the small operators,
and kept as their nonzero entries: each diagonal block as (row, column,
value) triples, each drive coupling up one level as at most two (column,
value) pairs per row; the couplings down and to block -1 follow from those
by symmetry. They are eliminated for stacks of probe points. A spectrum and
g2_zero read block 0 alone, so a stack holds one level at a time, its s_q
and T_q; only steady_state keeps every T_q, for rho. numpy loads with the
first solve: the closed forms (coupling, mode volume, dressed states, the
Jaynes-Cummings ladder) run on plain floats.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .constants import HBAR, VACUUM_PERMITTIVITY
from .errors import NoPhotonsError, NumericalError, ValidationError, checked

if TYPE_CHECKING:
    import numpy as np

# Fock-truncation hygiene thresholds
TOP_FOCK_WARN = 1e-6
DRIVE_FRACTION_WARN = 0.1
# bytes of one level's s_q and T_q that a stack of probe points may hold
CHUNK_BYTES = 1 << 20


class TruncationWarning(UserWarning):
    """Steady state is leaking into the top Fock level."""


@checked
class CavitySystem(NamedTuple):
    g0: float                       # rad/s, single-photon coupling at an antinode
    kappa: float                    # rad/s, cavity field decay (HWHM)
    gamma: float                    # rad/s, atomic decay to non-cavity modes (HWHM)
    delta_b: float = 0.0            # rad/s, FORT shift of the ground level
    delta_e: float = 0.0            # rad/s, FORT shift of the excited level
    n_max: int = 5                  # Fock truncation (>= 2)
    mode_wavelength_m: float | None = None

    def _check(self):
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


class DressedPair(NamedTuple):
    """n = 1 dressed-transition frequencies relative to the bare atom-cavity
    resonance; Delta+ >= Delta-, with Delta+ + Delta- = delta_e - delta_b
    and Delta+ * Delta- = -g^2."""

    delta_plus: float
    delta_minus: float


class SteadyState(NamedTuple):
    mean_n: float
    transmission: float
    rho: np.ndarray
    top_fock_population: float


class ProbeResult(NamedTuple):
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


def dressed_transitions(sys: CavitySystem, z: float = 0.0) -> DressedPair:
    """Exact n = 0 -> 1 transition frequencies, relative to the bare
    atom-cavity resonance.

    Delta+- = (delta_e - delta_b)/2 +- sqrt((delta_e - delta_b)^2/4 + g^2),
    with dissipation neglected.
    """
    g = sys.g_at(z)
    if sys.delta_e == sys.delta_b:
        # the magic-FORT case is exact algebra: +-g(r), no rounding through
        # the square root
        return DressedPair(abs(g), -abs(g))
    half = 0.5 * (sys.delta_e - sys.delta_b)
    disc = math.sqrt(half * half + g * g)
    return DressedPair(half + disc, half - disc)


def jc_ladder(sys: CavitySystem, n: int, z: float = 0.0) -> tuple[float, float]:
    """Eigenvalues of the n-quanta doublet, relative to n * omega_0, lower
    first.

    The 2x2 block on {|e, n-1>, |g, n>} is [[delta_e, sqrt(n) g],
    [sqrt(n) g, delta_b]]; with no Stark shifts the eigenvalues are
    +- sqrt(n) g.
    """
    if not 1 <= n <= sys.n_max:
        raise ValidationError(f"manifold n={n} outside 1..n_max={sys.n_max}")
    g = sys.g_at(z)
    mean = 0.5 * sys.delta_e + 0.5 * sys.delta_b  # finite where both shifts are
    half = 0.5 * (sys.delta_e - sys.delta_b)
    disc = math.sqrt(half * half + n * g * g)
    return mean - disc, mean + disc


def blockade_detuning(g0: float) -> float:
    """Detuning of the n=1 -> 2 ladder step from the bare resonance when the
    probe sits on the lower n=0 -> 1 branch: (sqrt(2) - 1) g0."""
    if g0 <= 0:
        raise ValidationError("g0 must be > 0")
    return (math.sqrt(2.0) - 1.0) * g0


def _entries(ops, rows, cols):
    """The nonzero entries L[i + j dim, k + l dim] of the vectorised generator
    for row pairs (i, j) and column pairs (k, l), as (rows, columns, values)
    sorted by row, with real H and jump operators c:
    -i (H_ik d_jl - H_lj d_ik) + sum_c (c_ik c_jl - (c'c)_ik d_jl / 2 - (c'c)_lj d_ik / 2),
    evaluated only where i reaches k and j reaches l through some operator."""
    import numpy as np
    h, collapse, cdc, reach = ops
    (i, j), (k, l) = rows, cols
    r, c = np.nonzero(reach[i[:, None], k] & reach[j[:, None], l])
    i, j, k, l = i[r], j[r], k[c], l[c]
    same_i, same_j = i == k, j == l
    vals = (-1j * (h[i, k] * same_j - h[l, j] * same_i)
            - 0.5 * (cdc[i, k] * same_j + cdc[l, j] * same_i))
    for op in collapse:
        vals += op[i, k] * op[j, l]
    keep = vals != 0
    return r[keep], c[keep], vals[keep]


def _pairs(entries, n: int):
    """A drive coupling's entries, at most two a row, as two (columns,
    values) terms, each (2, n): term e holds the e-th entry of every row, or
    column 0 and value 0 where the row has fewer. The values carry a
    trailing axis for _gather."""
    import numpy as np
    rows, cols, vals = entries
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    pairs = np.zeros((2, n), dtype=np.intp), np.zeros((2, n, 1), dtype=complex)
    pairs[0][slot, rows] = cols
    pairs[1][slot, rows, 0] = vals
    return pairs


def _gather(pairs, x):
    """A coupling stored by _pairs times each matrix of the stack x: the
    row gathers of its first term for the whole stack, then those of its
    second term a matrix at a time, so only the result is stack-sized."""
    (c0, c1), (v0, v1) = pairs
    out = x.take(c0, axis=1)
    out *= v0
    for out_k, x_k in zip(out, x):
        g = x_k.take(c1, axis=0)
        g *= v1
        out_k += g
    return out


class _CoherenceBlocks:
    """The steady-state equations of one system, cut by coherence order
    q = -(n_max + 1) .. n_max + 1. The trace condition replaces the equation
    of rho_00, in block 0. In the frame of the probe, the cavity sits at
    -omega_p and the atom at delta_e - delta_b - omega_p; the probe, as
    w = omega_p/scale, adds i q w to the diagonal of block q. Block -q holds
    the transposes of block q's pairs in the same order; the generator maps
    Hermitian matrices to Hermitian ones, so block -q's equations are the
    conjugates of block q's and only q > 0 is eliminated. For the same
    reason block 0's coupling to block -1 is the conjugate of its coupling
    to block 1 with every pair transposed; and H is real and symmetric, so
    the drive's coupling down from level q is the transpose of the one up
    from level q - 1. Only diag (triples, from _entries) and up (from
    _pairs) are stored.
    """

    def __init__(self, sys: CavitySystem, drive: float, z: float, grid: np.ndarray):
        if drive < 0:
            raise ValidationError("drive amplitude must be >= 0")
        import numpy as np
        self.sys, self.drive = sys, drive
        n_levels = sys.n_max + 1
        self.dim = 2 * n_levels

        # dimensionless rates: the solve is invariant under a common rate
        # scale, fixed by the grid's extreme detunings (a one-point grid
        # gives that point's own scale)
        lo, hi = float(np.min(grid)), float(np.max(grid))
        offset = sys.delta_e - sys.delta_b
        self.scale = max(sys.g0, sys.kappa, sys.gamma, drive, abs(lo), abs(hi),
                         abs(offset - lo), abs(offset - hi))
        g_s, kappa_s, gamma_s, eps_s = (sys.g_at(z) / self.scale, sys.kappa / self.scale,
                                        sys.gamma / self.scale, drive / self.scale)

        # cavity (x) atom with the atom basis [g, e]: index i = 2 n + s
        a = np.kron(np.diag(np.sqrt(np.arange(1.0, n_levels)), 1), np.eye(2))
        sm = np.kron(np.eye(n_levels), [[0.0, 1.0], [0.0, 0.0]])
        h = (offset / self.scale * (sm.T @ sm)
             + g_s * (a.T @ sm + a @ sm.T) + eps_s * (a + a.T))
        collapse = (math.sqrt(2.0 * kappa_s) * a, math.sqrt(2.0 * gamma_s) * sm)
        cdc = sum(c.T @ c for c in collapse)
        # the index pairs an operator connects (the jump operators are multiples of a and sm)
        reach = np.eye(self.dim, dtype=bool) | (h != 0) | (cdc != 0) | (a != 0) | (sm != 0)
        ops = (h, collapse, cdc, reach)

        exc = np.arange(self.dim) // 2 + np.arange(self.dim) % 2
        p = self.pairs = [np.nonzero(exc[:, None] - exc == q) for q in range(n_levels + 1)]
        i0, j0 = p[0]
        self.pops = np.flatnonzero(i0 == j0)
        # every diagonal entry of a block q >= 1 holds a decay rate, so it is
        # stored and takes the probe shift
        self.diag = [_entries(ops, p[q], p[q]) for q in range(n_levels + 1)]
        self.up = [_pairs(_entries(ops, p[q], p[q + 1]), p[q][0].size) for q in range(n_levels)]
        # position in block 0 of each pair's transpose: block 0 is sorted by
        # (i, j), so this is the order by (j, i), an involution
        self.transpose0 = np.lexsort((i0, j0))
        # probe points per stack (>= 2) from s_q and T_q at level 1, the largest
        n0, n1 = p[0][0].size, p[1][0].size
        self.chunk = max(2, CHUNK_BYTES // (16 * n1 * (n1 + n0)))

    def eliminate(self, omega_p: np.ndarray, transfers: list | None = None):
        """Block 0 of the steady state for each probe frequency. A list given
        as transfers receives the transfer matrices T_q of x_q = T_q x_{q-1}
        for q = 1 .. n_max + 1; otherwise T_{q+1} is dropped before T_q is
        allocated, so a stack holds one level at a time."""
        import numpy as np
        w = omega_p / self.scale
        t = ()  # nothing above the top level
        try:
            for q in range(len(self.diag) - 1, 0, -1):
                n = self.pairs[q][0].size
                # s_q: the coupling to level q + 1 (none above the top), plus
                # block q and the probe shift
                s = _gather(self.up[q], t) if len(t) else np.zeros((w.size, n, n), dtype=complex)
                del t
                rows, cols, vals = self.diag[q]
                s[:, rows, cols] += vals + 1j * q * w[:, None] * (rows == cols)
                # the right-hand side: the coupling down to level q - 1, the
                # transpose of the one up from it
                m = self.pairs[q - 1][0].size
                down = np.zeros((n, m), dtype=complex)
                for cols, vals in zip(*self.up[q - 1]):
                    down[cols, range(m)] += vals[:, 0]
                t = np.linalg.solve(s, down[None])
                del s, down
                np.negative(t, out=t)
                if transfers is not None:
                    transfers.insert(0, t)
            rows, cols, vals = self.diag[0]
            rhs = np.eye(len(self.transpose0), 1)
            x0 = []
            for t_k in t:
                s = _gather(self.up[0], t_k[None])[0]
                # the coupling to block -1 is the conjugate of the one to block 1,
                # with every pair and its equation transposed
                s_neg = s.take(self.transpose0, axis=0).take(self.transpose0, axis=1)
                np.conjugate(s_neg, out=s_neg)
                s[rows, cols] += vals
                s += s_neg
                # rho_00's equation, first in block 0, becomes the trace condition
                s[0] = 0.0
                s[0, self.pops] = 1.0
                x0.append(np.linalg.solve(s, rhs)[:, 0])
            x0 = np.array(x0)
            if not np.all(np.isfinite(x0)):
                raise np.linalg.LinAlgError("steady-state solve returned non-finite entries")
        except np.linalg.LinAlgError as exc:
            if min(self.sys.kappa, self.sys.gamma) / self.scale < np.finfo(float).tiny:
                # a decay rate subnormal or 0 in the scaled generator: its damping is lost
                raise ValidationError(
                    f"kappa {self.sys.kappa:g} or gamma {self.sys.gamma:g} rad/s vanishes "
                    f"beside the largest rate of the solve, {self.scale:g} rad/s") from None
            raise NumericalError(
                f"singular Liouvillian ({self.sys}, drive={self.drive}, "
                f"omega_p={omega_p.min()}..{omega_p.max()}): {exc}") from exc
        return x0

    def rho(self, x0: np.ndarray, transfers) -> np.ndarray:
        """The density matrix of the first probe point, by back-substitution."""
        import numpy as np
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[self.pairs[0]] = x = x0[0]
        for (i, j), t in zip(self.pairs[1:], transfers):
            x = t[0] @ x
            rho[i, j], rho[j, i] = x, x.conj()
        return rho


def _observables(sys: CavitySystem, drive: float, pops: np.ndarray):
    """<n>, transmission and top-Fock population for rows of populations in
    basis order; each truncation warning fires once, for the worst point."""
    import numpy as np
    mean_n = pops @ (np.arange(pops.shape[-1]) // 2)
    transmission = mean_n * (sys.kappa / drive) ** 2 if drive > 0 else 0.0 * mean_n
    top_fock = pops[..., -2] + pops[..., -1]
    if np.max(top_fock) > TOP_FOCK_WARN:
        warnings.warn(f"top Fock level population {np.max(top_fock):.2e} exceeds "
                      f"{TOP_FOCK_WARN:.0e}; increase n_max",
                      TruncationWarning, stacklevel=3)
    if np.max(mean_n) > DRIVE_FRACTION_WARN * sys.n_max:
        warnings.warn(f"<n> = {np.max(mean_n):.3g} exceeds {DRIVE_FRACTION_WARN} * n_max; "
                      "drive too strong for this truncation",
                      TruncationWarning, stacklevel=3)
    return mean_n, transmission, top_fock


def _g2(pops: np.ndarray, mean_n):
    import numpy as np
    # <n>^2 below the normal floats: <n(n-1)> may underflow with it, to 0 / 0
    if np.any((mean_n <= 0.0) | (mean_n * mean_n < np.finfo(float).tiny)):
        raise NoPhotonsError("g2(0) undefined: steady state holds no photons")
    photons = np.arange(pops.shape[-1]) // 2
    return pops @ (photons * (photons - 1)) / mean_n**2


def steady_state(sys: CavitySystem, drive: float, omega_p: float,
                 z: float = 0.0) -> SteadyState:
    """Driven-dissipative steady state at probe frequency omega_p (rad/s).

    Solves L[rho] = 0, with the trace condition in place of the equation of
    rho_00, by block elimination in coherence order. Warns when the
    truncated top Fock level is populated beyond 1e-6 or the drive pushes
    <n> past 0.1 n_max.
    """
    import numpy as np
    grid = np.array([omega_p], dtype=float)
    blocks = _CoherenceBlocks(sys, drive, z, grid)
    transfers = []
    rho = blocks.rho(blocks.eliminate(grid, transfers), transfers)
    mean_n, transmission, top_fock = _observables(sys, drive, np.real(np.diag(rho)))
    return SteadyState(float(mean_n), float(transmission), rho, float(top_fock))


def g2_zero(sys: CavitySystem, drive: float, omega_p: float,
            z: float = 0.0) -> float:
    """Equal-time second-order correlation g2(0) = <a'a'aa>/<a'a>^2 of the
    steady state. Requires n_max >= 3; undefined at zero photon number."""
    if sys.n_max < 3:
        raise ValidationError("g2_zero needs n_max >= 3")
    import numpy as np
    grid = np.array([omega_p], dtype=float)
    blocks = _CoherenceBlocks(sys, drive, z, grid)
    pops = blocks.eliminate(grid)[0, blocks.pops].real
    mean_n, _, _ = _observables(sys, drive, pops)
    return float(_g2(pops, mean_n))


def vacuum_rabi_spectrum(sys: CavitySystem, drive: float, omega_p_grid,
                         z: float = 0.0, with_g2: bool = False) -> ProbeResult:
    """Map the steady state over a probe grid; peaks are local maxima.

    The blocks are assembled once for the whole grid and eliminated for
    stacks of at least 2 probe points whose s_q and T_q fit in CHUNK_BYTES.
    Spectra need only populations: no T_q outlives its level.
    """
    import numpy as np
    grid = np.asarray(omega_p_grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("empty probe grid")
    if with_g2 and sys.n_max < 3:
        raise ValidationError("g2 over the spectrum needs n_max >= 3")

    blocks = _CoherenceBlocks(sys, drive, z, grid)
    # one layout (F) however the grid is split: it picks the BLAS path of the sums
    pops = np.empty((grid.size, blocks.pops.size), order="F")
    for i in range(0, grid.size, blocks.chunk):
        x0 = blocks.eliminate(grid[i:i + blocks.chunk])
        pops[i:i + blocks.chunk] = x0[:, blocks.pops].real
    mean_n, transmission, _ = _observables(sys, drive, pops)
    g2 = _g2(pops, mean_n) if with_g2 else None

    peaks = tuple(
        float(grid[i]) for i in range(1, grid.size - 1)
        if transmission[i] > transmission[i - 1] and transmission[i] > transmission[i + 1])
    return ProbeResult(grid, transmission, mean_n, g2, peaks)
