import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.sparse.linalg import spsolve

from magictrap import cavityqed
from magictrap.atomdata import data_dir
from magictrap.cavityqed import (CavitySystem, TruncationWarning,
                                 blockade_detuning, coupling_g0,
                                 dressed_transitions,
                                 g2_zero, jc_ladder, mode_volume,
                                 steady_state, vacuum_rabi_spectrum)
from magictrap.errors import NoPhotonsError, NumericalError, ValidationError

TWO_PI = 2 * math.pi

# independent constants for oracle evaluations
C = 299792458.0
HBAR = 6.62607015e-34 / TWO_PI
EPS0 = 8.8541878128e-12

KAPPA = TWO_PI * 4.1e6
GAMMA = TWO_PI * 2.6e6
G0 = TWO_PI * 34e6


def make_system(**kw):
    base = dict(g0=G0, kappa=KAPPA, gamma=GAMMA, n_max=5)
    base.update(kw)
    return CavitySystem(**base)


class TestGeometry:
    def test_mode_volume_arithmetic(self):
        vm = mode_volume(24e-6, 42e-6)
        assert vm == pytest.approx(math.pi / 4 * (24e-6) ** 2 * 42e-6, rel=1e-14)
        assert vm == pytest.approx(1.90e-14, rel=1e-3)

    def test_mode_volume_quadratic_in_waist(self):
        assert mode_volume(48e-6, 42e-6) == pytest.approx(
            4 * mode_volume(24e-6, 42e-6), rel=1e-14)

    def test_mode_volume_quadrature_oracle(self):
        """Integrate |psi|^2 = cos^2(kz) exp(-2r^2/w0^2) over the cavity.

        The cavity length is an integer number of half-waves so the axial
        integral is exactly l/2.
        """
        w0, length = 24e-6, 42e-6
        lam = 2 * length / 99  # 99 half-waves: ~848 nm
        k = TWO_PI / lam
        radial, _ = quad(lambda r: math.exp(-2 * r**2 / w0**2) * TWO_PI * r,
                         0, 12 * w0)
        axial, _ = quad(lambda z: math.cos(k * z) ** 2, -length / 2, length / 2,
                        limit=400)
        assert radial * axial == pytest.approx(mode_volume(w0, length), rel=1e-6)

    def test_coupling_zero_dipole(self):
        assert coupling_g0(0.0, TWO_PI * 3.5e14, 1.9e-14) == 0.0

    def test_coupling_volume_scaling(self):
        base = coupling_g0(2.69e-29, TWO_PI * 3.5e14, 1.9e-14)
        half = coupling_g0(2.69e-29, TWO_PI * 3.5e14, 2 * 1.9e-14)
        assert half == pytest.approx(base / math.sqrt(2), rel=1e-14)

    def test_cs_d2_regression(self):
        """Shipped Cs D2 cycling dipole + the 24/42 um cavity -> g0 ~ 34 MHz."""
        sheet = json.loads((data_dir() / "cs133_d2.json").read_text())
        omega_c = TWO_PI * C / (sheet["wavelength_nm"] * 1e-9)
        vm = mode_volume(24e-6, 42e-6)
        g0 = coupling_g0(sheet["cycling_dipole_cm"], omega_c, vm)
        oracle = math.sqrt(sheet["cycling_dipole_cm"] ** 2 * omega_c
                           / (2 * HBAR * EPS0 * vm))
        assert g0 == pytest.approx(oracle, rel=1e-12)
        assert abs(g0 / TWO_PI - 34e6) / 34e6 < 0.03

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            mode_volume(0.0, 42e-6)
        with pytest.raises(ValidationError):
            coupling_g0(1e-29, -1.0, 1e-14)


class TestDressedStates:
    def test_root_identities_random(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            delta_e, delta_b = rng.uniform(-5e7, 5e7, 2)
            g = rng.uniform(1e5, 5e8)
            sys_ = make_system(g0=g, delta_b=delta_b, delta_e=delta_e)
            pair = dressed_transitions(sys_)
            scale = max(abs(delta_e), abs(delta_b), g)
            assert pair.delta_plus >= pair.delta_minus
            assert pair.delta_plus + pair.delta_minus == pytest.approx(
                delta_e - delta_b, rel=1e-12, abs=1e-12 * scale)
            assert pair.delta_plus * pair.delta_minus == pytest.approx(
                -g * g, rel=1e-12, abs=1e-12 * scale**2)

    def test_magic_fort_reduction(self):
        """delta_e = delta_b (any common value) gives exactly +-g(r), at every
        position along the standing wave."""
        sys_ = make_system(delta_b=-0.4 * G0, delta_e=-0.4 * G0,
                           mode_wavelength_m=852e-9)
        for z in np.linspace(0, 852e-9, 13):
            pair = dressed_transitions(sys_, float(z))
            g = sys_.g_at(float(z))
            assert pair.delta_plus == pytest.approx(abs(g), abs=1e-9 * G0)
            assert pair.delta_minus == pytest.approx(-abs(g), abs=1e-9 * G0)

    def test_conventional_fort_reduction(self):
        delta0 = 0.7 * G0
        sys_ = make_system(delta_b=-delta0, delta_e=+delta0)
        pair = dressed_transitions(sys_)
        root = math.sqrt(delta0**2 + G0**2)
        assert pair.delta_plus == pytest.approx(delta0 + root, rel=1e-12)
        assert pair.delta_minus == pytest.approx(delta0 - root, rel=1e-12)

    def test_uncoupled_limit(self):
        sys_ = make_system(g0=1e-3, delta_e=2e6, delta_b=0.0)
        pair = dressed_transitions(sys_)
        assert pair.delta_plus == pytest.approx(2e6, rel=1e-9)
        assert pair.delta_minus == pytest.approx(0.0, abs=1e-3)


class TestLadder:
    def test_first_manifold(self):
        assert jc_ladder(make_system(), 1) == pytest.approx([-G0, G0], rel=1e-14)

    def test_second_manifold_sqrt2(self):
        eigs = jc_ladder(make_system(), 2)
        assert eigs == pytest.approx([-math.sqrt(2) * G0, math.sqrt(2) * G0],
                                     rel=1e-14)

    def test_random_against_dense_diagonalization(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            delta_e, delta_b = rng.uniform(-1e8, 1e8, 2)
            g = rng.uniform(1e6, 5e8)
            n = int(rng.integers(1, 6))
            sys_ = make_system(g0=g, delta_b=delta_b, delta_e=delta_e, n_max=8)
            block = np.array([[delta_e, math.sqrt(n) * g],
                              [math.sqrt(n) * g, delta_b]])
            oracle = np.linalg.eigvalsh(block)
            assert jc_ladder(sys_, n) == pytest.approx(oracle, rel=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            jc_ladder(make_system(n_max=4), 5)
        with pytest.raises(ValidationError):
            jc_ladder(make_system(), 0)


class TestBlockadeDetuning:
    def test_value_and_linearity(self):
        assert blockade_detuning(G0) == pytest.approx(
            (math.sqrt(2) - 1) * G0, rel=1e-14)
        assert blockade_detuning(G0) / TWO_PI == pytest.approx(14.08e6, rel=1e-3)
        assert blockade_detuning(2 * G0) == pytest.approx(
            2 * blockade_detuning(G0), rel=1e-14)

    def test_ladder_arithmetic_oracle(self):
        """The n=1->2 step offset from the bare line is the difference of the
        lower manifold eigenvalues."""
        sys_ = make_system()
        step = jc_ladder(sys_, 2)[0] - jc_ladder(sys_, 1)[0]
        assert blockade_detuning(G0) == pytest.approx(abs(step), rel=1e-12)


def weak_drive_transmission(omega_p, g, kappa, gamma, omega_a=0.0, omega_c=0.0):
    """Linear-response oracle for the cavity-driven transmission."""
    return abs(kappa / (1j * (omega_c - omega_p) + kappa
                        + g**2 / (1j * (omega_a - omega_p) + gamma))) ** 2


class TestSteadyState:
    def test_empty_cavity_resonant(self):
        sys_ = make_system(g0=1e-9)  # decoupled atom emulates the empty cavity
        eps = 0.01 * KAPPA
        ss = steady_state(sys_, eps, 0.0)
        assert ss.transmission == pytest.approx(1.0, abs=1e-8)
        assert ss.mean_n == pytest.approx((eps / KAPPA) ** 2, rel=1e-6)

    def test_weak_drive_oracle_50_points(self):
        sys_ = make_system()
        eps = 1e-3 * KAPPA
        for omega_p in np.linspace(-2 * G0, 2 * G0, 50):
            ss = steady_state(sys_, eps, float(omega_p))
            want = weak_drive_transmission(float(omega_p), G0, KAPPA, GAMMA)
            assert abs(ss.transmission - want) / want < 1e-3

    def test_weak_drive_oracle_random_systems(self):
        """A detuned atom too: the FORT offset delta_e - delta_b is the atom's
        frequency in the oracle, measured from the cavity."""
        rng = np.random.default_rng(23)
        for _ in range(3):
            g = rng.uniform(5, 20) * KAPPA
            gamma = rng.uniform(0.3, 2.0) * KAPPA
            offset = rng.uniform(-1.0, 1.0) * g
            sys_ = CavitySystem(g0=g, kappa=KAPPA, gamma=gamma, delta_b=0.25 * offset,
                                delta_e=1.25 * offset, n_max=5)
            eps = 1e-3 * KAPPA
            for omega_p in np.linspace(-1.5 * g, 1.5 * g, 7):
                ss = steady_state(sys_, eps, float(omega_p))
                want = weak_drive_transmission(float(omega_p), g, KAPPA, gamma,
                                               omega_a=offset)
                assert abs(ss.transmission - want) / want < 1e-3

    def test_hygiene(self):
        sys_ = make_system()
        for omega_p in (0.0, -G0, 0.5 * G0):
            rho = steady_state(sys_, 0.02 * KAPPA, omega_p).rho
            assert abs(np.trace(rho) - 1) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() > -1e-10

    def test_truncation_convergence(self):
        eps = 1e-2 * KAPPA
        small = steady_state(make_system(n_max=5), eps, -G0)
        big = steady_state(make_system(n_max=7), eps, -G0)
        assert abs(small.mean_n - big.mean_n) / big.mean_n < 1e-6

    def test_truncation_warning_fires_when_overdriven(self):
        with pytest.warns(TruncationWarning):
            steady_state(make_system(n_max=2), 2.0 * KAPPA, -G0)

    def test_symmetric_spectrum_when_shifts_match(self):
        sys_ = make_system(delta_b=-0.3 * G0, delta_e=-0.3 * G0)
        eps = 1e-3 * KAPPA
        for x in (0.4 * G0, G0, 1.7 * G0):
            up = steady_state(sys_, eps, +x).transmission
            down = steady_state(sys_, eps, -x).transmission
            assert abs(up - down) <= 1e-9 * max(1.0, up)

    def test_negative_drive_rejected(self):
        with pytest.raises(ValidationError):
            steady_state(make_system(), -1.0, 0.0)


class TestSpectrum:
    def test_strong_coupling_doublet(self):
        sys_ = CavitySystem(g0=10 * KAPPA, kappa=KAPPA, gamma=KAPPA, n_max=5)
        grid = np.linspace(-2 * 10 * KAPPA, 2 * 10 * KAPPA, 161)
        result = vacuum_rabi_spectrum(sys_, 1e-3 * KAPPA, grid)
        assert len(result.peak_omegas) == 2

    def test_peaks_at_plus_minus_g0(self):
        g = 13 * KAPPA
        sys_ = CavitySystem(g0=g, kappa=KAPPA, gamma=KAPPA, n_max=5)
        grid = np.linspace(-2 * g, 2 * g, 200)
        result = vacuum_rabi_spectrum(sys_, 1e-3 * KAPPA, grid)
        step = grid[1] - grid[0]
        assert len(result.peak_omegas) == 2
        lower, upper = sorted(result.peak_omegas)
        assert abs(lower + g) <= step
        assert abs(upper - g) <= step

    def test_fort_asymmetry_shifts_center(self):
        """delta_e - delta_b = 0.3 g0 pushes the doublet center to the
        dressed-state midpoint (delta_e - delta_b)/2."""
        split = 0.3 * G0
        sys_ = make_system(delta_b=0.0, delta_e=split)
        grid = np.linspace(-2 * G0, 2 * G0, 801)
        result = vacuum_rabi_spectrum(sys_, 1e-3 * KAPPA, grid)
        assert len(result.peak_omegas) == 2
        center = 0.5 * sum(result.peak_omegas)
        step = grid[1] - grid[0]
        assert abs(center - split / 2) <= step
        pair = dressed_transitions(sys_)
        lower, upper = sorted(result.peak_omegas)
        assert abs(lower - pair.delta_minus) <= step
        assert abs(upper - pair.delta_plus) <= step


def reference_steady_state(sys_, eps, omega_p, z=0.0):
    """Per-point reference: the probe detunings sit inside H and the full
    generator is assembled for this one point (rates in units of kappa),
    with the trace condition in place of the first row. Returns (<n>, g2)."""
    n_levels = sys_.n_max + 1
    dim = 2 * n_levels
    unit = sys_.kappa
    a = sp.kron(sp.diags(np.sqrt(np.arange(1, n_levels)), 1), sp.identity(2), format="csr")
    sm = sp.kron(sp.identity(n_levels), sp.csr_matrix([[0.0, 1.0], [0.0, 0.0]]), format="csr")
    h = (-omega_p / unit * (a.T @ a)
         + (sys_.delta_e - sys_.delta_b - omega_p) / unit * (sm.T @ sm)
         + sys_.g_at(z) / unit * (a.T @ sm + a @ sm.T) + eps / unit * (a + a.T))
    ident = sp.identity(dim)
    lv = -1j * (sp.kron(ident, h) - sp.kron(h.T, ident))
    for rate, c in ((sys_.kappa, a), (sys_.gamma, sm)):
        c = math.sqrt(2 * rate / unit) * c
        cdc = c.T @ c
        lv = lv + sp.kron(c, c) - 0.5 * sp.kron(ident, cdc) - 0.5 * sp.kron(cdc.T, ident)
    lv = lv.tolil()
    lv[0, :] = 0.0
    lv[0, np.arange(dim) * (dim + 1)] = 1.0
    rhs = np.zeros(dim * dim, dtype=complex)
    rhs[0] = 1.0
    lv = lv.tocsc()
    x = spsolve(lv, rhs)
    x = x + spsolve(lv, rhs - lv @ x)
    pops = np.real(np.diag(x.reshape((dim, dim), order="F")))
    photons = np.repeat(np.arange(n_levels), 2)
    mean_n = photons @ pops
    return mean_n, (photons * (photons - 1)) @ pops / mean_n**2


def stored_bytes(blocks):
    """Bytes of the entries that a _CoherenceBlocks keeps of its blocks."""
    return sum(a.nbytes for entries in [*blocks.diag, *blocks.up] for a in entries)


def traced_peak(fn):
    """Peak of the memory traced while fn runs, above what was traced before."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def assert_matches_points(result, sys_, eps, z=0.0):
    """Every point of a spectrum agrees with the one-point path to 1e-12,
    whose rho is Hermitian to 1e-14, and with the per-point reference to 1e-10."""
    for i, omega_p in enumerate(result.omega_p.tolist()):
        ss = steady_state(sys_, eps, omega_p, z)
        assert np.max(np.abs(ss.rho - ss.rho.conj().T)) <= 1e-14
        assert result.transmission[i] == pytest.approx(ss.transmission, rel=1e-12)
        assert result.mean_n[i] == pytest.approx(ss.mean_n, rel=1e-12)
        assert result.g2[i] == pytest.approx(g2_zero(sys_, eps, omega_p, z), rel=1e-12)
        mean_n, g2 = reference_steady_state(sys_, eps, omega_p, z)
        assert result.mean_n[i] == pytest.approx(mean_n, rel=1e-10)
        assert result.g2[i] == pytest.approx(g2, rel=1e-10)


class TestGridSolver:
    """The spectrum assembles the generator's blocks once for its grid and
    eliminates stacks of points; each point must agree with the one-point
    path and with the per-point reference."""

    @pytest.mark.parametrize("n_max,points", [(5, 21), (8, 15), (20, 5)])
    def test_spectrum_matches_per_point_solves(self, n_max, points):
        sys_ = make_system(n_max=n_max, delta_b=-0.2 * G0, delta_e=0.15 * G0,
                           mode_wavelength_m=852e-9)
        z, eps = 90e-9, 0.05 * KAPPA
        grid = np.linspace(-2.5 * G0, 1.5 * G0, points)
        result = vacuum_rabi_spectrum(sys_, eps, grid, z=z, with_g2=True)
        assert_matches_points(result, sys_, eps, z)

    def test_far_detuned_spectrum(self):
        sys_ = make_system(delta_b=-0.2 * G0, delta_e=0.15 * G0, mode_wavelength_m=852e-9)
        z, eps = 90e-9, 0.05 * KAPPA
        grid = np.linspace(20 * G0, 100 * G0, 7)
        result = vacuum_rabi_spectrum(sys_, eps, grid, z=z, with_g2=True)
        assert result.mean_n.max() < 1e-7
        assert_matches_points(result, sys_, eps, z)

    def test_one_point_grid(self):
        sys_ = make_system(n_max=8, delta_b=-0.2 * G0, delta_e=0.15 * G0)
        result = vacuum_rabi_spectrum(sys_, 0.05 * KAPPA, np.array([-G0]), with_g2=True)
        assert result.peak_omegas == ()
        assert_matches_points(result, sys_, 0.05 * KAPPA)

    def test_grid_not_a_multiple_of_the_chunk(self):
        sys_ = make_system(n_max=20, delta_b=-0.2 * G0, delta_e=0.15 * G0,
                           mode_wavelength_m=852e-9)
        z, eps = 90e-9, 0.05 * KAPPA
        grid = np.linspace(-2.5 * G0, 1.5 * G0, 12)
        chunk = cavityqed._CoherenceBlocks(sys_, eps, z, grid).chunk
        assert 1 < chunk < grid.size and grid.size % chunk
        result = vacuum_rabi_spectrum(sys_, eps, grid, z=z, with_g2=True)
        assert_matches_points(result, sys_, eps, z)

    @pytest.mark.parametrize("n_max", [5, 20])
    def test_spectrum_bytes_do_not_depend_on_the_split(self, n_max, monkeypatch):
        """Two-point stacks with a one-point tail give the bytes of one
        whole-grid stack: the populations keep one layout, so the sums over
        them take one BLAS path."""
        sys_ = make_system(n_max=n_max, delta_b=-0.2 * G0, delta_e=0.15 * G0,
                           mode_wavelength_m=852e-9)
        z, eps = 90e-9, 0.05 * KAPPA
        grid = np.linspace(-2.5 * G0, 1.5 * G0, 45)
        results = []
        for budget, chunk in ((0, 2), (1 << 40, grid.size)):
            monkeypatch.setattr(cavityqed, "CHUNK_BYTES", budget)
            assert min(cavityqed._CoherenceBlocks(sys_, eps, z, grid).chunk, grid.size) == chunk
            results.append(vacuum_rabi_spectrum(sys_, eps, grid, z=z, with_g2=True))
        pairs, whole = results
        for name in ("transmission", "mean_n", "g2"):
            assert getattr(pairs, name).tobytes() == getattr(whole, name).tobytes()

    def test_spectrum_memory_is_one_level_per_stack(self):
        """A stack holds one level's s_q and T_q (CHUNK_BYTES), not the
        transfer matrices of every level: the traced peak of a spectrum is its
        blocks plus the budget, with a quarter budget more for one point's
        products and the grid-sized outputs."""
        sys_ = make_system(n_max=20, delta_b=-0.2 * G0, delta_e=0.15 * G0,
                           mode_wavelength_m=852e-9)
        z, eps = 90e-9, 0.05 * KAPPA
        grid = np.linspace(-2.5 * G0, 1.5 * G0, 45)
        own = stored_bytes(cavityqed._CoherenceBlocks(sys_, eps, z, grid))
        peak = traced_peak(lambda: vacuum_rabi_spectrum(sys_, eps, grid, z=z, with_g2=True))
        assert peak <= own + 1.25 * cavityqed.CHUNK_BYTES

    @pytest.mark.parametrize("n_max, limit", [(20, 0.5), (40, 1.5)])
    def test_stored_blocks_are_small(self, n_max, limit):
        """The blocks are kept as their nonzero entries: 0.16 MiB at n_max 20
        and 0.59 MiB at n_max 40, against 2.4 and 17.4 MiB dense."""
        sys_ = make_system(n_max=n_max, delta_b=-0.2 * G0, delta_e=0.15 * G0)
        grid = np.linspace(-2.5 * G0, 1.5 * G0, 20)
        blocks = cavityqed._CoherenceBlocks(sys_, 0.05 * KAPPA, 0.0, grid)
        assert stored_bytes(blocks) < limit * 2**20

    def test_entries_rebuild_the_dense_generator(self, monkeypatch):
        """The entries found by index arithmetic rebuild each block of the
        generator assembled densely from Kronecker products; every diagonal
        entry of a block q >= 1 is stored, and each drive coupling's two
        terms give its products."""
        calls = []
        entries = cavityqed._entries

        def recording(ops, rows, cols):
            calls.append((ops, rows, cols, entries(ops, rows, cols)))
            return calls[-1][-1]

        monkeypatch.setattr(cavityqed, "_entries", recording)
        sys_ = make_system(n_max=4, delta_b=-0.2 * G0, delta_e=0.15 * G0,
                           mode_wavelength_m=852e-9)
        cavityqed._CoherenceBlocks(sys_, 0.05 * KAPPA, 90e-9, np.array([-G0, G0]))
        # diagonal blocks q = 0 .. n_max + 1, then the couplings up from q = 0 .. n_max
        assert len(calls) == 2 * sys_.n_max + 3
        h, collapse, cdc, _ = calls[0][0]
        dim = len(h)
        eye = np.eye(dim)
        full = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
        for c in collapse:
            full += np.kron(c, c) - 0.5 * np.kron(eye, c.T @ c) - 0.5 * np.kron(c.T @ c, eye)
        rng = np.random.default_rng(5)
        for q, (_, (i, j), (k, l), (rows, cols, vals)) in enumerate(calls):
            dense = np.zeros((i.size, k.size), dtype=complex)
            dense[rows, cols] = vals
            np.testing.assert_allclose(dense, full[np.ix_(i + j * dim, k + l * dim)],
                                       rtol=0, atol=1e-14)
            if 0 < q <= sys_.n_max + 1:
                assert np.count_nonzero(rows == cols) == i.size
            elif q > sys_.n_max + 1:
                x = rng.normal(size=(k.size, 3)) + 1j * rng.normal(size=(k.size, 3))
                pairs = cavityqed._pairs((rows, cols, vals), i.size)
                np.testing.assert_allclose(cavityqed._gather(pairs, x[None])[0], dense @ x,
                                           rtol=1e-14)

    def test_overdriven_spectrum_warns(self):
        with pytest.warns(TruncationWarning):
            vacuum_rabi_spectrum(make_system(n_max=2), 2.0 * KAPPA,
                                 np.linspace(-1.5 * G0, -0.5 * G0, 5))

    def test_overdriven_spectrum_matches_reference_and_warns_once(self):
        """Each truncation warning fires once per grid and names the worst point."""
        sys_ = make_system(n_max=3, delta_b=-0.2 * G0, delta_e=0.15 * G0)
        eps, grid = 2.0 * KAPPA, np.linspace(-1.5 * G0, -0.5 * G0, 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = vacuum_rabi_spectrum(sys_, eps, grid, with_g2=True)
        assert [w.category for w in caught] == [TruncationWarning] * 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            top = max(steady_state(sys_, eps, w).top_fock_population for w in grid.tolist())
            assert_matches_points(result, sys_, eps)
        assert str(caught[0].message).startswith(f"top Fock level population {top:.2e} exceeds")
        assert str(caught[1].message).startswith(f"<n> = {result.mean_n.max():.3g} exceeds")

    def test_singular_solve_is_a_numerical_error(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="singular Liouvillian"):
            steady_state(make_system(), 0.01 * KAPPA, 0.0)
        with pytest.raises(NumericalError, match="singular Liouvillian"):
            vacuum_rabi_spectrum(make_system(), 0.01 * KAPPA, np.linspace(-G0, G0, 3))


class TestG2:
    def test_coherent_drive_gives_unity(self):
        sys_ = make_system(g0=1e-9, n_max=8)  # decoupled atom: coherent state
        assert g2_zero(sys_, 0.05 * KAPPA, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_blockade_on_lower_polariton(self):
        g = 13 * KAPPA
        sys_ = CavitySystem(g0=g, kappa=KAPPA, gamma=KAPPA, n_max=8)
        assert g2_zero(sys_, 0.1 * KAPPA, -g) < 1.0

    def test_two_photon_resonance_bunches(self):
        g = 13 * KAPPA
        sys_ = CavitySystem(g0=g, kappa=KAPPA, gamma=KAPPA, n_max=8)
        assert g2_zero(sys_, 0.1 * KAPPA, -g / math.sqrt(2)) > 1.0

    @pytest.mark.parametrize("n_max", [5, 20])
    def test_g2_zero_is_the_steady_state_g2_bit_for_bit(self, n_max):
        """g2_zero solves down to block 0 alone; its populations are those of
        steady_state's rho, so the number is the same to the last bit."""
        sys_ = make_system(n_max=n_max, delta_b=-0.2 * G0, delta_e=0.15 * G0,
                           mode_wavelength_m=852e-9)
        z, eps = 90e-9, 0.1 * KAPPA
        for omega_p in (-G0, -G0 / math.sqrt(2), 0.3 * G0):
            ss = steady_state(sys_, eps, omega_p, z)
            expected = float(cavityqed._g2(np.real(np.diag(ss.rho)), ss.mean_n))
            assert g2_zero(sys_, eps, omega_p, z).hex() == expected.hex()

    def test_g2_zero_keeps_no_transfer_matrices(self):
        """steady_state keeps every level's T_q for rho; g2_zero drops each
        level's T_q once the next is solved, and peaks below half as high."""
        sys_ = make_system(n_max=20)
        eps = 0.1 * KAPPA
        g2_peak = traced_peak(lambda: g2_zero(sys_, eps, -G0))
        assert g2_peak < 0.5 * traced_peak(lambda: steady_state(sys_, eps, -G0))

    def test_needs_three_fock_levels(self):
        with pytest.raises(ValidationError, match="n_max"):
            g2_zero(make_system(n_max=2), 0.1 * KAPPA, 0.0)

    def test_undriven_state_is_undefined(self):
        with pytest.raises(ValidationError, match="undefined"):
            g2_zero(make_system(n_max=3), 0.0, 0.0)


class TestSystemValidation:
    def test_rates_must_be_positive(self):
        with pytest.raises(ValidationError):
            CavitySystem(g0=0.0, kappa=1.0, gamma=1.0)
        with pytest.raises(ValidationError):
            CavitySystem(g0=1.0, kappa=-1.0, gamma=1.0)

    def test_nmax_floor(self):
        with pytest.raises(ValidationError):
            CavitySystem(g0=1.0, kappa=1.0, gamma=1.0, n_max=1)

    def test_mode_function_bounded(self):
        sys_ = make_system(mode_wavelength_m=852e-9)
        for z in np.linspace(-2e-6, 2e-6, 41):
            assert abs(sys_.psi(float(z))) <= 1.0
        with pytest.raises(ValidationError):
            make_system().psi(1e-7)


def test_empty_probe_grid_rejected():
    with pytest.raises(ValidationError, match="empty"):
        vacuum_rabi_spectrum(make_system(), 0.01 * KAPPA, np.array([]))


def test_spectrum_g2_needs_three_fock_levels():
    with pytest.raises(ValidationError, match="n_max"):
        vacuum_rabi_spectrum(make_system(n_max=2), 0.01 * KAPPA,
                             np.array([0.0]), with_g2=True)


class TestNonlinearSteadyStateOracle:
    """Independent route: integrate the master equation with dense matrix
    products (atom (x) cavity ordering, no vectorized Liouvillian) until
    stationary, and compare the full nonlinear steady state."""

    @staticmethod
    def _evolve(g, kappa, gamma, eps, delta, n_levels, t_final):
        from scipy.integrate import solve_ivp
        a_c = np.diag(np.sqrt(np.arange(1, n_levels)), 1)
        sm_a = np.array([[0.0, 1.0], [0.0, 0.0]])
        a = np.kron(np.eye(2), a_c)
        sm = np.kron(sm_a, np.eye(n_levels))
        h = (delta * a.conj().T @ a + delta * sm.conj().T @ sm
             + g * (a.conj().T @ sm + a @ sm.conj().T) + eps * (a + a.conj().T))
        cs = [math.sqrt(2 * kappa) * a, math.sqrt(2 * gamma) * sm]
        cdc = [c.conj().T @ c for c in cs]
        dim = 2 * n_levels

        def rhs(_, y):
            rho = y.view(complex).reshape(dim, dim)
            drho = -1j * (h @ rho - rho @ h)
            for c, dd in zip(cs, cdc):
                drho = drho + c @ rho @ c.conj().T - 0.5 * (dd @ rho + rho @ dd)
            return drho.ravel().view(float)

        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
        sol = solve_ivp(rhs, (0.0, t_final), rho0.ravel().view(float),
                        rtol=1e-10, atol=1e-12, method="DOP853")
        rho = sol.y[:, -1].view(complex).reshape(dim, dim)
        mean_n = float(np.real(np.trace(a.conj().T @ a @ rho)))
        n2 = float(np.real(np.trace(a.conj().T @ a.conj().T @ a @ a @ rho)))
        return mean_n, n2 / mean_n**2

    @pytest.mark.parametrize("eps_frac,omega_p_frac", [
        (0.3, -1.0),                  # strongly driven lower polariton
        (0.2, -1.0 / math.sqrt(2.0)), # two-photon resonance
    ])
    def test_matches_time_integration(self, eps_frac, omega_p_frac):
        kappa = 1.0
        g = 13 * kappa
        eps = eps_frac * kappa
        omega_p = omega_p_frac * g
        sys_ = CavitySystem(g0=g, kappa=kappa, gamma=kappa, n_max=8)
        ss = steady_state(sys_, eps, omega_p)
        g2_pkg = g2_zero(sys_, eps, omega_p)
        mean_n, g2 = self._evolve(g, kappa, kappa, eps, -omega_p, 9, 60.0)
        assert ss.mean_n == pytest.approx(mean_n, rel=1e-8)
        assert g2_pkg == pytest.approx(g2, rel=1e-8)


@pytest.mark.parametrize("mean_n, refused", [
    (7.4e-217, True), (1e-154, True), (0.0, True), (2e-154, False), (0.5, False)])
def test_g2_needs_a_normal_square_of_mean_n(mean_n, refused):
    """g2(0) = <n(n-1)> / <n>^2 is refused where <n>^2 is not a normal float
    (0 / 0 once the two-photon populations underflow with it), and a healthy
    <n> without two-photon population keeps g2 = 0."""
    pops = np.array([[1.0 - mean_n, 0.0, mean_n, 0.0, 0.0, 0.0]])  # all of <n> in n = 1
    if refused:
        with pytest.raises(NoPhotonsError, match="no photons"):
            cavityqed._g2(pops, np.array([mean_n]))
    else:
        assert cavityqed._g2(pops, np.array([mean_n])).tolist() == [0.0]
