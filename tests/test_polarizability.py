import math

import numpy as np
import pytest

from conftest import synth_species
from magictrap.angular import CircularPolarization, LinearPolarization, wigner_6j
from magictrap.errors import PoleError, ValidationError
from magictrap.polarizability import (alpha_m_resolved, alpha_scalar,
                                      differential_clock_shift, find_magic,
                                      scan_delta_alpha, stark_shift)

# independent constants for closed-form oracles
C = 299792458.0
H = 6.62607015e-34
EPS0 = 8.8541878128e-12
A0 = 5.29177210903e-11
AU_POL = 4 * math.pi * EPS0 * A0**3


def two_level_species(nu0_hz=6.5e14, d_au=3.0):
    return synth_species(
        [("g", 0.0, 0), ("e", nu0_hz, 1)], [("g", "e", d_au)])


def two_level_alpha_au(nu0_hz, d_au, wavelength_m):
    """Closed-form two-level scalar polarizability (J_g = 0), in a.u.

    Evaluated directly in atomic units; hartree-per-Hz from independent
    CODATA values (the SI/au conversion itself is checked elsewhere).
    """
    hartree_hz = 4.3597447222071e-18 / 6.62607015e-34
    w0 = nu0_hz / hartree_hz
    w = (C / wavelength_m) / hartree_hz
    return (d_au**2 / 3.0) * 2 * w0 / (w0**2 - w**2)


class TestScalar:
    def test_two_level_closed_form(self):
        species = two_level_species()
        lam0 = C / 6.5e14
        for lam in np.geomspace(0.55 * lam0, 8 * lam0, 10):
            if abs(lam - lam0) / lam0 < 1e-3:
                continue
            got = alpha_scalar(species, "g", float(lam)).alpha_scalar_au
            want = two_level_alpha_au(6.5e14, 3.0, float(lam))
            assert got == pytest.approx(want, rel=1e-12)

    def test_si_au_consistency(self, sr87):
        res = alpha_scalar(sr87, "1S0", 813.4e-9)
        assert res.alpha_scalar_si == pytest.approx(
            res.alpha_scalar_au * AU_POL, rel=1e-14)

    def test_ground_state_positive_at_lattice(self, sr87):
        assert alpha_scalar(sr87, "1S0", 813.4e-9).alpha_scalar_au > 0

    def test_3p0_sign_structure(self, sr87):
        # large positive just above the 679 nm line, negative in the mid-IR
        assert alpha_scalar(sr87, "3P0", 0.70e-6).alpha_scalar_au > 500
        assert alpha_scalar(sr87, "3P0", 2.0e-6).alpha_scalar_au < 0
        assert alpha_scalar(sr87, "3P0", 2.9e-6).alpha_scalar_au > 0

    def test_pole_guard_names_line(self, sr87):
        lam_679 = C / next(ln.frequency_hz for ln in sr87.lines
                           if ln.lower == "3P0" and ln.upper == "3S1")
        with pytest.raises(PoleError, match="3P0-3S1"):
            alpha_scalar(sr87, "3P0", lam_679 * (1 + 1e-9))

    def test_static_limit_cauchy(self, sr87):
        """alpha(lambda) converges monotonically past the longest line."""
        lams = 10e-6 * 2.0 ** np.arange(6)
        vals = [alpha_scalar(sr87, "3P0", float(l)).alpha_scalar_au for l in lams]
        diffs = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
        assert diffs[-1] < 1e-3 * abs(vals[-1])

    def test_pole_divergence_both_signs(self, sr87):
        """The line term dominates close to each pole, with opposite signs on
        the two sides: the red-minus-blue difference is positive and grows."""
        for state in ("1S0", "3P0"):
            for ln in sr87.lines_touching(state):
                lam_pole = C / ln.frequency_hz
                def split(eps):
                    red = alpha_scalar(sr87, state, lam_pole * (1 + eps))
                    blue = alpha_scalar(sr87, state, lam_pole * (1 - eps))
                    return red.alpha_scalar_au - blue.alpha_scalar_au
                wide, narrow = split(1e-3), split(1e-4)
                assert wide > 0
                assert narrow > 5 * wide

    def test_unknown_state_rejected(self, sr87):
        with pytest.raises(ValidationError, match="nosuch"):
            alpha_scalar(sr87, "nosuch", 813e-9)


class TestPerM:
    def test_j0_returns_scalar(self, sr87):
        res = alpha_m_resolved(sr87, "3P0", 813.4e-9, LinearPolarization())
        assert res.per_m_au == {0: res.alpha_scalar_au}
        assert res.alpha_vector_au == 0.0
        assert res.alpha_tensor_au == 0.0

    def test_3p1_linear_m_structure(self, sr87):
        res = alpha_m_resolved(sr87, "3P1", 915e-9, LinearPolarization(0.0))
        assert res.per_m_au[1] == pytest.approx(res.per_m_au[-1], rel=1e-14)
        assert res.per_m_au[0] != pytest.approx(res.per_m_au[1], rel=1e-6)

    def test_linear_polarization_kills_vector_term(self, sr87):
        """alpha(m) - alpha(-m) isolates the vector term; it must vanish for
        linear light at any polarization angle."""
        for theta in (0.0, 0.4, 1.1):
            res = alpha_m_resolved(sr87, "3P1", 915e-9, LinearPolarization(theta))
            assert res.per_m_au[1] - res.per_m_au[-1] == 0.0

    def test_circular_polarization_splits_m(self, sr87):
        plus = alpha_m_resolved(sr87, "3P1", 915e-9, CircularPolarization(+1))
        minus = alpha_m_resolved(sr87, "3P1", 915e-9, CircularPolarization(-1))
        assert plus.per_m_au[1] != pytest.approx(plus.per_m_au[-1], rel=1e-9)
        # sigma+ on m equals sigma- on -m
        assert plus.per_m_au[1] == pytest.approx(minus.per_m_au[-1], rel=1e-14)

    def test_circular_sign_must_be_one(self, sr87):
        with pytest.raises(ValidationError, match="circular polarization sign must be "
                                                  r"\+1 or -1"):
            alpha_m_resolved(sr87, "3P1", 915e-9, CircularPolarization(0))

    def test_3p2_resolves_every_sublevel(self, sr87):
        plus = alpha_m_resolved(sr87, "3P2", 915e-9, CircularPolarization(+1))
        minus = alpha_m_resolved(sr87, "3P2", 915e-9, CircularPolarization(-1))
        assert list(plus.per_m_au) == [-2, -1, 0, 1, 2]
        assert all(type(m) is int for m in plus.per_m_au)
        for m in (1, 2):
            assert plus.per_m_au[m] != pytest.approx(plus.per_m_au[-m], rel=1e-9)
        # sigma+ on m equals sigma- on -m
        for m in range(-2, 3):
            assert plus.per_m_au[m] == pytest.approx(minus.per_m_au[-m], rel=1e-14)

    def test_cs_ground_state_has_half_integer_sublevels(self, cs133):
        res = alpha_m_resolved(cs133, "6S1/2", 1064e-9, LinearPolarization())
        assert sorted(res.per_m_au) == [-0.5, 0.5]
        assert res.alpha_tensor_au == 0.0
        assert res.per_m_au[0.5] == res.per_m_au[-0.5]


class TestStark:
    def test_zero_intensity(self, sr87):
        res = alpha_scalar(sr87, "1S0", 813.4e-9)
        assert stark_shift(res, 0.0).potential_j == 0.0

    def test_positive_alpha_traps(self, sr87):
        res = alpha_scalar(sr87, "1S0", 813.4e-9)
        shift = stark_shift(res, 1e8)
        assert shift.potential_j < 0
        assert shift.shift_hz == pytest.approx(shift.potential_j / H, rel=1e-14)

    def test_10kw_cm2_regression(self, sr87):
        """Oracle: U = -alpha I / (2 eps0 c) evaluated independently."""
        res = alpha_scalar(sr87, "1S0", 813.4e-9)
        shift = stark_shift(res, 1e8)
        oracle = -res.alpha_scalar_au * AU_POL * 1e8 / (2 * EPS0 * C)
        assert shift.potential_j == pytest.approx(oracle, rel=1e-12)
        # a ~10 kW/cm^2 magic-wavelength lattice is a ~130 kHz deep trap
        assert shift.shift_hz == pytest.approx(-1.3e5, rel=0.1)

    def test_m_without_an_entry_is_a_validation_error(self, sr87):
        # alpha_scalar holds no per-m entries for J > 0; a resolved 3P1
        # result holds m = -1, 0, 1 only
        with pytest.raises(ValidationError, match=r"3P1: .*m = 0; available m: none"):
            stark_shift(alpha_scalar(sr87, "3P1", 915e-9), 1e7, m=0)
        resolved = alpha_m_resolved(sr87, "3P1", 915e-9, LinearPolarization())
        with pytest.raises(ValidationError, match=r"3P1: .*m = 5; available m: \[-1, 0, 1\]"):
            stark_shift(resolved, 1e7, m=5)
        assert stark_shift(resolved, 1e7, m=1).potential_j == pytest.approx(
            -resolved.per_m_au[1] * AU_POL * 1e7 / (2 * EPS0 * C), rel=1e-12)


class TestDifferentialShift:
    def test_zero_at_magic_point(self, sr87_cal):
        pts = find_magic(sr87_cal, "1S0", "3P0", (700e-9, 900e-9))
        shift = differential_clock_shift(sr87_cal, "1S0", "3P0",
                                         pts[0].wavelength_m, 1e8)
        # residual < 1e-6 au maps to << 1 mHz at 10 kW/cm^2
        assert abs(shift) < 1e-3

    def test_linear_in_intensity(self, sr87):
        base = differential_clock_shift(sr87, "1S0", "3P0", 820e-9, 1e7)
        for mult in (2.0, 5.0, 11.0):
            got = differential_clock_shift(sr87, "1S0", "3P0", 820e-9, mult * 1e7)
            assert got == pytest.approx(mult * base, rel=1e-12)

    def test_synthetic_two_line_closed_form(self):
        species = synth_species(
            [("g", 0.0, 0), ("x", 1e12, 0), ("u1", 6.0e14, 1), ("u2", 4.0e14, 1)],
            [("g", "u1", 2.0), ("x", "u2", 1.5)])
        lam = 1.1e-6
        got = differential_clock_shift(species, "g", "x", lam, 2e8)
        a1 = two_level_alpha_au(6.0e14, 2.0, lam)
        a2 = two_level_alpha_au(4.0e14 - 1e12, 1.5, lam)
        want = -(a2 - a1) * AU_POL * 2e8 / (2 * EPS0 * C * H)
        assert got == pytest.approx(want, rel=1e-12)


class TestFindMagic:
    def test_identical_states_rejected(self, sr87):
        with pytest.raises(ValidationError, match="identically zero"):
            find_magic(sr87, "3P0", "3P0", (700e-9, 900e-9))

    def test_no_crossing_returns_empty(self, sr87):
        assert find_magic(sr87, "1S0", "3P0", (830e-9, 890e-9)) == []

    def test_sr_crossing_in_window(self, sr87):
        pts = find_magic(sr87, "1S0", "3P0", (700e-9, 900e-9))
        assert len(pts) == 1
        assert abs(pts[0].wavelength_m - 813.428e-9) < 20e-9

    def test_synthetic_crossing_closed_form(self):
        """Two one-line states: the crossing frequency solves
        d1^2 w1/(w1^2-w^2) = d2^2 w2/(w2^2-w^2) in closed form."""
        nu1, nu2, d1, d2 = 6.0e14, 4.0e14, 1.2, 2.2
        species = synth_species(
            [("a", 0.0, 0), ("b", 1e9, 0), ("u1", nu1, 1), ("u2", 1e9 + nu2, 1)],
            [("a", "u1", d1), ("b", "u2", d2)])
        w1, w2 = 2 * math.pi * nu1, 2 * math.pi * nu2
        w_sq = w1 * w2 * (d2**2 * w1 - d1**2 * w2) / (d2**2 * w2 - d1**2 * w1)
        lam_star = 2 * math.pi * C / math.sqrt(w_sq)
        pts = find_magic(species, "a", "b", (0.7 * lam_star, 1.4 * lam_star))
        assert len(pts) == 1
        assert pts[0].wavelength_m == pytest.approx(lam_star, rel=1e-9)

    def test_residual_below_tolerance(self, sr87, sr87_cal):
        # the 650-700 nm window contains the steep crossing wedged between
        # the 679/689 nm poles, the hardest case for the residual bound
        for species in (sr87, sr87_cal):
            for window in ((700e-9, 900e-9), (650e-9, 700e-9)):
                for pt in find_magic(species, "1S0", "3P0", window):
                    a1 = alpha_scalar(species, "1S0", pt.wavelength_m).alpha_scalar_au
                    a2 = alpha_scalar(species, "3P0", pt.wavelength_m).alpha_scalar_au
                    assert abs(a1 - a2) < 1e-6
                    assert pt.residual_au < 1e-6
                    lo, hi = pt.bracket_m
                    assert lo < pt.wavelength_m < hi

    def test_grid_independence(self, sr87):
        coarse = find_magic(sr87, "1S0", "3P0", (700e-9, 900e-9), grid_points=2000)
        fine = find_magic(sr87, "1S0", "3P0", (700e-9, 900e-9), grid_points=4000)
        assert len(coarse) == len(fine)
        for a, b in zip(coarse, fine):
            assert abs(a.wavelength_m - b.wavelength_m) <= 1e-9 * b.wavelength_m

    def test_sublevel_search_computes_6j_weights_once(self, sr87, monkeypatch):
        import magictrap.polarizability as pz
        calls = []

        def counting_6j(*args):
            calls.append(args)
            return wigner_6j(*args)

        monkeypatch.setattr(pz, "wigner_6j", counting_6j)
        pts = find_magic(sr87, "1S0", "3P1", (300e-9, 3000e-9),
                         pol=CircularPolarization(+1), m1=0, m2=1)
        assert pts  # each bisected root evaluates the vector and tensor sums ~50 times
        # one vector and one tensor weight per 3P1 line; the J = 0 state needs none
        assert len(calls) == 2 * len(sr87.lines_touching("3P1"))

    def test_pole_splitting_finds_crossing_near_line(self, sr87):
        """The 650-700 nm window contains the 679/689 nm poles; the scan must
        split there and still report the crossing just above 689 nm."""
        pts = find_magic(sr87, "1S0", "3P0", (650e-9, 700e-9))
        assert len(pts) == 1
        assert 689.4e-9 < pts[0].wavelength_m < 690e-9

    def test_bad_interval_rejected(self, sr87):
        with pytest.raises(ValidationError):
            find_magic(sr87, "1S0", "3P0", (900e-9, 700e-9))

    @pytest.mark.parametrize("state,m", [("1S0", 1), ("3P1", 2), ("3P1", 0.5)])
    def test_m_that_is_not_a_sublevel_rejected(self, sr87, state, m):
        with pytest.raises(ValidationError, match="not a sublevel"):
            find_magic(sr87, state, "3P0", (700e-9, 900e-9), m1=m)


def test_scan_delta_alpha(sr87):
    lams, a1, a2, d = scan_delta_alpha(sr87, "1S0", "3P0", 700e-9, 900e-9, 50)
    assert np.all(np.diff(lams) > 0)
    assert np.allclose(d, a1 - a2)
    # one sign change in this window (the magic crossing)
    assert int(np.sum(np.sign(d[:-1]) * np.sign(d[1:]) < 0)) == 1


@pytest.mark.parametrize("lo, hi", [(900e-9, 700e-9), (700e-9, 700e-9), (0.0, 700e-9)])
def test_scan_delta_alpha_rejects_bad_interval(sr87, lo, hi):
    with pytest.raises(ValidationError, match="bad scan interval"):
        scan_delta_alpha(sr87, "1S0", "3P0", lo, hi, 5)


def test_pole_error_propagates_through_differential_shift(sr87):
    lam_679 = C / next(ln.frequency_hz for ln in sr87.lines
                       if ln.lower == "3P0" and ln.upper == "3S1")
    with pytest.raises(PoleError, match="3P0-3S1"):
        differential_clock_shift(sr87, "1S0", "3P0", lam_679 * (1 + 1e-9), 1e8)


def test_per_m_pole_guard(sr87):
    lam_688 = C / next(ln.frequency_hz for ln in sr87.lines
                       if ln.lower == "3P1" and ln.upper == "3S1")
    with pytest.raises(PoleError, match="3P1-3S1"):
        alpha_m_resolved(sr87, "3P1", lam_688 * (1 - 1e-9), LinearPolarization())


def test_find_magic_endpoint_on_a_pole(sr87):
    """A search window starting exactly on a catalog resonance is nudged
    inside its guard band instead of evaluating at the singularity."""
    lam_679 = C / next(ln.frequency_hz for ln in sr87.lines
                       if ln.lower == "3P0" and ln.upper == "3S1")
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        pts = find_magic(sr87, "1S0", "3P0", (lam_679, 900e-9))
    assert [round(p.wavelength_m * 1e9, 1) for p in pts] == [689.5, 804.6]
