import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magictrap.pairwise as pairwise
from conftest import synth_species
from magictrap.angular import CircularPolarization, LinearPolarization, wigner_6j
from magictrap.atomdata import bundled_species_path, load_species
from magictrap.errors import PoleError, ValidationError
from magictrap.pairwise import pairwise_sum
from magictrap.polarizability import (POLE_GUARD, alpha_m_resolved,
                                      alpha_scalar, differential_clock_shift,
                                      find_magic, scan_delta_alpha, stark_shift)

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


def same_bits(got, want):
    """Bit equality of float arrays; a float ``got`` is broadcast to ``want``."""
    got = np.broadcast_to(np.asarray(got, dtype=float), want.shape)
    return np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("n", [*range(21), 129, 200])
def test_line_sum_adds_in_numpys_order(n):
    """The per-line sum has the bits of numpy's pairwise ``.sum(axis=-1)``
    over a (points x lines) array, for an array of omegas, a one-element
    array and a float; the line counts reach the 8-sum and split branches."""
    rng = np.random.default_rng(n)
    num = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)).tolist()
    o2 = rng.uniform(0.25, 4.0, n).tolist()
    w = rng.uniform(0.0, 2.0, 10007)  # more than one 8192-element ufunc buffer

    def per_line(omega, num=num):
        w2 = omega * omega
        return pairwise_sum(lambda k: num[k] / (o2[k] - w2), 0, n)

    want = (np.array(num) / (np.array(o2) - w[:, None] ** 2)).sum(axis=-1)
    assert same_bits(per_line(w), want)
    assert same_bits(per_line(w[:1]), want[:1])
    got = per_line(float(w[7]))
    assert type(got) is float and same_bits(got, want[7])
    # a row of -0.0 terms: numpy's sum is +0.0 (numpy 2.4), so the sum must be too
    zeros = [-0.0] * n
    want = (np.array(zeros) / (np.array(o2) - w[:3, None] ** 2)).sum(axis=-1)
    assert same_bits(per_line(w[:3], zeros), want)
    assert same_bits(per_line(float(w[0]), zeros), want[0])


@pytest.mark.parametrize("lo, hi, n", [
    (300e-9, 3000e-9, 2000), (700e-9, 900e-9, 8), (689.448e-9, 689.449e-9, 9),
    (1e-7, 1e2, 100001), (813.4e-9, 813.4000000001e-9, 17)])
def test_log_grid_is_linspace_exponents_raised_by_python(lo, hi, n, monkeypatch):
    """pairwise.geomspace is np.geomspace's exponents, each raised by
    Python's ``**`` (libm's pow, not numpy's SIMD kernel), with both ends
    exact, as a list and as an array alike."""
    exponents = np.linspace(math.log10(lo), math.log10(hi), n)
    want = np.array([lo, *(10.0 ** float(y) for y in exponents[1:-1]), hi])
    for points, container in ((10**9, list), (0, np.ndarray)):
        monkeypatch.setattr(pairwise, "FLOAT_POINTS", points)
        got = pairwise.geomspace(lo, hi, n)
        assert type(got) is container
        assert container is np.ndarray or all(type(x) is float for x in got)
        assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("points", [1, 2, 25, 2001])
def test_scan_grid_has_the_bits_of_geomspace(points, monkeypatch):
    """scan_delta_alpha's wavelengths are pairwise.geomspace's list, bit
    for bit (one point is [lo]), above FLOAT_POINTS too."""
    species = load_species(bundled_species_path("sr87"))
    lams = scan_delta_alpha(species, "1S0", "3P0", 700e-9, 900e-9, points)[0]
    monkeypatch.setattr(pairwise, "FLOAT_POINTS", 10**9)
    want = pairwise.geomspace(700e-9, 900e-9, points)
    assert want[0] == 700e-9 and (points == 1 or want[-1] == 900e-9)
    assert np.array_equal(lams.view(np.uint64), np.array(want).view(np.uint64))


@pytest.mark.parametrize("name", ["sr87", "sr88"])
@pytest.mark.parametrize("states", [("1S0", "3P0", None, None), ("1S0", "3P1", 0, 1),
                                    ("1S0", "3P2", 0, -2)], ids=["scalar", "3P1-m1", "3P2-m-2"])
@pytest.mark.parametrize("points", [800, 2000, 2600])
def test_find_magic_branches_give_the_same_points(name, states, points, monkeypatch):
    """A search evaluated a point at a time and one evaluated in one numpy
    call give identical MagicPoints, for scalar and sublevel crossings."""
    species = load_species(bundled_species_path(name))
    state1, state2, m1, m2 = states
    pol = CircularPolarization(+1) if m1 is not None else None

    def search():
        return find_magic(species, state1, state2, (400e-9, 2000e-9), pol=pol,
                          grid_points=points, m1=m1, m2=m2)

    monkeypatch.setattr(pairwise, "FLOAT_POINTS", 10**9)  # point by point
    floats = search()
    monkeypatch.setattr(pairwise, "FLOAT_POINTS", 0)  # one numpy call
    arrays = search()
    assert floats  # each search crosses
    assert repr(floats) == repr(arrays)


# x is a level that no line touches
LONE_LEVEL = ("species X mass_kg 1e-25 I 0\nlevel g energy_hz 0 J 0\nlevel e energy_hz 4e14 J 1\n"
              f"level x energy_hz 1e14 J 1\nline g e lambda_nm {C / 4e14 * 1e9!r} d_au 1\n")


def test_level_without_lines_is_positive_zero_and_loads_no_numpy(tmp_path):
    """A level that no catalog line touches has alpha +0.0 (numpy's empty
    sum), as a float, per sublevel and over a scan; a single wavelength
    and a default search of it stay on floats."""
    path = tmp_path / "lone.lines"
    path.write_text(LONE_LEVEL)
    script = f"""
import math, sys
from magictrap.angular import CircularPolarization
from magictrap.atomdata import load_species
from magictrap.polarizability import alpha_m_resolved, alpha_scalar, find_magic
species = load_species({str(path)!r})
values = [alpha_scalar(species, "x", 800e-9).alpha_scalar_au,
          *alpha_m_resolved(species, "x", 800e-9, CircularPolarization(+1)).per_m_au.values()]
assert all(type(v) is float and math.copysign(1.0, v) == 1.0 and v == 0.0 for v in values), values
assert len(values) == 4
find_magic(species, "x", "g", (500e-9, 1500e-9))
print("numpy" in sys.modules)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(pairwise.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    species = load_species(path)
    lams, a1, a2, delta = scan_delta_alpha(species, "x", "g", 500e-9, 1500e-9, 50)
    assert a1.shape == lams.shape == (50,)
    assert a1.tobytes() == np.zeros(50).tobytes()
    assert np.array_equal(delta, -a2)


def test_find_magic_hi_on_a_pole_is_nudged_inward(sr87):
    lam_2563 = C / next(ln.frequency_hz for ln in sr87.lines
                        if ln.lower == "3P0" and ln.upper == "3D1")
    import warnings as w
    with w.catch_warnings():
        w.simplefilter("error")
        pts = find_magic(sr87, "1S0", "3P0", (700e-9, lam_2563))
    assert pts == find_magic(sr87, "1S0", "3P0", (700e-9, lam_2563 * (1 - 2 * POLE_GUARD)))
    assert pts and pts[-1].wavelength_m < lam_2563


def test_find_magic_window_inside_one_guard_band_is_empty(sr87):
    lam_679 = C / next(ln.frequency_hz for ln in sr87.lines
                       if ln.lower == "3P0" and ln.upper == "3S1")
    assert find_magic(sr87, "1S0", "3P0", (lam_679 * (1 - 1e-7), lam_679 * (1 + 1e-7))) == []


def test_find_magic_skips_the_gap_between_two_close_poles(tmp_path):
    """Two lines of g whose guard bands overlap leave no segment between
    them; the roots are those of the searches on either side."""
    e1 = 4.0e14
    e2 = e1 * (1 + 2 * POLE_GUARD)
    path = tmp_path / "close.lines"
    path.write_text(
        "species X mass_kg 1e-25 I 0\nlevel g energy_hz 0 J 0\nlevel m energy_hz 1e14 J 0\n"
        f"level e1 energy_hz {e1!r} J 1\nlevel e2 energy_hz {e2!r} J 1\n"
        "level u energy_hz 7e14 J 1\n"
        f"line g e1 lambda_nm {C / e1 * 1e9!r} d_au 1\n"
        f"line g e2 lambda_nm {C / e2 * 1e9!r} d_au 1\n"
        f"line m u lambda_nm {C / 6e14 * 1e9!r} d_au 3\n")
    species = load_species(path)
    lam1, lam2 = C / e2, C / e1
    pts = find_magic(species, "g", "m", (500e-9, 1500e-9))
    sides = (find_magic(species, "g", "m", (500e-9, lam1 * (1 - 2 * POLE_GUARD)))
             + find_magic(species, "g", "m", (lam2 * (1 + 2 * POLE_GUARD), 1500e-9)))
    assert pts
    assert [p.wavelength_m for p in pts] == pytest.approx(
        [p.wavelength_m for p in sides], rel=1e-12)


def test_bisection_stops_when_no_midpoint_is_left(sr87, monkeypatch):
    """With no tolerance the bisection runs down to adjacent doubles and
    ends there instead of looping."""
    import magictrap.polarizability as pz
    # the root near 689.5 nm has no exact zero of delta on the way down
    want = find_magic(sr87, "1S0", "3P0", (650e-9, 700e-9))
    monkeypatch.setattr(pz, "REFINE_TOL", 0.0)
    got = find_magic(sr87, "1S0", "3P0", (650e-9, 700e-9))
    assert len(got) == len(want) == 1
    assert got[0].wavelength_m == pytest.approx(want[0].wavelength_m, rel=1e-15)
    assert got[0].residual_au < 1e-6


def test_scan_delta_alpha_identical_states_rejected(sr87):
    with pytest.raises(ValidationError, match="identically zero"):
        scan_delta_alpha(sr87, "3P0", "3P0", 700e-9, 900e-9, 5)
