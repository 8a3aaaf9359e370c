import math

import numpy as np
import pytest

from magictrap.clockspec import (AggregateResult, ClockTransition, Measurement,
                                 NU0_OFFSET_HZ, aggregate_measurements,
                                 nbar_from_asymmetry, pair_average,
                                 quality_factor, rabi_lineshape,
                                 read_measurement_ledger, sideband_spectrum,
                                 zeeman_multiplet)
from magictrap.errors import ValidationError


def pi_pulse(duration):
    return math.pi / duration


def grid_fwhm(omega, duration, saturation=1.0):
    """Independent FWHM oracle: dense grid scan + linear interpolation."""
    grid = np.linspace(0.0, 4.0 / duration, 200001)
    w = 2 * math.pi * grid
    p = omega**2 / (omega**2 + w**2) * np.sin(
        np.sqrt(omega**2 + w**2) * duration / 2) ** 2
    p = np.minimum(saturation * p, 1.0)
    half = p[0] / 2
    below = np.nonzero(p <= half)[0][0]
    x0, x1 = grid[below - 1], grid[below]
    y0, y1 = p[below - 1], p[below]
    return 2 * (x0 + (half - y0) * (x1 - x0) / (y1 - y0))


class TestRabi:
    def test_resonant_pi_pulse_is_full_transfer(self):
        trace = rabi_lineshape(pi_pulse(0.5), 0.5, np.array([-1.0, 0.0, 1.0]))
        assert trace.response[1] == pytest.approx(1.0, abs=1e-14)

    def test_probabilities_bounded(self):
        trace = rabi_lineshape(pi_pulse(0.1), 0.1, np.linspace(-80, 80, 2001),
                               saturation=3.0)
        assert np.all(trace.response >= 0)
        assert np.all(trace.response <= 1)

    def test_fwhm_against_grid_oracle(self):
        for duration in (0.1, 0.5, 2.0):
            omega = pi_pulse(duration)
            trace = rabi_lineshape(omega, duration, np.array([0.0]))
            assert trace.fwhm_hz == pytest.approx(
                grid_fwhm(omega, duration), rel=1e-5)

    def test_half_second_pulse_fourier_width(self):
        trace = rabi_lineshape(pi_pulse(0.5), 0.5, np.array([0.0]))
        assert abs(trace.fwhm_hz - 1.60) < 0.01

    def test_fwhm_times_duration_constant(self):
        products = []
        for duration in (0.2, 0.5, 1.7):
            trace = rabi_lineshape(pi_pulse(duration), duration, np.array([0.0]))
            products.append(trace.fwhm_hz * duration)
        assert all(p == pytest.approx(0.799, abs=2e-3) for p in products)

    def test_quality_factor_at_observed_width(self):
        q = quality_factor(4.292e14, 1.8)
        assert abs(q - 2.4e14) / 2.4e14 < 0.05

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            rabi_lineshape(1.0, 1.0, np.array([]))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValidationError):
            rabi_lineshape(0.0, 1.0, np.array([0.0]))
        with pytest.raises(ValidationError):
            rabi_lineshape(1.0, -1.0, np.array([0.0]))
        # Omega^2 underflows to 0, overflows, or is NaN
        for omega in (2 * math.pi * 1e-300, math.pi / 1e-300, math.nan):
            with pytest.raises(ValidationError, match="finite nonzero square"):
                rabi_lineshape(omega, 0.5, np.array([0.0]))


SR_CLOCK = ClockTransition(nuclear_spin=4.5,
                           dg_hz_per_t=108.4)


class TestZeeman:
    def test_ten_lines_for_nine_halves(self):
        lines = zeeman_multiplet(SR_CLOCK, 1e-4)
        assert len(lines) == 10
        ms = sorted(m for m, _ in lines)
        assert ms == [x / 2 for x in range(-9, 10, 2)]

    def test_zero_field_collapses(self):
        assert all(off == 0.0 for _, off in zeeman_multiplet(SR_CLOCK, 0.0))

    def test_offsets_odd_in_mf(self):
        offsets = dict(zeeman_multiplet(SR_CLOCK, 2.3e-4))
        for m in (0.5, 1.5, 2.5, 3.5, 4.5):
            assert offsets[m] == pytest.approx(-offsets[-m], rel=1e-14)

    def test_linear_in_field_and_mf_with_gap_oracle(self):
        for field in (1e-5, 1e-4, 5e-4):
            lines = sorted(zeeman_multiplet(SR_CLOCK, field))
            gaps = [b[1] - a[1] for a, b in zip(lines, lines[1:])]
            for gap in gaps:
                assert gap == pytest.approx(SR_CLOCK.dg_hz_per_t * field, rel=1e-12)
            for m, off in lines:
                assert off == pytest.approx(m * SR_CLOCK.dg_hz_per_t * field, rel=1e-12)


class TestPairAverage:
    def test_exact_cancellation(self):
        assert pair_average(100.0 + 7.25, 100.0 - 7.25) == 100.0

    def test_field_independence_of_odd_shifts(self):
        """Linear Zeeman + vector light shift (both odd in m_F) cancel at any
        field; the average of each +/-m pair equals the B=0 line exactly."""
        nu0 = 52.75
        vector_shift_per_t = 11.0  # odd-in-m light shift stand-in
        values = []
        for field in (1e-5, 5e-5, 1e-4, 3e-4, 1e-3):
            shift = lambda m: m * (SR_CLOCK.dg_hz_per_t + vector_shift_per_t) * field
            values.append(pair_average(nu0 + shift(4.5), nu0 + shift(-4.5)))
        assert all(v == pytest.approx(nu0, rel=1e-12) for v in values)

    def test_even_term_survives(self):
        nu0, q = 10.0, 0.37
        even = lambda m: q * m * m / 20.25  # tensor-like, even in m
        got = pair_average(nu0 + even(4.5) + 3.0, nu0 + even(-4.5) - 3.0)
        assert got == pytest.approx(nu0 + q, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            pair_average(float("nan"), 0.0)


def thermal_ratio_oracle(nbar, n_top=200):
    """Red/blue weight ratio from an explicit thermal sum over Fock states."""
    n = np.arange(n_top + 1)
    p = (1 / (nbar + 1)) * (nbar / (nbar + 1)) ** n
    return float(np.sum(p * n) / np.sum(p * (n + 1)))


class TestSidebands:
    def test_ground_state_has_no_red_sideband(self):
        trace = sideband_spectrum(0.3, 5e4, 0.0, 2e3, np.linspace(-8e4, 8e4, 501))
        weights = {f.name: f.weight for f in trace.labels}
        assert weights["red_sideband"] == 0.0
        assert weights["blue_sideband"] > 0

    @pytest.mark.parametrize("nbar", [0.2, 1.0, 5.0])
    def test_ratio_matches_thermal_sum(self, nbar):
        trace = sideband_spectrum(0.3, 5e4, nbar, 2e3, np.linspace(-8e4, 8e4, 501))
        weights = {f.name: f.weight for f in trace.labels}
        ratio = weights["red_sideband"] / weights["blue_sideband"]
        assert abs(ratio - thermal_ratio_oracle(nbar)) < 1e-9
        assert ratio == pytest.approx(nbar / (nbar + 1), rel=1e-12)

    def test_feature_positions(self):
        nu_z = 4.9e4
        grid = np.linspace(-1.6 * nu_z, 1.6 * nu_z, 4001)
        trace = sideband_spectrum(0.31, nu_z, 1.0, 1.5e3, grid)
        maxima = [grid[i] for i in range(1, len(grid) - 1)
                  if trace.response[i] > trace.response[i - 1]
                  and trace.response[i] > trace.response[i + 1]]
        assert len(maxima) == 3
        step = grid[1] - grid[0]
        for found, expected in zip(sorted(maxima), (-nu_z, 0.0, nu_z)):
            assert abs(found - expected) <= step

    def test_ratio_increases_with_nbar(self):
        def ratio(nbar):
            t = sideband_spectrum(0.3, 5e4, nbar, 2e3, np.linspace(-8e4, 8e4, 11))
            w = {f.name: f.weight for f in t.labels}
            return w["red_sideband"] / w["blue_sideband"]
        values = [ratio(x) for x in (0.0, 0.5, 1.0, 2.0, 10.0)]
        assert values == sorted(values)
        assert all(w >= 0 for w in values)

    def test_response_normalized(self):
        trace = sideband_spectrum(0.3, 5e4, 2.0, 2e3, np.linspace(-8e4, 8e4, 501))
        assert np.all(trace.response >= 0)
        assert trace.response.max() == pytest.approx(1.0, abs=1e-12)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            sideband_spectrum(1.0, 5e4, 1.0, 2e3, np.linspace(-1e5, 1e5, 11))


class TestNbarInversion:
    def test_trivial_points(self):
        assert nbar_from_asymmetry(0.0) == 0.0
        assert nbar_from_asymmetry(0.5) == pytest.approx(1.0, rel=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for nbar in rng.uniform(0.01, 50.0, 20):
            ratio = nbar / (nbar + 1.0)
            assert nbar_from_asymmetry(ratio) == pytest.approx(nbar, rel=1e-12)

    def test_ratio_one_rejected(self):
        with pytest.raises(ValidationError):
            nbar_from_asymmetry(1.0)


def meas(site, value, stat, sys_):
    return Measurement(site, value, stat, sys_)


class TestAggregate:
    def test_single_measurement_flagged(self):
        result = aggregate_measurements([meas("a", 74.0, 1.0, 2.0)])
        assert result.mean_hz == 74.0
        assert result.sigma_mean_hz == pytest.approx(math.hypot(1, 2), rel=1e-12)
        assert result.chi2_reduced == 0.0
        assert not result.chi2_valid

    def test_two_equal_sigma_values(self):
        result = aggregate_measurements(
            [meas("a", 10.0, 1.0, 0.001), meas("b", 20.0, 1.0, 0.001)])
        sigma = math.hypot(1.0, 0.001)
        assert result.mean_hz == pytest.approx(15.0, rel=1e-12)
        assert result.sigma_mean_hz == pytest.approx(sigma / math.sqrt(2), rel=1e-12)

    def test_three_records_long_hand(self):
        records = [meas("a", 70.8, 2.0, 2.5), meas("b", 74.3, 0.6, 0.9),
                   meas("c", 72.9, 2.1, 2.8)]
        w = [1 / (2.0**2 + 2.5**2), 1 / (0.6**2 + 0.9**2), 1 / (2.1**2 + 2.8**2)]
        mean = sum(wi * m.value_hz for wi, m in zip(w, records)) / sum(w)
        sigma = 1 / math.sqrt(sum(w))
        chi2 = sum(wi * (m.value_hz - mean) ** 2
                   for wi, m in zip(w, records)) / 2
        result = aggregate_measurements(records)
        assert result.mean_hz == pytest.approx(mean, rel=1e-12)
        assert result.sigma_mean_hz == pytest.approx(sigma, rel=1e-12)
        assert result.chi2_reduced == pytest.approx(chi2, rel=1e-12)

    def test_order_invariance(self):
        records = [meas("a", 70.8, 2.0, 2.5), meas("b", 74.3, 0.6, 0.9),
                   meas("c", 72.9, 2.1, 2.8)]
        forward = aggregate_measurements(records)
        backward = aggregate_measurements(records[::-1])
        assert forward.mean_hz == pytest.approx(backward.mean_hz, rel=1e-14)
        assert forward.chi2_reduced == pytest.approx(backward.chi2_reduced, rel=1e-14)

    def test_uniform_sigma_scaling(self):
        records = [meas("a", 70.8, 2.0, 2.5), meas("b", 74.3, 0.6, 0.9)]
        scaled = [meas(m.site, m.value_hz, 3 * m.stat_hz, 3 * m.sys_hz)
                  for m in records]
        base, big = aggregate_measurements(records), aggregate_measurements(scaled)
        assert big.mean_hz == pytest.approx(base.mean_hz, rel=1e-14)
        assert big.sigma_mean_hz == pytest.approx(3 * base.sigma_mean_hz, rel=1e-14)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_numpy_sums_bit_for_bit(self, seed):
        """The float sums keep the bits of the numpy formula, also past the
        8-term blocks of numpy's pairwise sum."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 41))
        records = [meas(f"s{k}", float(v), float(a), float(b)) for k, (v, a, b) in enumerate(zip(
            rng.uniform(-100.0, 100.0, n), 10.0 ** rng.uniform(-2, 1, n),
            10.0 ** rng.uniform(-2, 1, n)))]
        values = np.array([m.value_hz for m in records])
        weights = 1.0 / np.array([m.total_sigma_hz for m in records]) ** 2
        mean = float(np.sum(weights * values) / np.sum(weights))
        chi2 = float(np.sum(weights * (values - mean) ** 2) / (n - 1)) if n > 1 else 0.0
        result = aggregate_measurements(records)
        assert result == (mean, float(1.0 / math.sqrt(np.sum(weights))), chi2, n > 1, n)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_measurements([])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValidationError):
            meas("a", 1.0, 0.0, 1.0)


class TestLedger:
    def test_bundled_ledger_parses(self):
        from magictrap.atomdata import data_dir
        records = read_measurement_ledger(data_dir() / "sr87_measurements.csv")
        assert len(records) == 5
        assert {m.site for m in records} >= {"boulder_2007", "paris_2006"}
        result = aggregate_measurements(records)
        assert isinstance(result, AggregateResult)
        # the reporting offset is a fixed package constant
        assert NU0_OFFSET_HZ == 429228004229800

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("site,value,stat\nx,1,2\n")
        with pytest.raises(ValidationError, match="header"):
            read_measurement_ledger(path)


def test_spectrum_trace_grid_validation():
    from magictrap.clockspec import SpectrumTrace
    with pytest.raises(ValidationError, match="increasing"):
        SpectrumTrace(np.array([0.0, -1.0]), np.array([0.1, 0.2]))
    with pytest.raises(ValidationError, match="empty"):
        SpectrumTrace(np.array([]), np.array([]))


def half_crossing(omega, duration, saturation):
    """The one-step-at-a-time walk hi = step, step + step, ... that
    rabi_lineshape evaluates in blocks: (g, hi, step) with g = P - half
    and g(hi - step) > 0 >= g(hi), or None when the walk reaches its limit."""
    def prob(delta_hz):
        w = 2.0 * math.pi * np.asarray(delta_hz)
        p = omega**2 / (omega**2 + w**2) * np.sin(np.sqrt(omega**2 + w**2) * duration / 2.0) ** 2
        return np.minimum(saturation * p, 1.0)

    half = float(prob(0.0)) / 2.0
    step = 1.0 / (4.0 * duration)
    hi = step
    while float(prob(hi)) > half and hi < 1e6 / duration:
        hi += step
    if float(prob(hi)) > half:
        return None
    return (lambda d: float(prob(d)) - half), hi, step


def stepwise_fwhm(omega, duration, saturation=1.0):
    """Reference for the FWHM search: the one-step walk, then bisection of
    its last step under the stopping rule of rabi_lineshape."""
    found = half_crossing(omega, duration, saturation)
    if found is None:
        return None
    g, hi, step = found
    a, b = hi - step, hi
    while b - a > 1e-12 * step + 1e-14 * b:
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if g(mid) > 0:
            a = mid
        else:
            b = mid
    return a + b


PULSES = [
    (math.pi, 0.5, 1.0), (math.pi, 0.1, 3.0), (3 * math.pi, 1.0, 1.0),
    (0.4 * math.pi, 2.0, 10.0), (2 * math.pi * 1.002, 0.5, 1.0),
    (4 * math.pi * 0.997, 0.05, 1.0), (6 * math.pi * 1.03, 1.0, 2.7),
]


@pytest.mark.parametrize("omega_t,duration,saturation", PULSES)
def test_fwhm_search_matches_stepwise_walk(omega_t, duration, saturation):
    trace = rabi_lineshape(omega_t / duration, duration, np.array([0.0]), saturation)
    assert trace.fwhm_hz == stepwise_fwhm(omega_t / duration, duration, saturation)


def assert_same_trace(on_list, on_array):
    """A trace evaluated on floats and one evaluated in numpy, bit for bit."""
    assert type(on_list.detuning_hz) is list and type(on_list.response) is list
    assert np.array(on_list.detuning_hz).tobytes() == on_array.detuning_hz.tobytes()
    assert np.array(on_list.response).tobytes() == on_array.response.tobytes()
    assert (on_list.labels, on_list.fwhm_hz) == (on_array.labels, on_array.fwhm_hz)


# the carrier-node pulse walks past the first 1024 steps, which run on floats
@pytest.mark.parametrize("omega_t,duration,saturation", [*PULSES, (2 * math.pi, 0.5, 1.0)])
def test_floats_match_numpy_rabi_lineshape(omega_t, duration, saturation):
    grid = np.linspace(-4.0 / duration, 4.0 / duration, 801)
    on_list = rabi_lineshape(omega_t / duration, duration, grid.tolist(), saturation)
    assert_same_trace(on_list, rabi_lineshape(omega_t / duration, duration, grid, saturation))


@pytest.mark.parametrize("seed", range(20))
def test_floats_match_numpy_sideband_spectrum(seed):
    rng = np.random.default_rng(seed)
    nu_z = 10 ** rng.uniform(3, 6)
    args = (rng.uniform(0.0, 1.0), nu_z, [0.0, rng.uniform(0.0, 20.0)][rng.integers(2)],
            nu_z * 10 ** rng.uniform(-3, 0.5))
    grid = np.linspace(-1.6 * nu_z, 1.6 * nu_z, rng.integers(1, 2001))
    assert_same_trace(sideband_spectrum(*args, grid.tolist()), sideband_spectrum(*args, grid))


def test_fwhm_matches_brentq_oracle():
    """The bisected FWHM against scipy's brentq (the oracle) run to full
    precision on the same bracket, over seeded pulses."""
    from scipy.optimize import brentq

    rng = np.random.default_rng(20081)
    for _ in range(400):
        duration = 10 ** rng.uniform(-3, 1)
        omega = rng.uniform(0.1, 6.5) * math.pi / duration
        saturation = 2 ** rng.uniform(0, 4)
        g, hi, step = half_crossing(omega, duration, saturation)
        exact = 2 * brentq(g, hi - step, hi, xtol=1e-15 * step, rtol=8.9e-16)
        fwhm = rabi_lineshape(omega, duration, np.array([0.0]), saturation).fwhm_hz
        assert fwhm == pytest.approx(exact, rel=2e-12, abs=0)


def test_carrier_node_has_no_fwhm_and_returns_quickly():
    # Omega T = 2 pi: P(0) is zero up to rounding and never has a half
    # crossing; the walk goes to its 1e6 / T limit (4e6 steps)
    import time
    start = time.perf_counter()
    trace = rabi_lineshape(2 * math.pi * 2.0, 0.5, np.linspace(-10, 10, 801))
    assert trace.fwhm_hz is None
    assert time.perf_counter() - start < 5.0
