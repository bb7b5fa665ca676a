import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icrt_lab.errors import EmptySampleError, LowExpectedCountError, NegativePathError
from icrt_lab.paths import CadlagPath, continuous_path
from icrt_lab.reflect import sample_excursion
from icrt_lab.rng import RngState
from icrt_lab.stats import (
    ALPHA,
    MONITORING_BETA,
    TestReport as Report,  # aliased so pytest does not collect it
    chi_square_gof,
    excursion_time_change,
    ks_p_value,
    ks_two_sample,
    time_in_band,
)
from icrt_lab.verify import jeulin_check

from conftest import make_tent


class TestReportEncoding:
    def test_numpy_scalars_encode(self):
        rep = Report(suite="s", statistic=np.float64(0.5), p_value=0.5,
                         passed=np.bool_(True), n_samples=np.int64(3),
                         extra={"flag": np.bool_(False), "count": np.int64(2)})
        assert type(rep.passed) is bool
        obj = json.loads(rep.to_json())
        assert obj["pass"] is True and obj["flag"] is False and obj["count"] == 2

    def test_zero_samples_never_pass(self):
        rep = Report(suite="s", statistic=0.0, p_value=1.0, passed=True, n_samples=0)
        assert rep.passed is False


class TestKs:
    def test_identical_samples(self):
        rep = ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert rep.statistic == 0.0 and rep.p_value == 1.0

    def test_disjoint_supports(self):
        rep = ks_two_sample([0.0], [1.0])
        assert rep.statistic == 1.0

    def test_hand_ecdf(self):
        rep = ks_two_sample([1.0, 2.0], [1.5, 2.5])
        assert rep.statistic == 0.5

    def test_empty_raises(self):
        with pytest.raises(EmptySampleError):
            ks_two_sample([], [1.0])

    def test_symmetry_and_monotone_invariance(self):
        a = RngState(1).gen.random(200)
        b = RngState(2).gen.random(300)
        d1 = ks_two_sample(a, b).statistic
        d2 = ks_two_sample(b, a).statistic
        assert d1 == d2
        d3 = ks_two_sample(np.exp(a), np.exp(b)).statistic
        assert d3 == pytest.approx(d1, abs=1e-15)

    def test_null_p_values_roughly_uniform(self):
        ps = []
        for k in range(200):
            g = RngState(3).child(k).gen
            ps.append(ks_two_sample(g.random(150), g.random(150)).p_value)
        ps = np.array(ps)
        assert (ps < 0.01).mean() < 0.06
        assert ps.mean() > 0.3

    def test_sf_bounds(self):
        a = np.arange(1000.0)
        assert ks_two_sample(a, a).p_value == 1.0
        assert ks_two_sample(a, a + 1000.0).p_value < 1e-12

    def test_wholly_apart_samples(self):
        # D = 1 at n per side: the smallest p-value n samples can give, and
        # below n = 5 it exceeds ALPHA, so the test cannot fail
        want = [0.289, 0.097, 0.033, 0.011, 0.0038]
        for n, p in enumerate(want, start=1):
            rep = ks_two_sample(np.zeros(n), np.ones(n))
            assert rep.statistic == 1.0 and rep.p_value == ks_p_value(1.0, n, n)
            assert rep.p_value == pytest.approx(p, rel=0.02)
            assert rep.passed == (n < 5) == (rep.p_value > ALPHA)

    @pytest.mark.parametrize("n", [20_000, 1_000_000])
    def test_near_identical_samples_pass(self, n):
        # D = 1/n, so the corrected statistic is about 1/sqrt(2n) (0.005 and
        # 7e-4), where the Kolmogorov tail is 1 to many digits
        a = np.arange(n) / n
        rep = ks_two_sample(a, a + 1e-9)
        assert rep.statistic == pytest.approx(1.0 / n)
        assert rep.p_value > 1.0 - 1e-12 and rep.passed


class TestChiSquare:
    def test_exact_fit(self):
        rep = chi_square_gof([50, 50], [0.5, 0.5])
        assert rep.statistic == 0.0 and rep.p_value == 1.0

    def test_hand_statistic(self):
        rep = chi_square_gof([60, 40], [0.5, 0.5])
        assert rep.statistic == pytest.approx(4.0)
        assert rep.extra["dof"] == 1

    def test_dof(self):
        rep = chi_square_gof([30, 30, 30, 30], [0.25] * 4)
        assert rep.extra["dof"] == 3

    def test_low_expected_raises(self):
        with pytest.raises(LowExpectedCountError):
            chi_square_gof([100, 1], [0.99, 0.01])


def reciprocal_integral(x, t0, t1):
    """Integral of ds / x(s) over [t0, t1] for a path positive there."""
    return excursion_time_change(x.restrict(t0, t1)).total


class TestLamperti:
    """The reciprocal integral behind the time change, exact on linear
    segments."""

    def test_constant(self):
        x = continuous_path([0.0, 1.0], [2.0, 2.0])
        assert excursion_time_change(x).total == pytest.approx(0.5)

    def test_tent_interior(self):
        assert reciprocal_integral(make_tent(), 0.25, 0.75) == pytest.approx(2 * np.log(2))

    def test_shifted_tent(self):
        # each branch gives the integral of ds / (s + c) over [0, 0.5]
        c = 0.1
        prof = excursion_time_change(make_tent(), shift=c)
        assert prof.total == pytest.approx(2 * np.log((0.5 + c) / c), rel=1e-12)

    def test_tent_full_diverges(self):
        # on a stretch where the path is 0 the integral diverges, so the
        # profile stops where the stretch starts
        x = continuous_path([0.0, 0.25, 0.5, 1.0], [0.0, 0.25, 0.0, 0.0])
        prof = excursion_time_change(x)
        assert list(prof.times) == [0.0, 0.25, 0.5]
        assert prof.total == pytest.approx(4.0)  # square-root model on both ends
        assert prof.value_at(prof.total) == 0.0

    def test_negative_raises(self):
        x = continuous_path([0.0, 1.0], [-1.0, -1.0])
        with pytest.raises(NegativePathError):
            excursion_time_change(x)

    def test_additive_over_intervals(self):
        tent = make_tent()
        whole = reciprocal_integral(tent, 0.2, 0.8)
        parts = reciprocal_integral(tent, 0.2, 0.45) + reciprocal_integral(tent, 0.45, 0.8)
        assert whole == pytest.approx(parts, rel=1e-12)

    def test_monotone_in_integrand(self):
        tent = make_tent()
        taller = tent.scale_values(2.0)
        assert reciprocal_integral(taller, 0.25, 0.75) < reciprocal_integral(tent, 0.25, 0.75)


class TestTimeChange:
    def test_constant_width(self):
        prof = excursion_time_change(continuous_path([0.0, 1.0], [3.0, 3.0]))
        assert prof.total == pytest.approx(1.0 / 3.0)
        assert [prof.value_at(y) for y in (0.0, 0.1, 0.33)] == [3.0, 3.0, 3.0]
        assert prof.value_at(0.4) == 0.0  # past the total integral 1/3

    def test_zero_grid_point_reports_limit(self):
        assert excursion_time_change(make_tent()).value_at(0.0) == 0.0

    def test_profile_total_matches_lamperti_interior(self):
        tent = make_tent()
        prof = excursion_time_change(tent)
        interior = reciprocal_integral(tent, 0.25, 0.75)
        assert prof.total > interior

    def test_total_monotone_in_shift(self):
        tent = make_tent()
        p1 = excursion_time_change(tent, shift=0.01)
        p2 = excursion_time_change(tent, shift=0.1)
        assert p2.total < p1.total


def band_times(x, bin_width):
    """Exact time in each band [edges[i], edges[i+1]) covering the range of
    x, taken as differences of band times up to the top edge, so that a
    flat piece lying on an edge is counted once."""
    k_lo = int(np.floor(x.min_value() / bin_width))
    k_hi = int(np.floor(x.max_value() / bin_width)) + 1
    edges = (np.arange(k_hi - k_lo + 2) + k_lo) * bin_width
    above = np.array([time_in_band(x, lo, edges[-1]) for lo in edges[:-1]] + [0.0])
    return edges, above[:-1] - above[1:]


class TestOccupation:
    def test_tent_interior_density_two(self):
        # two unit-|slope| branches cross each interior band
        tent = make_tent()
        for lo in np.arange(50) * 0.01:
            assert time_in_band(tent, lo, lo + 0.01) / 0.01 == pytest.approx(2.0)

    def test_constant_single_bin(self):
        x = continuous_path([0.0, 1.0], [0.305, 0.305])
        assert time_in_band(x, 0.30, 0.31) == 1.0
        assert time_in_band(x, 0.29, 0.30) == 0.0 and time_in_band(x, 0.31, 0.32) == 0.0

    def test_total_time_is_one(self, brownian_theta):
        exc = sample_excursion(brownian_theta, 512, RngState(5))
        assert time_in_band(exc, exc.min_value(), exc.max_value()) == pytest.approx(1.0, abs=1e-9)

    def test_band_time_matches_histogram(self):
        tent = make_tent()
        t = time_in_band(tent, 0.1, 0.2)
        assert t == pytest.approx(0.2)  # 2 branches * 0.1 levels / slope 1


class TestJeulin:
    def test_report_structure_smoke(self):
        rep = jeulin_check(256, 60, RngState(6))
        assert rep.suite == "jeulin"
        assert 0.0 <= rep.p_value <= 1.0
        assert set(rep.extra) >= {"u", "grid", "band", "shift"}

    def test_width_support_matches_twice_max(self, brownian_theta):
        # sup{y : width > 0} is the total reciprocal integral; its law
        # matches twice the excursion maximum (independent samples)
        m = 2 ** 12
        eps = MONITORING_BETA / np.sqrt(m)
        n = 500
        tot = np.empty(n)
        mx = np.empty(n)
        for k in range(n):
            e1 = sample_excursion(brownian_theta, m, RngState(9).child(k))
            tot[k] = excursion_time_change(e1, shift=eps).total
            e2 = sample_excursion(brownian_theta, m, RngState(10).child(k))
            mx[k] = 2.0 * (e2.max_value() + eps)
        rep = ks_two_sample(tot, mx)
        assert rep.p_value > 0.001

    def test_grid_refinement_trend(self):
        # the discretization bias shrinks as the grid doubles
        meds = []
        for m in (2 ** 8, 2 ** 11):
            stats = [jeulin_check(m, 150, RngState(7).child(r)).statistic for r in range(5)]
            meds.append(np.median(stats))
        assert meds[1] <= meds[0] + 0.02


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=5000))
def test_occupation_integral_exact_property(m, seed):
    g = RngState(8).child(seed).gen
    t = np.sort(np.concatenate([[0.0, 1.0], g.random(m - 1)]))
    t = np.unique(t)
    v = g.random(t.size)
    x = continuous_path(t, v)
    _, times = band_times(x, 0.037)
    assert times.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=5000),
       st.sampled_from([0.01, 0.037, 0.25]))
def test_occupation_bins_sum_to_band_time_property(m, seed, bin_width):
    # values on a coarse lattice, so flat pieces and pieces lying on a bin
    # edge occur; each must be counted in exactly one bin
    g = RngState(9).child(seed).gen
    t = np.unique(np.concatenate([[0.0, 1.0], g.random(m - 1)]))
    x = continuous_path(t, 0.05 * g.integers(-4, 12, size=t.size))
    edges, times = band_times(x, bin_width)
    assert (times >= 0.0).all()
    covered = time_in_band(x, edges[0], edges[-1])
    assert times.sum() == pytest.approx(covered, abs=1e-12)
    assert covered == pytest.approx(1.0, abs=1e-12)
