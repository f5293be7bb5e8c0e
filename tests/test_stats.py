import math

import numpy as np
import pytest

from stseq.arith import AngleSeries, primes_up_to
from stseq.stats import (
    STConstants,
    cos_moment_integrals,
    h_gamma,
    half_band_density,
    ks_statistic,
    log1,
    log2_iter,
    log3_iter,
    normal_cdf,
    prime_angle_summary,
    prime_log_moments,
    st_cdf,
    st_log_moments,
    st_pdf,
)
from stseq.synthetic import StRngStream, sample_st_angles


class TestIteratedLogs:
    def test_convention(self):
        assert log1(0.5) == 1.0
        assert log1(math.e**2) == 2.0
        assert log2_iter(math.exp(math.exp(3))) == pytest.approx(3.0)
        assert log3_iter(10.0) == 1.0  # log2 = 1, log of that clamps to 1


class TestStCdf:
    def test_endpoints_and_median(self):
        assert st_cdf(0.0) == 0.0
        assert st_cdf(math.pi) == 1.0
        assert st_cdf(math.pi / 2) == pytest.approx(0.5, abs=1e-15)

    def test_third_of_pi(self):
        assert st_cdf(math.pi / 3) == pytest.approx(1 / 3 - math.sqrt(3) / (4 * math.pi), abs=1e-15)
        assert st_cdf(math.pi / 3) == pytest.approx(0.19550110947788530, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            st_cdf(-0.1)
        with pytest.raises(ValueError):
            st_cdf(3.5)

    def test_monotone_and_derivative(self):
        grid = np.linspace(0.0, math.pi, 4001)
        vals = st_cdf(grid)
        assert np.all(np.diff(vals) >= -1e-15)
        h = 1e-6
        mid = grid[1:-1]
        fd = (st_cdf(mid + h) - st_cdf(mid - h)) / (2 * h)
        assert np.max(np.abs(fd - st_pdf(mid))) < 1e-6


class TestHGamma:
    def test_closed_form_anchors(self):
        assert h_gamma(0.0) == pytest.approx(1.0, abs=1e-9)
        assert h_gamma(1.0) == pytest.approx(8.0 / (3.0 * math.pi), abs=1e-9)
        assert h_gamma(2.0) == pytest.approx(1.0, abs=1e-9)

    def test_quoted_decimal(self):
        assert h_gamma(1.0) == pytest.approx(0.848826, abs=1e-6)

    def test_one_sided_slope_at_zero(self):
        delta = 2e-4
        slope = (h_gamma(delta, tol=1e-11) - h_gamma(0.0, tol=1e-11)) / delta
        assert slope == pytest.approx(-0.5, abs=1e-3)

    def test_continuity_on_grid(self):
        grid = np.linspace(0.0, 2.0, 41)
        vals = [h_gamma(float(g), tol=1e-8) for g in grid]
        diffs = np.abs(np.diff(vals))
        assert np.max(diffs) < 0.03  # no jumps at 0.05 spacing

    def test_domain(self):
        with pytest.raises(ValueError):
            h_gamma(-0.1)
        with pytest.raises(ValueError):
            h_gamma(2.5)


class TestLogMoments:
    def test_values(self):
        m1, m2 = st_log_moments()
        assert m1 == pytest.approx(-0.5, abs=1e-9)
        assert m2 == pytest.approx(0.5 + math.pi**2 / 12, abs=1e-9)

    def test_variance_of_log(self):
        m1, m2 = st_log_moments()
        assert m2 - m1 * m1 == pytest.approx(1.0724670334241132, abs=1e-8)


class TestCosMoments:
    def test_signed_vanishes(self):
        signed, _ = cos_moment_integrals()
        assert signed == pytest.approx(0.0, abs=1e-9)

    def test_absolute_value_consistent_with_h1(self):
        # (4/pi) * absolute must equal h(1); that pins the integral at 2/3
        _, absolute = cos_moment_integrals()
        assert absolute == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert (4.0 / math.pi) * absolute == pytest.approx(h_gamma(1.0), abs=1e-8)

    def test_half_band(self):
        hd = half_band_density()
        assert hd == pytest.approx(2 / 3 - math.sqrt(3) / (2 * math.pi), abs=1e-9)
        assert hd > 0.39


class TestConstants:
    def test_dual_route_agreement(self):
        consts = STConstants()
        quad = consts.quadrature_check()
        assert quad["clt_c"] == pytest.approx(consts.clt_c, abs=1e-8)
        assert quad["h1"] == pytest.approx(consts.h1, abs=1e-8)
        assert quad["abs_cos_moment"] == pytest.approx(consts.abs_cos_moment, abs=1e-8)
        assert quad["signed_cos_moment"] == pytest.approx(0.0, abs=1e-9)
        assert quad["half_density"] == pytest.approx(consts.half_density, abs=1e-9)
        assert quad["log_moment_m1"] == pytest.approx(-0.5, abs=1e-8)


class TestKsStatistic:
    def test_single_sample_at_median(self):
        assert ks_statistic(np.array([0.5]), lambda x: x) == pytest.approx(0.5)

    def test_exact_quantiles(self):
        n = 100
        sample = (np.arange(1, n + 1) - 0.5) / n
        assert ks_statistic(sample, lambda x: x) == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_wrong_distribution_detected(self):
        # uniform angles vs the sine-squared law: sup gap is sin(2a)/(2 pi),
        # attained near pi/4, about 0.159
        rng = np.random.default_rng(0)
        sample = rng.uniform(0.0, math.pi, 10_000)
        assert ks_statistic(sample, st_cdf) >= 0.05

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(1)
        sample = rng.uniform(0.1, 2.0, 500)
        d1 = ks_statistic(sample, lambda x: np.clip((x - 0.1) / 1.9, 0, 1))
        d2 = ks_statistic(np.exp(sample), lambda y: np.clip((np.log(y) - 0.1) / 1.9, 0, 1))
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            ks_statistic(np.array([]), st_cdf)


class TestNormalCdf:
    def test_symmetry_and_anchor(self):
        assert normal_cdf(0.0) == pytest.approx(0.5)
        assert normal_cdf(1.96) == pytest.approx(0.975, abs=1e-3)
        z = np.array([-1.0, 0.0, 1.0])
        v = normal_cdf(z)
        assert v[0] + v[2] == pytest.approx(1.0, abs=1e-12)

    def test_array_path_equals_scalar_path(self, rng):
        z = np.concatenate([[0.0, 40.0, -40.0, np.inf, -np.inf], rng.normal(0.0, 3.0, 3000)])
        v = normal_cdf(z)
        assert v.dtype == np.float64
        assert v.tolist() == [normal_cdf(float(x)) for x in z]
        assert normal_cdf(z.reshape(-1, 5)).tolist() == v.reshape(-1, 5).tolist()


class TestPrimeAngleSummary:
    def test_degenerate_right_angles(self):
        # exact a_p = 0 puts every angle at pi/2
        ps = primes_up_to(100)
        ang = AngleSeries.from_a(ps, np.zeros(len(ps)))
        assert np.all(ang.theta == math.pi / 2)
        rep = prime_angle_summary(ang, [0.5, 1.0, 2.0])
        for row in rep.rows:
            assert row["mean"] == 0.0
        assert rep.parameters["frac_abs_cos_ge_half"] == 0.0
        assert rep.parameters["mean_abs_cos"] == 0.0

    def test_gamma_two_mean_near_one_on_st_input(self):
        ps = primes_up_to(200_000)
        theta = sample_st_angles(StRngStream(17), ps)[0]
        ang = AngleSeries.from_theta(ps, theta)
        rep = prime_angle_summary(ang, [2.0])
        assert rep.rows[0]["mean"] == pytest.approx(1.0, abs=0.05)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prime_angle_summary(AngleSeries.from_theta(np.array([]), np.array([])), [1.0])


class TestPrimeLogMoments:
    def test_empty_support(self):
        ps = primes_up_to(100)
        ang = AngleSeries.from_a(ps, np.zeros(len(ps)), limit=100)  # a_p = 0
        est = prime_log_moments(ang, 100, support_floor=0.0)
        assert (est.mu, est.sigma2) == (0.0, 0.0)
        assert est.primes_in_support == 0

    def test_floor_restricts(self):
        ps = primes_up_to(10_000)
        theta = sample_st_angles(StRngStream(3), ps)[0]
        ang = AngleSeries.from_theta(ps, theta, limit=10_000)
        full = prime_log_moments(ang, 10_000, 0.0)
        floored = prime_log_moments(ang, 10_000, 0.5)
        assert floored.primes_in_support < full.primes_in_support
        assert floored.sigma2 <= full.sigma2 + 1e-12

    def test_cutoff_beyond_coverage(self):
        ps = primes_up_to(100)
        ang = AngleSeries.from_theta(ps, np.zeros(len(ps)), limit=100)
        with pytest.raises(ValueError):
            prime_log_moments(ang, 200)


def ks_brute(sample, cdf) -> float:
    """Every-point KS maximum, the pruned scan's oracle."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = x.size
    f = np.asarray(cdf(x), dtype=np.float64)
    return float(max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(0, n) / n)))


class TestKsBlockPruning:
    # sizes around the 1024-point block: one block, one short of it, one over
    SIZES = (1, 1023, 1024, 1025, 100_000)

    @staticmethod
    def samples(n, seed):
        rng = np.random.default_rng(seed)
        # rounding to a coarse grid makes ties at every size above a few hundred
        normal = np.round(rng.normal(0.1, 1.2, n), 2)
        angles = np.round(rng.uniform(0.0, math.pi, n), 2)
        unit = np.round(rng.uniform(0.0, 1.0, n), 3)
        return ((normal, normal_cdf), (np.clip(angles, 0.0, math.pi), st_cdf),
                (unit, lambda v: v))

    @pytest.mark.parametrize("n", SIZES)
    def test_equals_brute_force(self, n):
        for sample, cdf in self.samples(n, n):
            assert ks_statistic(sample, cdf) == ks_brute(sample, cdf)

    def test_ties_present(self):
        normal, angles, unit = (s for s, _ in self.samples(100_000, 3))
        for s in (normal, angles, unit):
            assert np.unique(s).size < s.size

    def test_skewed_sample_far_from_cdf(self):
        # a sample concentrated on one side puts the sup in a single region
        rng = np.random.default_rng(9)
        sample = np.concatenate([rng.normal(-3.0, 0.1, 5000), rng.normal(0.0, 1.0, 50_000)])
        assert ks_statistic(sample, normal_cdf) == ks_brute(sample, normal_cdf)
