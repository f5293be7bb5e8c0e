import math

import numpy as np
import pytest

from stseq.arith import PrimePowerRule, primes_up_to
from stseq.stats import ks_statistic, st_cdf
from stseq.synthetic import (
    StRngStream,
    SyntheticSpec,
    build_synthetic_sequence,
    sample_st_angle,
    sample_st_angles,
)

PINNED_SEED42_P2 = 1.4493371267978536  # frozen after first run of the documented generator


class TestKeyedSampler:
    def test_regression_pin(self):
        assert sample_st_angle(StRngStream(42), 2) == PINNED_SEED42_P2

    def test_scalar_matches_vectorized(self):
        stream = StRngStream(42)
        ps = primes_up_to(200)
        vec = sample_st_angles(stream, ps)
        for i in (0, 1, 5, 20):
            assert sample_st_angle(stream, int(ps[i])) == vec[i]

    def test_order_independence(self, rng):
        stream = StRngStream(99)
        ps = primes_up_to(500)
        shuffled = ps.copy()
        rng.shuffle(shuffled)
        a = sample_st_angles(stream, ps)
        b = sample_st_angles(stream, shuffled)
        order = np.argsort(shuffled)
        assert np.array_equal(b[order], a)

    def test_runs_identical(self):
        ps = primes_up_to(2000)
        a = sample_st_angles(StRngStream(7), ps)
        b = sample_st_angles(StRngStream(7), ps)
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        ps = primes_up_to(2000)
        a = sample_st_angles(StRngStream(1), ps)
        b = sample_st_angles(StRngStream(2), ps)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            StRngStream(-1)
        with pytest.raises(ValueError):
            StRngStream(2**64)


class TestSamplerStatistics:
    def test_acceptance_rate_and_mean(self):
        keys = np.arange(1, 100_001)
        theta, acc, prop = sample_st_angles(StRngStream(5), keys, return_stats=True)
        assert acc / prop == pytest.approx(0.5, abs=0.01)
        assert float(np.mean(theta)) == pytest.approx(math.pi / 2, abs=0.01)

    def test_mean_over_million_draws(self):
        keys = np.arange(1, 1_000_001)
        theta = sample_st_angles(StRngStream(11), keys)
        assert float(np.mean(theta)) == pytest.approx(math.pi / 2, abs=0.005)

    def test_ks_band_fixed_seed(self):
        ps = primes_up_to(200_000)
        theta = sample_st_angles(StRngStream(7), ps)
        n = len(theta)
        assert ks_statistic(theta, st_cdf) * math.sqrt(n) <= 2.0


class TestBuildSequence:
    def test_limit_one(self):
        angles, seq = build_synthetic_sequence(SyntheticSpec(limit=1, seed=3))
        assert seq.values[1] == 1.0
        assert len(angles) == 0

    def test_deterministic_rebuild(self):
        spec = SyntheticSpec(limit=10_000, seed=123)
        a1, s1 = build_synthetic_sequence(spec)
        a2, s2 = build_synthetic_sequence(spec)
        assert np.array_equal(s1.values[1:], s2.values[1:])
        assert np.array_equal(a1.theta, a2.theta)

    def test_truncate_zero_has_no_growth_violations(self):
        spec = SyntheticSpec(
            limit=10_000, seed=9, rule=PrimePowerRule(kind="truncate-zero", rho=0.5)
        )
        _, seq = build_synthetic_sequence(spec)
        assert seq.meta["growth_violations"] == 0
        # k >= 2 prime powers all vanish under this rule
        assert seq.values[4] == 0.0
        assert seq.values[8] == 0.0

    def test_metadata(self):
        spec = SyntheticSpec(limit=10_000, seed=21)
        _, seq = build_synthetic_sequence(spec)
        assert seq.meta["seed"] == 21
        assert seq.meta["rule"] == "hecke-chebyshev"
        assert 0.4 < seq.meta["acceptance_rate"] < 0.6
