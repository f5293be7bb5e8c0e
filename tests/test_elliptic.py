import math
from fractions import Fraction

import numpy as np
import pytest

from stseq.arith import primes_up_to
from stseq.elliptic import (
    CurveSpec,
    TraceSeries,
    angles_from_traces,
    ec_normalized_sequence,
    kappa_partial,
    supersingular_census,
    trace_at_prime,
    trace_series,
)
from stseq.errors import DataCorruptionError, IncompleteInputError

from conftest import enum_trace


class TestCurveSpec:
    def test_discriminant(self):
        assert CurveSpec(1, 1).discriminant == -16 * 31

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            CurveSpec(0, 0)
        with pytest.raises(ValueError):
            CurveSpec(-3, 2)  # 4*(-27) + 27*4 = 0


class TestTraceAtPrime:
    def test_classic_example(self):
        assert trace_at_prime(CurveSpec(1, 1), 5) == -3

    def test_cm_vanishing(self):
        assert trace_at_prime(CurveSpec(0, 1), 5) == 0

    def test_matches_enumeration_small(self):
        for a4, a6 in [(1, 1), (0, 1), (-1, 1), (2, 3), (-3, 7)]:
            curve = CurveSpec(a4, a6)
            for p in primes_up_to(60):
                p = int(p)
                assert trace_at_prime(curve, p) == enum_trace(a4, a6, p), (a4, a6, p)

    def test_bad_prime_types(self):
        # y^2 = x^3 + 1: additive at 2 and 3
        assert trace_at_prime(CurveSpec(0, 1), 2) == 0
        assert trace_at_prime(CurveSpec(0, 1), 3) == 0
        # split multiplicative node at 5: cubic = (x-2)^2 (x-1) mod 5
        assert trace_at_prime(CurveSpec(3, 1), 5) == 1
        # nonsplit node at 5: cubic = (x-1)^2 (x-3) mod 5
        assert trace_at_prime(CurveSpec(-3, 7), 5) == -1

    def test_hasse_bound_contract(self):
        curve = CurveSpec(-1, 1)
        for p in primes_up_to(300):
            p = int(p)
            if curve.discriminant % p:
                assert trace_at_prime(curve, p) ** 2 <= 4 * p

    def test_input_validation(self):
        with pytest.raises(ValueError):
            trace_at_prime(CurveSpec(1, 1), 10)
        with pytest.raises(ValueError):
            trace_at_prime(CurveSpec(1, 1), 10_000_019)


class TestTraceSeries:
    def test_pi_of_ten(self):
        series = trace_series(CurveSpec(1, 1), 10)
        assert len(series) == 4
        assert series.primes.tolist() == [2, 3, 5, 7]

    def test_cm_zero_pattern(self):
        series = trace_series(CurveSpec(0, 1), 3000)
        good = series.good
        two_mod_three = (series.primes % 3 == 2) & good
        assert np.all(series.t[two_mod_three] == 0)
        one_mod_three = (series.primes % 3 == 1) & good
        assert np.all(series.t[one_mod_three] != 0)

    def test_thread_counts_agree(self):
        curve = CurveSpec(-1, 1)
        s1 = trace_series(curve, 2000, threads=1)
        s3 = trace_series(curve, 2000, threads=3)
        assert np.array_equal(s1.t, s3.t)
        assert np.array_equal(s1.primes, s3.primes)

    def test_budget(self):
        with pytest.raises(ValueError):
            trace_series(CurveSpec(1, 1), 2_000_000)

    def test_hasse_violation_raises(self):
        with pytest.raises(DataCorruptionError):
            TraceSeries(limit=10, curve=CurveSpec(1, 1), primes=[5, 7], t=[5, 0], good=[True, True])

    def test_bad_prime_trace_two_raises(self):
        with pytest.raises(DataCorruptionError):
            TraceSeries(limit=10, curve=CurveSpec(1, 1), primes=[2, 7], t=[2, 0], good=[False, True])


class TestNormalizedSequence:
    def test_prime_and_prime_square(self, sieve_10k):
        series = trace_series(CurveSpec(-1, 1), 10_000)
        seq = ec_normalized_sequence(series, sieve_10k, 10_000)
        assert seq.values[1] == 1.0
        assert seq.source == "elliptic"
        g = series.good
        ps = series.primes[g]
        ap = series.t[g] / np.sqrt(ps.astype(float))
        assert np.allclose(seq.values[ps], ap, rtol=1e-12)
        for p, a in zip(ps[:10], ap[:10]):
            if p * p <= 10_000:
                assert seq.values[p * p] == pytest.approx(a * a - 1.0, rel=1e-12, abs=1e-12)

    def test_coprime_product(self, sieve_10k):
        series = trace_series(CurveSpec(-1, 1), 10_000)
        seq = ec_normalized_sequence(series, sieve_10k, 10_000)
        for m, n in [(3, 5), (4, 9), (8, 25), (7, 11)]:
            assert seq.values[m * n] == pytest.approx(
                seq.values[m] * seq.values[n], rel=1e-10, abs=1e-12
            )

    def test_bad_prime_powers(self, sieve_10k):
        # 2 is always bad in this model; a_{2^k} = (t_2/sqrt(2))^k
        series = trace_series(CurveSpec(-1, 1), 10_000)
        seq = ec_normalized_sequence(series, sieve_10k, 10_000)
        t2 = int(series.t[0])
        a2 = t2 / math.sqrt(2.0)
        for k in (1, 2, 3, 4):
            assert seq.values[2**k] == pytest.approx(a2**k, rel=1e-12, abs=1e-15)

    def test_series_too_short(self, sieve_10k):
        series = trace_series(CurveSpec(-1, 1), 100)
        with pytest.raises(IncompleteInputError):
            ec_normalized_sequence(series, sieve_10k, 1000)


class TestKappa:
    def test_no_zero_traces(self):
        series = trace_series(CurveSpec(-1, 1), 20)
        nonzero = series.t != 0
        sub_primes = series.primes[nonzero]
        # kappa over a series with no zero traces is the empty product
        if np.all(nonzero):
            assert kappa_partial(series, 20).value == 1.0

    def test_hand_computed_product(self):
        series = trace_series(CurveSpec(0, 1), 20)
        est = kappa_partial(series, 20)
        assert est.zero_primes == [2, 3, 5, 11, 17]
        expected = float(Fraction(1, 2) * Fraction(2, 3) * Fraction(4, 5)
                         * Fraction(10, 11) * Fraction(16, 17))
        assert est.value == pytest.approx(expected, abs=1e-15)

    def test_nonincreasing_in_x(self):
        series = trace_series(CurveSpec(0, 1), 500)
        vals = [kappa_partial(series, x).value for x in range(5, 501, 7)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_cutoff_validation(self):
        series = trace_series(CurveSpec(0, 1), 20)
        with pytest.raises(ValueError):
            kappa_partial(series, 50)


class TestCensusAndAngles:
    def test_degenerate_short_series(self):
        series = trace_series(CurveSpec(-1, 1), 2)
        rep = supersingular_census(series)
        assert rep.parameters["total_good"] == 0  # p = 2 is bad in this model
        assert rep.parameters["total_zero"] == 0

    def test_cm_density_near_half(self):
        series = trace_series(CurveSpec(0, 1), 5000)
        rep = supersingular_census(series)
        assert rep.parameters["overall_density"] == pytest.approx(0.5, abs=0.06)
        assert rep.passed  # informational report has no failing flags

    def test_angles_exclude_bad_primes(self):
        series = trace_series(CurveSpec(0, 1), 100)
        ang = angles_from_traces(series)
        assert 2 not in ang.primes.tolist()
        assert 3 not in ang.primes.tolist()
        assert np.max(np.abs(ang.a)) <= 2.0
        assert ang.limit == 100
