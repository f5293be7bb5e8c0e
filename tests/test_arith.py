import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stseq.arith import (
    AngleSeries,
    PrimePowerRule,
    assemble_multiplicative,
    build_spf_sieve,
    chebyshev_recurrence,
    chebyshev_sin_ratio,
    dyadic_blocks,
    exponent_core_tables,
    fill_multiplicative,
    growth_violations,
    is_prime,
    largest_prime_factor_table,
    primes_up_to,
)
from stseq.errors import CapacityError, IncompleteInputError

from conftest import brute_factor, brute_spf, refuse_sieves


class TestSpfSieve:
    def test_table_up_to_ten(self):
        sv = build_spf_sieve(10)
        assert sv.spf.tolist() == [0, 0, 2, 3, 2, 5, 2, 7, 2, 3, 2]

    def test_limit_two(self):
        assert build_spf_sieve(2).spf[2] == 2

    def test_matches_trial_division(self):
        sv = build_spf_sieve(3000)
        for n in range(2, 3001):
            assert sv.spf[n] == brute_spf(n)

    def test_spf_divides_and_prime_fixed_points(self, sieve_10k):
        n = np.arange(2, 10_001)
        spf = sieve_10k.spf[2:].astype(np.int64)
        assert np.all(n % spf == 0)
        prime_mask = spf == n
        assert np.array_equal(n[prime_mask], primes_up_to(10_000)[0:])

    def test_capacity_errors(self, monkeypatch):
        import stseq.arith as arith_mod

        with pytest.raises(CapacityError):
            build_spf_sieve(-1)
        monkeypatch.setattr(arith_mod, "SIEVE_BUDGET_BYTES", 1000)
        with pytest.raises(CapacityError):
            build_spf_sieve(10**6)

    def test_primes_up_to_keeps_to_the_sieve_limit(self, monkeypatch):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "SIEVE_BUDGET_BYTES", 4 * 1001)  # sieves to 1000
        assert primes_up_to(1000)[-1] == 997
        build_spf_sieve(1000)
        for refuse in (build_spf_sieve, primes_up_to):
            with pytest.raises(CapacityError, match="budget is 4004"):
                refuse(1001)

    @pytest.mark.parametrize("limit", [0, 1])
    def test_limits_below_two_give_the_sieve_to_two(self, limit):
        sv = build_spf_sieve(limit)
        assert sv.limit == 2
        assert sv.spf.tolist() == [0, 0, 2]


class TestDerivedTables:
    def test_exponent_core(self, sieve_10k):
        e, core = exponent_core_tables(sieve_10k)
        for n in (2, 12, 16, 9973, 7 * 7 * 13, 2**13):
            pairs = brute_factor(n)
            p0, k0 = pairs[0]
            assert e[n] == k0
            assert core[n] == n // p0**k0

    def test_largest_prime_factor(self, sieve_10k):
        lpf = largest_prime_factor_table(sieve_10k)
        assert lpf[1] == 1
        for n in range(2, 2000):
            assert lpf[n] == brute_factor(n)[-1][0]


def _float_power(p, v):
    """A float f(p^v) whose products round differently in another order."""
    return np.cos(np.asarray(p) * 0.37 + np.asarray(v)) * (1.0 + 1.0 / np.asarray(p))


def _mod691_power(p, v):
    return (np.asarray(p) ** 2 + 3 * np.asarray(v)) % 691


def _object_power(p, v):
    """An exact Python-int f(p^v) past 2^63 from p = 7 on, negative at odd v."""
    p, v = np.asarray(p).astype(object), np.asarray(v).astype(object)
    return (-p) ** (v + 22) + v


def _right_fold(limit, prime_power, combine, out):
    """combine(f(p1^e1), combine(..., combine(f(pk^ek), 1))) over the brute
    factorization p1 < ... < pk of each n, one prime power at a time."""
    for n in range(1, limit + 1):
        acc = out[1:2] * 0 + 1
        for p, k in reversed(brute_factor(n)):
            acc = combine(prime_power(np.array([p]), np.array([k])), acc)
        out[n] = acc[0]
    return out


class TestFillMultiplicative:
    LIMITS = [0, 1, 2, 3, 4, 8, 9, 24, 25, 26, 120, 121, 122, 168, 169, 170, 2000]
    KINDS = {
        "float": (_float_power, np.multiply, np.float64),
        "mod691": (_mod691_power, lambda a, b: a * b % 691, np.int64),
        "object": (_object_power, np.multiply, object),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("block", [3, 1 << 20])
    def test_equals_the_right_fold(self, monkeypatch, kind, limit, block):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", block)
        prime_power, combine, dtype = self.KINDS[kind]
        want = _right_fold(limit, prime_power, combine, np.full(limit + 2, 7, dtype))
        got = fill_multiplicative(limit, prime_power, np.full(limit + 2, 7, dtype), combine)
        # out[0] and out[limit + 1] stay 7; object entries are compared as ints
        if dtype is object:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()

    def test_multiplicative_tables_build_no_sieve(self, monkeypatch):
        from stseq.elliptic import CurveSpec, ec_normalized_sequence, trace_series
        from stseq.synthetic import SyntheticSpec, build_synthetic_sequence
        from stseq.tau import expand_delta, integrity_check, reconstruct_from_primes

        series, table = trace_series(CurveSpec(-1, 1), 3000), expand_delta(300)
        refuse_sieves(monkeypatch, "a multiplicative fill")
        build_synthetic_sequence(SyntheticSpec(limit=3000, seed=7))
        ec_normalized_sequence(series, 3000)
        assert integrity_check(table).passed
        assert reconstruct_from_primes(table) == 0


def _assert_walker_blocks(blocks, lo, hi, block):
    """blocks partition [lo, hi), each inside one [2^k, 2^(k+1)), none longer
    than block."""
    edges = [lo] + [stop for _, stop in blocks]
    assert edges[-1] == hi
    assert [start for start, _ in blocks] == edges[:-1]
    for start, stop in blocks:
        assert 1 <= stop - start <= block
        assert (stop - 1).bit_length() == start.bit_length()


class TestDyadicBlocks:
    @settings(max_examples=300, deadline=None)
    @given(lo=st.sampled_from([1, 2, 3]), span=st.integers(0, 5000), block=st.integers(1, 300))
    def test_partition_with_small_blocks(self, lo, span, block):
        import stseq.arith as arith_mod

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arith_mod, "_BLOCK", block)
            blocks = list(dyadic_blocks(lo, lo + span))
        _assert_walker_blocks(blocks, lo, lo + span, block)

    @pytest.mark.parametrize("lo", [1, 2, 3])
    def test_partition_to_ten_million(self, lo):
        import stseq.arith as arith_mod

        blocks = list(dyadic_blocks(lo, 10**7 + 1))
        _assert_walker_blocks(blocks, lo, 10**7 + 1, arith_mod._BLOCK)
        # the 2^20 cap splits [2^22, 2^23) into four blocks
        assert [b for b in blocks if 1 << 22 <= b[0] < 1 << 23] == [
            ((k + 4) << 20, (k + 5) << 20) for k in range(4)]


class TestIsPrime:
    def test_small(self):
        mask = np.zeros(10**6 + 1, dtype=bool)
        mask[primes_up_to(10**6)] = True
        assert [is_prime(n) for n in range(10**6 + 1)] == mask.tolist()

    def test_large_words(self):
        assert is_prime(2**31 - 1)
        assert not is_prime(2**32 + 1)
        assert is_prime(2099249153)  # NTT modulus used by the tau engine
        # the least strong pseudoprime to bases 2, 3, 5 and 7 goes to all 12
        assert not is_prime(3_215_031_751)  # 151 * 751 * 28351
        assert is_prime(3_215_031_749) and is_prime(2**32 + 15)


class TestChebyshevRules:
    def test_u2_at_right_angle(self):
        # 4 cos^2 - 1 at theta = pi/2
        assert chebyshev_sin_ratio(math.pi / 2, 2) == pytest.approx(-1.0, abs=1e-12)

    def test_limits_at_endpoints(self):
        # |sin theta| < 1e-12: 2 cos theta rounds to exactly +-2, so the
        # recurrence gives the limits exactly
        near_pi = [math.pi, np.nextafter(math.pi, 0.0), math.pi - 1e-13]
        for theta in [0.0, 5e-324, 1e-13] + near_pi:
            sign = -1 if theta in near_pi else 1
            for k in range(13):
                value = chebyshev_sin_ratio(theta, k)
                assert value == chebyshev_recurrence(2.0 * math.cos(theta), k)
                assert value == sign**k * (k + 1)

    def test_zero_dim_in_zero_dim_out(self):
        # a 0-d call returns a 0-d array holding the double of the array call
        rule = PrimePowerRule(kind="truncate-zero")
        for fn, args in [
            (chebyshev_sin_ratio, (0.3, 3)),
            (chebyshev_sin_ratio, (1e-13, 3)),
            (chebyshev_recurrence, (0.7, 4)),
            (rule.value, (0.3, 1)),
            (rule.value, (0.3, 2)),
        ]:
            out = fn(*args)
            assert np.ndim(out) == 0
            assert out == fn(*(np.array([a]) for a in args))[0]

    @settings(max_examples=120, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=math.pi - 1e-6),
        st.integers(min_value=1, max_value=10),
    )
    def test_three_term_recurrence(self, theta, k):
        lhs = chebyshev_sin_ratio(theta, k + 1)
        rhs = 2.0 * math.cos(theta) * chebyshev_sin_ratio(theta, k) - chebyshev_sin_ratio(
            theta, k - 1
        )
        assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.integers(min_value=0, max_value=12),
    )
    def test_recurrence_matches_sine_ratio(self, theta, k):
        a = chebyshev_sin_ratio(theta, k)
        b = chebyshev_recurrence(2.0 * math.cos(theta), k)
        assert b == pytest.approx(a, abs=1e-9)

    def test_rule_kinds(self):
        rule = PrimePowerRule(kind="truncate-zero", rho=0.5)
        assert rule.value(1.0, 1) == pytest.approx(2.0 * math.cos(1.0))
        assert rule.value(1.0, 2) == 0.0
        assert rule.value(1.0, 7) == 0.0
        with pytest.raises(ValueError):
            PrimePowerRule(kind="bogus")
        with pytest.raises(ValueError):
            PrimePowerRule(rho=0.0)
        for rho in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="rho must be finite and > 0"):
                PrimePowerRule(rho=rho)


def _angles_for(limit: int, seed: int = 3) -> AngleSeries:
    ps = primes_up_to(limit)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, math.pi, len(ps))
    return AngleSeries.from_theta(ps, theta, limit=limit)


class TestAssembly:
    def test_trivial_and_composite(self):
        ang = _angles_for(1000)
        rule = PrimePowerRule()
        seq = assemble_multiplicative(ang, rule, 1000)
        assert seq.source == "synthetic"
        assert seq.values[1] == 1.0
        v2 = rule.value(ang.theta[0], 2)  # p=2, k=2
        v3 = rule.value(ang.theta[1], 1)
        assert seq.values[12] == pytest.approx(v2 * v3, rel=1e-12)

    def test_quarter_pi_fourth_power(self):
        # theta_2 = pi/2 makes a_4 = U_2(0) = -1
        ang = _angles_for(100)
        ang.theta[0] = math.pi / 2
        ang = AngleSeries.from_theta(ang.primes, ang.theta, limit=100)
        seq = assemble_multiplicative(ang, PrimePowerRule(), 100)
        assert seq.values[4] == pytest.approx(-1.0, abs=1e-12)

    def test_prime_values_are_2cos(self):
        ang = _angles_for(2000)
        seq = assemble_multiplicative(ang, PrimePowerRule(), 2000)
        ps = ang.primes
        assert np.allclose(seq.values[ps], 2.0 * np.cos(ang.theta), rtol=1e-12)
        assert np.max(np.abs(seq.values[ps])) <= 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=90), st.integers(min_value=2, max_value=90))
    def test_multiplicative_on_coprime_pairs(self, m, n):
        if math.gcd(m, n) != 1:
            return
        ang = _angles_for(10_000)
        seq = assemble_multiplicative(ang, PrimePowerRule(), 10_000)
        assert seq.values[m * n] == pytest.approx(
            seq.values[m] * seq.values[n], rel=1e-9, abs=1e-12
        )

    def test_missing_prime_rejected(self):
        ang = _angles_for(100)
        short = AngleSeries(ang.primes[:-1], ang.a[:-1], ang.theta[:-1])
        with pytest.raises(IncompleteInputError):
            assemble_multiplicative(short, PrimePowerRule(), 100)

    @pytest.mark.parametrize("block", [7, 1 << 20])
    def test_missing_primes_counted_across_blocks(self, monkeypatch, block):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", block)
        ang = _angles_for(100)
        keep = ~np.isin(ang.primes, [5, 53, 97])
        short = AngleSeries(ang.primes[keep], ang.a[keep], ang.theta[keep])
        with pytest.raises(IncompleteInputError, match=r"for 3 primes <= 100 \(first: 5\)"):
            assemble_multiplicative(short, PrimePowerRule(), 100)


class TestGrowthViolations:
    def test_truncate_zero_always_clean(self):
        ang = _angles_for(500)
        for rho in (0.05, 0.25, 0.5):
            rule = PrimePowerRule(kind="truncate-zero", rho=rho)
            assert growth_violations(rule, ang, 6) == []

    def test_boundary_angle_cases(self):
        # theta = 0 gives |U_2| = 3; bound p^0.4 is 3.11 at p=17, 2.79 at p=13
        ps = np.array([13, 17])
        ang = AngleSeries.from_theta(ps, np.zeros(2), limit=17)
        rule = PrimePowerRule(kind="hecke-chebyshev", rho=0.1)
        out = growth_violations(rule, ang, 2)
        assert [(p, k) for p, k, _, _ in out] == [(13, 2)]
        p, k, val, bound = out[0]
        assert val == pytest.approx(3.0)
        assert bound == pytest.approx(13**0.4)

    def test_sorted_output(self):
        ang = AngleSeries.from_theta(np.array([2, 3, 5, 7]), np.zeros(4), limit=7)
        out = growth_violations(PrimePowerRule(rho=0.4), ang, 4)
        keys = [(p, k) for p, k, _, _ in out]
        assert keys == sorted(keys)


class TestAngleSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            AngleSeries(np.array([2]), np.array([2.5]), np.array([0.5]))
        with pytest.raises(ValueError):
            AngleSeries(np.array([2]), np.array([1.0]), np.array([4.0]))
        with pytest.raises(ValueError):
            AngleSeries(np.array([2, 3]), np.array([1.0]), np.array([0.5]))

    def test_boundary_angle_accepted(self):
        # theta = pi is valid input; the measure-zero boundary is kept
        ang = AngleSeries.from_theta(np.array([2]), np.array([math.pi]))
        assert ang.a[0] == pytest.approx(-2.0)
