import functools
import math
import sys

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

from conftest import brute_factor, brute_spf, refuse_sieves, traced_peak


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


def _boolean_sieve(n: int) -> np.ndarray:
    """The primes <= n from a sieve over every integer, one strike per prime."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


class TestPrimesUpTo:
    @pytest.mark.parametrize("ns", [range(2001), [2**19, 10**6]], ids=["to-2000", "large"])
    def test_equals_a_boolean_sieve(self, ns):
        for n in ns:
            got = primes_up_to(n)
            assert got.dtype == np.int64
            assert got.tobytes() == _boolean_sieve(n).tobytes(), n


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


def _mod691_combine(a, b, out):
    out[...] = a * b % 691
    return out


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
            acc = combine(prime_power(np.array([p]), np.array([k])), acc, out=acc)
        out[n] = acc[0]
    return out


_FOLD_KINDS = {
    "float": (_float_power, np.multiply, np.float64),
    "mod691": (_mod691_power, _mod691_combine, np.int64),
    "object": (_object_power, np.multiply, object),
}


@functools.lru_cache(maxsize=None)
def _right_fold_table(kind: str, limit: int) -> np.ndarray:
    """The right fold of one kind over out = [7] * (limit + 2), built once."""
    prime_power, combine, dtype = _FOLD_KINDS[kind]
    return _right_fold(limit, prime_power, combine, np.full(limit + 2, 7, dtype))


class TestFillMultiplicative:
    # blocks of n start at 1 + k * block, so a limit of k * block ends a block
    # and k * block +- 1 end one short of an edge or one past it (block 5:
    # 24, 25, 26 and 119, 120, 121; block 64: 63, 64, 65 and 127, 128, 129).
    # The big-prime strikes walk blocks of the same size, so at block 3 or 5
    # some multiple j * p of a prime above sqrt(limit) ends or starts a block.
    LIMITS = [0, 1, 2, 3, 4, 8, 9, 24, 25, 26, 63, 64, 65, 119, 120, 121, 122, 127, 128, 129,
              168, 169, 170, 2000]

    @pytest.mark.parametrize("kind", _FOLD_KINDS)
    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("block", [3, 5, 64, 1 << 20])
    def test_equals_the_right_fold(self, monkeypatch, kind, limit, block):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", block)
        monkeypatch.setattr(arith_mod, "_PAIR_BLOCK", block)
        prime_power, combine, dtype = _FOLD_KINDS[kind]
        want = _right_fold_table(kind, limit)
        got = fill_multiplicative(limit, primes_up_to(limit), prime_power,
                                  np.full(limit + 2, 7, dtype), combine)
        # out[0] and out[limit + 1] stay 7; object entries are compared as ints
        if dtype is object:
            assert got.tolist() == want.tolist()
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("limit", [0, 3, 4, 2000])
    @pytest.mark.parametrize("block", [5, 1 << 20])
    def test_two_prime_power_calls(self, monkeypatch, limit, block):
        """One call on the primes above sqrt(limit) at v = 1, one on every
        power p^v <= limit of the primes below, whatever the block size."""
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", block)
        calls = []

        def recorded(p, v):
            calls.append(sorted(zip(p.tolist(), v.tolist())))
            return _float_power(p, v)

        fill_multiplicative(limit, primes_up_to(limit), recorded, np.zeros(limit + 1))
        root = math.isqrt(limit)
        big = [(p, 1) for p in primes_up_to(limit).tolist() if p > root]
        small = [(p, v) for p in primes_up_to(root).tolist()
                 for v in range(1, limit.bit_length()) if p**v <= limit]
        assert calls == [big, small]

    def test_traced_peak_one_strike_buffer(self):
        # beside its output a fill holds the largest strike's values, half a
        # block of float64 at p = 2, and the per-prime arrays
        limit = 1 << 20
        ps = primes_up_to(limit)
        out, peak = traced_peak(lambda: fill_multiplicative(
            limit, ps, lambda p, v: np.full(p.shape, 3.0), np.empty(limit + 1)))
        assert out[1] == 1.0 and out[12] == 9.0 and out[limit] == 3.0
        assert peak <= out.nbytes + (4 << 20) + (256 << 10)

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

    def test_synthetic_build_and_integrity_list_the_primes_once(self, monkeypatch):
        """The primes are listed once per call and handed down: the sampler,
        the coverage check and the fill of a synthetic build share one list,
        and integrity_check's d(n) and sigma_11 mod 691 fills share another."""
        from stseq.synthetic import SyntheticSpec, build_synthetic_sequence
        from stseq.tau import expand_delta, integrity_check

        table = expand_delta(300)
        calls = []
        for modname, module in list(sys.modules.items()):
            if modname.split(".")[0] == "stseq" and hasattr(module, "primes_up_to"):
                monkeypatch.setattr(module, "primes_up_to",
                                    lambda n: calls.append(n) or primes_up_to(n))
        build_synthetic_sequence(SyntheticSpec(limit=3000, seed=7))
        assert calls == [3000]
        assert integrity_check(table).passed
        assert calls == [3000, 300]


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
        seq = assemble_multiplicative(ang, rule, 1000, ang.primes)
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
        seq = assemble_multiplicative(ang, PrimePowerRule(), 100, ang.primes)
        assert seq.values[4] == pytest.approx(-1.0, abs=1e-12)

    def test_prime_values_are_2cos(self):
        ang = _angles_for(2000)
        seq = assemble_multiplicative(ang, PrimePowerRule(), 2000, ang.primes)
        ps = ang.primes
        assert np.allclose(seq.values[ps], 2.0 * np.cos(ang.theta), rtol=1e-12)
        assert np.max(np.abs(seq.values[ps])) <= 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=90), st.integers(min_value=2, max_value=90))
    def test_multiplicative_on_coprime_pairs(self, m, n):
        if math.gcd(m, n) != 1:
            return
        ang = _angles_for(10_000)
        seq = assemble_multiplicative(ang, PrimePowerRule(), 10_000, ang.primes)
        assert seq.values[m * n] == pytest.approx(
            seq.values[m] * seq.values[n], rel=1e-9, abs=1e-12
        )

    def test_missing_prime_rejected(self):
        ang = _angles_for(100)
        short = AngleSeries(ang.primes[:-1], ang.a[:-1], ang.theta[:-1])
        with pytest.raises(IncompleteInputError):
            assemble_multiplicative(short, PrimePowerRule(), 100, ang.primes)

    @pytest.mark.parametrize("block", [7, 1 << 20])
    def test_missing_primes_counted_across_blocks(self, monkeypatch, block):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", block)
        ang = _angles_for(100)
        keep = ~np.isin(ang.primes, [5, 53, 97])
        short = AngleSeries(ang.primes[keep], ang.a[keep], ang.theta[keep])
        with pytest.raises(IncompleteInputError, match=r"for 3 primes <= 100 \(first: 5\)"):
            assemble_multiplicative(short, PrimePowerRule(), 100, ang.primes)

    def test_nan_angle_counts_as_missing(self):
        ang = _angles_for(100)
        ang.theta[[2, 10]] = np.nan  # p = 5 and 31
        with pytest.raises(IncompleteInputError, match=r"for 2 primes <= 100 \(first: 5\)"):
            assemble_multiplicative(ang, PrimePowerRule(), 100, ang.primes)

    @pytest.mark.parametrize("order", [[1, 0, 2], [0, 1, 1, 2]])
    def test_unordered_angle_primes_rejected(self, order):
        ang = _angles_for(100)
        keep = order + list(range(3, len(ang.primes)))
        mixed = AngleSeries(ang.primes[keep], ang.a[keep], ang.theta[keep])
        with pytest.raises(ValueError, match="angle primes must be strictly ascending"):
            assemble_multiplicative(mixed, PrimePowerRule(), 100, ang.primes)

    def test_traced_peak_holds_no_theta_table(self, monkeypatch):
        # beside its output the assembly holds per-prime arrays and one
        # block's strike temporaries, half a block of float64 at p = 2, so
        # the blocks are kept well below the bound's 4 MiB
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", 1 << 16)
        limit = 1 << 20
        ang = _angles_for(limit)
        seq, peak = traced_peak(
            lambda: assemble_multiplicative(ang, PrimePowerRule(), limit, ang.primes))
        assert np.isnan(seq.values[0]) and seq.values[1] == 1.0
        assert peak <= 8 * (limit + 1) + (4 << 20)


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
