import hashlib
import math

import numpy as np
import pytest

import stseq.tau as tau_mod
from stseq import limbs as lb
from stseq.arith import primes_up_to
from stseq.errors import CapacityError, ConfigurationError, DataCorruptionError
from stseq.ntt import digit_plan, find_ntt_primes, square_truncated, transform_length
from stseq.tau import (
    NAIVE_ORACLE_MAX,
    ExactTauTable,
    _eta6,
    _seed_series_length,
    _sum_of_squares,
    deligne_bound,
    expand_delta,
    integrity_check,
    normalize_tau,
    reconstruct_from_primes,
    tau_angles,
    tau_naive_oracle,
)

from conftest import brute_factor, limbs_at_width

# Classical values, cross-checked against the raw product of (1 - q^k) factors.
TAU_1_TO_12 = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944]


def _with(table: ExactTauTable, changes: dict[int, int]) -> ExactTauTable:
    """A copy of `table` with the entries in `changes` replaced."""
    taus = list(table.taus)
    for n, v in changes.items():
        taus[n] = v
    return ExactTauTable.from_ints(taus)


class TestNaiveOracle:
    def test_limit_one(self):
        assert tau_naive_oracle(1).taus == (0, 1)

    def test_first_five(self):
        assert tau_naive_oracle(5).taus[1:] == (1, -24, 252, -1472, 4830)

    def test_first_twelve(self):
        assert list(tau_naive_oracle(12).taus[1:]) == TAU_1_TO_12

    def test_multiplicativity_at_six(self):
        t = tau_naive_oracle(6).taus
        assert t[6] == t[2] * t[3] == -6048

    def test_refuses_large_limits(self):
        with pytest.raises(ValueError):
            tau_naive_oracle(10_001)


class TestExpandDelta:
    def test_limit_one(self):
        assert expand_delta(1).taus == (0, 1)

    def test_agrees_with_oracle_600(self):
        fast = expand_delta(600)
        slow = tau_naive_oracle(600)
        assert fast.taus == slow.taus

    @pytest.mark.parametrize("limit", [1, 2, 3, 17, 100, 257])
    def test_agrees_with_oracle_across_truncations(self, limit):
        fast = expand_delta(limit)
        assert fast.taus == tau_naive_oracle(limit).taus

    def test_deligne_bound_covers_oracle(self):
        taus = tau_naive_oracle(2000).taus
        assert isinstance(deligne_bound(2000), int)
        assert deligne_bound(2000) >= max(abs(t) for t in taus)
        for n in (1, 2, 17, 500, 2000):
            assert deligne_bound(n) >= max(abs(t) for t in taus[1 : n + 1])

    def test_limit_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_delta(0)

    @pytest.mark.parametrize("limit", [2**19, 10**6])
    def test_digit_plan_at_scale(self, limit):
        # one transform length per limit; eta^24 needs more digits than eta^12
        length, plans = {2**19: (2**20, ((14, 2), (14, 4))),
                         10**6: (2**21, ((14, 2), (13, 5)))}[limit]
        assert transform_length(limit) == length
        assert _stage_plans(limit) == plans
        # every weight's coefficients stay 5 bits below 2^52, where exactness ends
        assert all(D * limit << 2 * b - 2 <= 1 << 47 for b, D in plans)
        # D forward and 2D - 1 inverse transforms per stage
        assert sum(3 * D - 1 for _, D in plans) == {2**19: 16, 10**6: 19}[limit]

    def test_digits_per_stage(self):
        want = {2000: ((19, 1), (18, 2)), 2**15: ((16, 2), (16, 3))}
        assert {limit: _stage_plans(limit) for limit in want} == want

    def test_one_digit_squaring_per_stage(self, monkeypatch):
        import stseq.tau as tau_mod

        calls = []
        real = tau_mod.square_truncated

        def counted(series, keep, width):
            calls.append((digit_plan(series, keep), keep, width))
            return real(series, keep, width)

        monkeypatch.setattr(tau_mod, "square_truncated", counted)
        limit = 2**15
        expand_delta(limit)
        # eta^12 fits one limb by its Cauchy-Schwarz bound, eta^24 two by Deligne's
        assert calls == [((16, 2), limit, 1), ((16, 3), limit, 2)]

    def test_transforms_per_stage(self, monkeypatch):
        # the kernel has no span of its own, so its transforms are counted here
        limit = 2**15
        plans = _stage_plans(limit)
        calls = []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        expand_delta(limit)
        assert calls.count("rfft") == sum(D for _, D in plans)
        assert calls.count("irfft") == sum(2 * D - 1 for _, D in plans)
        assert len(calls) == sum(3 * D - 1 for _, D in plans) == 13

    def test_agrees_with_oracle_where_a_stage_plan_steps(self):
        steps = _plan_steps(NAIVE_ORACLE_MAX)
        # the widths narrow as the limit grows and the digit counts grow with
        # the coefficients: (24, 1) for both stages at 1, (17, 2) and (17, 3) at 10^4
        assert steps == [3, 9, 33, 120, 129, 257, 513, 1025, 2049, 4097, 8002]
        # truncation commutes with products: the oracle at the last step holds every prefix
        oracle = tau_naive_oracle(steps[-1]).taus
        for limit in steps:
            for n in (limit - 1, limit):
                assert expand_delta(n).taus == oracle[: n + 1], n


def _eta_powers(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Limbs of the first `limit` coefficients of eta^6 and of eta^12."""
    eta6 = _eta6(limit)
    eta12 = square_truncated(eta6.view(np.uint64)[:, None], limit,
                             lb.width_for(_sum_of_squares(eta6)))
    return eta6.view(np.uint64)[:, None], eta12


def _stage_plans(limit: int) -> tuple[tuple[int, int], ...]:
    """Digit plan (b, D) of the eta^12 stage's input (eta^6) and of the eta^24 stage's (eta^12)."""
    return tuple(digit_plan(series, limit) for series in _eta_powers(limit))


def _plan_steps(top: int) -> list[int]:
    """Every limit 2..top whose stage plans differ from those at limit - 1.

    Truncation commutes with products, so the series at a limit are the
    prefixes of those at top.  As the limit grows, a prefix's bit length
    never falls and neither does keep, so a plan's width never grows and
    its digit count never falls: each plan holds over one run of limits,
    and bisection finds each step.
    """
    powers = _eta_powers(top)

    def plans(limit):
        return tuple(digit_plan(series[:limit], limit) for series in powers)

    steps, lo = [], 1
    while plans(top) != (base := plans(lo)):
        hi = top  # plans at lo are base, at hi they are not
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if plans(mid) == base:
                lo = mid
            else:
                hi = mid
        steps.append(hi)
        lo = hi
    return steps


def _dense_eta_power(count: int, power: int) -> list[int]:
    """Coefficients 0..count-1 of prod (1 - q^k)^power, multiplied out
    factor by factor in Python ints (no series identity)."""
    eta = [1] + [0] * (count - 1)
    for k in range(1, count):
        for n in range(count - 1, k - 1, -1):
            eta[n] -= eta[n - k]
    support = [(k, c) for k, c in enumerate(eta) if c]
    out = [1] + [0] * (count - 1)
    for _ in range(power):
        out = [sum(c * out[n - k] for k, c in support if k <= n) for n in range(count)]
    return out


_SEED_EDGES = sorted({e for k in range(1, 41) for e in (k * (k + 1) // 2, k * (k + 1) // 2 + 1)})


class TestStages:
    def test_eta6_equals_dense_product(self):
        dense = _dense_eta_power(max(_SEED_EDGES), 6)
        for limit in sorted(set(range(1, 301)) | set(_SEED_EDGES)):
            got = _eta6(limit)
            assert got.dtype == np.int64
            assert got.tolist() == dense[:limit], limit

    def test_sum_of_squares_is_exact(self):
        c6 = _dense_eta_power(2000, 6)
        for limit in (1, 2, 29, 556, 1999, 2000):
            assert _sum_of_squares(_eta6(limit)) == sum(c * c for c in c6[:limit])
        assert _sum_of_squares(np.array([-(2**32 - 1)] * 3)) == 3 * (2**32 - 1) ** 2

    def test_sum_of_squares_refuses_overflow(self):
        with pytest.raises(CapacityError):
            _sum_of_squares(np.array([0, 2**32]))

    def test_cauchy_schwarz_bounds_eta12(self):
        c6 = _dense_eta_power(2000, 6)
        c12 = [sum(c6[i] * c6[n - i] for i in range(n + 1)) for n in range(2000)]
        squares = top = 0
        for n in range(2000):  # the eta^12 stage at limit n + 1 uses squares of c6[0..n]
            squares += c6[n] ** 2
            top = max(top, abs(c12[n]))
            assert top <= squares, n + 1


class TestNormalize:
    def test_values(self):
        seq = normalize_tau(tau_naive_oracle(100))
        assert seq.values[1] == 1.0
        assert seq.values[2] == pytest.approx(-24 / 2**5.5)
        assert seq.values[2] == pytest.approx(-0.530330085889911, abs=1e-12)
        assert seq.source == "tau"

    def test_prime_values_admissible(self):
        seq = normalize_tau(tau_naive_oracle(2000))
        ps = primes_up_to(2000)
        assert np.max(np.abs(seq.values[ps])) <= 2.0


class TestTauAngles:
    def test_theta_two(self):
        ang = tau_angles(tau_naive_oracle(50))
        assert ang.primes[0] == 2
        assert ang.theta[0] == pytest.approx(math.acos(-24 / (2 * 2**5.5)), abs=1e-12)
        assert ang.theta[0] == pytest.approx(1.8391714154092522, abs=1e-12)

    def test_one_record_per_prime(self):
        ang = tau_angles(tau_naive_oracle(1000))
        assert len(ang) == len(primes_up_to(1000))
        assert ang.limit == 1000

    def test_zero_tau_maps_to_right_angle(self):
        table = _with(tau_naive_oracle(10), {3: 0})
        ang = tau_angles(table)
        assert ang.theta[1] == pytest.approx(math.pi / 2)

    def test_admissibility_violation_detected(self):
        table = _with(tau_naive_oracle(10), {5: 2 * 5**6})  # exceeds 2 * 5^(11/2)
        with pytest.raises(DataCorruptionError):
            tau_angles(table)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_admissibility_decided_exactly_at_the_bound(self, sign):
        # |tau(p)| = floor(2 p^(11/2)) sits on the bound and passes; one more fails
        edge = {p: sign * math.isqrt(4 * p**11) for p in (2, 3, 5, 7)}
        ang = tau_angles(_with(tau_naive_oracle(10), edge))
        assert np.all(np.abs(ang.a) <= 2.0)
        with pytest.raises(DataCorruptionError, match=r"tau\(7\)"):
            tau_angles(_with(tau_naive_oracle(10), {**edge, 7: edge[7] + sign}))

    @pytest.mark.parametrize("limit", [2000, 2**15])
    def test_a_p_is_the_normalized_value(self, limit):
        # one evaluator: the angle records carry the sequence's own a_p, bit for bit
        table = expand_delta(limit)
        ang = tau_angles(table)
        assert ang.a.tobytes() == normalize_tau(table).values[ang.primes].tobytes()


class TestIntegrity:
    def test_clean_table(self):
        rep = integrity_check(tau_naive_oracle(600))
        assert rep.passed
        row = rep.rows[0]
        assert row["multiplicativity_failures"] == 0
        assert row["divisor_bound_failures"] == 0
        assert row["mod691_failures"] == 0

    def test_congruence_example(self):
        # sigma_11(2) = 2049 = 667 (mod 691) and tau(2) = -24 = 667 (mod 691)
        assert (1 + 2**11) % 691 == 667
        assert (-24) % 691 == 667

    def test_corrupted_multiplicativity_detected(self):
        table = _with(tau_naive_oracle(600), {6: 0})
        rep = integrity_check(table)
        assert not rep.passed
        assert rep.rows[0]["multiplicativity_failures"] >= 1

    def test_corrupted_congruence_detected(self):
        table = tau_naive_oracle(600)
        table = _with(table, {77: table[77] + 1})
        rep = integrity_check(table)
        assert rep.rows[0]["mod691_failures"] >= 1


    def test_report_bytes_pinned(self):
        # canonical report bytes recorded before integrity_check built its own sieve
        rep = integrity_check(expand_delta(2000))
        digest = hashlib.blake2b(rep.canonical_bytes(), digest_size=16).hexdigest()
        assert digest == "04f1e51620e489385ea7c450bfa083ec"


def _double_loop_multiplicativity(table: ExactTauTable) -> tuple[int, int]:
    """(pairs, failures) over every coprime 2 <= m < n with mn <= limit."""
    taus, limit = table.taus, table.limit
    pairs = failures = 0
    for m in range(2, limit // 2 + 1):
        for n in range(m + 1, limit // m + 1):
            if math.gcd(m, n) == 1:
                pairs += 1
                failures += taus[m] * taus[n] != taus[m * n]
    return pairs, failures


class TestIntegrityFullPairs:
    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("limit", [1, 2, 5, 6, 7, 30, 2000])
    def test_counts_equal_a_double_loop(self, limit, faulty):
        table = expand_delta(limit)
        if faulty:
            table = _with(table, {n: table[n] + n for n in range(3, limit + 1, 4)})
        row = integrity_check(table).rows[0]
        pairs, failures = _double_loop_multiplicativity(table)
        assert (row["pairs_checked"], row["multiplicativity_failures"]) == (pairs, failures)
        assert (failures > 0) == (faulty and limit >= 6)


def _int_loop_failures(table: ExactTauTable) -> int:
    """integrity_check's multiplicativity count as a Python-int loop over
    the same pairs: the detector before it compared residues, kept as its
    oracle."""
    sampled = table.limit > tau_mod.INTEGRITY_SAMPLE_CAP
    m, n = tau_mod._sampled_pairs(table.limit) if sampled else tau_mod._coprime_pairs(table.limit)
    taus = table.taus
    return sum(taus[a] * taus[b] != taus[a * b] for a, b in zip(m.tolist(), n.tolist()))


class TestMultiplicativityResidues:
    """Agreement modulo primes whose product passes 2^(128W - 1) is
    equality for any W-limb table, so the count equals the int loop's."""

    @pytest.mark.parametrize("w", [1, 2, 3])
    @pytest.mark.parametrize("change", ["none", "tau(8) + 7", "largest modulus", "signed ends"])
    def test_count_equals_the_int_loop(self, w, change):
        taus = list(expand_delta(2000).taus)  # |tau(n)| < 2^63 here, so w = 1 holds it
        top = 2 ** (64 * w - 1)
        if change == "tau(8) + 7":
            taus[8] += 7
        elif change == "largest modulus":
            p = max(find_ntt_primes(2 ** (128 * w - 2)))
            for k, j in ((6, 1), (35, -3), (1001, 2 ** (64 * w - 33))):
                taus[k] += j * p
        elif change == "signed ends":
            for k, v in ((2, top - 1), (3, -(top - 1)), (5, -top), (10, top - 1), (77, -top)):
                taus[k] = v
        table = ExactTauTable(limit=len(taus) - 1, limbs=limbs_at_width(taus, w))
        row = integrity_check(table).rows[0]
        assert row["multiplicativity_failures"] == _int_loop_failures(table)
        assert (row["multiplicativity_failures"] == 0) == (change == "none")

    def test_sampled_count_equals_the_int_loop(self, monkeypatch):
        monkeypatch.setattr(tau_mod, "INTEGRITY_SAMPLE_CAP", 700)
        taus = list(expand_delta(2000).taus)
        taus[7] += 1
        taus[12] = -(2**127)
        table = ExactTauTable(limit=len(taus) - 1, limbs=limbs_at_width(taus, 2))
        row = integrity_check(table).rows[0]
        assert row["pairs_checked"] == 700
        assert row["multiplicativity_failures"] == _int_loop_failures(table) > 0

    def test_report_bytes_at_2_19(self, tau_2_19):
        # recorded from the Python-int pair loop
        rep = integrity_check(tau_2_19)
        digest = hashlib.blake2b(rep.canonical_bytes(), digest_size=16).hexdigest()
        assert digest == "ed3bbc8e216301de5156e3daf682c6f8"


class TestIntegritySampledPath:
    def test_sampled_branch(self, monkeypatch):
        import stseq.tau as tau_mod

        monkeypatch.setattr(tau_mod, "INTEGRITY_SAMPLE_CAP", 200)
        rep = integrity_check(tau_naive_oracle(600))
        assert rep.parameters["sampled"] is True
        assert rep.passed

    def test_sample_stops_at_cap(self, monkeypatch):
        import stseq.tau as tau_mod

        # a block of 300 draws holds fewer than 300 coprime pairs, so this takes several
        monkeypatch.setattr(tau_mod, "INTEGRITY_SAMPLE_CAP", 300)
        rep = integrity_check(tau_naive_oracle(600))
        assert rep.parameters["sampled"] is True
        assert rep.rows[0]["pairs_checked"] == 300
        assert rep.rows[0]["multiplicativity_failures"] == 0

    def test_sampled_branch_detects_corruption(self, monkeypatch):
        import stseq.tau as tau_mod

        monkeypatch.setattr(tau_mod, "INTEGRITY_SAMPLE_CAP", 200)
        table = tau_naive_oracle(600)
        # break everything; the sample must notice
        table = _with(table, {n: table[n] + n for n in range(2, 601)})
        rep = integrity_check(table)
        assert not rep.passed


def _looped_rebuild_mismatches(table: ExactTauTable) -> int:
    """The Hecke rebuild as a loop over n = p^k m, p the least prime factor
    of n by trial division: tau(p^k) by the Hecke recurrence from the
    table's tau(p), times the rebuilt tau(m); counts n in 2..limit."""
    taus = table.taus
    rebuilt = [0, 1] + [0] * (table.limit - 1)
    powers: dict[int, list[int]] = {}
    mismatches = 0
    for n in range(2, table.limit + 1):
        p, k = brute_factor(n)[0]
        pk = powers.setdefault(p, [1, taus[p]])
        while len(pk) <= k:
            pk.append(taus[p] * pk[-1] - p**11 * pk[-2])
        rebuilt[n] = pk[k] * rebuilt[n // p**k]
        mismatches += rebuilt[n] != taus[n]
    return mismatches


class TestHeckeReconstruction:
    def test_rebuild_from_primes(self):
        table = expand_delta(2000)
        assert reconstruct_from_primes(table) == 0

    def test_rebuild_detects_corruption(self):
        table = tau_naive_oracle(200)
        table = _with(table, {8: table[8] + 7})
        assert reconstruct_from_primes(table) == 1

    # 13 strikes in blocks below sqrt(2000), 61 with the primes above it
    @pytest.mark.parametrize("p", [13, 61])
    def test_corrupt_prime_matches_the_looped_rebuild(self, p):
        table = expand_delta(2000)
        table = _with(table, {p: table[p] + 1})
        want = _looped_rebuild_mismatches(table)
        assert want == 2000 // p - 1  # every multiple of p but p itself
        assert reconstruct_from_primes(table) == want


def test_verify_small_guard_catches_bad_engine(monkeypatch):
    import stseq.tau as tau_mod

    real = tau_mod._eta6

    def corrupted(limit):
        c6 = real(limit)
        c6[3] += 1
        return c6

    monkeypatch.setattr(tau_mod, "_eta6", corrupted)
    with pytest.raises(DataCorruptionError, match="dense oracle"):
        expand_delta(128)


def test_seed_series_length_matches_count():
    # k = 0 is always a term; count the k >= 1 with k(k+1)/2 <= limit - 1
    for limit in range(1, 5001):
        count = sum(1 for k in range(1, 101) if k * (k + 1) // 2 <= limit - 1)
        assert _seed_series_length(limit) == count
