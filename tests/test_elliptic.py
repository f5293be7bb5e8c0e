import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

import stseq.elliptic as elliptic
from stseq.arith import primes_up_to
from stseq.elliptic import (
    _BSGS_ABOVE,
    _sweep_trace,
    CurveSpec,
    TraceSeries,
    angles_from_traces,
    ec_normalized_sequence,
    kappa_partial,
    supersingular_census,
    trace_at_prime,
    trace_batch,
    trace_series,
)
from stseq.errors import CapacityError, DataCorruptionError, IncompleteInputError

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
        # -sum chi counts the one singular point of a bad odd p once, and
        # t_2 = 0 on this model: no singular-point search is needed
        for a4 in range(-20, 21):
            for a6 in range(-20, 21):
                if 4 * a4**3 + 27 * a6**2 == 0:
                    continue
                curve = CurveSpec(a4, a6)
                for p in primes_up_to(400):
                    p = int(p)
                    if p <= 3 or curve.discriminant % p == 0:
                        assert trace_at_prime(curve, p) == enum_trace(a4, a6, p), (a4, a6, p)

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


# the five bench curves, the CM curves y^2 = x^3 + 1 and x^3 - x, and
# y^2 = x^3 - 43x + 166, whose rational torsion is Z/7 (points at x = 3, -5, 11)
ORACLE_CURVES = [(-1, 1), (1, 1), (-2, 1), (2, 3), (-3, 5), (0, 1), (-1, 0), (-43, 166)]


def _good_above_crossover(curve, limit):
    ps = primes_up_to(limit)
    return ps[(ps > _BSGS_ABOVE) & np.array([curve.discriminant % int(p) != 0 for p in ps])]


class TestBabyStepGiantStep:
    @pytest.mark.parametrize("a4,a6", ORACLE_CURVES)
    def test_equals_sweep_above_crossover(self, a4, a6):
        curve = CurveSpec(a4, a6)
        ps = _good_above_crossover(curve, 10_000)
        assert trace_batch(curve, ps).tolist() == [_sweep_trace(curve, int(p)) for p in ps]

    def test_dispatch_at_crossover(self, monkeypatch):
        calls = []
        kernel = elliptic._batch_traces

        def spy(curve, primes):
            calls.append([int(p) for p in primes])
            return kernel(curve, primes)

        monkeypatch.setattr(elliptic, "_batch_traces", spy)
        monkeypatch.setattr(elliptic, "trace_batch", None)  # its checks are for outside callers
        curve = CurveSpec(-2, 1)
        below, above = _BSGS_ABOVE, 233  # 229 is prime; 233 is the next prime
        assert trace_at_prime(curve, below) == enum_trace(-2, 1, below)
        assert trace_at_prime(curve, above) == enum_trace(-2, 1, above)
        assert calls == [[above]]
        calls.clear()
        series = trace_series(curve, 240)
        assert calls == [[233, 239]]
        assert series.t.tolist() == [enum_trace(-2, 1, int(p)) for p in series.primes]
        for outside in ([below], [233, 247], [10_000_019]):  # 247 = 13 * 19
            with pytest.raises(ValueError):
                trace_batch(curve, outside)

    def test_bad_prime_above_crossover_sweeps(self, monkeypatch):
        monkeypatch.setattr(elliptic, "_batch_traces", None)  # any call would raise
        # y^2 = x^3 - 3x + 2 has a node at x = 1; B + 2 * 241 keeps it only mod 241
        curve = CurveSpec(-3, 2 + 482)
        assert curve.discriminant % 241 == 0
        assert trace_at_prime(curve, 241) == enum_trace(-3, 2 + 482, 241)
        with pytest.raises(ValueError):
            trace_batch(curve, [233, 241])

    def test_walk_skips_a_root_at_the_start(self):
        hits = {}
        for a4, a6 in ORACLE_CURVES:
            for p in _good_above_crossover(CurveSpec(a4, a6), 10_000):
                if ((p // 2) ** 3 + a4 * (p // 2) + a6) % p == 0:
                    hits.setdefault((a4, a6), []).append(int(p))
        assert hits
        for (a4, a6), ps in hits.items():
            curve = CurveSpec(a4, a6)
            assert trace_batch(curve, ps).tolist() == [_sweep_trace(curve, p) for p in ps]

    def test_exhausted_walk_raises(self, monkeypatch):
        def nothing_unique(cols, t, n):
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64)

        monkeypatch.setattr(elliptic, "_unique_traces", nothing_unique)
        with pytest.raises(DataCorruptionError):
            trace_at_prime(CurveSpec(-1, 1), 233)

    def test_empty_batch(self, monkeypatch):
        assert trace_batch(CurveSpec(-1, 1), []).shape == (0,)
        calls = []
        monkeypatch.setattr(elliptic, "_shanks_mestre", lambda *a: calls.append(a))
        series = trace_series(CurveSpec(-1, 1), 232)
        assert calls == []
        assert series.t.tolist() == [enum_trace(-1, 1, int(p)) for p in series.primes]

    def test_multi_block_batch_equals_one_prime_batches(self, monkeypatch):
        curve = CurveSpec(-1, 1)
        ps = _good_above_crossover(curve, 2000)
        whole = trace_batch(curve, ps)
        blocks = []
        kernel = elliptic._shanks_mestre

        def spy(p, *rest):
            blocks.append(len(p))
            return kernel(p, *rest)

        monkeypatch.setattr(elliptic, "_shanks_mestre", spy)
        monkeypatch.setattr(elliptic, "_TABLE_BYTES", 1 << 10)
        assert trace_batch(curve, ps).tolist() == whole.tolist()
        assert len(blocks) > 10 and max(blocks) < len(ps)
        monkeypatch.setattr(elliptic, "_TABLE_BYTES", 1 << 18)
        assert whole.tolist() == [int(trace_batch(curve, [p])[0]) for p in ps]

    @pytest.mark.parametrize("a4,a6,x0,order", [(-43, 166, 3, 7), (0, 1, 0, 3)])
    def test_baby_steps_reject_a_point_of_small_order(self, a4, a6, x0, order, monkeypatch):
        # with the uniqueness step accepting everything, only the baby-step
        # checks stand between a rational torsion point and a wrong trace;
        # f(x0) is a square, so (d x0, d^2) is that point on E itself
        monkeypatch.setattr(elliptic, "_unique_traces",
                            lambda cols, t, n: (np.ones(n, dtype=bool), np.zeros(n, dtype=np.int64)))
        p = np.array([233, 233])
        T, m, s, K = elliptic._bsgs_shape(p)
        assert order <= 2 * m[0]
        ok, _ = elliptic._shanks_mestre(p, np.full(2, a4 % 233), np.full(2, a6 % 233),
                                        np.array([x0, 233 // 2]), T, m, s, K)
        assert ok.tolist() == [False, True]

    # CM curves have groups far from cyclic at many ordinary primes, so a
    # start point often has too small an order.  The counts of points tried
    # (d = f(x0) != 0) are those of the one-prime-at-a-time kernel that
    # trace_batch replaced: both accept and reject the same points.
    @pytest.mark.parametrize("a4,a6,tried,deepest", [(0, 1, 1381, (3499, 11)),
                                                     (-1, 0, 1621, (1621, 9))])
    def test_cm_curves_retry(self, a4, a6, tried, deepest, monkeypatch):
        starts = {}
        kernel = elliptic._shanks_mestre

        def spy(p, A, B, x0, *rest):
            d = (x0 * (x0 * x0 + A) + B) % p
            for q, x, dq in zip(p.tolist(), x0.tolist(), d.tolist()):
                starts.setdefault(q, []).append((x, dq))
            return kernel(p, A, B, x0, *rest)

        monkeypatch.setattr(elliptic, "_shanks_mestre", spy)
        curve = CurveSpec(a4, a6)
        ps = _good_above_crossover(curve, 10_000)
        assert trace_batch(curve, ps).tolist() == [_sweep_trace(curve, int(p)) for p in ps]
        assert all([x for x, _ in xs] == [(p // 2 + i) % p for i in range(len(xs))]
                   for p, xs in starts.items())
        assert sum(d != 0 for xs in starts.values() for _, d in xs) == tried
        p, n = deepest
        assert len(starts[p]) == n == max(len(xs) for xs in starts.values())


def _euler_product(n_max, step):
    """prod_{n >= 1} (1 - q^(step n)) to q^n_max by Euler's pentagonal series."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    k = 0
    while step * k * (3 * k - 1) // 2 <= n_max:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if step * g <= n_max:
                out[step * g] = (-1) ** k
        k += 1
    return out


def _times(f, g):
    return np.convolve(f, g)[: len(f)]


class TestEtaQuotientOracle:
    """Weight-2 eta-quotient newforms (Martin-Ono, Proc. AMS 125, 1997):
    eta(6z)^4 is y^2 = x^3 + 1 (conductor 36) and eta(4z)^2 eta(8z)^2 is
    y^2 = x^3 - x (conductor 32); the q^p coefficient is t_p at every prime,
    0 at the additive bad primes."""

    N = 10_000

    def _check(self, curve, q_series):
        a = np.concatenate([[0], q_series[:-1]])  # the eta-quotient is q * q_series
        series = trace_series(curve, self.N)
        assert series.t.tolist() == [int(a[p]) for p in series.primes]

    def test_eta_6z_fourth_power(self):
        e6 = _euler_product(self.N, 6)
        e6_sq = _times(e6, e6)
        self._check(CurveSpec(0, 1), _times(e6_sq, e6_sq))

    def test_eta_4z_squared_eta_8z_squared(self):
        e4, e8 = _euler_product(self.N, 4), _euler_product(self.N, 8)
        e48 = _times(e4, e8)
        self._check(CurveSpec(-1, 0), _times(e48, e48))


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

    def test_budget(self):
        with pytest.raises(CapacityError):  # a ValueError, so the CLI exits 2
            trace_series(CurveSpec(1, 1), elliptic.TRACE_PRIME_GUARD + 1)
        assert issubclass(CapacityError, ValueError)

    def test_coefficients_beyond_int64(self):
        curve = CurveSpec(2**70 + 3, -5)
        series = trace_series(curve, 2000)
        assert series.t.tolist() == [_sweep_trace(curve, int(p)) for p in series.primes]
        assert series.good.tolist() == [curve.discriminant % int(p) != 0 for p in series.primes]

    def test_digest_at_one_million(self):
        # pinned from the one-prime-at-a-time Python-integer kernel that
        # trace_batch replaced (17 s for this call, against about 2.5 s now)
        series = trace_series(CurveSpec(-1, 1), 10**6)
        h = hashlib.blake2b(digest_size=16)
        h.update(series.t.tobytes())
        h.update(series.good.tobytes())
        assert h.hexdigest() == "bc59449517f65b0d623b851e4d0e87c3"

    def test_hasse_violation_raises(self):
        with pytest.raises(DataCorruptionError):
            TraceSeries(limit=10, curve=CurveSpec(1, 1), primes=[5, 7], t=[5, 0], good=[True, True])

    def test_bad_prime_trace_two_raises(self):
        with pytest.raises(DataCorruptionError):
            TraceSeries(limit=10, curve=CurveSpec(1, 1), primes=[2, 7], t=[2, 0], good=[False, True])


class TestNormalizedSequence:
    def test_prime_and_prime_square(self):
        series = trace_series(CurveSpec(-1, 1), 10_000)
        seq = ec_normalized_sequence(series, 10_000)
        assert seq.values[1] == 1.0
        assert seq.source == "elliptic"
        g = series.good
        ps = series.primes[g]
        ap = series.t[g] / np.sqrt(ps.astype(float))
        assert np.allclose(seq.values[ps], ap, rtol=1e-12)
        for p, a in zip(ps[:10], ap[:10]):
            if p * p <= 10_000:
                assert seq.values[p * p] == pytest.approx(a * a - 1.0, rel=1e-12, abs=1e-12)

    def test_coprime_product(self):
        series = trace_series(CurveSpec(-1, 1), 10_000)
        seq = ec_normalized_sequence(series, 10_000)
        for m, n in [(3, 5), (4, 9), (8, 25), (7, 11)]:
            assert seq.values[m * n] == pytest.approx(
                seq.values[m] * seq.values[n], rel=1e-10, abs=1e-12
            )

    def test_bad_prime_powers(self):
        # 2 is always bad in this model; a_{2^k} = (t_2/sqrt(2))^k
        series = trace_series(CurveSpec(-1, 1), 10_000)
        seq = ec_normalized_sequence(series, 10_000)
        t2 = int(series.t[0])
        a2 = t2 / math.sqrt(2.0)
        for k in (1, 2, 3, 4):
            assert seq.values[2**k] == pytest.approx(a2**k, rel=1e-12, abs=1e-15)

    def test_values_bytes_pinned(self):
        # value bytes recorded before ec_normalized_sequence built its own sieve
        seq = ec_normalized_sequence(trace_series(CurveSpec(-1, 1), 10_000), 10_000)
        digest = hashlib.blake2b(seq.values.tobytes(), digest_size=16).hexdigest()
        assert digest == "658cc5f5c8c904c02939785e93b31e52"

    def test_series_too_short(self):
        series = trace_series(CurveSpec(-1, 1), 100)
        with pytest.raises(IncompleteInputError):
            ec_normalized_sequence(series, 1000)


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
