import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stseq.arith import (
    RULE_KINDS,
    AngleSeries,
    SIEVE_BUDGET_BYTES,
    NormalizedSequence,
    PrimePowerRule,
    build_spf_sieve,
    primes_up_to,
)
from stseq.errors import DataCorruptionError
from stseq.report import VerificationReport, flag
from stseq.stats import ks_statistic, log2_iter, normal_cdf, prime_log_moments, st_cdf
from stseq.synthetic import SyntheticSpec, build_synthetic_sequence
from stseq.verify import (
    CLT_C,
    IDENTITY_RTOL,
    STANDARDIZATIONS,
    SupportFilter,
    check_assumptions,
    prime_free_mask,
    prime_values_of,
    smoothness_cutoff,
    strongly_multiplicative_log,
    validate_checkpoints,
    verify_hall_tenenbaum,
    verify_lemma_sums,
    verify_thm1,
    verify_thm2,
    verify_thm3,
)

from conftest import refuse_sieves, traced_peak


def const_sequence(limit: int, value: float = 1.0) -> NormalizedSequence:
    vals = np.full(limit + 1, value)
    vals[0] = np.nan
    vals[1] = 1.0
    return NormalizedSequence(limit=limit, values=vals, source="synthetic")


def zero_tail_sequence(limit: int) -> NormalizedSequence:
    vals = np.zeros(limit + 1)
    vals[0] = np.nan
    vals[1] = 1.0
    return NormalizedSequence(limit=limit, values=vals, source="synthetic")


def slice_strongly_multiplicative_log(seq: NormalizedSequence, x: int):
    """Oracle: log|a_p| added to every multiple of p, primes in increasing
    order, so logh[n] sums its distinct primes smallest first."""
    logh = np.zeros(x + 1, dtype=np.float64)
    alive = np.ones(x + 1, dtype=bool)
    alive[0] = False
    for p in primes_up_to(x):
        ap = seq.values[p]
        if ap == 0.0:
            alive[p::p] = False
        else:
            logh[p::p] += math.log(abs(ap))
    return logh, alive


def noise_sequence(limit: int) -> NormalizedSequence:
    """Uniform values on [-2, 2] with 1000 zeros: many |a_p| fall under any floor."""
    rng = np.random.default_rng(5)
    vals = rng.uniform(-2.0, 2.0, limit + 1)
    vals[0] = np.nan
    vals[1] = 1.0
    vals[rng.integers(2, limit, 1000)] = 0.0
    return NormalizedSequence(limit=limit, values=vals, source="synthetic")


def full_array_thm1(seq: NormalizedSequence, eps: float, cps: list[int],
                    monotone_slack: float | None = None) -> VerificationReport:
    """Oracle for thm1: both indicators and their cumsums over all of 3..x."""
    top = cps[-1]
    ln = np.log(np.arange(3, top + 1, dtype=np.float64))
    a = np.abs(seq.values[3 : top + 1])
    cum_ex = np.cumsum(a > ln ** (-0.5 + eps))
    cum_be = np.cumsum(a < ln ** (-0.5 - eps))
    rows = [{"x": x, "exceed_fraction": float(cum_ex[x - 3] / (x - 2)),
             "below_fraction": float(cum_be[x - 3] / (x - 2))} for x in cps]
    flags = []
    if monotone_slack is not None:
        for prev, cur in zip(rows, rows[1:]):
            flags.append({
                "name": f"nonincreasing_{prev['x']}_to_{cur['x']}",
                "passed": cur["exceed_fraction"] <= prev["exceed_fraction"] + monotone_slack,
                "observed": cur["exceed_fraction"] - prev["exceed_fraction"],
                "tolerance": f"<= +{monotone_slack}",
            })
    return VerificationReport(
        name="thm1-typical-size",
        parameters={"eps": eps, "source": seq.source, "checkpoints": cps},
        rows=rows, flags=flags, runtime=0.0,
    )


def full_array_thm3(seq: NormalizedSequence, x: int, support: SupportFilter | None = None,
                    standardization: str = "self", ks_tol: float | None = None,
                    skew_tol: float | None = None) -> VerificationReport:
    """Oracle for thm3: straight-line, every table at full length, with the
    support's indices, a sorted copy for the KS scan and one array per power."""
    if standardization not in STANDARDIZATIONS:
        raise ValueError(f"unknown standardization {standardization!r}")
    if x < 1:
        raise ValueError(f"thm3 needs x >= 1, got x = {x}")
    if x > seq.limit:
        raise ValueError(f"cutoff {x} beyond sequence limit {seq.limit}")
    support = support or SupportFilter()
    ns = np.nonzero(support.mask(seq, x))[0]
    if ns.size == 0:
        raise ValueError("filtered support is empty")
    log_abs = np.log(np.abs(seq.values[ns]))
    ps = primes_up_to(x)
    L2 = log2_iter(x)
    if standardization == "asymptotic":
        mu, sigma2 = -0.5 * L2, CLT_C * L2
    elif standardization == "finite-size":
        moments = prime_log_moments(prime_values_of(seq, x), x, support.floor(x))
        mu, sigma2 = moments.mu, moments.sigma2
    else:
        mu, sigma2 = float(np.mean(log_abs)), float(np.var(log_abs))
    if sigma2 <= 0:
        raise ValueError("degenerate standardization variance")
    ks = ks_statistic((log_abs - mu) / math.sqrt(sigma2), normal_cdf)
    centered = log_abs - np.mean(log_abs)
    m2 = float(np.mean(centered**2))
    skew = float(np.mean(centered**3) / m2**1.5) if m2 > 0 else 0.0
    kurt = float(np.mean(centered**4) / m2**2 - 3.0) if m2 > 0 else 0.0
    logh, alive = strongly_multiplicative_log(seq, x)
    lhs = float(np.sum(logh[1:][alive[1:]]))
    ap = seq.values[ps]
    nz = ap != 0.0
    counts = np.cumsum(alive[: x // 2 + 1], dtype=np.int64)[x // ps[nz]]
    rhs = float(np.sum(np.log(np.abs(ap[nz])) * counts))
    rel_err = abs(lhs - rhs) / max(1.0, abs(lhs))
    gaps = np.abs((logh[ns] - log_abs)[alive[ns]])
    qs = (0.5, 0.9, 0.99, 1.0)
    quantiles = np.quantile(gaps, qs) if gaps.size else np.zeros(len(qs))
    row = {"x": x, "n_support": int(ns.size), "mu": mu, "sigma2": sigma2,
           "ks_vs_normal": ks, "skewness": skew, "excess_kurtosis": kurt,
           "identity_lhs": lhs, "identity_rhs": rhs, "identity_rel_err": rel_err}
    row.update({f"gap_q{int(q * 100)}": float(v) for q, v in zip(qs, quantiles)})
    flags = [flag("additive_identity", rel_err <= IDENTITY_RTOL, rel_err,
                  f"rel err <= {IDENTITY_RTOL}")]
    if ks_tol is not None:
        flags.append(flag("ks_vs_normal", ks <= ks_tol, ks, f"<= {ks_tol}"))
    if skew_tol is not None:
        flags.append(flag("abs_skewness", abs(skew) <= skew_tol, skew, f"|skew| <= {skew_tol}"))
    return VerificationReport(
        name="thm3-clt",
        parameters={"source": seq.source, "standardization": standardization,
                    "support_mode": support.mode, "support_A": support.A},
        rows=[row], flags=flags, runtime=0.0,
    )


def loop_floor_mask(seq: NormalizedSequence, x: int, A: float) -> np.ndarray:
    """Oracle for the floor-A mask: every prime tested one at a time."""
    m = np.zeros(x + 1, dtype=bool)
    m[1:] = seq.values[1 : x + 1] != 0.0
    floor = SupportFilter("floor-A", A=A).floor(x)
    for p in primes_up_to(x):
        if abs(seq.values[p]) <= floor:
            m[p::p] = False
    return m


def loop_identity(seq: NormalizedSequence, x: int) -> tuple[float, float]:
    """Oracle for thm3's additive identity (lhs, rhs): the alive multiples of
    every prime counted one prime at a time."""
    logh, alive = strongly_multiplicative_log(seq, x)
    ps = primes_up_to(x)
    counts = np.array([int(np.count_nonzero(alive[p::p])) for p in ps], dtype=np.int64)
    ap = seq.values[ps]
    nz = ap != 0.0
    lhs = float(np.sum(logh[1:][alive[1:]]))
    return lhs, float(np.sum(np.log(np.abs(ap[nz])) * counts[nz]))


def full_range_sums(seq: NormalizedSequence, gammas, x: int) -> list[float]:
    """Oracle for lemma-sums: one cumsum over all of 1..x per series."""
    n = np.arange(1, x + 1, dtype=np.float64)
    a = np.abs(seq.values[1 : x + 1])
    series = [a / n, a**2, a**2 / n] + [a**g for g in gammas]
    return [float(np.cumsum(t)[-1]) for t in series]


def full_array_lemma_sums(seq: NormalizedSequence, gammas, cps: list[int],
                          ratio_band=None) -> VerificationReport:
    """Oracle for lemma-sums: every series, each gamma's included, summed by
    one cumsum over all of 1..x."""
    top = cps[-1]
    n = np.arange(1, top + 1, dtype=np.float64)
    a = np.abs(seq.values[1 : top + 1])
    cums = [np.cumsum(t) for t in [a / n, a**2, a**2 / n] + [a**g for g in gammas]]
    labels = [f"sum_gamma_{g:g}" for g in gammas]
    rows = []
    for x in cps:
        s = [float(c[x - 1]) for c in cums]
        row = {"x": x, "sum_abs_over_n": s[0], "sum_sq": s[1], "sum_sq_over_n": s[2],
               "sum_sq_over_n_per_logx": s[2] / math.log(x)}
        row.update(zip(labels, s[3:]))
        rows.append(row)
    fits = []
    for r1, r2 in zip(rows, rows[1:]):
        x1, x2 = r1["x"], r2["x"]
        dlog = math.log(math.log(x2) / math.log(x1))
        fit = {"x_lo": x1, "x_hi": x2,
               "exp_sum_sq_over_n": math.log(r2["sum_sq_over_n"] / r1["sum_sq_over_n"]) / dlog}
        for g, label in zip(gammas, labels):
            fit[f"exp_gamma_{g:g}"] = math.log((r2[label] / x2) / (r1[label] / x1)) / dlog
        fits.append(fit)
    flags = []
    if ratio_band is not None:
        lo, hi = ratio_band
        obs = rows[-1]["sum_sq_over_n_per_logx"]
        flags.append(flag(f"sum_sq_over_n_per_logx_at_{rows[-1]['x']}", lo <= obs <= hi, obs,
                          f"in [{lo}, {hi}]"))
    return VerificationReport(
        name="lemma-moment-sums",
        parameters={"source": seq.source, "gammas": gammas, "checkpoints": cps, "fits": fits},
        rows=rows, flags=flags, runtime=0.0,
    )


def full_array_assumptions(seq: NormalizedSequence, angles: AngleSeries, A: float,
                           grid: int = 512, checkpoints=None) -> VerificationReport:
    """Oracle for check_assumptions: log_2 p over every prime for Panel 3's
    tail test, and each panel straight-line."""
    limit = seq.limit
    cps = [limit] if checkpoints is None else list(checkpoints)
    c_emp, zero_pk, examined = 0.0, 0, 0
    ps_k, k = angles.primes, 1
    while (ps_k := ps_k[ps_k**k <= limit]).size:
        cond = seq.values[ps_k] != 0.0
        vals = np.abs(seq.values[ps_k[cond] ** k])
        good = vals != 0.0
        zero_pk += int(np.count_nonzero(~good))
        if np.any(good):
            cand = -np.log(vals[good]) / (k * np.log(ps_k[cond][good].astype(np.float64)))
            c_emp = max(c_emp, float(np.max(cand)))
        examined += int(np.count_nonzero(cond))
        k += 1
    alphas = np.linspace(0.0, math.pi, grid + 1)
    lg_p = angles.primes.astype(np.float64)
    for _ in range(2):
        lg_p = np.maximum(np.fromiter(map(math.log, lg_p.tolist()), np.float64), 1.0)
    tail_term = np.abs(angles.a) < lg_p ** (-A)
    rows = []
    for x in cps:
        sub = np.sort(angles.theta[angles.primes <= x])
        ecdf = np.searchsorted(sub, alphas, side="right") / len(sub)
        supgap = float(np.max(np.abs(ecdf - st_cdf(alphas))))
        tail_mask = (angles.primes >= x) & tail_term
        tail_sum = float(np.sum(1.0 / angles.primes[tail_mask].astype(np.float64)))
        a2_bound, tail_bound = log2_iter(x) ** (-A), log2_iter(x) ** (-(A - 1.0))
        rows.append({"x": x, "a2_sup_gap": supgap, "a2_bound": a2_bound,
                     "a2_ratio": supgap / a2_bound, "tail_sum": tail_sum,
                     "tail_bound": tail_bound, "tail_ratio": tail_sum / tail_bound})
    return VerificationReport(
        name="assumption-diagnostics",
        parameters={"source": seq.source, "A": A, "empirical_C": c_emp,
                    "zero_prime_power_values": zero_pk, "prime_powers_examined": examined,
                    "grid_points": int(len(alphas))},
        rows=rows, flags=[], runtime=0.0,
    )


@pytest.fixture(scope="module")
def synth_seq():
    _, seq = build_synthetic_sequence(SyntheticSpec(limit=100_000, seed=7))
    return seq


@pytest.fixture(scope="module")
def sieve_1e5_mod():
    return build_spf_sieve(100_000)


@pytest.fixture(scope="module")
def cm_seq():
    """y^2 = x^3 + 1 to 2 * 10^4: complex multiplication, a_p = 0 at p = 2 mod 3."""
    from stseq.elliptic import CurveSpec, ec_normalized_sequence, trace_series

    x = 20_000
    return ec_normalized_sequence(trace_series(CurveSpec(0, 1), x), x)


class TestCheckpoints:
    def test_validation(self):
        assert validate_checkpoints([10, 100], 100) == [10, 100]
        with pytest.raises(ValueError):
            validate_checkpoints([], 100)
        with pytest.raises(ValueError):
            validate_checkpoints([100, 10], 100)
        with pytest.raises(ValueError):
            validate_checkpoints([10, 200], 100)
        with pytest.raises(ValueError):
            validate_checkpoints([2], 100)


class TestThm1:
    def test_zero_tail(self):
        rep = verify_thm1(zero_tail_sequence(1000), 0.25, [100, 1000])
        assert all(r["exceed_fraction"] == 0.0 for r in rep.rows)
        assert all(r["below_fraction"] == 1.0 for r in rep.rows)

    def test_constant_one(self):
        rep = verify_thm1(const_sequence(1000), 0.25, [100, 1000])
        assert all(r["exceed_fraction"] == 1.0 for r in rep.rows)

    def test_eps_monotonicity(self, synth_seq):
        # larger eps -> larger threshold for n >= 3 -> smaller exceedance
        r_small = verify_thm1(synth_seq, 0.1, [100_000]).rows[0]["exceed_fraction"]
        r_large = verify_thm1(synth_seq, 0.5, [100_000]).rows[0]["exceed_fraction"]
        assert r_large <= r_small

    def test_monotone_flag(self, synth_seq):
        rep = verify_thm1(synth_seq, 0.25, [10_000, 100_000], monotone_slack=0.01)
        assert len(rep.flags) == 1

    def test_eps_validation(self, synth_seq):
        for bad in (0.0, -0.1, 0.6):
            with pytest.raises(ValueError):
                verify_thm1(synth_seq, bad, [100])


class TestThm2:
    def test_nonnegative_ratio_one(self):
        rep = verify_thm2(const_sequence(1000), [1000])
        assert rep.rows[0]["ratio"] == pytest.approx(1.0)

    def test_sign_flip_pairs(self):
        vals = np.zeros(1001)
        vals[0] = np.nan
        vals[1] = 1.0
        rng = np.random.default_rng(4)
        mags = rng.uniform(0.1, 1.0, 500)
        for k in range(1, 500):
            vals[2 * k] = mags[k]
            vals[2 * k + 1] = -mags[k]
        seq = NormalizedSequence(limit=1000, values=vals, source="synthetic")
        rep = verify_thm2(seq, [1000])
        row = rep.rows[0]
        # window (500, 1000] pairs up exactly except possibly the edges
        assert abs(row["S"]) <= max(abs(vals[501]), abs(vals[1000])) + 1e-12

    def test_zero_window_support_empty(self):
        seq = zero_tail_sequence(1000)
        rep = verify_thm2(seq, [1000])
        assert rep.rows[0]["support_empty"] == 1
        assert rep.rows[0]["ratio"] == 0.0

    def test_triangle_inequality_always(self, synth_seq):
        rep = verify_thm2(synth_seq, [100, 10_000, 100_000])
        for row in rep.rows:
            assert abs(row["S"]) <= row["T"] + 1e-9

    def test_non_finite_window_raises(self):
        seq = const_sequence(1000)
        seq.values[700] = np.nan
        with pytest.raises(DataCorruptionError):
            verify_thm2(seq, [1000])

    def test_report_bytes_pinned(self, synth_seq):
        # canonical report bytes recorded before verify_thm2 built its own sieve
        rep = verify_thm2(synth_seq, [1000, 10_000, 100_000])
        digest = hashlib.blake2b(rep.canonical_bytes(), digest_size=16).hexdigest()
        assert digest == "2ae31973a42a2a30c9fb47772383a965"

    def test_ratio_flag(self, synth_seq):
        rep = verify_thm2(synth_seq, [100_000], ratio_tol=1e-12)
        assert not rep.passed  # synthetic window will not cancel to 1e-12

    def test_builds_no_sieve(self, synth_seq, monkeypatch):
        refuse_sieves(monkeypatch, "verify_thm2")
        rep = verify_thm2(synth_seq, [100, 10_000, 100_000])
        assert [row["smooth_fraction"] for row in rep.rows] == [1.0] * 3

    def test_smoothness_cutoff_exceeds_x_up_to_the_sieve_cap(self):
        # y(x) > x >= P(n) for every window integer n is why smooth_fraction is 1
        cap = SIEVE_BUDGET_BYTES // 4 - 1  # the largest limit build_spf_sieve takes
        grid = np.unique(np.geomspace(3, cap, 4000).astype(np.int64)).tolist()
        for x in [*range(3, 10_000), *grid, cap]:
            assert smoothness_cutoff(x) > x, x

    def test_smoothness_cutoff_formula(self):
        # iterated logs clamp at 1, so log_3(1e6) = 1 while log_3(1e8) does not clamp
        x = 10**6
        expected = math.exp(4 * math.log(x) * 1.0 / math.log(math.log(x)))
        assert smoothness_cutoff(x) == pytest.approx(expected, rel=1e-12)
        x = 10**8
        l2 = math.log(math.log(x))
        expected = math.exp(4 * math.log(x) * math.log(l2) / l2)
        assert smoothness_cutoff(x) == pytest.approx(expected, rel=1e-12)


class TestSupportFilter:
    def test_floor_subset_of_nonzero(self, synth_seq):
        x = 50_000
        nz = SupportFilter("nonzero").mask(synth_seq, x)
        fa = SupportFilter("floor-A", A=1.5).mask(synth_seq, x)
        assert not np.any(fa & ~nz)
        assert np.count_nonzero(fa) <= np.count_nonzero(nz)

    def test_modes_validation(self):
        with pytest.raises(ValueError):
            SupportFilter("bogus")
        with pytest.raises(ValueError):
            SupportFilter("floor-A", A=1.0)

    def test_all_mode(self):
        # "all" gave thm3 the same rows as "nonzero", so it is refused
        with pytest.raises(ValueError, match="unknown support mode 'all'"):
            SupportFilter("all")


class TestThm3:
    @pytest.mark.parametrize("standardization", ["asymptotic", "finite-size", "self"])
    @pytest.mark.parametrize("mode", ["nonzero", "floor-A"])
    def test_builds_no_sieve(self, synth_seq, monkeypatch, standardization, mode):
        refuse_sieves(monkeypatch, "verify_thm3")
        rep = verify_thm3(synth_seq, 100_000, SupportFilter(mode), standardization)
        assert rep.flags[0]["name"] == "additive_identity" and rep.flags[0]["passed"]

    def test_additive_identity_exact(self, synth_seq):
        rep = verify_thm3(synth_seq, 100_000, SupportFilter("nonzero"), "self")
        row = rep.rows[0]
        assert row["identity_rel_err"] <= 1e-12
        assert rep.flags[0]["passed"]

    @pytest.mark.parametrize("standardization", ["self", "finite-size"])
    def test_lists_the_primes_once(self, synth_seq, monkeypatch, standardization):
        import stseq.verify as verify_mod

        calls = []
        monkeypatch.setattr(verify_mod, "primes_up_to",
                            lambda x: calls.append(x) or primes_up_to(x))
        verify_thm3(synth_seq, 10_000, SupportFilter("nonzero"), standardization)
        assert calls == [10_000]

    def test_identity_floor_formula_on_full_support(self, synth_seq):
        # no vanishing prime values here, so counts must equal floor(x/p)
        x = 10_000
        logh, alive = strongly_multiplicative_log(synth_seq, x)
        assert np.all(alive[1:])
        ps = primes_up_to(x)
        rhs = float(np.sum(np.log(np.abs(synth_seq.values[ps])) * (x // ps)))
        assert float(np.sum(logh[1:])) == pytest.approx(rhs, rel=1e-12)

    def test_squarefree_gap_zero(self, synth_seq, sieve_1e5_mod):
        x = 20_000
        logh, alive = strongly_multiplicative_log(synth_seq, x)
        spf = sieve_1e5_mod.spf
        for n in (2, 3, 6, 10, 15, 30, 105, 1155, 6006, 17017):
            # confirm squarefree by factorization, then compare
            m, sf = n, True
            while m > 1:
                p = int(spf[m])
                k = 0
                while m % p == 0:
                    m //= p
                    k += 1
                sf &= k == 1
            assert sf
            assert logh[n] == pytest.approx(math.log(abs(synth_seq.values[n])), abs=1e-9)

    # BLAKE2b-128 of the canonical report at x = 2 * 10^4, "self" standardization,
    # recorded while the identity counts came from the per-prime loop
    ZERO_PRIME_PINS = {
        ("cm", "nonzero"): "32679e7bc03716a3d6ed259589810bab",
        ("cm", "floor-A"): "5ba7509d2391a10c6a90020d78634208",
        ("noise", "nonzero"): "558a3d03ab31eaf9b2efbcdff9b951c5",
        ("noise", "floor-A"): "c516577e9aa827dd7ca413d5ffa6dd30",
    }

    @pytest.mark.parametrize("name, mode", sorted(ZERO_PRIME_PINS))
    def test_identity_with_zero_primes(self, cm_seq, name, mode):
        x = 20_000
        seq = cm_seq if name == "cm" else noise_sequence(x)
        assert np.count_nonzero(seq.values[primes_up_to(x)] == 0.0) > 50
        rep = verify_thm3(seq, x, SupportFilter(mode), "self")
        row = rep.rows[0]
        assert (row["identity_lhs"], row["identity_rhs"]) == loop_identity(seq, x)
        digest = hashlib.blake2b(rep.canonical_bytes(), digest_size=16).hexdigest()
        assert digest == self.ZERO_PRIME_PINS[name, mode]

    def test_standardization_modes(self, synth_seq):
        for mode in ("asymptotic", "finite-size", "self"):
            rep = verify_thm3(synth_seq, 100_000, SupportFilter("nonzero"), mode)
            assert rep.rows[0]["sigma2"] > 0

    def test_empty_support_rejected(self):
        seq = zero_tail_sequence(1000)
        with pytest.raises(ValueError):
            verify_thm3(seq, 1000, SupportFilter("nonzero"), "self")

    def test_unknown_mode_rejected(self, synth_seq):
        with pytest.raises(ValueError):
            verify_thm3(synth_seq, 1000, SupportFilter("nonzero"), "bogus")

    @pytest.mark.parametrize("value", [2.5, -2.0 - 1e-11, math.nan])
    def test_prime_value_past_two_raises(self, value):
        # finite-size reads the prime values, which are not clipped past rounding
        seq = const_sequence(1000, 0.5)
        seq.values[2] = value
        with pytest.raises(DataCorruptionError, match=f"p = 2: a_p = {value}"):
            verify_thm3(seq, 1000, SupportFilter("nonzero"), "finite-size")
        with pytest.raises(DataCorruptionError):
            prime_values_of(seq, 1000)

    def test_prime_value_within_rounding_is_clipped(self):
        seq = const_sequence(1000, 0.5)
        seq.values[[2, 3]] = 2.0 + 1e-13, -2.0 - 1e-13
        angles = prime_values_of(seq, 1000)
        assert (angles.a[0], angles.a[1]) == (2.0, -2.0)
        assert (angles.theta[0], angles.theta[1]) == (0.0, math.pi)

    @pytest.mark.parametrize("x", [0, -1, -5])
    def test_cutoff_below_one_rejected(self, synth_seq, x):
        with pytest.raises(ValueError, match="x >= 1"):
            verify_thm3(synth_seq, x, SupportFilter("nonzero"), "asymptotic")


class TestLemmaSums:
    def test_harmonic_number(self):
        x = 1000
        rep = verify_lemma_sums(const_sequence(x), [1.0], [x])
        H = float(np.sum(1.0 / np.arange(1, x + 1)))
        assert rep.rows[0]["sum_abs_over_n"] == pytest.approx(H, rel=1e-12)

    def test_zero_tail_sums_small(self):
        rep = verify_lemma_sums(zero_tail_sequence(1000), [0.5, 1.0], [1000])
        row = rep.rows[0]
        assert row["sum_abs_over_n"] <= 1.0
        assert row["sum_sq"] <= 1.0
        assert row["sum_gamma_0.5"] <= 1.0

    def test_gamma_validation(self, synth_seq):
        with pytest.raises(ValueError):
            verify_lemma_sums(synth_seq, [0.0], [100])
        with pytest.raises(ValueError):
            verify_lemma_sums(synth_seq, [2.5], [100])
        # 0.5 and 0.5, or 1 and 1.0, would share one sum_gamma_ column
        for gammas, label in (([0.5, 0.5], "sum_gamma_0.5"), ([1, 1.0], "sum_gamma_1")):
            with pytest.raises(ValueError, match=f"gammas repeat the column {label}$"):
                verify_lemma_sums(synth_seq, gammas, [100])

    def test_band_flag(self, synth_seq):
        rep = verify_lemma_sums(synth_seq, [1.0], [100_000], ratio_band=(0.1, 10.0))
        assert len(rep.flags) == 1

    def test_fit_diagnostics_present(self, synth_seq):
        rep = verify_lemma_sums(synth_seq, [1.0], [1000, 100_000])
        fits = rep.parameters["fits"]
        assert len(fits) == 1 and fits[0]["x_lo"] == 1000


class TestHallTenenbaum:
    def test_constant_one(self):
        x = 10_000
        rep = verify_hall_tenenbaum(np.ones(x + 1), x, label="ones")
        assert rep.passed
        assert rep.rows[0]["A"] == pytest.approx(1.0, abs=0.1)

    def test_zero_function(self):
        x = 1000
        f = np.zeros(x + 1)
        rep = verify_hall_tenenbaum(f, x)
        assert rep.passed
        assert rep.rows[0]["lhs"] == 0.0

    def test_squared_synthetic(self, synth_seq):
        x = 10_000
        f = np.abs(synth_seq.values[: x + 1]) ** 2
        f[0] = 0.0
        rep = verify_hall_tenenbaum(f, x)
        assert rep.passed

    def test_negative_rejected(self):
        f = np.ones(101)
        f[5] = -1.0
        with pytest.raises(ValueError):
            verify_hall_tenenbaum(f, 100)

    @pytest.mark.parametrize("x", [1, 0, -1])
    def test_cutoff_below_two_rejected(self, x):
        # x = 1 would divide by log 1 = 0
        with pytest.raises(ValueError, match="x >= 2"):
            verify_hall_tenenbaum(np.ones(3), x)


class TestAssumptions:
    def test_panels_on_synthetic(self, synth_seq):
        ang = prime_values_of(synth_seq, 100_000)
        rep = check_assumptions(synth_seq, ang, A=2.0, grid=256, checkpoints=[1000, 100_000])
        assert len(rep.rows) == 2
        assert rep.rows[1]["a2_sup_gap"] < rep.rows[1]["a2_bound"]
        assert rep.parameters["empirical_C"] > 0

    def test_zero_prime_values_excluded(self):
        vals = np.zeros(101)
        vals[0] = np.nan
        vals[1] = 1.0
        ps = primes_up_to(100)
        vals[ps] = 1.0  # a_p = 1 everywhere...
        vals[2] = 0.0  # ...except a_2 = 0, which the panel must skip
        for n in range(2, 101):
            if n not in ps:
                vals[n] = 1.0
        vals[2] = 0.0
        seq = NormalizedSequence(limit=100, values=vals, source="synthetic")
        ang_ps = ps
        a = vals[ang_ps]
        from stseq.arith import AngleSeries

        ang = AngleSeries.from_a(ang_ps, a, limit=100)
        rep = check_assumptions(seq, ang, A=2.0, grid=64, checkpoints=[100])
        # a_2 = 0 so p = 2 never enters the empirical-C scan; C stays 0 for
        # the remaining unit values
        assert rep.parameters["empirical_C"] == 0.0

    @pytest.mark.parametrize("limit", [125, 343, 344, 2401, 2**11, 3**7])
    def test_exact_prime_powers_examined(self, limit):
        # 5^3, 7^3, 7^4, 2^11 and 3^7 are roots that a float root can round
        # below; truncate-zero makes every a_{p^k} with k >= 2 an exact zero
        for kind in RULE_KINDS:
            spec = SyntheticSpec(limit=limit, seed=7, rule=PrimePowerRule(kind=kind))
            angles, seq = build_synthetic_sequence(spec)
            rep = check_assumptions(seq, angles, A=2.0, grid=64)
            ps = [int(p) for p in angles.primes if seq.values[p] != 0.0]
            pks = [p**k for p in ps for k in range(1, limit.bit_length()) if p**k <= limit]
            assert rep.parameters["prime_powers_examined"] == len(pks)
            zeros = sum(1 for pk in pks if seq.values[pk] == 0.0)
            assert rep.parameters["zero_prime_power_values"] == zeros
            assert (zeros > 0) == (kind == "truncate-zero")

    def test_a_validation(self, synth_seq):
        ang = prime_values_of(synth_seq, 1000)
        with pytest.raises(ValueError):
            check_assumptions(synth_seq, ang, A=1.0, grid=64, checkpoints=[1000])

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_validation(self, synth_seq, grid):
        ang = prime_values_of(synth_seq, 1000)
        with pytest.raises(ValueError, match="grid must be >= 1"):
            check_assumptions(synth_seq, ang, A=2.0, grid=grid, checkpoints=[1000])

    def test_equals_full_array_oracle(self):
        # many |a_p| fall under (log_2 p)^-A below and above each first
        # checkpoint: at p = 2, below 1000 and at the prime limit itself
        limit = int(primes_up_to(20_000)[-1])
        seq = noise_sequence(limit)
        ps = primes_up_to(limit)
        seq.values[[2, 3, 997, limit]] = [0.5, 1e-3, -1e-3, 1e-3]
        angles = prime_values_of(seq, limit)
        for A in (1.5, 2.0, 4.0):
            tail_term = np.abs(angles.a) < np.array([log2_iter(int(p)) for p in ps]) ** (-A)
            assert tail_term[ps < 1000].any() and tail_term[ps == limit].all()
            for cps in (None, [limit], [3, 1000, limit]):
                got = check_assumptions(seq, angles, A, grid=128, checkpoints=cps)
                want = full_array_assumptions(seq, angles, A, grid=128, checkpoints=cps)
                assert got.canonical_bytes() == want.canonical_bytes()
                assert all(r["tail_sum"] > 0 for r in got.rows)

    def test_a2_tolerance_flag(self, synth_seq):
        ang = prime_values_of(synth_seq, 100_000)
        rep = check_assumptions(
            synth_seq, ang, A=2.0, grid=256, checkpoints=[100_000], a2_gap_tol=0.05
        )
        assert rep.flags and rep.flags[0]["passed"]


class TestStronglyMultiplicativeLogOracle:
    """The two-phase prime strikes equal the prime-slice oracle bit for bit."""

    @staticmethod
    def assert_same(seq, x):
        logh, alive = strongly_multiplicative_log(seq, x)
        want_logh, want_alive = slice_strongly_multiplicative_log(seq, x)
        assert logh.tobytes() == want_logh.tobytes()
        assert alive.tobytes() == want_alive.tobytes()

    def test_synthetic(self, synth_seq):
        for x in (1, 2, 3, 64, 65, 100_000):
            self.assert_same(synth_seq, x)

    def test_around_prime_squares(self, synth_seq, cm_seq):
        # at x = p^2 the prime p moves from the large-prime phase to the slices
        for p in (2, 3, 5, 7, 11, 13, 31, 97, 139):
            for seq in (synth_seq, cm_seq):
                for x in (p * p - 1, p * p, p * p + 1):
                    self.assert_same(seq, x)

    @pytest.mark.parametrize("block", [3, 5, 64])
    def test_small_blocks(self, monkeypatch, synth_seq, cm_seq, block):
        # blocks of n start at 1 + k * block; x = k * block ends one.  The
        # big-prime strikes walk blocks of the same size.
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", block)
        monkeypatch.setattr(arith_mod, "_PAIR_BLOCK", block)
        for seq in (synth_seq, cm_seq):
            for x in (block - 1, block, block + 1, 2 * block, 20 * block + 1, 5000):
                self.assert_same(seq, x)

    def test_tau(self):
        from stseq.tau import expand_delta, normalize_tau

        self.assert_same(normalize_tau(expand_delta(5000)), 5000)

    def test_elliptic_with_zero_traces(self):
        from stseq.elliptic import CurveSpec, ec_normalized_sequence, trace_series

        # y^2 = x^3 + 1 has complex multiplication: t_p = 0 at every p = 2 mod 3
        x = 20_000
        seq = ec_normalized_sequence(trace_series(CurveSpec(0, 1), x), x)
        ps = primes_up_to(x)
        assert np.count_nonzero(seq.values[ps] == 0.0) > 100
        self.assert_same(seq, x)
        _, alive = strongly_multiplicative_log(seq, x)
        assert not alive[5] and not alive[10] and alive[7]


class TestLemmaSumsBlocks:
    """Block-wise partial sums equal one cumsum over the whole range."""

    GAMMAS = [0.5, 1.0, 2.0]

    def check(self, seq, cps):
        rep = verify_lemma_sums(seq, self.GAMMAS, cps)
        for row in rep.rows:
            want = full_range_sums(seq, self.GAMMAS, row["x"])
            got = [row["sum_abs_over_n"], row["sum_sq"], row["sum_sq_over_n"]] + [
                row[f"sum_gamma_{g:g}"] for g in self.GAMMAS
            ]
            assert got == want
            assert row["sum_sq_over_n_per_logx"] == want[2] / math.log(row["x"])

    def test_checkpoints_around_block_edge(self):
        edge = 1 << 20  # first n of a block
        seq = noise_sequence(edge + 5000)
        self.check(seq, [3, edge - 2, edge - 1, edge, edge + 1, edge + 5000])

    def test_many_small_blocks(self, monkeypatch):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", 100)
        seq = noise_sequence(5000)
        # 128 starts a block at a power of two, 228 one at the entry cap
        self.check(seq, [99, 100, 101, 102, 127, 128, 227, 228, 1001, 4999, 5000])


class TestLemmaSumsOracle:
    """gamma = 2 copies sum_sq's column; every report equals the oracle's,
    which sums each series, byte for byte."""

    @pytest.mark.parametrize("gammas", [[2.0], [0.5, 1.0, 2.0], [2.0, 0.5], [1.5], [1, 2]])
    def test_equals_full_array(self, monkeypatch, gammas):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", 100)
        seq = noise_sequence(5000)
        for cps in ([5000], [3, 99, 128, 1001, 5000]):
            got = verify_lemma_sums(seq, gammas, cps, ratio_band=(0.1, 10.0))
            want = full_array_lemma_sums(seq, gammas, cps, ratio_band=(0.1, 10.0))
            assert got.canonical_bytes() == want.canonical_bytes()

    def test_square_power_is_square(self):
        # the column copy rests on numpy's a**2.0 being np.square(a) bit for bit
        a = np.abs(noise_sequence(100_000).values[1:])
        assert (a**2.0).tobytes() == np.square(a).tobytes()


class TestGapQuantiles:
    def test_one_call_equals_one_per_q(self):
        from stseq.verify import _gap_quantiles

        gaps = np.random.default_rng(2).normal(0.0, 1.0, 10_000)
        got = _gap_quantiles(gaps.copy())
        absg = np.abs(gaps)
        assert got == {f"gap_q{int(q * 100)}": float(np.quantile(absg, q))
                       for q in (0.5, 0.9, 0.99, 1.0)}


class TestThm1Blocks:
    """Block-wise thm1 counts equal the full-array cumsums, report for report."""

    @staticmethod
    def check(seq, cps):
        for eps, slack in ((0.25, None), (0.1, 0.01), (0.5, 0.0)):
            got = verify_thm1(seq, eps, cps, monotone_slack=slack)
            want = full_array_thm1(seq, eps, cps, monotone_slack=slack)
            assert got.rows == want.rows
            assert got.canonical_bytes() == want.canonical_bytes()

    def test_checkpoints_around_block_edge(self):
        edge = 1 << 20  # first n of a block
        seq = noise_sequence(edge + 5000)
        self.check(seq, [3, edge - 2, edge - 1, edge, edge + 1, edge + 5000])

    @pytest.mark.parametrize("block", [7, 100])
    def test_small_blocks(self, monkeypatch, block):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", block)
        seq = noise_sequence(5000)
        edge = 128 + block  # a block start the entry cap makes
        self.check(seq, [3, 4, 2 * block + 3, edge - 1, edge, edge + 1, 4999, 5000])


class TestThm3Oracle:
    """Reordered in-place thm3 equals the straight-line full-array oracle,
    report bytes and raised errors alike."""

    LIMIT = 20_000
    SUPPORTS = (SupportFilter("nonzero"), SupportFilter("floor-A", A=2.0),
                SupportFilter("floor-A", A=1.2))

    @staticmethod
    def outcome(fn, *args):
        try:
            return fn(*args).canonical_bytes()
        except ValueError as exc:
            return type(exc), exc.args

    @pytest.fixture(scope="class", params=[
        "synth-hecke", "synth-truncate", "ec-1,1", "ec-1,0", "ec0,1", "tau"])
    def seq(self, request):
        from stseq.elliptic import CurveSpec, ec_normalized_sequence, trace_series
        from stseq.tau import expand_delta, normalize_tau

        name, x = request.param, self.LIMIT
        if name.startswith("synth"):
            kind = "hecke-chebyshev" if name == "synth-hecke" else "truncate-zero"
            return build_synthetic_sequence(
                SyntheticSpec(limit=x, seed=7, rule=PrimePowerRule(kind=kind)))[1]
        if name == "tau":
            return normalize_tau(expand_delta(x))
        a4, a6 = map(int, name[2:].split(","))
        return ec_normalized_sequence(trace_series(CurveSpec(a4, a6), x), x)

    @pytest.mark.parametrize("block", [None, 100, 7])
    def test_equals_full_array(self, monkeypatch, seq, block):
        import stseq.arith as arith_mod
        import stseq.verify as verify_mod

        if block is not None:  # the packing, counts and moments cross many block edges
            monkeypatch.setattr(verify_mod, "THM3_BLOCK", block)
        if block == 100:  # so do the log strikes (at 7 their per-prime loop is slow)
            monkeypatch.setattr(arith_mod, "_BLOCK", block)
        x = seq.limit
        outcomes = set()
        for cut in (x, x // 3 + 1, 2, 10):
            for support in self.SUPPORTS:
                for standardization in STANDARDIZATIONS:
                    args = (seq, cut, support, standardization, 0.1, 1.0)
                    got = self.outcome(verify_thm3, *args)
                    assert got == self.outcome(full_array_thm3, *args)
                    outcomes.add(type(got))
        assert bytes in outcomes

    def test_zero_primes_exercised(self):
        # on y^2 = x^3 - x, a_p = 0 at every p = 3 mod 4 and at the bad prime
        # 2: the alive mask and floor-A strike, and x = 2 leaves one point
        from stseq.elliptic import CurveSpec, ec_normalized_sequence, trace_series

        x = self.LIMIT
        seq = ec_normalized_sequence(trace_series(CurveSpec(-1, 0), x), x)
        assert np.count_nonzero(seq.values[primes_up_to(x)] == 0.0) > 1000
        args = (seq, 2, SupportFilter("nonzero"), "self")
        err = (ValueError, ("degenerate standardization variance",))
        assert self.outcome(verify_thm3, *args) == self.outcome(full_array_thm3, *args) == err


THM3_X = (1 << 21) - 1


@pytest.fixture(scope="module")
def synth_thm3():
    return build_synthetic_sequence(SyntheticSpec(limit=THM3_X, seed=7))[1]


@pytest.mark.parametrize("mode, standardization",
                         [("nonzero", "self"), ("floor-A", "finite-size")])
def test_thm3_bytes_independent_of_workers(monkeypatch, synth_thm3, mode, standardization):
    """The moment leaves' thread count leaves every report byte as it is."""
    import stseq.stats as stats_mod

    reports = []
    for workers in (1, 4):
        monkeypatch.setattr(stats_mod, "_WORKERS", workers)
        rep = verify_thm3(synth_thm3, THM3_X, SupportFilter(mode), standardization)
        reports.append(rep.canonical_bytes())
    assert reports[0] == reports[1]


class TestThm3Memory:
    """Beside the sequence, thm3 holds one full-length float64 array and a
    few bytes per entry of masks."""

    X = THM3_X
    # the primes listed to x, their values and logs (155,611 each at 2^21),
    # one block's temporaries and the KS scan's hit blocks
    SLACK = 8 << 20

    @pytest.fixture
    def seq(self, synth_thm3):
        return synth_thm3

    @pytest.mark.parametrize("mode, standardization",
                             [("nonzero", "self"), ("floor-A", "finite-size")])
    def test_traced_peak(self, monkeypatch, seq, mode, standardization):
        import stseq.arith as arith_mod

        monkeypatch.setattr(arith_mod, "_BLOCK", 1 << 14)
        n = self.X + 1
        rep, peak = traced_peak(
            lambda: verify_thm3(seq, self.X, SupportFilter(mode), standardization))
        assert rep.flags[0]["passed"]
        assert peak <= 8 * n + 4 * n + self.SLACK

    def test_leaves_no_array_behind(self, seq):
        # a reference cycle would keep a full-length array alive past the
        # call until the collector ran, so the collector is off here
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rep = verify_thm3(seq, self.X, SupportFilter("nonzero"), "self")
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            gc.enable()
        assert rep.flags[0]["passed"]
        assert left < 1 << 20


class TestThm3MemoryFourWorkers(TestThm3Memory):
    """The same bounds with the moment leaves on four threads."""

    @pytest.fixture(autouse=True)
    def four_workers(self, monkeypatch):
        import stseq.stats as stats_mod

        monkeypatch.setattr(stats_mod, "_WORKERS", 4)


class TestPrimeFreeMask:
    """The floor-A mask strikes exactly what the per-prime loop strikes."""

    @pytest.mark.parametrize("A", [1.5, 2.0, 4.0])
    def test_noise_sequence(self, A):
        seq = noise_sequence(20_000)
        for x in (2, 3, 100, 20_000):
            got = SupportFilter("floor-A", A=A).mask(seq, x)
            assert got.tobytes() == loop_floor_mask(seq, x, A).tobytes()
        ps = primes_up_to(20_000)
        assert np.count_nonzero(np.abs(seq.values[ps]) <= SupportFilter("floor-A").floor(20_000)) > 50

    def test_cm_curve(self, cm_seq):
        x = cm_seq.limit
        got = SupportFilter("floor-A", A=2.0).mask(cm_seq, x)
        assert got.tobytes() == loop_floor_mask(cm_seq, x, 2.0).tobytes()
        assert not got[5] and not got[10] and got[7]

    def test_edges(self):
        empty = np.empty(0, dtype=np.int64)
        assert prime_free_mask(empty, 0).tolist() == [False]
        assert prime_free_mask(empty, 1).tolist() == [False, True]
        assert prime_free_mask(np.array([2, 7]), 14).tolist() == [
            False, True, False, True, False, True, False, False,
            False, True, False, True, False, True, False]
