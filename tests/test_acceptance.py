"""End-to-end acceptance criteria at desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.  Two sub-checks assert stated targets that are provably
inconsistent with the rest of the constant system (the full-range integral
of |cos| sin^2 equals 2/3, not 1/3, since h(1) = (4/pi) * I = 0.848826, and
the skewness of log|a_n| converges like -2.053/(1.072^1.5 sqrt(log_2 x)),
which is about -1.1 at x = 10^6); they are marked xfail(strict=True) so
they run, fail for the documented reason, and would flag loudly if the
mathematics ever "changed".

Regression pins were frozen from the first run with the package default
seed (7) and are asserted to 1e-9 relative or better thereafter.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import stseq
from stseq import (
    CurveSpec,
    StRngStream,
    SyntheticSpec,
    build_synthetic_sequence,
    expand_delta,
    h_gamma,
    integrity_check,
    kappa_partial,
    ks_statistic,
    normalize_tau,
    prime_log_moments,
    primes_up_to,
    sample_st_angles,
    st_cdf,
    st_log_moments,
    tau_angles,
    tau_naive_oracle,
    trace_at_prime,
    trace_series,
)
from stseq.stats import cos_moment_integrals, half_band_density, log2_iter
from stseq.tau import ExactTauTable
from stseq.verify import SupportFilter, verify_thm1, verify_thm2, verify_thm3, \
    verify_hall_tenenbaum, verify_lemma_sums

from conftest import enum_trace

pytestmark = pytest.mark.acceptance

DEFAULT_SEED = 7
MILLIONTH_PRIME = 15_485_863

# Regression pins, frozen from the first run (default seed, see module docstring).
PIN_C4_KS = 0.0010140677546828791
PIN_C4_RATE = 0.49943763322498869
PIN_C5_RATIO_1E6 = 4.726123376814653e-06
PIN_C6_FRACTIONS = [0.4518390367807356, 0.44784389568779137, 0.44368968873793774]
PIN_C7_KS = 0.05710689899263838
PIN_C7_SKEW = -0.8103982082917384


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# Shared heavy artifacts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tau_million():
    t0 = time.perf_counter()
    table = expand_delta(10**6)
    elapsed = time.perf_counter() - t0
    return table, elapsed


@pytest.fixture(scope="module")
def synth_million():
    return build_synthetic_sequence(SyntheticSpec(limit=10**6, seed=DEFAULT_SEED))


class TestCriterion1ExactTau:
    def test_exact_tau(self, tau_million):
        table, elapsed = tau_million
        oracle = tau_naive_oracle(2000)
        agree = table.taus[1:2001] == oracle.taus[1:]
        in_time = elapsed <= 300.0
        sub = ExactTauTable(limit=10**5, limbs=table.limbs[: 10**5 + 1])
        rep = integrity_check(sub)
        counts = rep.rows[0]
        clean = rep.passed
        ok = agree and in_time and clean
        announce(
            1,
            ok,
            f"expand=oracle@2000: {agree}; expand(1e6) in {elapsed:.1f}s (<=300); "
            f"integrity@1e5 failures "
            f"mult={counts['multiplicativity_failures']} "
            f"divbound={counts['divisor_bound_failures']} "
            f"mod691={counts['mod691_failures']}",
        )
        assert agree, "fast expansion disagrees with the dense oracle at 2000"
        assert in_time, f"expand_delta(1e6) took {elapsed:.1f}s > 300s"
        assert clean, f"integrity failures: {counts}"


class TestCriterion2Constants:
    def test_constants_by_quadrature(self):
        h2 = h_gamma(2.0)
        h1 = h_gamma(1.0)
        m1, m2 = st_log_moments()
        signed, _ = cos_moment_integrals()
        hd = half_band_density()
        checks = {
            "h(2)=1 (1e-9)": abs(h2 - 1.0) <= 1e-9,
            "h(1)=0.848826 (1e-6)": abs(h1 - 0.848826) <= 1e-6,
            "m1=-1/2 (1e-8)": abs(m1 + 0.5) <= 1e-8,
            "m2=1/2+pi^2/12 (1e-8)": abs(m2 - (0.5 + math.pi**2 / 12)) <= 1e-8,
            "signed cos integral=0 (1e-9)": abs(signed) <= 1e-9,
            "half-density closed form (1e-9)": abs(hd - (2 / 3 - math.sqrt(3) / (2 * math.pi)))
            <= 1e-9,
            "half-density > 0.39": hd > 0.39,
        }
        ok = all(checks.values())
        announce(2, ok, "; ".join(f"{k}: {'ok' if v else 'BAD'}" for k, v in checks.items()))
        assert ok, checks

    @pytest.mark.xfail(
        strict=True,
        reason="stated target: int_0^pi |cos t| sin^2 t dt = 1/3; but h(1) = (4/pi) * I "
        "= 0.848826 forces I = 2/3 (quadrature agrees to 1e-12), so 1/3 cannot hold",
    )
    def test_abs_cos_integral_as_stated(self):
        _, absolute = cos_moment_integrals()
        announce(2, False, f"abs cos integral as stated (1/3): observed {absolute:.9f} "
                           "- expected failure, see test reason")
        assert abs(absolute - 1.0 / 3.0) <= 1e-9


class TestCriterion3TauSatoTate:
    def test_tau_angle_panel(self, tau_million):
        table, _ = tau_million
        ang = tau_angles(table)
        u = np.abs(ang.a)
        mean_abs2 = float(np.mean(u))
        mean_signed = float(np.mean(ang.a))
        mean_sq = float(np.mean(ang.a**2))
        frac_half = float(np.mean(u / 2.0 >= 0.5))
        ks = ks_statistic(ang.theta, st_cdf)
        zero_prime_values = int(np.count_nonzero(ang.a == 0.0))
        checks = {
            "no vanishing tau(p) below 1e6 (full support)": zero_prime_values == 0,
            "mean 2|cos| = 0.8488 +- 0.01": abs(mean_abs2 - 0.8488) <= 0.01,
            "mean 2cos in [-0.02, 0.02]": abs(mean_signed) <= 0.02,
            "mean (2cos)^2 = 1 +- 0.02": abs(mean_sq - 1.0) <= 0.02,
            "frac |cos|>=1/2 = 0.391 +- 0.01": abs(frac_half - 0.391) <= 0.01,
            "KS <= 0.02": ks <= 0.02,
        }
        ok = all(checks.values())
        announce(
            3,
            ok,
            f"mean2|cos|={mean_abs2:.5f} mean2cos={mean_signed:+.5f} "
            f"mean(2cos)^2={mean_sq:.5f} frac={frac_half:.5f} KS={ks:.5f}",
        )
        assert ok, checks

    @pytest.mark.xfail(
        strict=True,
        reason="stated target: mean |cos theta_p| = 1/3 +- 0.01; the law's own mean is "
        "(2/pi) * (2/3) = 4/(3 pi) = 0.4244, and the same clause pins mean 2|cos| at "
        "0.8488 whose half is 0.4244, so 1/3 is internally inconsistent",
    )
    def test_mean_abs_cos_as_stated(self, tau_million):
        table, _ = tau_million
        ang = tau_angles(table)
        observed = float(np.mean(np.abs(ang.a) / 2.0))
        announce(3, False, f"mean |cos| as stated (1/3 +- 0.01): observed {observed:.5f} "
                           "- expected failure, see test reason")
        assert abs(observed - 1.0 / 3.0) <= 0.01


class TestCriterion4Sampler:
    def test_million_draws(self):
        ps = primes_up_to(MILLIONTH_PRIME)
        assert len(ps) == 10**6
        theta, acc, prop = sample_st_angles(StRngStream(DEFAULT_SEED), ps)
        ks = ks_statistic(theta, st_cdf)
        rate = acc / prop

        def chunked(n_chunks):
            bounds = np.linspace(0, len(ps), n_chunks + 1).astype(int)
            parts = [ps[a:b] for a, b in zip(bounds, bounds[1:])]
            with ThreadPoolExecutor(max_workers=n_chunks) as pool:
                out = list(pool.map(
                    lambda chunk: sample_st_angles(StRngStream(DEFAULT_SEED), chunk)[0], parts
                ))
            return np.concatenate(out)

        t1 = chunked(1)
        t4 = chunked(4)
        t8 = chunked(8)
        identical = (
            np.array_equal(theta, t1) and np.array_equal(t1, t4) and np.array_equal(t4, t8)
        )
        checks = {
            "KS <= 0.003": ks <= 0.003,
            "acceptance 0.5 +- 0.002": abs(rate - 0.5) <= 0.002,
            "bit-identical across 1/4/8 threads": identical,
            "KS regression pin": abs(ks - PIN_C4_KS) <= 1e-12,
            "rate regression pin": abs(rate - PIN_C4_RATE) <= 1e-12,
        }
        ok = all(checks.values())
        announce(4, ok, f"KS={ks:.6f} rate={rate:.6f} identical={identical}")
        assert ok, checks


class TestCriterion5CancellationTau:
    def test_thm2_tau(self, tau_million):
        table, _ = tau_million
        seq = normalize_tau(table)
        rep = verify_thm2(seq, [10**5, 10**6], ratio_tol=0.01)
        last = rep.rows[-1]
        triangle = all(abs(r["S"]) <= r["T"] for r in rep.rows)
        checks = {
            "|S|/T at 1e6 <= 0.01": last["ratio"] <= 0.01,
            "|S| <= T at every checkpoint": triangle,
            "flags pass": rep.passed,
            "ratio regression pin": abs(last["ratio"] - PIN_C5_RATIO_1E6) <= 1e-9,
        }
        ok = all(checks.values())
        announce(5, ok, f"ratio@1e6={last['ratio']:.3e} S={last['S']:+.6f} T={last['T']:.1f}")
        assert ok, checks


class TestCriterion6TypicalSizeSynthetic:
    def test_thm1_to_ten_million(self):
        _, seq = build_synthetic_sequence(SyntheticSpec(limit=10**7, seed=DEFAULT_SEED))
        rep = verify_thm1(seq, 0.25, [10**5, 10**6, 10**7], monotone_slack=0.005)
        fracs = [r["exceed_fraction"] for r in rep.rows]
        nonincreasing = rep.passed
        pinned = all(abs(f - p) <= 1e-9 for f, p in zip(fracs, PIN_C6_FRACTIONS))
        ok = nonincreasing and pinned
        announce(
            6,
            ok,
            f"exceedance fractions {[f'{f:.6f}' for f in fracs]} "
            f"nonincreasing(+0.005)={nonincreasing} pinned={pinned}",
        )
        assert ok


class TestCriterion7CltSynthetic:
    def test_thm3_attainable_parts(self, synth_million):
        angles, seq = synth_million
        rep = verify_thm3(seq, 10**6, SupportFilter("nonzero"), "self", ks_tol=0.15)
        row = rep.rows[0]
        mom = prime_log_moments(angles, 10**6, 0.0)
        L2 = log2_iter(10**6)
        mu_ratio = mom.mu / L2
        s2_ratio = mom.sigma2 / L2
        checks = {
            "additive identity rel err <= 1e-6": row["identity_rel_err"] <= 1e-6,
            "self-standardized KS <= 0.15": row["ks_vs_normal"] <= 0.15,
            "mu/log2x in -0.5 +- 0.15": abs(mu_ratio + 0.5) <= 0.15,
            "sigma2/log2x in 1.322 +- 0.35": abs(s2_ratio - 1.322) <= 0.35,
            "KS regression pin": abs(row["ks_vs_normal"] - PIN_C7_KS) <= 1e-9,
            "skew regression pin": abs(row["skewness"] - PIN_C7_SKEW) <= 1e-9,
        }
        ok = all(checks.values())
        announce(
            7,
            ok,
            f"identity={row['identity_rel_err']:.2e} KS={row['ks_vs_normal']:.4f} "
            f"mu/L2={mu_ratio:+.4f} s2/L2={s2_ratio:.4f} "
            f"(skew={row['skewness']:+.3f}, band checked separately)",
        )
        assert ok, checks

    @pytest.mark.xfail(
        strict=True,
        reason="stated target: |skewness| <= 0.5 at x = 1e6; the summand log(2|cos t|) has "
        "centered moments c2 = 1.0725, c3 = -2.0531, so the statistic's skewness is about "
        "c3/(c2^1.5 sqrt(log_2 x)) = -1.14 at this scale and |skew| <= 0.5 would need "
        "log_2 x >= 13.7, i.e. x beyond 10^300000; 24 seeds all land in [-1.8, -0.74]",
    )
    def test_skewness_as_stated(self, synth_million):
        _, seq = synth_million
        rep = verify_thm3(seq, 10**6, SupportFilter("nonzero"), "self", skew_tol=0.5)
        skew = rep.rows[0]["skewness"]
        announce(7, False, f"|skewness| as stated (<=0.5): observed {skew:+.4f} "
                           "- expected failure, see test reason")
        assert abs(skew) <= 0.5


class TestCriterion8Elliptic:
    def test_trace_oracle_and_hasse(self):
        assert trace_at_prime(CurveSpec(1, 1), 5) == -3 == enum_trace(1, 1, 5)
        series = trace_series(CurveSpec(-1, 1), 10**5)
        g = series.good
        hasse = bool(np.all(series.t[g] ** 2 <= 4 * series.primes[g]))

        cm = trace_series(CurveSpec(0, 1), 10**5)
        good_two_mod_three = (cm.primes % 3 == 2) & cm.good
        cm_zero = bool(np.all(cm.t[good_two_mod_three] == 0))

        kap = kappa_partial(cm, 20)
        expected = (1 / 2) * (2 / 3) * (4 / 5) * (10 / 11) * (16 / 17)
        kappa_ok = abs(kap.value - expected) <= 1e-12
        checks = {
            "trace(1,1,5) = -3": True,
            "Hasse for all good p <= 1e5": hasse,
            "t_p = 0 for good p = 2 mod 3 (x^3+1)": cm_zero,
            "kappa(20) = 128/561 +- 1e-12": kappa_ok,
        }
        ok = all(checks.values())
        announce(
            8,
            ok,
            f"hasse={hasse} cm_zeros={cm_zero} kappa={kap.value:.12f} "
            f"zero_primes={kap.zero_primes}",
        )
        assert ok, checks


class TestCriterion9LemmaSuite:
    def test_hall_tenenbaum_and_sums(self, tau_million):
        table, _ = tau_million
        seq = normalize_tau(table)
        x = 10**5
        rep_ones = verify_hall_tenenbaum(np.ones(x + 1), x, label="ones")
        f2 = np.abs(seq.values[: x + 1]) ** 2
        f2[0] = 0.0
        rep_sq = verify_hall_tenenbaum(f2, x, label="tau-abs-squared")
        rep_sums = verify_lemma_sums(seq, [0.5, 1.0, 2.0], [10**5, 10**6],
                                     ratio_band=(0.1, 10.0))
        band_val = rep_sums.rows[-1]["sum_sq_over_n_per_logx"]
        checks = {
            "bound holds for f=1": rep_ones.passed,
            "bound holds for f=|a_n|^2": rep_sq.passed,
            "sum|a|^2/n / log x in [0.1, 10]": rep_sums.passed,
        }
        ok = all(checks.values())
        announce(
            9,
            ok,
            f"HT(1) ratio={rep_ones.rows[0]['ratio']:.3f} "
            f"HT(|a|^2) ratio={rep_sq.rows[0]['ratio']:.3f} band value={band_val:.4f}",
        )
        assert ok, checks


class TestCriterion10Determinism:
    def test_reports_byte_identical(self, tau_million):
        table, _ = tau_million
        seq = normalize_tau(table)
        r1 = verify_thm2(seq, [10**5, 10**6])
        r2 = verify_thm2(seq, [10**5, 10**6])
        thm2_stable = r1.canonical_bytes() == r2.canonical_bytes() and r1.to_csv() == r2.to_csv()

        spec = SyntheticSpec(limit=10**5, seed=DEFAULT_SEED)
        _, s1 = build_synthetic_sequence(spec)
        _, s2 = build_synthetic_sequence(spec)
        a1 = verify_thm1(s1, 0.25, [10**4, 10**5], monotone_slack=0.005)
        a2 = verify_thm1(s2, 0.25, [10**4, 10**5], monotone_slack=0.005)
        thm1_stable = a1.canonical_bytes() == a2.canonical_bytes()
        seq_stable = np.array_equal(s1.values[1:], s2.values[1:])

        ps = primes_up_to(10**5)
        base = sample_st_angles(StRngStream(DEFAULT_SEED), ps)[0]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parts = list(pool.map(
                lambda chunk: sample_st_angles(StRngStream(DEFAULT_SEED), chunk)[0],
                np.array_split(ps, 4),
            ))
        threaded_stable = np.array_equal(base, np.concatenate(parts))

        ok = thm2_stable and thm1_stable and seq_stable and threaded_stable
        announce(
            10,
            ok,
            f"thm2 canonical+csv stable={thm2_stable}; thm1 stable={thm1_stable}; "
            f"sequence rebuild stable={seq_stable}; threaded sampler stable={threaded_stable}",
        )
        assert ok
