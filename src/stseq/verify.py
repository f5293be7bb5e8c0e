"""Executable verifiers for the distributional claims about sequence members.

Each verifier is a pure fold over a NormalizedSequence (plus the primes up
to its cutoff) and emits a VerificationReport whose flags, each made by
`report.flag`, are reproducible from the rows and the declared tolerances.
The asymptotic statements cannot fix desk-scale targets by themselves, so
flags are opt-in where a tolerance is not intrinsic; callers (CLI,
acceptance suite) pass the bands they commit to.

Supports two notions of support for the size statistics:

  nonzero   {n <= x : a_n != 0}
  floor-A   nonzero n whose every prime factor p has |a_p| > (log_2 x)^-A
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import (
    AngleSeries,
    NormalizedSequence,
    blocks,
    dyadic_blocks,
    primes_up_to,
)
from .errors import DataCorruptionError
from .report import VerificationReport, flag
from .stats import (
    ks_sorted,
    log1,
    log2_iter,
    log3_iter,
    normal_cdf,
    pairwise_sums,
    prime_log_moments,
    st_cdf,
)

STANDARDIZATIONS = ("asymptotic", "finite-size", "self")
SUPPORT_MODES = ("nonzero", "floor-A")
CLT_C = 0.5 + math.pi**2 / 12.0
# thm3's additive identity holds exactly; this relative error absorbs rounding
IDENTITY_RTOL = 1e-6
# entries per block of thm3's packing, counting and moment passes
THM3_BLOCK = 1 << 16


def validate_checkpoints(checkpoints: list[int], limit: int) -> list[int]:
    cps = [int(x) for x in checkpoints]
    if not cps:
        raise ValueError("need at least one checkpoint")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[-1] > limit:
        raise ValueError(f"checkpoint {cps[-1]} beyond sequence limit {limit}")
    if cps[0] < 3:
        raise ValueError("checkpoints must be >= 3")
    return cps


@dataclass
class SupportFilter:
    """Which n enter the size statistics; see module docstring."""

    mode: str = "nonzero"
    A: float = 2.0

    def __post_init__(self):
        if self.mode not in SUPPORT_MODES:
            raise ValueError(f"unknown support mode {self.mode!r}")
        if self.mode == "floor-A" and not self.A > 1:
            raise ValueError("floor-A needs A > 1")

    def floor(self, x: int) -> float:
        if self.mode == "floor-A":
            return log2_iter(x) ** (-self.A)
        return 0.0

    def mask(self, seq: NormalizedSequence, x: int) -> np.ndarray:
        """Boolean include-mask over indices 0..x (0 always False)."""
        m = np.zeros(x + 1, dtype=bool)
        m[1:] = seq.values[1 : x + 1] != 0.0
        if self.mode == "floor-A":
            ps = primes_up_to(x)
            m &= prime_free_mask(ps[np.abs(seq.values[ps]) <= self.floor(x)], x)
        return m


def prime_free_mask(primes: np.ndarray, x: int) -> np.ndarray:
    """Boolean mask over 0..x of the n divisible by none of `primes` (0 False)."""
    m = np.ones(x + 1, dtype=bool)
    m[0] = False
    for p in primes.tolist():
        m[p::p] = False
    return m


def prime_values_of(seq: NormalizedSequence, x: int) -> AngleSeries:
    """Angle records read off the sequence's own prime entries."""
    x = min(x, seq.limit)
    return _prime_angles(seq, primes_up_to(x), x)


def _prime_angles(seq: NormalizedSequence, ps: np.ndarray, x: int) -> AngleSeries:
    """prime_values_of for the primes ps <= x already listed by the caller.

    a_p is clipped to [-2, 2] only within AngleSeries' rounding band; a value
    past it, or a NaN, raises DataCorruptionError."""
    a = seq.values[ps]
    if a.size and not max(a.max(), -a.min()) <= 2.0 + 1e-12:
        p = int(ps[np.argmax(np.abs(a))])
        raise DataCorruptionError(f"|a_p| <= 2 violated at p = {p}: a_p = {float(seq.values[p])}")
    np.clip(a, -2.0, 2.0, out=a)
    return AngleSeries.from_a(ps, a, source=seq.source, limit=x)


def _running_sums_at(cps: list[int], first: int, terms) -> dict[int, list]:
    """Running sums from n = first of each series, read at each checkpoint
    x (first <= n <= x), one numpy scalar per series in series order.

    terms(start, stop) yields the summands over [start, stop) of each
    series in turn, in the dtype the sum is kept in.  Block by block: the
    carried total goes into the block's first term before its cumsum.
    np.cumsum adds in sequence, so every value is the same number as a
    cumsum over the whole range.
    """
    carry: dict[int, object] = {}
    out: dict[int, list] = {x: [] for x in cps}
    for start, stop in dyadic_blocks(first, cps[-1] + 1):
        here = [x for x in cps if start <= x < stop]
        for k, t in enumerate(terms(start, stop)):
            t[0] += carry.get(k, 0)
            np.cumsum(t, out=t)
            carry[k] = t[-1]
            for x in here:
                out[x].append(t[x - start])
    return out


# ---------------------------------------------------------------------------
# thm1: typical size of |a_n|
# ---------------------------------------------------------------------------


def verify_thm1(
    seq: NormalizedSequence,
    eps: float,
    checkpoints: list[int],
    monotone_slack: float | None = None,
) -> VerificationReport:
    """Exceedance fractions against the (log n)^(-1/2 +- eps) thresholds.

    Per checkpoint x: fraction of 3 <= n <= x with |a_n| > (log n)^(-1/2+eps)
    and the complementary fraction below (log n)^(-1/2-eps).  For n >= 3 the
    upper threshold increases with eps, so exceedance fractions shrink as
    eps grows; with `monotone_slack` set, consecutive checkpoints are
    additionally flagged for frac(x_{i+1}) <= frac(x_i) + slack.
    """
    t0 = time.perf_counter()
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    cps = validate_checkpoints(checkpoints, seq.limit)

    # both counts over 3 <= n <= x, as count_nonzero per block plus the
    # counts carried from the blocks before it
    counts: dict[int, tuple[int, int]] = {}
    exceed = below = 0
    for start, stop in dyadic_blocks(3, cps[-1] + 1):
        ln = np.log(np.arange(start, stop, dtype=np.float64))
        a = np.abs(seq.values[start:stop])
        over = a > ln ** (-0.5 + eps)
        under = a < ln ** (-0.5 - eps)
        for x in cps:
            if start <= x < stop:
                counts[x] = (exceed + int(np.count_nonzero(over[: x - start + 1])),
                             below + int(np.count_nonzero(under[: x - start + 1])))
        exceed += int(np.count_nonzero(over))
        below += int(np.count_nonzero(under))
    rows = []
    for x in cps:
        exceed, below = counts[x]
        rows.append(
            {
                "x": x,
                "exceed_fraction": float(exceed / (x - 2)),
                "below_fraction": float(below / (x - 2)),
            }
        )
    flags = []
    if monotone_slack is not None:
        for prev, cur in zip(rows, rows[1:]):
            flags.append(flag(
                f"nonincreasing_{prev['x']}_to_{cur['x']}",
                cur["exceed_fraction"] <= prev["exceed_fraction"] + monotone_slack,
                cur["exceed_fraction"] - prev["exceed_fraction"],
                f"<= +{monotone_slack}",
            ))
    return VerificationReport(
        name="thm1-typical-size",
        parameters={"eps": eps, "source": seq.source, "checkpoints": cps},
        rows=rows,
        flags=flags,
        runtime=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# thm2: cancellation in dyadic windows
# ---------------------------------------------------------------------------


def smoothness_cutoff(x: int) -> float:
    """y = exp(4 log x log_3 x / log_2 x), the window smoothness diagnostic."""
    return math.exp(4.0 * log1(x) * log3_iter(x) / log2_iter(x))


def verify_thm2(
    seq: NormalizedSequence,
    checkpoints: list[int],
    ratio_tol: float | None = None,
) -> VerificationReport:
    """Window sums S = sum a_n and T = sum |a_n| over (x/2, x].

    Reports |S|/T per checkpoint plus the fraction of window integers whose
    largest prime factor is below the smoothness cutoff y(x).  That fraction
    is 1 with no sieve: each log_k is floored at 1, so log_3 x >= 1 and
    y(x) >= x^(4 / log_2 x) > x whenever log log x < 4 (x < 5e23, far past
    any sequence held in memory), and every n <= x has P(n) <= n < y(x).
    |S| <= T is a hard check that raises DataCorruptionError; the
    cancellation ratio becomes a flag only when a tolerance is supplied
    (applied at the last checkpoint).
    """
    t0 = time.perf_counter()
    cps = validate_checkpoints(checkpoints, seq.limit)
    rows = []
    for x in cps:
        lo = x // 2 + 1
        window = seq.values[lo : x + 1]
        S = float(np.sum(window))
        T = float(np.sum(np.abs(window)))
        if not abs(S) <= T + 1e-9 * (1.0 + T):
            raise DataCorruptionError("triangle inequality |S| <= T violated")
        rows.append(
            {
                "x": x,
                "S": S,
                "T": T,
                "ratio": (abs(S) / T) if T > 0 else 0.0,
                "support_empty": int(T == 0.0),
                "y_smooth": smoothness_cutoff(x),
                "smooth_fraction": 1.0,
            }
        )
    flags = [flag("triangle_inequality", True, max(r["ratio"] for r in rows),
                  "|S| <= T (hard assertion)")]
    if ratio_tol is not None:
        last = rows[-1]
        flags.append(flag(
            f"cancellation_ratio_at_{last['x']}",
            last["ratio"] <= ratio_tol and not last["support_empty"],
            last["ratio"],
            f"<= {ratio_tol}",
        ))
    return VerificationReport(
        name="thm2-cancellation",
        parameters={"source": seq.source, "checkpoints": cps},
        rows=rows,
        flags=flags,
        runtime=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# thm3: normality of log |a_n|
# ---------------------------------------------------------------------------


def _gap_quantiles(gaps: np.ndarray) -> dict:
    """The gap_q50/q90/q99/q100 quantiles of |gaps|, taken in place: `gaps`
    is overwritten and sorted.  Quantiles read order statistics alone, and
    numpy's sort is faster than its partition at four kth at once."""
    qs = (0.5, 0.9, 0.99, 1.0)
    if gaps.size == 0:
        return {f"gap_q{int(q * 100)}": 0.0 for q in qs}
    np.abs(gaps, out=gaps)
    gaps.sort()
    vals = np.quantile(gaps, list(qs), overwrite_input=True)
    return {f"gap_q{int(q * 100)}": float(v) for q, v in zip(qs, vals)}


def strongly_multiplicative_log(
    seq: NormalizedSequence, x: int
) -> tuple[np.ndarray, np.ndarray]:
    """log|h(n)| for n <= x by ascending prime strikes.

    Returns (logh, alive) where alive marks n free of zero prime values
    (h(n) != 0).  logh[n] is the sum of log|a_p| over the distinct primes
    p | n with a_p != 0, added smallest first: each such prime adds its log
    to all its multiples, in ascending order.  The primes p <= sqrt(x)
    strike one slice each per block of n (`arith.blocks`), ascending within
    the block.  Every multiple j * p <= x of a larger prime p has
    j < sqrt(x), so p is its largest prime factor and comes last either
    way: those primes strike together, one gather-add per multiplier j.
    """
    return _strongly_multiplicative_log(seq, primes_up_to(x), x)


def _strongly_multiplicative_log(
    seq: NormalizedSequence, ps: np.ndarray, x: int
) -> tuple[np.ndarray, np.ndarray]:
    """strongly_multiplicative_log over ps, the primes up to x."""
    logh = np.zeros(x + 1, dtype=np.float64)
    a = np.abs(seq.values[ps])
    nz = a != 0.0
    live = ps[nz]
    logs = np.fromiter(map(math.log, a[nz].tolist()), np.float64)
    root = math.isqrt(x)
    small = int(np.searchsorted(live, root, side="right"))
    strikes = list(zip(live[:small].tolist(), logs[:small].tolist()))
    for lo, hi in blocks(1, x + 1):  # ascending p within each block of n
        for p, lp in strikes:
            logh[-(-lo // p) * p : hi : p] += lp
    big, lbig = live[small:], logs[small:]
    for j in range(1, x // (root + 1) + 1):
        k = int(np.searchsorted(big, x // j, side="right"))
        logh[j * big[:k]] += lbig[:k]
    return logh, prime_free_mask(ps[~nz], x)


def verify_thm3(
    seq: NormalizedSequence,
    x: int,
    support: SupportFilter | None = None,
    standardization: str = "self",
    ks_tol: float | None = None,
    skew_tol: float | None = None,
) -> VerificationReport:
    """Normality of standardized log |a_n| over the filtered support.

    Standardization modes:
      asymptotic   mu = -1/2 log_2 x, sigma^2 = (1/2 + pi^2/12) log_2 x
      finite-size  Mertens-weighted prime log moments at the filter floor
      self         sample mean and variance

    Also checks the exact additive identity
    sum_{n<=x} log|h(n)| = sum_p log|h(p)| * floor(x/p) for the strongly
    multiplicative companion (multiples counted inside the support when
    zero prime values exist), and tabulates the |c(n)| gap profile.
    """
    t0 = time.perf_counter()
    if standardization not in STANDARDIZATIONS:
        raise ValueError(f"unknown standardization {standardization!r}")
    if x < 1:
        raise ValueError(f"thm3 needs x >= 1, got x = {x}")
    if x > seq.limit:
        raise ValueError(f"cutoff {x} beyond sequence limit {seq.limit}")
    support = support or SupportFilter()
    mask = support.mask(seq, x)
    n_support = int(np.count_nonzero(mask))
    if n_support == 0:
        raise ValueError("filtered support is empty")
    ps = primes_up_to(x)
    # Beside seq.values one full-length float64 array lives at a time: logh,
    # then log_abs.  The passes around them walk blocks of THM3_BLOCK
    # entries, and every sum is numpy's own over the same values in the same
    # order, so every value is the same float as a straight-line evaluation.

    # additive identity over the zero-free part of [1, x]: the alive logs are
    # packed into the front of logh block by block (the k-th alive n has
    # n > k, so no write reaches an entry a later block still reads)
    logh, alive = _strongly_multiplicative_log(seq, ps, x)
    n_alive = 0
    for lo, hi in blocks(1, x + 1, THM3_BLOCK):
        kept = logh[lo:hi][alive[lo:hi]]
        logh[n_alive : n_alive + kept.size] = kept
        n_alive += kept.size
    lhs = float(np.sum(logh[:n_alive]))
    ap = seq.values[ps]
    nz = ap != 0.0
    # for a_p != 0, p * m is alive exactly when m is: count the alive m <= q
    # for q = x // p from a running count over blocks; q falls as p grows, so
    # the queries inside a block are one run of the reversed q
    q = (x // ps[nz])[::-1]
    counts = np.empty_like(q)
    carry = 0
    for lo, hi in blocks(0, x // 2 + 1, THM3_BLOCK):
        i, j = np.searchsorted(q, [lo, hi])
        running = np.cumsum(alive[lo:hi], dtype=np.int64)
        running += carry
        counts[i:j] = running[q[i:j] - lo]
        carry = int(running[-1])
    rhs = float(np.sum(np.log(np.abs(ap[nz])) * counts[::-1]))
    rel_err = abs(lhs - rhs) / max(1.0, abs(lhs))
    del ap, nz, q, counts  # pi(x) entries each, alive through the gaps otherwise

    # gaps c(n) = log|h(n)| - log|a_n| to the strongly multiplicative
    # companion h (h(p^k) = a_p), zero on squarefree n, over the alive n of
    # the support: read off the packed logs and packed again into the front
    # of logh (the k-th gap comes from the k-th alive n or a later one)
    n_gaps = n_alive = 0
    for lo, hi in blocks(1, x + 1, THM3_BLOCK):
        live = alive[lo:hi]
        n_live = int(np.count_nonzero(live))
        gaps = logh[n_alive : n_alive + n_live][mask[lo:hi][live]]
        n_alive += n_live
        gaps -= np.log(np.abs(seq.values[lo:hi][live & mask[lo:hi]]))
        logh[n_gaps : n_gaps + gaps.size] = gaps
        n_gaps += gaps.size
    del alive, live, gaps
    gap_row = _gap_quantiles(logh[:n_gaps])
    del logh

    L2 = log2_iter(x)
    if standardization == "asymptotic":
        mu, sigma2 = -0.5 * L2, CLT_C * L2
    elif standardization == "finite-size":
        moments = prime_log_moments(_prime_angles(seq, ps, x), x, support.floor(x))
        mu, sigma2 = moments.mu, moments.sigma2
    del ps

    log_abs = seq.values[: x + 1][mask]
    del mask
    np.abs(log_abs, out=log_abs)
    np.log(log_abs, out=log_abs)
    # the second to fourth central moments in one pairwise walk; in self
    # mode m2 is np.var's value: its mean, then the sum of (x - mean)^2.
    # pairwise_sums runs the leaves on several threads; each reads log_abs
    # and writes only its own block's temporaries.
    mean = np.mean(log_abs)

    def central_sums(i: int, j: int):
        c = log_abs[i:j] - mean
        power = np.square(c)
        yield np.sum(power)
        yield np.sum(np.power(c, 3, out=power))
        yield np.sum(np.power(c, 4, out=power))

    s2, s3, s4 = pairwise_sums(n_support, central_sums, THM3_BLOCK)
    m2 = float(s2 / n_support)
    if standardization == "self":
        mu, sigma2 = float(mean), m2
    if sigma2 <= 0:
        raise ValueError("degenerate standardization variance")
    skew = float(s3 / n_support / m2**1.5) if m2 > 0 else 0.0
    kurt = float(s4 / n_support / m2**2 - 3.0) if m2 > 0 else 0.0

    # KS distance of the standardized logs to the normal law, standardized
    # and sorted in place
    np.subtract(log_abs, mu, out=log_abs)
    log_abs /= math.sqrt(sigma2)
    log_abs.sort()
    ks = ks_sorted(log_abs, normal_cdf)

    row = {
        "x": x,
        "n_support": n_support,
        "mu": mu,
        "sigma2": sigma2,
        "ks_vs_normal": ks,
        "skewness": skew,
        "excess_kurtosis": kurt,
        "identity_lhs": lhs,
        "identity_rhs": rhs,
        "identity_rel_err": rel_err,
    }
    row.update(gap_row)
    flags = [flag("additive_identity", rel_err <= IDENTITY_RTOL, rel_err,
                  f"rel err <= {IDENTITY_RTOL}")]
    if ks_tol is not None:
        flags.append(flag("ks_vs_normal", ks <= ks_tol, ks, f"<= {ks_tol}"))
    if skew_tol is not None:
        flags.append(flag("abs_skewness", abs(skew) <= skew_tol, skew, f"|skew| <= {skew_tol}"))
    return VerificationReport(
        name="thm3-clt",
        parameters={
            "source": seq.source,
            "standardization": standardization,
            "support_mode": support.mode,
            "support_A": support.A,
        },
        rows=[row],
        flags=flags,
        runtime=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Moment-sum lemmas and the nonnegative-multiplicative bound
# ---------------------------------------------------------------------------


def _lemma_terms(seq: NormalizedSequence, gammas: list[float], start: int, stop: int):
    """Summands over [start, stop) of each series, made one at a time so that
    a block holds a single series at once.  gammas lists the sum_gamma_
    series to sum; verify_lemma_sums leaves gamma = 2 out."""
    n = np.arange(start, stop, dtype=np.float64)
    a = np.abs(seq.values[start:stop])
    yield a / n
    yield a**2
    yield a**2 / n
    for g in gammas:
        yield a**g


def verify_lemma_sums(
    seq: NormalizedSequence,
    gammas: list[float],
    checkpoints: list[int],
    ratio_band: tuple[float, float] | None = None,
) -> VerificationReport:
    """Partial sums sum |a_n|/n, sum |a_n|^2, sum |a_n|^2/n, sum |a_n|^gamma.

    Fitted log-power exponents between consecutive checkpoints go to the
    parameters as diagnostics.  With `ratio_band` = (lo, hi), the quantity
    (sum |a_n|^2 / n) / log x at the last checkpoint is flagged against it.
    """
    t0 = time.perf_counter()
    if any(not 0.0 < g <= 2.0 for g in gammas):
        raise ValueError("gammas must lie in (0, 2]")
    labels = [f"sum_gamma_{g:g}" for g in gammas]
    for i, label in enumerate(labels):
        if label in labels[:i]:
            raise ValueError(f"gammas repeat the column {label}")
    cps = validate_checkpoints(checkpoints, seq.limit)
    # a**2.0 is np.square(a), the summands of sum_sq, so gamma = 2 copies
    # that column instead of summing the same series again
    summed = [g for g in gammas if g != 2.0]
    sums = _running_sums_at(cps, 1, lambda start, stop: _lemma_terms(seq, summed, start, stop))
    rows = []
    for x in cps:
        s = [float(v) for v in sums[x]]
        row = {
            "x": x,
            "sum_abs_over_n": s[0],
            "sum_sq": s[1],
            "sum_sq_over_n": s[2],
            "sum_sq_over_n_per_logx": s[2] / math.log(x),
        }
        gamma_sums = iter(s[3:])
        row.update((label, s[1] if g == 2.0 else next(gamma_sums))
                   for g, label in zip(gammas, labels))
        rows.append(row)
    fits = []
    for r1, r2 in zip(rows, rows[1:]):
        x1, x2 = r1["x"], r2["x"]
        # 3 <= x1 < x2 makes dlog > 0, and a_1 = 1 puts 1 into every sum
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
        rows=rows,
        flags=flags,
        runtime=time.perf_counter() - t0,
    )


def verify_hall_tenenbaum(
    f: np.ndarray, x: int, label: str = "f"
) -> VerificationReport:
    """Mean-value bound for a nonnegative multiplicative f on [1, x]:

        sum_{n<=x} f(n) <= (A + B + 1) (x / log x) sum_{n<=x} f(n)/n

    with A the best prefix constant of sum_{p<=x'} f(p) log p <= A x' and
    B = sum_p sum_{k>=2, p^k<=x} f(p^k) log(p^k) / p^k, both measured from
    the input itself.
    """
    t0 = time.perf_counter()
    if x < 2:
        raise ValueError(f"hall-tenenbaum needs x >= 2 (log x > 0), got x = {x}")
    f = np.asarray(f, dtype=np.float64)
    if len(f) < x + 1:
        raise ValueError("f must cover indices 0..x")
    if np.any(f[1 : x + 1] < 0):
        raise ValueError("f must be nonnegative")
    ps = primes_up_to(x)  # x >= 2, so 2 is in ps
    contrib = f[ps] * np.log(ps.astype(np.float64))
    A = float(np.max(np.cumsum(contrib) / ps.astype(np.float64)))
    B = 0.0
    for p in ps:
        p = int(p)
        if p * p > x:
            break
        pk = p * p
        while pk <= x:
            B += f[pk] * math.log(pk) / pk
            pk *= p
    n = np.arange(1, x + 1, dtype=np.float64)
    lhs = float(np.sum(f[1 : x + 1]))
    mean_term = float(np.sum(f[1 : x + 1] / n))
    rhs = (A + B + 1.0) * (x / math.log(x)) * mean_term
    ok = lhs <= rhs * (1.0 + 1e-12)
    rows = [{"x": x, "A": A, "B": B, "lhs": lhs, "rhs": rhs,
             "ratio": lhs / rhs if rhs > 0 else 0.0}]
    flags = [flag("mean_value_bound", ok, rows[0]["ratio"], "lhs <= (A+B+1)(x/log x) sum f(n)/n")]
    return VerificationReport(
        name="hall-tenenbaum-bound",
        parameters={"label": label, "x": x},
        rows=rows,
        flags=flags,
        runtime=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Assumption diagnostics
# ---------------------------------------------------------------------------


def check_assumptions(
    seq: NormalizedSequence,
    angles: AngleSeries,
    A: float,
    grid: int = 512,
    checkpoints: list[int] | None = None,
    a2_gap_tol: float | None = None,
) -> VerificationReport:
    """Three diagnostic panels for the auxiliary hypotheses.

    Panel 1 (prime-power lower bound): empirical C = max over p^k <= limit
    with a_p != 0 of -log|a_{p^k}| / (k log p); prime powers where the
    sequence value vanishes exactly are counted separately (the bound is
    conditional on a_p != 0, so primes with a_p = 0 never enter).

    Panel 2 (convergence rate): sup-gap between the angle ECDF and the
    exact CDF on grid + 1 equally spaced angles in [0, pi], per checkpoint
    x, against (log_2 x)^-A.

    Panel 3 (reciprocal tail): sum of 1/p over p >= y with
    |a_p| < (log_2 p)^-A against (log_2 y)^-(A-1), y running over the
    checkpoints.
    """
    t0 = time.perf_counter()
    if not A > 1:
        raise ValueError("A must be > 1")
    if grid < 1:
        raise ValueError("grid must be >= 1")
    limit = seq.limit
    if checkpoints is None:
        checkpoints = [limit]
    cps = validate_checkpoints(checkpoints, angles.limit if len(angles) else limit)

    # Panel 1
    c_emp = 0.0
    zero_pk = 0
    examined = 0
    # each p kept at k has p^(k-1) <= limit, so p^k <= limit^2 fits int64
    ps_k, k = angles.primes, 1
    while (ps_k := ps_k[ps_k**k <= limit]).size:
        ap = seq.values[ps_k]
        cond = ap != 0.0
        pk_idx = ps_k[cond] ** k
        vals = np.abs(seq.values[pk_idx])
        zero_here = vals == 0.0
        zero_pk += int(np.count_nonzero(zero_here))
        good = ~zero_here
        if np.any(good):
            cand = -np.log(vals[good]) / (k * np.log(ps_k[cond][good].astype(np.float64)))
            c_emp = max(c_emp, float(np.max(cand)))
        examined += int(np.count_nonzero(cond))
        k += 1

    alphas = np.linspace(0.0, math.pi, grid + 1)
    # Panel 3 reads tail_term only at p >= some checkpoint, so log2_iter is
    # taken at p >= cps[0] alone: log_1 twice, as two passes of math.log
    far = angles.primes >= cps[0]
    lg_p = angles.primes[far].astype(np.float64)
    for _ in range(2):
        lg_p = np.maximum(np.fromiter(map(math.log, lg_p.tolist()), np.float64), 1.0)
    tail_term = np.zeros(len(angles), dtype=bool)
    tail_term[far] = np.abs(angles.a[far]) < lg_p ** (-A)
    rows = []
    for x in cps:
        sub = np.sort(angles.theta[angles.primes <= x])
        n = len(sub)
        if n == 0:
            raise ValueError(f"no angles below checkpoint {x}")
        ecdf = np.searchsorted(sub, alphas, side="right") / n
        supgap = float(np.max(np.abs(ecdf - st_cdf(alphas))))
        a2_bound = log2_iter(x) ** (-A)
        tail_mask = (angles.primes >= x) & tail_term
        tail_sum = float(np.sum(1.0 / angles.primes[tail_mask].astype(np.float64)))
        tail_bound = log2_iter(x) ** (-(A - 1.0))
        rows.append(
            {
                "x": x,
                "a2_sup_gap": supgap,
                "a2_bound": a2_bound,
                "a2_ratio": supgap / a2_bound,
                "tail_sum": tail_sum,
                "tail_bound": tail_bound,
                "tail_ratio": tail_sum / tail_bound,
            }
        )
    flags = []
    if a2_gap_tol is not None:
        last = rows[-1]
        flags.append(flag(f"a2_sup_gap_at_{last['x']}", last["a2_sup_gap"] <= a2_gap_tol,
                          last["a2_sup_gap"], f"<= {a2_gap_tol}"))
    return VerificationReport(
        name="assumption-diagnostics",
        parameters={
            "source": seq.source,
            "A": A,
            "empirical_C": c_emp,
            "zero_prime_power_values": zero_pk,
            "prime_powers_examined": examined,
            "grid_points": int(len(alphas)),
        },
        rows=rows,
        flags=flags,
        runtime=time.perf_counter() - t0,
    )
