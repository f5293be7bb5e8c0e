"""Frobenius trace sequences for short-Weierstrass curves y^2 = x^3 + Ax + B.

Good primes use the O(p) character sweep t_p = -sum_x chi_p(x^3 + Ax + B)
with a precomputed quadratic-residue table.  Bad primes (p | discriminant,
which always includes 2 for this model) are classified by counting smooth
points: t_p = +1 split multiplicative, -1 nonsplit, 0 additive.  The
normalized member of the sequence class is t_n / n^(1/2), extended to prime
powers by the normalized recursion at good p and by powers of t_p/sqrt(p)
at bad p.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .arith import (
    AngleSeries,
    NormalizedSequence,
    SpfSieve,
    chebyshev_recurrence,
    fill_multiplicative,
    is_prime,
    primes_up_to,
)
from .errors import DataCorruptionError, IncompleteInputError
from .report import VerificationReport

TRACE_PRIME_GUARD = 10_000_000
SERIES_DEFAULT_BUDGET = 1_000_000
_SWEEP_CHUNK = 1 << 20


@dataclass
class CurveSpec:
    a4: int
    a6: int

    @property
    def discriminant(self) -> int:
        return -16 * (4 * self.a4**3 + 27 * self.a6**2)

    def __post_init__(self):
        if self.discriminant == 0:
            raise ValueError(f"singular curve: A={self.a4}, B={self.a6}")


def _trace_tiny(curve: CurveSpec, p: int) -> int:
    """p in {2, 3}: exhaust the affine plane and classify singular points."""
    A, B = curve.a4 % p, curve.a6 % p
    pts = []
    sing = set()
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        for y in range(p):
            if (y * y - f) % p == 0:
                pts.append((x, y))
                dx = (3 * x * x + A) % p
                dy = (2 * y) % p
                if dx == 0 and dy == 0:
                    sing.add((x, y))
    if not sing:
        return p + 1 - (len(pts) + 1)
    smooth = len(pts) - len(sing)
    return p - (smooth + 1)


def trace_at_prime(curve: CurveSpec, p: int) -> int:
    """Exact Frobenius trace at p (bad primes get the reduction-type value)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > TRACE_PRIME_GUARD:
        raise ValueError(f"p={p} exceeds the O(p) sweep guard {TRACE_PRIME_GUARD}")
    if p <= 3:
        return _trace_tiny(curve, p)
    A, B = curve.a4 % p, curve.a6 % p
    pw = np.uint64(p)
    qr = np.zeros(p, dtype=bool)
    chi_sum = 0
    n_sing = 0
    bad = curve.discriminant % p == 0
    for lo in range(0, p, _SWEEP_CHUNK):
        x = np.arange(lo, min(lo + _SWEEP_CHUNK, p), dtype=np.uint64)
        qr[(x * x) % pw] = True
    for lo in range(0, p, _SWEEP_CHUNK):
        x = np.arange(lo, min(lo + _SWEEP_CHUNK, p), dtype=np.uint64)
        x2 = (x * x) % pw
        f = (x2 * x + np.uint64(A) * x + np.uint64(B)) % pw
        zero = f == 0
        chi_sum += int(np.count_nonzero(qr[f] & ~zero)) - int(
            np.count_nonzero(~qr[f] & ~zero)
        )
        if bad:
            dfx = (np.uint64(3) * x2 + np.uint64(A)) % pw
            n_sing += int(np.count_nonzero(zero & (dfx == 0)))
    if not bad:
        return -chi_sum
    return n_sing - 1 - chi_sum


@dataclass
class TraceSeries:
    """Per-prime records (p, t_p, good) for all primes <= limit."""

    limit: int
    curve: CurveSpec
    primes: np.ndarray
    t: np.ndarray
    good: np.ndarray

    def __post_init__(self):
        self.primes = np.asarray(self.primes, dtype=np.int64)
        self.t = np.asarray(self.t, dtype=np.int64)
        self.good = np.asarray(self.good, dtype=bool)
        g = self.good
        if np.any(self.t[g] ** 2 > 4 * self.primes[g]):
            raise DataCorruptionError("Hasse bound violated on a good prime")
        tb = self.t[~g]
        if tb.size and (tb.min() < -1 or tb.max() > 1):
            raise DataCorruptionError("bad-prime trace outside {-1, 0, 1}")

    def __len__(self) -> int:
        return len(self.primes)


def trace_series(
    curve: CurveSpec,
    limit: int,
    threads: int = 1,
    budget: int = SERIES_DEFAULT_BUDGET,
) -> TraceSeries:
    """Traces at every prime <= limit, deterministic order regardless of
    thread count (per-prime tasks, ordered collect)."""
    if limit > budget:
        raise ValueError(f"limit {limit} exceeds the series budget {budget}")
    ps = primes_up_to(limit)
    if threads <= 1 or len(ps) < 32:
        traces = [trace_at_prime(curve, int(p)) for p in ps]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            traces = list(pool.map(lambda p: trace_at_prime(curve, int(p)), ps))
    disc = curve.discriminant
    good = np.array([disc % int(p) != 0 for p in ps], dtype=bool)
    return TraceSeries(
        limit=limit, curve=curve, primes=ps, t=np.array(traces, dtype=np.int64), good=good
    )


def ec_normalized_sequence(
    series: TraceSeries, sieve: SpfSieve, limit: int
) -> NormalizedSequence:
    """t_n / n^(1/2) for n <= limit as a normalized multiplicative sequence.

    Good p: u_{k+1} = a_p u_k - u_{k-1} with a_p = t_p/sqrt(p) (normalized
    Euler factor).  Bad p: a_{p^k} = (t_p/sqrt(p))^k.
    """
    if series.limit < limit:
        raise IncompleteInputError(
            f"trace series up to {series.limit} cannot build a length-{limit} sequence"
        )
    a_at = np.zeros(limit + 1, dtype=np.float64)
    good_at = np.zeros(limit + 1, dtype=bool)
    keep = series.primes <= limit
    ps = series.primes[keep]
    a_at[ps] = series.t[keep] / np.sqrt(ps.astype(np.float64))
    good_at[ps] = series.good[keep]

    def prime_power(p, e):
        ap = a_at[p]
        return np.where(good_at[p], chebyshev_recurrence(ap, e), ap**e)

    values = np.empty(limit + 1, dtype=np.float64)
    values[0] = np.nan
    fill_multiplicative(sieve, limit, prime_power, values)
    bad_ps = series.primes[~series.good]
    return NormalizedSequence(
        limit=limit,
        values=values,
        source="elliptic",
        meta={
            "a4": series.curve.a4,
            "a6": series.curve.a6,
            "bad_primes": [int(p) for p in bad_ps if p <= limit],
        },
    )


@dataclass
class KappaEstimate:
    """Partial product prod_{p <= x, a_p = 0} (1 - 1/p) over zero-trace primes."""

    x: int
    value: float
    zero_primes: list[int]

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError("kappa partial product must lie in (0, 1]")


def kappa_partial(series: TraceSeries, x: int) -> KappaEstimate:
    if x > series.limit:
        raise ValueError(f"cutoff {x} beyond series limit {series.limit}")
    keep = (series.primes <= x) & (series.t == 0)
    zp = [int(p) for p in series.primes[keep]]
    value = 1.0
    for p in zp:
        value *= 1.0 - 1.0 / p
    return KappaEstimate(x=x, value=value, zero_primes=zp)


def supersingular_census(series: TraceSeries) -> VerificationReport:
    """Zero-trace counts among good primes per dyadic block [2^j, 2^(j+1))."""
    t0 = time.perf_counter()
    rows = []
    ps = series.primes
    good = series.good
    zero = series.t == 0
    j = 1
    while 2**j <= series.limit:
        lo, hi = 2**j, min(2 ** (j + 1), series.limit + 1)
        blk = (ps >= lo) & (ps < hi)
        n_good = int(np.count_nonzero(blk & good))
        n_zero = int(np.count_nonzero(blk & good & zero))
        rows.append(
            {
                "block_lo": lo,
                "block_hi": hi - 1,
                "good_primes": n_good,
                "zero_traces": n_zero,
                "density": (n_zero / n_good) if n_good else 0.0,
            }
        )
        j += 1
    total_good = int(np.count_nonzero(good))
    total_zero = int(np.count_nonzero(good & zero))
    return VerificationReport(
        name="supersingular-census",
        parameters={
            "a4": series.curve.a4,
            "a6": series.curve.a6,
            "limit": series.limit,
            "total_good": total_good,
            "total_zero": total_zero,
            "overall_density": (total_zero / total_good) if total_good else 0.0,
        },
        rows=rows,
        flags=[],
        runtime=time.perf_counter() - t0,
    )


def angles_from_traces(series: TraceSeries) -> AngleSeries:
    """Angle records over good primes only (bad primes are excluded from
    angle statistics; their traces live in the series)."""
    g = series.good
    ps = series.primes[g]
    a = series.t[g] / np.sqrt(ps.astype(np.float64))
    return AngleSeries.from_a(ps, a, source="elliptic", limit=series.limit)
