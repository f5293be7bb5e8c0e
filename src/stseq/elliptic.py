"""Frobenius trace sequences for short-Weierstrass curves y^2 = x^3 + Ax + B.

Good primes above a crossover (p > 229, Mestre's bound) are counted by
Shanks-Mestre baby-step giant-step on one point of the curve or of its
quadratic twist, O(p^(1/4)) group operations in Python integers; a trace is
returned only when exactly one t in the Hasse interval |t| <= 2 sqrt(p)
satisfies (p + 1 - t) P = O, so every value is exact.  Primes up to the
crossover and bad primes (p | discriminant, which always includes 2 for
this model) use the O(p) character sweep t_p = -sum_x chi_p(x^3 + Ax + B)
with a precomputed quadratic-character table.  At a bad odd p the cubic
has one repeated root, whose singular point the sum counts once, so the
same sum is the reduction type: t_p = +1 split multiplicative, -1
nonsplit, 0 additive (Silverman, AEC III.2 and VII.5).  At p = 2 the
model has one singular point (x = A) and one smooth affine point, so
t_2 = 0.  The normalized member of the sequence class is t_n / n^(1/2),
extended to prime powers by the normalized recursion at good p and by
powers of t_p/sqrt(p) at bad p.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import (
    AngleSeries,
    NormalizedSequence,
    build_spf_sieve,
    chebyshev_recurrence,
    fill_multiplicative,
    is_prime,
    primes_up_to,
)
from .errors import DataCorruptionError, IncompleteInputError
from .report import VerificationReport

TRACE_PRIME_GUARD = 10_000_000
SERIES_BUDGET = 1_000_000
_SWEEP_CHUNK = 1 << 20
# Mestre: for p > 229, E or its twist has a point whose order has exactly one
# multiple in the Hasse interval.  BSGS is also the faster kernel at every p
# timed (29 vs 47 us per prime at 120 < p <= 229, 75 vs 625 us at
# 10^4 < p <= 2*10^4), so the crossover is the bound itself.
_BSGS_ABOVE = 229


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


def trace_at_prime(curve: CurveSpec, p: int) -> int:
    """Exact Frobenius trace at p (bad primes get the reduction-type value):
    baby-step giant-step at good p above the crossover, the sweep otherwise."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > TRACE_PRIME_GUARD:
        raise ValueError(f"p={p} exceeds the trace prime guard {TRACE_PRIME_GUARD}")
    if p > _BSGS_ABOVE and curve.discriminant % p:
        return _bsgs_trace(curve, p)
    return _sweep_trace(curve, p)


def _ec_add(P, Q, a: int, p: int):
    """P + Q on y^2 = x^3 + ax + b over F_p in affine coordinates; None is O."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P, a: int, p: int):
    R = None
    for bit in bin(k)[2:]:
        R = _ec_add(R, R, a, p)
        if bit == "1":
            R = _ec_add(R, P, a, p)
    return R


def _unique_trace(P, a: int, p: int):
    """The t with |t| <= isqrt(4p) and (p + 1 - t) P = O if exactly one
    exists, else None.

    Every t in [-T, T] is k*s + j for one giant step k and one |j| <= m,
    s = 2m + 1.  Baby steps store x(jP) -> (j, y); the giant walk visits
    R_k = (p + 1 - k s) P, and R_k = jP pins t.  When the order of P is at
    most 2m <= T, two t in [-T, T] satisfy the equation, so P is rejected
    as soon as the baby steps repeat an x, hit O or a 2-torsion point;
    beyond that, j -> jP is one-to-one on [-m, m] and each R_k matches at
    most one j.
    """
    T = math.isqrt(4 * p)
    m = math.isqrt((2 * T + 1) // 2)
    s = 2 * m + 1
    K = -(-(T - m) // s)
    baby = {}
    prev, R = None, P
    for j in range(1, m + 1):
        if R is None or R[1] == 0 or R[0] in baby:
            return None
        baby[R[0]] = (j, R[1])
        prev, R = R, _ec_add(R, P, a, p)
    sP = _ec_add(prev, R, a, p)
    if sP is None:
        return None
    step = (sP[0], -sP[1] % p)
    R = _ec_mul(p + 1 + K * s, P, a, p)
    found = None
    for k in range(-K, K + 1):
        if R is None:
            j = 0
        else:
            hit = baby.get(R[0])
            j = None if hit is None else (hit[0] if hit[1] == R[1] else -hit[0])
        if j is not None and -T <= k * s + j <= T:
            if found is not None:
                return None
            found = k * s + j
        R = _ec_add(R, step, a, p)
    return found


def _bsgs_trace(curve: CurveSpec, p: int) -> int:
    """Shanks-Mestre trace at a good prime p > 229.

    For d = f(x0) != 0, (d x0, d^2) lies on y^2 = x^3 + A d^2 x + B d^3,
    which is E when d is a square mod p and its quadratic twist otherwise,
    so t_E = chi(d) t.  The walk starts at x0 = p // 2: rational torsion
    points sit at small x (y^2 = x^3 - 2x + 1 has (0, +-1) at every p) and
    have too small an order to pin t.
    """
    A, B = curve.a4 % p, curve.a6 % p
    for i in range(p):
        x0 = (p // 2 + i) % p
        d = (x0 * (x0 * x0 + A) + B) % p
        if d == 0:
            continue
        t = _unique_trace((d * x0 % p, d * d % p), A * d * d % p, p)
        if t is not None:
            return t if pow(d, (p - 1) // 2, p) == 1 else -t
    raise DataCorruptionError(
        f"no point of A={curve.a4}, B={curve.a6} or its twist pins t_{p} "
        f"in the Hasse interval (Mestre's theorem rules this out for p > {_BSGS_ABOVE})"
    )


def _sweep_trace(curve: CurveSpec, p: int) -> int:
    """-sum_x chi_p(x^3 + Ax + B) by an O(p) Legendre sweep at odd p, good
    or bad (the oracle for the BSGS kernel), and t_2 = 0."""
    if p == 2:
        return 0
    A, B = curve.a4 % p, curve.a6 % p
    pw = np.uint64(p)
    chi = np.full(p, -1, dtype=np.int8)
    for lo in range(0, p, _SWEEP_CHUNK):
        x = np.arange(lo, min(lo + _SWEEP_CHUNK, p), dtype=np.uint64)
        chi[(x * x) % pw] = 1
    chi[0] = 0
    chi_sum = 0
    for lo in range(0, p, _SWEEP_CHUNK):
        x = np.arange(lo, min(lo + _SWEEP_CHUNK, p), dtype=np.uint64)
        chi_sum += int(chi[((x * x) % pw * x + np.uint64(A) * x + np.uint64(B)) % pw].sum())
    return -chi_sum


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


def trace_series(curve: CurveSpec, limit: int) -> TraceSeries:
    """Traces at every prime <= limit, in prime order on the calling thread.

    The traces are Python-integer arithmetic that holds the interpreter
    lock; on a 2-vCPU VM a 2-worker pool took 2.6-2.7 s against 1.1-1.2 s
    on one thread to 10^5.
    """
    if limit > SERIES_BUDGET:
        raise ValueError(f"limit {limit} exceeds the series budget {SERIES_BUDGET}")
    ps = primes_up_to(limit)
    traces = [trace_at_prime(curve, int(p)) for p in ps]
    disc = curve.discriminant
    good = np.array([disc % int(p) != 0 for p in ps], dtype=bool)
    return TraceSeries(
        limit=limit, curve=curve, primes=ps, t=np.array(traces, dtype=np.int64), good=good
    )


def ec_normalized_sequence(series: TraceSeries, limit: int) -> NormalizedSequence:
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
    fill_multiplicative(build_spf_sieve(limit), limit, prime_power, values)
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
