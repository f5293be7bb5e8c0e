"""Exact Ramanujan tau tables and their normalized sequence.

The generating identity is sum tau(n) q^n = q * prod_{k>=1} (1 - q^k)^24.
Two independent routes compute it:

  expand_delta      production path: the 24th power is assembled as three
                    squarings of the cube-of-Euler-product seed series
                    (coefficients (-1)^k (2k+1) at indices k(k+1)/2),
                    each squaring exact modulo several primes (float FFT
                    over split limbs), then one CRT lift sized by
                    Deligne's bound.
  tau_naive_oracle  reference path: dense sequential multiplication of the
                    raw factors (1 - q^k) in arbitrary-precision integers,
                    then 23 further multiplications by the same truncated
                    product.  Shares no series identity with the fast path.

Coefficients reach ~10^35 at n = 10^6, so everything stays in exact
integers; doubles appear only in normalize_tau output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import (
    AngleSeries,
    NormalizedSequence,
    SpfSieve,
    build_spf_sieve,
    fill_multiplicative,
    primes_up_to,
)
from .errors import ConfigurationError, DataCorruptionError
from .ntt import cyclic_square_truncated, find_ntt_primes, garner_lift, get_plan
from .report import VerificationReport

NAIVE_ORACLE_MAX = 10_000


@dataclass
class ExactTauTable:
    """tau(1)..tau(limit) as exact Python ints; taus[0] is unused (0)."""

    limit: int
    taus: list[int]

    def __post_init__(self):
        if len(self.taus) != self.limit + 1:
            raise ValueError("taus must have length limit + 1")

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside 1..{self.limit}")
        return self.taus[n]


def _seed_series_length(limit: int) -> int:
    """Largest k with k(k+1)/2 <= limit - 1 (limit >= 1).

    k(k+1)/2 <= m is (2k+1)^2 <= 8m + 1, and math.isqrt is exact.
    """
    return (math.isqrt(8 * (limit - 1) + 1) - 1) // 2


def deligne_bound(limit: int) -> int:
    """Exact integer B >= max |tau(n)| over n <= limit.

    Deligne: |tau(n)| <= d(n) n^(11/2).  Divisors pair up as (d, n/d) with
    one of each pair at most sqrt(n), so d(n) <= 2 sqrt(n) and
    d(n) n^(11/2) <= 2 n^6 <= 2 limit^6.
    """
    return 2 * limit**6


def _transform_length(limit: int) -> int:
    """Smallest power of two >= 2 * limit - 1 (limit >= 2): no cyclic wrap
    reaches the first limit coefficients of a square."""
    return 1 << (2 * limit - 2).bit_length()


def _crt_moduli(limit: int) -> list[int]:
    """The fewest primes from find_ntt_primes whose product exceeds
    2 * deligne_bound(limit), so the lift recovers every signed tau(n)."""
    length = _transform_length(limit)
    need = 2 * deligne_bound(limit) + 1
    count = 1
    while math.prod(primes := find_ntt_primes(length, count)) < need:
        count += 1
    return primes


def _seed_residues(limit: int, p: int) -> np.ndarray:
    """Cube-of-Euler-product series mod p, truncated to degree limit-1."""
    K = _seed_series_length(limit)
    k = np.arange(K + 1, dtype=np.int64)
    idx = k * (k + 1) // 2
    val = np.where(k % 2 == 0, 2 * k + 1, -(2 * k + 1))
    res = np.zeros(limit, dtype=np.uint64)
    res[idx] = np.mod(val, p).astype(np.uint64)
    return res


def expand_delta(limit: int) -> ExactTauTable:
    """Exact tau(n) for n <= limit via three squarings per prime.

    Residues of the true integer coefficients are carried modulo each prime
    through every stage (truncation commutes with power-series products),
    so capacity is only consumed at the final lift, which Deligne's bound
    sizes.  The first min(limit, 500) coefficients are checked against the
    dense oracle.
    """
    if limit < 1:
        raise ConfigurationError("limit must be >= 1")
    if limit == 1:
        return ExactTauTable(limit=1, taus=[0, 1])
    primes = _crt_moduli(limit)
    length = _transform_length(limit)
    residues = []
    for p in primes:
        plan = get_plan(p, length)
        r = _seed_residues(limit, p)
        for _ in range(3):
            r = cyclic_square_truncated(r, plan, limit)
        residues.append(r)
    lifted = garner_lift(residues, primes)
    taus = [0] + [int(v) for v in lifted]
    table = ExactTauTable(limit=limit, taus=taus)
    n_check = min(limit, 500)
    if table.taus[1 : n_check + 1] != tau_naive_oracle(n_check).taus[1:]:
        raise DataCorruptionError("fast expansion disagrees with the dense oracle")
    return table


def tau_naive_oracle(limit: int) -> ExactTauTable:
    """Quadratic reference table; refuses limits above 10^4.

    Multiplies out prod (1 - q^k) term by term on a dense object array,
    then applies that truncated product 23 more times.
    """
    if limit > NAIVE_ORACLE_MAX:
        raise ValueError(f"oracle limit capped at {NAIVE_ORACLE_MAX}, got {limit}")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    deg = limit  # coefficients 0..limit-1 of eta^24 are needed
    eta = np.zeros(deg, dtype=object)
    eta[0] = 1
    for k in range(1, deg):
        eta[k:] = eta[k:] - eta[:-k]
    support = [(i, int(c)) for i, c in enumerate(eta) if c]
    acc = eta.copy()
    for _ in range(23):
        new = np.zeros(deg, dtype=object)
        for i, c in support:
            if c == 1:
                new[i:] = new[i:] + acc[: deg - i]
            elif c == -1:
                new[i:] = new[i:] - acc[: deg - i]
            else:
                new[i:] = new[i:] + c * acc[: deg - i]
        acc = new
    taus = [0] + [int(acc[n - 1]) for n in range(1, limit + 1)]
    return ExactTauTable(limit=limit, taus=taus)


def normalize_tau(table: ExactTauTable) -> NormalizedSequence:
    """a_n = tau(n) / n^(11/2) as float64."""
    if table.limit < 1:
        raise ValueError("empty table")
    vals = np.empty(table.limit + 1, dtype=np.float64)
    vals[0] = np.nan
    vals[1:] = np.fromiter(map(float, table.taus[1:]), dtype=np.float64, count=table.limit)
    n = np.arange(1, table.limit + 1, dtype=np.float64)
    vals[1:] /= n**5.5
    return NormalizedSequence(limit=table.limit, values=vals, source="tau")


def tau_angles(table: ExactTauTable) -> AngleSeries:
    """theta_p = arccos(tau(p) / (2 p^(11/2))) for every prime p <= limit.

    The admissibility bound |tau(p)| <= 2 p^(11/2) is checked exactly
    (tau(p)^2 <= 4 p^11 in integers) before any float conversion.
    """
    if table.limit < 2:
        raise ValueError("need limit >= 2 for at least one prime")
    ps = primes_up_to(table.limit)
    a = np.empty(len(ps), dtype=np.float64)
    for i, p in enumerate(ps):
        t = table.taus[p]
        p_int = int(p)
        if t * t > 4 * p_int**11:
            raise DataCorruptionError(f"|tau({p_int})| exceeds 2 p^(11/2)")
        a[i] = float(t) / float(p_int) ** 5.5
    return AngleSeries.from_a(ps, a, source="tau", limit=table.limit)


def _sigma11_mod691(limit: int, sieve: SpfSieve) -> np.ndarray:
    """sigma_11(n) mod 691 for n <= limit."""
    pow11 = np.array([pow(r, 11, 691) for r in range(691)], dtype=np.int64)

    def sigma11_pe(p, e):
        # 1 + p^11 + ... + p^(11e) mod 691 by Horner
        p11 = pow11[p % 691]
        out = np.ones_like(p)
        for step in range(1, int(e.max()) + 1):
            out = np.where(e >= step, (out * p11 + 1) % 691, out)
        return out

    out = np.zeros(limit + 1, dtype=np.int64)
    return fill_multiplicative(sieve, limit, sigma11_pe, out, combine=lambda a, b: a * b % 691)


def _divisor_counts(limit: int, sieve: SpfSieve) -> np.ndarray:
    d = np.zeros(limit + 1, dtype=np.int64)
    return fill_multiplicative(sieve, limit, lambda p, e: e + 1, d)


INTEGRITY_SAMPLE_CAP = 100_000
_INTEGRITY_SEED = 0x5EED_0691


def integrity_check(table: ExactTauTable) -> VerificationReport:
    """Three independent error detectors over an exact table.

    Counts failures of (a) multiplicativity tau(mn) = tau(m) tau(n) on
    coprime pairs (all pairs when limit <= 1e5, a fixed-seed sample above),
    (b) the divisor bound |tau(n)| <= d(n) n^(11/2) checked in exact
    integers, (c) the classical congruence tau(n) = sigma_11(n) mod 691.
    All three counts are zero for a correct table; failures are reported,
    never raised.
    """
    import time

    t0 = time.perf_counter()
    limit = table.limit
    sieve = build_spf_sieve(limit)

    # (a) multiplicativity
    mult_fail = 0
    pairs_checked = 0
    taus = table.taus
    if limit <= INTEGRITY_SAMPLE_CAP:
        for m in range(2, limit // 2 + 1):
            for n in range(m + 1, limit // m + 1):
                if math.gcd(m, n) == 1:
                    pairs_checked += 1
                    if taus[m] * taus[n] != taus[m * n]:
                        mult_fail += 1
    else:
        # m uniform on [2, limit/2], then n uniform on [2, limit/m], drawn
        # in blocks; the first INTEGRITY_SAMPLE_CAP coprime pairs are kept
        rng = np.random.default_rng(_INTEGRITY_SEED)
        want = INTEGRITY_SAMPLE_CAP
        while pairs_checked < want:
            m = rng.integers(2, limit // 2 + 1, size=want)
            n = rng.integers(2, limit // m + 1)
            keep = np.gcd(m, n) == 1
            m, n = m[keep][: want - pairs_checked], n[keep][: want - pairs_checked]
            pairs_checked += m.size
            for i, j in zip(m.tolist(), n.tolist()):
                if taus[i] * taus[j] != taus[i * j]:
                    mult_fail += 1

    # (b) divisor bound, exact: tau(n)^2 <= d(n)^2 * n^11
    # lists, not arrays: indexing a Python list per n is several times faster
    d = _divisor_counts(limit, sieve).tolist()
    bound_fail = 0
    for n in range(1, limit + 1):
        t = taus[n]
        if t * t > d[n] ** 2 * n**11:
            bound_fail += 1

    # (c) mod-691 congruence against sigma_11
    sig = _sigma11_mod691(limit, sieve).tolist()
    cong_fail = 0
    for n in range(1, limit + 1):
        if taus[n] % 691 != sig[n]:
            cong_fail += 1

    rows = [
        {
            "limit": limit,
            "pairs_checked": pairs_checked,
            "multiplicativity_failures": mult_fail,
            "divisor_bound_failures": bound_fail,
            "mod691_failures": cong_fail,
        }
    ]
    flags = [
        {"name": "multiplicativity_zero_failures", "passed": mult_fail == 0,
         "observed": float(mult_fail), "tolerance": "== 0"},
        {"name": "divisor_bound_zero_failures", "passed": bound_fail == 0,
         "observed": float(bound_fail), "tolerance": "== 0"},
        {"name": "mod691_zero_failures", "passed": cong_fail == 0,
         "observed": float(cong_fail), "tolerance": "== 0"},
    ]
    return VerificationReport(
        name="tau-integrity",
        parameters={"limit": limit, "sampled": limit > INTEGRITY_SAMPLE_CAP},
        rows=rows,
        flags=flags,
        runtime=time.perf_counter() - t0,
    )


def reconstruct_from_primes(table: ExactTauTable) -> int:
    """Rebuild the table from {tau(p)} alone and count mismatches.

    Uses tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)) plus
    multiplicativity; an independent internal oracle for the expansion.
    """
    limit = table.limit
    spf = build_spf_sieve(limit).spf
    taus = table.taus
    rebuilt: list[int] = [0] * (limit + 1)
    if limit >= 1:
        rebuilt[1] = 1
    pk_cache: dict[int, list[int]] = {}
    mismatches = 0
    for n in range(2, limit + 1):
        p = int(spf[n])
        m = n
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        powers = pk_cache.setdefault(p, [1, taus[p]])
        while len(powers) <= k:
            powers.append(taus[p] * powers[-1] - p**11 * powers[-2])
        rebuilt[n] = powers[k] * rebuilt[m]
        if rebuilt[n] != taus[n]:
            mismatches += 1
    return mismatches
