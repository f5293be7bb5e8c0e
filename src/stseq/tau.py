"""Exact Ramanujan tau tables and their normalized sequence.

The generating identity is sum tau(n) q^n = q * prod_{k>=1} (1 - q^k)^24.
Two independent routes compute it:

  expand_delta      production path: a chain of exact stages from the
                    cube-of-Euler-product seed series (coefficients
                    (-1)^k (2k+1) at indices k(k+1)/2).  eta^6 is the
                    seed squared over the integers; eta^12 and eta^24 are
                    each squared once over the integers by float FFTs over
                    balanced digits (`stseq.ntt.square_truncated`), as wide
                    as a bound with five bits of headroom below 2^52 allows
                    (2 + 4 digits at 2^19, 2 + 5 at 10^6, 3 + 6 at 10^7),
                    into as many limbs as a proven bound on that stage's
                    output needs: Cauchy-Schwarz on the exact eta^6 for
                    eta^12, Deligne's for eta^24.
  tau_naive_oracle  reference path: dense sequential multiplication of the
                    raw factors (1 - q^k) in arbitrary-precision integers,
                    then 23 further multiplications by the same truncated
                    product.  Shares no series identity with the fast path.

Coefficients reach ~10^35 at n = 10^6, so tables stay exact: they are
packed as 64-bit limbs (`stseq.limbs`), and doubles appear only in the
normalize_tau and tau_angles output and in float screens that hand every
near-equality case to exact integers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import limbs as lb
from .arith import (
    AngleSeries,
    NormalizedSequence,
    fill_multiplicative,
    primes_up_to,
)
from .errors import CapacityError, ConfigurationError, DataCorruptionError
# bench/test_bench.py::test_every_binding_is_patched_and_then_restored reads
# this module's cyclic_square_truncated binding; nothing here calls it
from .ntt import cyclic_square_truncated, square_truncated
from .report import VerificationReport, flag

NAIVE_ORACLE_MAX = 10_000
# float screens decide only outside this relative band around a bound; the
# float values carry a few ulp of error, so the band leaves exact ints the rest
_SCREEN_BAND = 1e-12


@dataclass
class ExactTauTable:
    """tau(0)..tau(limit) as an (limit + 1, W) uint64 array of limbs
    (`stseq.limbs`); row 0 is unused (0).  Ints come out on demand: table[n],
    or the whole `taus` tuple."""

    limit: int
    limbs: np.ndarray

    def __post_init__(self):
        if self.limbs.dtype != np.uint64 or self.limbs.ndim != 2 or self.limbs.shape[1] < 1:
            raise ValueError("limbs must be a 2-d uint64 array with at least one column")
        if len(self.limbs) != self.limit + 1:
            raise ValueError("limbs must have limit + 1 rows")

    @classmethod
    def from_ints(cls, taus) -> ExactTauTable:
        """The table of taus[0..limit] (taus[0] unused), packed in the fewest limbs."""
        return cls(limit=len(taus) - 1, limbs=lb.from_ints(taus))

    @property
    def taus(self) -> tuple[int, ...]:
        """Every entry as a Python int, index 0 included; built on each access."""
        return tuple(lb.to_ints(self.limbs))

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside 1..{self.limit}")
        return lb.to_ints(self.limbs[n : n + 1])[0]


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


def _eta6(limit: int) -> np.ndarray:
    """Coefficients 0..limit-1 of prod (1 - q^k)^6 as exact int64.

    The square of the seed sum (-1)^k (2k+1) q^(k(k+1)/2), k = 0..K, one
    seed term at a time: term i meets every term j with idx_i + idx_j < limit,
    at distinct indices, so each step is one gather-add.  |coefficient| <=
    (sum of |seed terms|)^2 = (K+1)^4 fits int64 for K < 55,000
    (limit ~ 1.5e9).
    """
    K = _seed_series_length(limit)
    k = np.arange(K + 1, dtype=np.int64)
    idx = k * (k + 1) // 2
    val = np.where(k % 2 == 0, 2 * k + 1, -(2 * k + 1))
    out = np.zeros(limit, dtype=np.int64)
    for i in range(K + 1):
        m = int(np.searchsorted(idx, limit - idx[i]))
        out[idx[i] + idx[:m]] += val[i] * val[:m]
    return out


def _sum_of_squares(series: np.ndarray) -> int:
    """Exact sum of c^2 over an int64 series whose entries satisfy |c| < 2^32.

    Each square fits uint64; its high and low 32-bit halves are summed apart
    (each sum stays below 2^64 for fewer than 2^32 entries) and recombined.
    """
    mag = np.abs(series).astype(np.uint64)
    if mag.size and int(mag.max()) >= 1 << 32:
        raise CapacityError("series entry reaches 2^32: its square overflows uint64")
    sq = mag * mag
    return (int(np.sum(sq >> np.uint64(32))) << 32) + int(np.sum(sq & np.uint64(0xFFFF_FFFF)))


def expand_delta(limit: int) -> ExactTauTable:
    """Exact tau(n) for n <= limit as a chain of exact stages.

    tau(n) is coefficient n - 1 of eta^24, with eta = prod (1 - q^k), and
    truncation to the first `limit` coefficients commutes with products:
      eta^6   the seed series squared over the integers (_eta6);
      eta^12  its square, in as many limbs as the bound
              sum_{i < limit} c6(i)^2 needs: by Cauchy-Schwarz
              |c12(n)| = |sum c6(i) c6(n-i)| <= sum_{i <= n} c6(i)^2;
      eta^24  the square of eta^12, in as many limbs as Deligne's bound on
              tau needs (deligne_bound).
    Each stage is one exact squaring over D balanced digits of b bits
    (`ntt.square_truncated`), D forward and 2D - 1 inverse transforms, which
    raises if a value does not fit its proven width.  b is the widest with
    D * limit * 2^(2b - 2) <= 2^47, five bits below where float rounding
    stops being exact, since float error grows with the digits' norms: at
    2^19 both stages take b = 14, with 2 and 4 digits, 16 transforms; at
    10^6, 2 and 5 digits; at 10^7, 3 and 6.  The first min(limit, 500)
    coefficients are checked against the dense oracle.
    """
    if limit < 1:
        raise ConfigurationError("limit must be >= 1")
    eta6 = _eta6(limit)
    # an int64 column read as uint64 is its one-limb form
    eta12 = square_truncated(eta6.view(np.uint64)[:, None], limit,
                             lb.width_for(_sum_of_squares(eta6)))
    del eta6
    lifted = square_truncated(eta12, limit, lb.width_for(deligne_bound(limit)))
    del eta12
    n_check = min(limit, 500)
    if lb.to_ints(lifted[:n_check]) != list(tau_naive_oracle(n_check).taus[1:]):
        raise DataCorruptionError("fast expansion disagrees with the dense oracle")
    table = np.zeros((limit + 1, lifted.shape[1]), dtype=np.uint64)
    table[1:] = lifted
    return ExactTauTable(limit=limit, limbs=table)


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
    return ExactTauTable.from_ints([0] + [int(acc[n - 1]) for n in range(1, limit + 1)])


def normalize_tau(table: ExactTauTable) -> NormalizedSequence:
    """a_n = tau(n) / n^(11/2) as float64."""
    if table.limit < 1:
        raise ValueError("empty table")
    vals = np.empty(table.limit + 1, dtype=np.float64)
    vals[0] = np.nan
    vals[1:] = lb.to_float(table.limbs[1:])
    n = np.arange(1, table.limit + 1, dtype=np.float64)
    vals[1:] /= n**5.5
    return NormalizedSequence(limit=table.limit, values=vals, source="tau")


def tau_angles(table: ExactTauTable) -> AngleSeries:
    """theta_p = arccos(tau(p) / (2 p^(11/2))) for every prime p <= limit.

    The admissibility bound |tau(p)| <= 2 p^(11/2) is float-screened, and
    every prime near it is checked exactly (tau(p)^2 <= 4 p^11 in integers),
    before any angle is taken.
    """
    if table.limit < 2:
        raise ValueError("need limit >= 2 for at least one prime")
    ps = primes_up_to(table.limit)
    rows = table.limbs[ps]
    t = lb.to_float(rows)
    scale = ps.astype(np.float64) ** 5.5  # normalize_tau's power, so a_p agree
    over = _exceeds(rows, np.abs(t), 2.0 * scale, lambda i: 4 * int(ps[i]) ** 11)
    if over.size:
        raise DataCorruptionError(f"|tau({int(ps[over[0]])})| exceeds 2 p^(11/2)")
    return AngleSeries.from_a(ps, t / scale, source="tau", limit=table.limit)


def _exceeds(rows: np.ndarray, size: np.ndarray, bound: np.ndarray, exact_sq) -> np.ndarray:
    """Indices i with value_i^2 > exact_sq(i), the exact form of size_i > bound_i.

    size and bound are floats within a few ulp of |value| and of the exact
    bound; only entries inside _SCREEN_BAND of equality are decided in ints.
    """
    over = size > bound * (1 + _SCREEN_BAND)
    near = np.nonzero(~over & (size >= bound * (1 - _SCREEN_BAND)))[0]
    if near.size:
        vals = lb.to_ints(rows[near])
        over[near] = [v * v > exact_sq(i) for i, v in zip(near.tolist(), vals)]
    return np.nonzero(over)[0]


def _mulmod691(a, b, out):
    """a * b % 691 into out, in place: the products stay below 691^2."""
    return np.remainder(np.multiply(a, b, out=out), 691, out=out)


def _sigma11_mod691(limit: int, ps: np.ndarray) -> np.ndarray:
    """sigma_11(n) mod 691 for n <= limit, over ps, the primes up to limit.

    sigma_11(p^e) = 1 + p^11 + ... + p^(11e) depends on p only mod 691, so
    one table S[r, e] over the residues r, by Horner in e, gives every
    prime-power value as the gather S[p % 691, e].
    """
    pow11 = np.array([pow(r, 11, 691) for r in range(691)], dtype=np.int64)
    S = np.ones((691, limit.bit_length() + 1), dtype=np.int64)
    for e in range(1, S.shape[1]):
        S[:, e] = (S[:, e - 1] * pow11 + 1) % 691
    out = np.zeros(limit + 1, dtype=np.int64)
    return fill_multiplicative(limit, ps, lambda p, e: S[p % 691, e], out, combine=_mulmod691)


def _divisor_counts(limit: int, ps: np.ndarray) -> np.ndarray:
    """d(n) for n <= limit, over ps, the primes up to limit."""
    return fill_multiplicative(limit, ps, lambda p, e: e + 1,
                               np.zeros(limit + 1, dtype=np.int64))


INTEGRITY_SAMPLE_CAP = 100_000
_INTEGRITY_SEED = 0x5EED_0691
# Pairs per block of the multiplicativity check: bounds the Python ints alive.
_PAIR_BLOCK = 1 << 14


def _coprime_pairs(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Every coprime (m, n) with 2 <= m < n and mn <= limit, by m then n."""
    m = np.arange(2, math.isqrt(limit) + 1, dtype=np.int64)
    runs = limit // m - m  # n runs over m + 1 .. limit // m
    m = np.repeat(m, runs)
    n = m + 1 + np.arange(m.size) - np.repeat(np.cumsum(runs) - runs, runs)
    keep = np.gcd(m, n) == 1
    return m[keep], n[keep]


def _sampled_pairs(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The first INTEGRITY_SAMPLE_CAP coprime pairs of a fixed-seed draw:
    m uniform on [2, limit/2], then n uniform on [2, limit/m], in blocks."""
    rng = np.random.default_rng(_INTEGRITY_SEED)
    want = INTEGRITY_SAMPLE_CAP
    ms, ns, got = [], [], 0
    while got < want:
        m = rng.integers(2, limit // 2 + 1, size=want)
        n = rng.integers(2, limit // m + 1)
        keep = np.gcd(m, n) == 1
        ms.append(m[keep][: want - got])
        ns.append(n[keep][: want - got])
        got += ms[-1].size
    return np.concatenate(ms), np.concatenate(ns)


def integrity_check(table: ExactTauTable) -> VerificationReport:
    """Three independent error detectors over an exact table.

    Counts failures of (a) multiplicativity tau(mn) = tau(m) tau(n) on
    coprime pairs (all pairs when limit <= 1e5, a fixed-seed sample above),
    (b) the divisor bound |tau(n)| <= d(n) n^(11/2), float-screened with
    exact integers near equality, (c) the classical congruence
    tau(n) = sigma_11(n) mod 691, exact on the limbs.  Ints are built only
    for the pairs of (a) and the near-equality entries of (b).  All three
    counts are zero for a correct table; failures are reported, never raised.
    """
    t0 = time.perf_counter()
    limit = table.limit

    # (a) multiplicativity
    sampled = limit > INTEGRITY_SAMPLE_CAP
    m, n = _sampled_pairs(limit) if sampled else _coprime_pairs(limit)
    pairs_checked = int(m.size)
    mult_fail = 0
    for lo in range(0, pairs_checked, _PAIR_BLOCK):
        mb, nb = m[lo : lo + _PAIR_BLOCK], n[lo : lo + _PAIR_BLOCK]
        tm, tn, tmn = (lb.to_ints(table.limbs[x]) for x in (mb, nb, mb * nb))
        mult_fail += sum(a * b != c for a, b, c in zip(tm, tn, tmn))

    # (b) divisor bound: tau(n)^2 <= d(n)^2 * n^11 exactly
    body = table.limbs[1:]
    ps = primes_up_to(limit)  # for both integer fills
    d = _divisor_counts(limit, ps)[1:]
    n = np.arange(1, limit + 1, dtype=np.float64)
    bound_fail = _exceeds(body, np.abs(lb.to_float(body)), d * n**5.5,
                          lambda i: int(d[i]) ** 2 * (i + 1) ** 11).size

    # (c) mod-691 congruence against sigma_11
    sig = _sigma11_mod691(limit, ps)[1:]
    cong_fail = int(np.count_nonzero(lb.mod_small(body, 691) != sig))

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
        flag("multiplicativity_zero_failures", mult_fail == 0, float(mult_fail), "== 0"),
        flag("divisor_bound_zero_failures", bound_fail == 0, float(bound_fail), "== 0"),
        flag("mod691_zero_failures", cong_fail == 0, float(cong_fail), "== 0"),
    ]
    return VerificationReport(
        name="tau-integrity",
        parameters={"limit": limit, "sampled": sampled},
        rows=rows,
        flags=flags,
        runtime=time.perf_counter() - t0,
    )


def reconstruct_from_primes(table: ExactTauTable) -> int:
    """Rebuild the table from {tau(p)} alone and count the n in 2..limit
    where it differs.

    One `fill_multiplicative` fill over exact Python ints: the prime powers
    come from tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1)), the rest
    from multiplicativity; an independent internal oracle for the expansion.
    """
    taus = np.array(table.taus, dtype=object)

    def hecke(p, e):
        t, p11 = taus[p], p.astype(object) ** 11
        prev, cur, out = np.ones_like(t), t, t
        for k in range(2, int(e.max(initial=1)) + 1):
            prev, cur = cur, t * cur - p11 * prev
            out = np.where(e == k, cur, out)
        return out

    rebuilt = fill_multiplicative(table.limit, primes_up_to(table.limit), hecke,
                                  np.zeros(table.limit + 1, dtype=object))
    return int(np.count_nonzero(rebuilt[2:] != taus[2:]))
