"""Sieves and the assembly of multiplicative sequences.

Everything downstream builds on one multiplicative kernel,
`fill_multiplicative`: any table fixed by its prime-power values, by
prime-power strikes over the caller's `primes_up_to` list, one
cache-sized block of n at a time.  It fills the sequences assembled
from prime angles plus a prime-power rule (a_p = 2 cos(theta_p) in [-2, 2];
higher prime powers come from the rule), the elliptic sequences, d(n),
sigma_11(n) mod 691 and the exact Hecke rebuild of tau from its primes.
The smallest-prime-factor sieve, its (e, core) pairs and the largest prime
factor (recursions over `dyadic_blocks`) have no package reader; they are
kept only because the benchmark's tracer wraps them.  All heavy loops are
vectorized; results are independent of evaluation order and thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, IncompleteInputError

# Sieve entries are uint32 (largest prime below 2^32 fits), 4 bytes each.
SIEVE_BUDGET_BYTES = 2 * 1024**3

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24.

    Below 3,215,031,751, the least strong pseudoprime to bases 2, 3, 5
    and 7, those four bases decide.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES if n >= 3_215_031_751 else _MR_BASES[:4]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_sieve_limit(limit: int) -> None:
    """Refuse a sieve over 0..limit that the 32-bit table format or
    SIEVE_BUDGET_BYTES cannot hold."""
    if limit > 2**32 - 1:
        raise CapacityError(f"limit {limit} exceeds the 32-bit table format")
    need = 4 * (limit + 1)
    if need > SIEVE_BUDGET_BYTES:
        raise CapacityError(
            f"sieve of {limit + 1} entries needs {need} bytes, budget is {SIEVE_BUDGET_BYTES}"
        )


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array, the primes every package table
    strikes with.  An n past the SPF sieve's capacity is refused before
    anything is allocated, though that sieve has no package reader and is
    kept only for the benchmark's tracer.

    The sieve holds the odd numbers only: slot k stands for 2k + 1, and
    slot 0, which would stand for 1, stands for 2.  Each odd prime p <= sqrt(n)
    strikes its odd multiples from p^2, which lie p slots apart.
    """
    _check_sieve_limit(n)
    if n < 2:
        return np.empty(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(n) + 1, 2):
        if odd[p // 2]:
            odd[p * p // 2 :: p] = False
    ps = np.flatnonzero(odd).astype(np.int64, copy=False)
    ps *= 2
    ps += 1
    ps[0] = 2
    return ps


@dataclass
class SpfSieve:
    """Smallest-prime-factor table for 2..limit.

    spf[n] is the least prime dividing n; spf[n] == n exactly when n is
    prime.  Entries 0 and 1 are 0.
    """

    limit: int
    spf: np.ndarray

    def __post_init__(self):
        if self.limit < 2:
            raise CapacityError(f"sieve limit must be >= 2, got {self.limit}")


def build_spf_sieve(limit: int) -> SpfSieve:
    """Fill a smallest-prime-factor table up to max(limit, 2).

    Vectorized Eratosthenes over the odd part: even slots get 2 up front,
    then each odd prime p claims the still-unmarked odd multiples from p^2
    (any smaller odd composite already belongs to a smaller prime).
    """
    if limit < 0:
        raise CapacityError(f"limit must be >= 0, got {limit}")
    limit = max(limit, 2)
    _check_sieve_limit(limit)
    spf = np.zeros(limit + 1, dtype=np.uint32)
    spf[2::2] = 2
    for p in range(3, math.isqrt(limit) + 1, 2):
        if spf[p] == 0:
            spf[p] = p
            sl = spf[p * p :: 2 * p]
            sl[sl == 0] = p
    odd = spf[3::2]
    rest = np.nonzero(odd == 0)[0]
    odd[rest] = (2 * rest + 3).astype(np.uint32)
    return SpfSieve(limit=limit, spf=spf)


# Entries per block of `dyadic_blocks` and of `blocks`, the blocks of n the
# small primes strike: bounds temporaries and keeps a block's strikes in cache.
_BLOCK = 1 << 20
# Entries per block of `strike_big_primes`: a block's slice of the table and
# its pair arrays stay in the per-core L2 through one gather-combine-scatter.
_PAIR_BLOCK = 1 << 15


def blocks(lo: int, hi: int, size: int | None = None):
    """[lo, hi) as consecutive (start, stop) pairs of at most `size` entries,
    _BLOCK by default.

    The small-prime strikes of `fill_multiplicative` and of thm3's logs walk
    it: every small prime strikes one block before the next block starts, so
    the block's slice of the table stays in cache across the primes.  Their
    big-prime strikes (`strike_big_primes`) walk it in blocks of _PAIR_BLOCK
    entries, thm3's packing and counting passes in blocks of
    `verify.THM3_BLOCK` entries, and the `stseq.limbs` kernels in blocks of
    `limbs.ROW_BLOCK` rows.
    """
    size = size or _BLOCK
    for start in range(lo, hi, size):
        yield start, min(hi, start + size)


def strike_big_primes(table: np.ndarray, limit: int, big: np.ndarray, values: np.ndarray,
                      combine) -> np.ndarray:
    """Set table[n] = combine(values[k], table[n]) at every n = j * big[k] <= limit,
    and return table.

    big holds primes above sqrt(limit), ascending and as int64, and values
    one entry per prime.  Such a prime divides each of its multiples n <= limit
    once, as its largest prime factor, so each n is struck by at most one of
    them.  The strikes walk `blocks` of _PAIR_BLOCK consecutive n: a block's
    pairs (n, k) are listed at once, one run of k per multiplier j, then
    gathered, combined and scattered in one go while the block's slice of
    the table is in cache.  combine is called as in `fill_multiplicative`.
    """
    if not big.size:
        return table
    # start[j - 1] counts the k with j * big[k] before the current block
    start = np.zeros(limit // int(big[0]), dtype=np.int64)
    for lo, hi in blocks(1, limit + 1, _PAIR_BLOCK):
        j = np.arange(1, (hi - 1) // int(big[0]) + 1, dtype=np.int64)
        first = start[: len(j)]  # a j new to this block has j * big[0] >= lo
        stop = np.searchsorted(big, (hi - 1) // j, side="right")
        count = stop - first
        # k runs over first[j] .. stop[j] - 1 for each j in turn
        k = np.arange(int(count.sum()), dtype=np.int64)
        k += np.repeat(first - (np.cumsum(count) - count), count)
        first[:] = stop
        at = np.repeat(j, count)
        at *= big[k]
        vals = table[at]
        table[at] = combine(values[k], vals, out=vals)
    return table


def dyadic_blocks(lo: int, hi: int):
    """[lo, hi) as consecutive (start, stop) pairs, none crossing a power of
    two and none holding more than _BLOCK entries.

    `verify`'s running sums walk it.  So do the SPF sieve's (e, core) and
    largest-prime-factor recursions, which have no package reader (the
    benchmark's tracer wraps them): they read their entries at m <= n/2,
    and n >= 2^k in a block inside [2^k, 2^(k+1)) puts m below 2^k, so m
    lies before the block and is already final.
    """
    while lo < hi:
        stop = min(hi, 1 << lo.bit_length(), lo + _BLOCK)
        yield lo, stop
        lo = stop


def exponent_core_tables(sieve: SpfSieve) -> tuple[np.ndarray, np.ndarray]:
    """The sieve's (e, core) pair: n = spf(n)^e * core with spf(n) not
    dividing core.

    Arrays indexed 0..limit (entries below 2 are 0/1 placeholders), filled
    over `dyadic_blocks` from m = n // spf(n).
    """
    limit, spf = sieve.limit, sieve.spf
    e = np.zeros(limit + 1, dtype=np.int8)
    core = np.zeros(limit + 1, dtype=np.int64)
    core[1] = 1
    for lo, hi in dyadic_blocks(2, limit + 1):
        n = np.arange(lo, hi, dtype=np.int64)
        p = spf[lo:hi].astype(np.int64)
        m = n // p
        same = spf[m] == p
        e[lo:hi] = np.where(same, e[m] + 1, 1)
        core[lo:hi] = np.where(same, core[m], m)
    return e, core


def fill_multiplicative(limit: int, ps: np.ndarray, prime_power, out: np.ndarray,
                        combine=np.multiply) -> np.ndarray:
    """Fill out[1..limit] with f(n) = combine(f(p1^e1), combine(..., combine(f(pk^ek), 1)))
    for n = p1^e1 ... pk^ek, p1 < ... < pk, and return out; out[0] is untouched.

    ps holds every prime <= limit, ascending and as int64, as `primes_up_to`
    lists them; the caller lists them once for all its fills.
    prime_power(p, v) gives f(p^v) over int64 arrays, in out's dtype (object
    for exact Python ints).  It must be elementwise: f(p^v) at one entry may
    not depend on the other entries, since a fill makes exactly two calls,
    one on the primes above sqrt(limit) at v = 1 and one on every power
    p^v <= limit of the primes below.  combine(a, b, out=c) writes the
    elementwise combination into c, which is b itself, and returns c, as a
    numpy ufunc such as the default np.multiply does.

    The primes strike largest first.  A prime p > sqrt(limit) divides each
    multiple j * p once, as its largest factor, so those strike first and
    together, by `strike_big_primes` over blocks of _PAIR_BLOCK n.  The
    smaller primes then strike `blocks` of _BLOCK n: within a block each p,
    largest first, strikes its multiples n with f(p^v), p^v || n, so every n
    still folds its prime powers in the same order.
    """
    out[1 : limit + 1] = 1
    root = math.isqrt(limit)
    small = int(np.searchsorted(ps, root, side="right"))
    big = ps[small:]
    strike_big_primes(out, limit, big, prime_power(big, np.ones_like(big)), combine)
    small_ps = ps[:small].tolist()
    pv = np.array([(p, v) for p in small_ps for v in range(1, limit.bit_length())
                   if p**v <= limit], dtype=np.int64).reshape(-1, 2)
    f = prime_power(pv[:, 0], pv[:, 1])
    powers = np.split(f, np.flatnonzero(pv[:, 1] == 1)[1:])  # each p's f(p), f(p^2), ...
    # f(p^v) at each multiple of p in a block: at most half a block, at p = 2
    strike = np.empty(min(limit, _BLOCK) // 2 + 1, dtype=f.dtype)
    for lo, hi in blocks(1, limit + 1):
        for p, fp in zip(small_ps[::-1], powers[::-1]):
            m = -(-lo // p)  # m * p is the block's first multiple of p
            seg = out[m * p : hi : p]
            fv = strike[: len(seg)]
            fv[:] = fp[0]
            q, v = p, 1  # q = p^v divides m
            while q * p < hi:
                fv[-m % q :: q] = fp[v]
                q, v = q * p, v + 1
            combine(fv, seg, out=seg)
    return out


def largest_prime_factor_table(sieve: SpfSieve) -> np.ndarray:
    """P(n) for all n <= limit as int64, with P(0) = 0 and P(1) = 1.

    P(n) = max(spf(n), P(n / spf(n))), filled over `dyadic_blocks`.
    """
    lpf = np.zeros(sieve.limit + 1, dtype=np.int64)
    lpf[1] = 1
    for lo, hi in dyadic_blocks(2, sieve.limit + 1):
        p = sieve.spf[lo:hi].astype(np.int64)
        lpf[lo:hi] = np.maximum(p, lpf[np.arange(lo, hi) // p])
    return lpf


# ---------------------------------------------------------------------------
# Prime-power rules and sequence assembly
# ---------------------------------------------------------------------------

RULE_KINDS = ("hecke-chebyshev", "truncate-zero")

# In the band |sin theta| < SIN_STABLE the ratio loses ~eps/|sin theta|
# absolute accuracy to cancellation, so the stable three-term recurrence
# takes over there.
SIN_STABLE = 1e-2


def chebyshev_sin_ratio(theta, k):
    """sin((k+1) theta) / sin(theta), elementwise.

    Equals U_k(cos theta).  Near theta = 0 and pi the value comes from the
    recurrence, so the result stays accurate to ~1e-13 absolute on the whole
    domain; where |sin theta| < 1e-12, 2 cos theta rounds to exactly +-2 and
    the recurrence gives the limits k + 1 and (-1)^k (k + 1) exactly.
    """
    theta, k = np.broadcast_arrays(
        np.asarray(theta, dtype=np.float64), np.asarray(k, dtype=np.int64)
    )
    s = np.sin(theta)
    shaky = np.abs(s) < SIN_STABLE
    out = np.asarray(np.sin((k + 1) * theta) / np.where(shaky, 1.0, s))
    if np.any(shaky):
        out[shaky] = chebyshev_recurrence(2.0 * np.cos(theta[shaky]), k[shaky])
    return out


def chebyshev_recurrence(a, k):
    """U_k evaluated from a = 2 cos(theta) by u_{j+1} = a u_j - u_{j-1}."""
    a = np.asarray(a, dtype=np.float64)
    k = np.asarray(k)
    k_max = int(k.max()) if k.size else 0
    u_prev = np.zeros_like(a)  # U_{-1}
    u_cur = np.ones_like(a)  # U_0
    out = np.where(k == 0, 1.0, 0.0)
    for j in range(1, k_max + 1):
        u_prev, u_cur = u_cur, a * u_cur - u_prev
        out = np.where(k == j, u_cur, out)
    return out


@dataclass
class PrimePowerRule:
    """How a_{p^k} extends beyond k = 1 for a sequence with a_p = 2 cos(theta_p).

    kind:
      hecke-chebyshev  sin((k+1)theta)/sin(theta), the normalized Hecke
                       recursion obeyed by the real coefficient sequences
                       (`chebyshev_sin_ratio`, which hands the angles near 0
                       and pi to the three-term recurrence)
      truncate-zero    2 cos(theta) at k = 1 and 0 for k >= 2
    rho: growth-condition exponent, must be > 0; the admissible bound at
         (p, k >= 2) is p^((k-1)/2 - rho).
    """

    kind: str = "hecke-chebyshev"
    rho: float = 0.25

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if not 0 < self.rho < math.inf:
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")

    def value(self, theta, k):
        """Rule value at (theta, k), elementwise over arrays."""
        if self.kind == "hecke-chebyshev":
            return chebyshev_sin_ratio(theta, k)
        return np.where(np.asarray(k) == 1, 2.0 * np.cos(np.asarray(theta, dtype=np.float64)), 0.0)


@dataclass
class AngleSeries:
    """Per-prime records (p, a_p, theta_p) covering all primes <= limit."""

    primes: np.ndarray
    a: np.ndarray
    theta: np.ndarray
    source: str = ""
    limit: int = 0  # coverage bound; defaults to the largest prime present

    def __post_init__(self):
        self.primes = np.asarray(self.primes, dtype=np.int64)
        self.a = np.asarray(self.a, dtype=np.float64)
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if not (len(self.primes) == len(self.a) == len(self.theta)):
            raise ValueError("primes, a, theta must have equal length")
        if self.a.size and max(self.a.max(), -self.a.min()) > 2.0 + 1e-12:
            raise ValueError("|a_p| <= 2 violated")
        if self.theta.size and (self.theta.min() < -1e-12 or self.theta.max() > math.pi + 1e-12):
            raise ValueError("theta outside [0, pi]")
        if self.limit <= 0:
            self.limit = int(self.primes.max()) if len(self.primes) else 0

    @classmethod
    def from_theta(cls, primes, theta, source: str = "", limit: int = 0) -> "AngleSeries":
        theta = np.asarray(theta, dtype=np.float64)
        return cls(primes=primes, a=2.0 * np.cos(theta), theta=theta, source=source, limit=limit)

    @classmethod
    def from_a(cls, primes, a, source: str = "", limit: int = 0) -> "AngleSeries":
        a = np.asarray(a, dtype=np.float64)
        return cls(primes=primes, a=a, theta=np.arccos(np.clip(a / 2.0, -1.0, 1.0)),
                   source=source, limit=limit)

    def __len__(self) -> int:
        return len(self.primes)


@dataclass
class NormalizedSequence:
    """a_1..a_limit as float64 with a_1 = 1; values[0] is a NaN sentinel."""

    limit: int
    values: np.ndarray
    source: str  # one of: tau, elliptic, synthetic
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if len(self.values) != self.limit + 1:
            raise ValueError("values must have length limit + 1 (index 0 unused)")
        if self.limit >= 1 and self.values[1] != 1.0:
            raise ValueError("a_1 must equal 1")

    def __getitem__(self, n: int) -> float:
        return float(self.values[n])


def assemble_multiplicative(
    angles: AngleSeries, rule: PrimePowerRule, limit: int, ps: np.ndarray
) -> NormalizedSequence:
    """Build the synthetic a_n = prod over p^k || n of rule(theta_p, k); a_1 = 1.

    ps holds every prime <= limit (`primes_up_to(limit)`), and the angles,
    listed with their primes strictly ascending, must cover each of them
    with a non-NaN theta.  Filled by `fill_multiplicative` over ps with the
    rule as the prime-power value, theta_p found by a binary search of the
    angles' primes.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    primes = angles.primes
    if np.any(primes[1:] <= primes[:-1]):
        raise ValueError("angle primes must be strictly ascending")
    at = np.searchsorted(primes, ps)
    hit = at < len(primes)
    hit[hit] = (primes[at[hit]] == ps[hit]) & ~np.isnan(angles.theta[at[hit]])
    gaps = ps[~hit]
    del at, hit  # pi(limit) entries each, alive through the fill otherwise
    if gaps.size:
        raise IncompleteInputError(f"angles missing for {gaps.size} primes <= {limit} "
                                   f"(first: {gaps[0]})")

    out = np.empty(limit + 1)
    out[0] = np.nan
    values = fill_multiplicative(
        limit, ps, lambda p, e: rule.value(angles.theta[np.searchsorted(primes, p)], e), out)
    return NormalizedSequence(limit=limit, values=values, source="synthetic")


def growth_violations(
    rule: PrimePowerRule, angles: AngleSeries, max_exponent: int
) -> list[tuple[int, int, float, float]]:
    """All (p, k, |a_{p^k}|, bound) with 2 <= k <= max_exponent breaking
    |a_{p^k}| <= p^((k-1)/2 - rule.rho), sorted by p then k.

    Both rules keep |a_{p^k}| <= k + 1 (|U_k| <= k + 1), so the rule is
    evaluated only at the primes whose bound is below k + 2, which leaves
    room for rounding in the evaluated value.
    """
    if max_exponent < 2:
        raise ValueError("max_exponent must be >= 2")
    if not rule.rho > 0:
        raise ValueError("rho must be > 0")
    out: list[tuple[int, int, float, float]] = []
    p = angles.primes.astype(np.float64)
    for k in range(2, max_exponent + 1):
        bound = p ** ((k - 1) / 2.0 - rule.rho)
        near = np.nonzero(bound < k + 2)[0]
        vals = np.abs(rule.value(angles.theta[near], k))
        bad = vals > bound[near]
        for i, v in zip(near[bad].tolist(), vals[bad].tolist()):
            out.append((int(angles.primes[i]), k, v, float(bound[i])))
    out.sort(key=lambda r: (r[0], r[1]))
    return out
