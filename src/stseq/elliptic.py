"""Frobenius trace sequences for short-Weierstrass curves y^2 = x^3 + Ax + B.

Good primes above a crossover (p > 229, Mestre's bound) are counted by
Shanks-Mestre baby-step giant-step on one point of the curve or of its
quadratic twist, batched over all such primes at once in int64 numpy
(p < 2^31, so a product of two residues stays below 2^62): Jacobian
coordinates, and one Montgomery batch inversion per prime per table.  A
trace is returned only when exactly one t in the Hasse interval
|t| <= 2 sqrt(p) satisfies (p + 1 - t) P = O, so every value is exact.
Primes up to the crossover and bad primes (p | discriminant, which always
includes 2 for this model) use the O(p) character sweep
t_p = -sum_x chi_p(x^3 + Ax + B) with a precomputed quadratic-character
table.  At a bad odd p the cubic has one repeated root, whose singular
point the sum counts once, so the same sum is the reduction type:
t_p = +1 split multiplicative, -1 nonsplit, 0 additive (Silverman, AEC
III.2 and VII.5).  At p = 2 the model has one singular point (x = A) and
one smooth affine point, so t_2 = 0.  The normalized member of the
sequence class is t_n / n^(1/2), extended to prime powers by the
normalized recursion at good p and by powers of t_p/sqrt(p) at bad p.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .arith import (
    AngleSeries,
    NormalizedSequence,
    chebyshev_recurrence,
    fill_multiplicative,
    is_prime,
    primes_up_to,
)
from .errors import CapacityError, DataCorruptionError, IncompleteInputError
from .report import VerificationReport

TRACE_PRIME_GUARD = 10_000_000
_SWEEP_CHUNK = 1 << 20
# Mestre: for p > 229, E or its twist has a point whose order has exactly one
# multiple in the Hasse interval, so BSGS starts at the bound.  It is the
# faster kernel from there on: at 10^4 < p <= 2*10^4 a batch takes 39 us per
# prime against 385 us for the sweep.
_BSGS_ABOVE = 229
# int64 bytes of one block's giant-step table, (2K + 1) x primes.  It sizes
# the block, whose baby-step tables are about as large; 2^18 keeps the
# ec-session peak within 0.6 MiB of the one-prime-at-a-time kernel's
_TABLE_BYTES = 1 << 18


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
    a one-prime `_batch_traces` at good p above the crossover, the sweep otherwise."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > TRACE_PRIME_GUARD:
        raise ValueError(f"p={p} exceeds the trace prime guard {TRACE_PRIME_GUARD}")
    if p > _BSGS_ABOVE and curve.discriminant % p:
        return int(_batch_traces(curve, np.array([p], dtype=np.int64))[0])
    return _sweep_trace(curve, p)


def _residues(n: int, ps: np.ndarray) -> np.ndarray:
    """n mod p for every p < 2^31, exact for any Python int: Horner over its
    30-bit limbs keeps each partial value below 2^61."""
    r = np.zeros(len(ps), dtype=np.int64)
    mag = abs(n)
    for shift in range(30 * (mag.bit_length() // 30), -1, -30):
        r = ((r << 30) + ((mag >> shift) & (2**30 - 1))) % ps
    return -r % ps if n < 0 else r


def trace_batch(curve: CurveSpec, primes) -> np.ndarray:
    """Exact traces at good primes 229 < p <= TRACE_PRIME_GUARD, each checked first."""
    ps = np.asarray(primes, dtype=np.int64)
    if ps.size and (ps.min() <= _BSGS_ABOVE or ps.max() > TRACE_PRIME_GUARD):
        raise ValueError(f"batched traces need {_BSGS_ABOVE} < p <= {TRACE_PRIME_GUARD}")
    composite = ps[~np.isin(ps, primes_up_to(int(ps.max(initial=0))))]
    if composite.size:
        raise ValueError(f"{composite[0]} is not prime")
    if not np.all(_residues(curve.discriminant, ps)):
        raise ValueError(f"bad prime for A={curve.a4}, B={curve.a6} in a batch of good primes")
    return _batch_traces(curve, ps)


def _batch_traces(curve: CurveSpec, ps: np.ndarray) -> np.ndarray:
    """`trace_batch` on int64 primes its caller has checked.

    Shanks-Mestre at every prime at once: for d = f(x0) != 0, (d x0, d^2)
    lies on y^2 = x^3 + A d^2 x + B d^3, which is E when d is a square mod p
    and its quadratic twist otherwise, so t_E = chi(d) t.  The walk starts
    at x0 = p // 2: rational torsion points sit at small x (y^2 = x^3 - 2x +
    1 has (0, +-1) at every p) and have too small an order to pin t.  A
    prime whose point is rejected retries at x0 + 1 in the next round, which
    pools the rejects of every block; one that uses up all p starts raises.
    """
    A, B = _residues(curve.a4, ps), _residues(curve.a6, ps)
    t = np.zeros(len(ps), dtype=np.int64)
    todo, i = np.arange(len(ps)), 0
    while todo.size:
        if ps[todo].min() <= i:
            raise DataCorruptionError(
                f"no point of A={curve.a4}, B={curve.a6} or its twist pins "
                f"t_{ps[todo].min()} in the Hasse interval (Mestre's theorem rules "
                f"this out for p > {_BSGS_ABOVE})"
            )
        shape = _bsgs_shape(ps[todo])
        ok = np.zeros(len(todo), dtype=bool)
        for blk in _blocks(shape[3]):
            at = todo[blk]
            p = ps[at]
            ok[blk], tb = _shanks_mestre(p, A[at], B[at], (p // 2 + i) % p,
                                         *(v[blk] for v in shape))
            t[at[ok[blk]]] = tb[ok[blk]]
        todo, i = todo[~ok], i + 1
    return t


def _isqrt(n: np.ndarray) -> np.ndarray:
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _bsgs_shape(ps: np.ndarray):
    """(T, m, s, K) per prime: T = isqrt(4p) bounds |t|, and every t in
    [-T, T] is k s + j for one giant step |k| <= K and one |j| <= m, s = 2m + 1."""
    T = _isqrt(4 * ps)
    m = _isqrt((2 * T + 1) // 2)
    s = 2 * m + 1
    return T, m, s, -(-(T - m) // s)


def _blocks(K: np.ndarray):
    """Contiguous slices whose (2 max K + 1) x size giant table fits _TABLE_BYTES."""
    width = 2 * np.maximum.accumulate(K) + 1
    lo = 0
    while lo < len(K):
        # the width at the block's tentative end bounds every width in it
        end = min(lo + max(1, _TABLE_BYTES // (8 * int(width[lo]))), len(K))
        hi = lo + max(1, _TABLE_BYTES // (8 * int(width[end - 1])))
        yield slice(lo, hi)
        lo = hi


def _powmod(b: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    out = np.ones_like(b)
    for bit in range(int(e.max()).bit_length()):
        out = np.where((e >> bit) & 1 == 1, out * b % p, out)
        b = b * b % p
    return out


def _batch_inverse(Z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Z^-1 mod p down each column of a (rows, primes) table by Montgomery's
    trick, one Fermat inverse per column; a zero (a point at infinity) is
    inverted as 1."""
    Z = np.where(Z == 0, 1, Z)
    prefix = np.empty_like(Z)
    acc = prefix[0] = Z[0]
    for i in range(1, len(Z)):
        acc = prefix[i] = acc * Z[i] % p
    inv = _powmod(acc, p - 2, p)
    out = np.empty_like(Z)
    for i in range(len(Z) - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % p
        inv = inv * Z[i] % p
    out[0] = inv
    return out


def _dbl(X, Y, Z, a, p):
    """2(X : Y : Z) in Jacobian coordinates; O (Z = 0) and a 2-torsion point
    (Y = 0) both give Z3 = 0, so doubling is exact everywhere."""
    XX, YY = X * X % p, Y * Y % p
    ZZ = Z * Z % p
    S = 4 * (X * YY % p) % p
    M = (3 * XX + a * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    return X3, (M * ((S - X3) % p) - 8 * (YY * YY % p)) % p, 2 * (Y * Z % p) % p


def _add(R, Q, twoQ, p):
    """R + Q for an affine Q, exact at every R: the generic Jacobian formula,
    with O + Q = Q and Q + Q = 2Q (given) put in where it fails; -Q + Q
    gives Z3 = Z1 H = 0, which is O."""
    X1, Y1, Z1 = R
    Z1Z1 = Z1 * Z1 % p
    H = (Q[0] * Z1Z1 - X1) % p
    r = (Q[1] * (Z1 * Z1Z1 % p) - Y1) % p
    HH = H * H % p
    HHH, V = H * HH % p, X1 * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    S = (X3, (r * ((V - X3) % p) - Y1 * HHH) % p, Z1 * H % p)
    at_o = Z1 == 0
    same = (H == 0) & (r == 0) & ~at_o
    if at_o.any() or same.any():
        S = tuple(np.where(at_o, q, np.where(same, q2, s))
                  for s, q, q2 in zip(S, (*Q, 1), twoQ))
    return S


def _affine_y(Y, zinv, p):
    return Y * (zinv * zinv % p * zinv % p) % p


def _multiple(k, P, twoP, a, p):
    """k P for per-prime k >= 1 by left-to-right double-and-add, exact at
    every step (R starts at O = (1 : 1 : 0))."""
    one = np.ones_like(k)
    R = (one, one, 0 * one)
    for bit in range(int(k.max()).bit_length() - 1, -1, -1):
        R = _dbl(*R, a, p)
        S = _add(R, P, twoP, p)
        on = (k >> bit) & 1 == 1
        R = tuple(np.where(on, s, r) for s, r in zip(S, R))
    return R


def _unique_traces(cols, t, n):
    """(exactly one candidate, that candidate) per column, from the
    candidate pairs (column, t) that lie in their Hasse interval."""
    out = np.zeros(n, dtype=np.int64)
    out[cols] = t
    return np.bincount(cols, minlength=n) == 1, out


def _shanks_mestre(p, A, B, x0, T, m, s, K):
    """One round on a block of primes: (accepted, t) per prime.

    Baby steps store x(jP) for 1 <= j <= m; the giant walk visits
    R_k = (p + 1 - k s) P for |k| <= K, and R_k = +-jP (or O, j = 0) pins
    t = k s + j.  When the order of P is at most 2m <= T, two t in [-T, T]
    satisfy the equation, so P is rejected as soon as the baby steps repeat
    an x, hit O or a 2-torsion point, or sP = O (d = 0 gives no point and
    is rejected too); beyond that, j -> jP is one-to-one on [-m, m] and
    each R_k matches at most one j.  Each block runs its largest m and K;
    baby steps past a prime's own m are masked, and giant steps past its own
    K give |t| > T.
    """
    n, M, Kb = len(p), int(m.max()), int(K.max())
    cols = np.arange(n)
    d = (x0 * ((x0 * x0 + A) % p) + B) % p
    a = A * (d * d % p) % p
    P = (d * x0 % p, d * d % p)
    one = np.ones(n, dtype=np.int64)
    # baby steps 1..M, then sP = 2(mP) + P in row M
    BX, BY, BZ = (np.empty((M + 1, n), dtype=np.int64) for _ in range(3))
    BX[0], BY[0], BZ[0] = P[0], P[1], one
    BX[1], BY[1], BZ[1] = twoP = _dbl(*P, one, a, p)
    for j in range(2, M):
        BX[j], BY[j], BZ[j] = _add((BX[j - 1], BY[j - 1], BZ[j - 1]), P, twoP, p)
    mP = (BX[m - 1, cols], BY[m - 1, cols], BZ[m - 1, cols])
    BX[M], BY[M], BZ[M] = _add(_dbl(*mP, a, p), P, twoP, p)
    zinv = _batch_inverse(BZ, p)
    bx = BX * (zinv * zinv % p) % p
    baby = np.arange(M)[:, None] < m
    rejected = (d == 0) | (BZ[M] == 0) | np.any(baby & ((BZ[:M] == 0) | (BY[:M] == 0)), axis=0)
    # baby keys (column, x), sorted; a repeated key is a repeated x
    sel = np.flatnonzero(baby)
    keys = ((sel % n) << 31) + bx.ravel()[sel]
    order = np.argsort(keys)
    keys, sel = keys[order], sel[order]
    rejected[sel[1:][keys[1:] == keys[:-1]] % n] = True

    Q = (bx[M], (p - _affine_y(BY[M], zinv[M], p)) % p)
    twoQ = _dbl(*Q, one, a, p)
    W = 2 * Kb + 1
    GX, GY, GZ = (np.empty((W, n), dtype=np.int64) for _ in range(3))
    R = _multiple(p + 1 + Kb * s, P, twoP, a, p)
    for i in range(W):
        GX[i], GY[i], GZ[i] = R
        if i + 1 < W:
            R = _add(R, Q, twoQ, p)
    ginv = _batch_inverse(GZ, p)
    gx = GX * (ginv * ginv % p) % p
    gkey = ((cols << 31) + gx).ravel()
    pos = np.minimum(np.searchsorted(keys, gkey), len(keys) - 1)
    at_o = GZ.ravel() == 0
    hit = np.flatnonzero((keys[pos] == gkey) & ~at_o)
    # the sign of j from the y-coordinates of the matched pair
    b, pc = sel[pos[hit]], p[hit % n]
    yg = _affine_y(GY.ravel()[hit], ginv.ravel()[hit], pc)
    yb = _affine_y(BY.ravel()[b], zinv.ravel()[b], pc)
    j = np.where(yg == yb, b // n + 1, -(b // n + 1))
    g = np.concatenate([hit, np.flatnonzero(at_o)])
    j = np.concatenate([j, np.zeros(len(g) - len(hit), dtype=np.int64)])
    c = g % n
    t = (g // n - Kb) * s[c] + j
    inside = np.abs(t) <= T[c]
    ok, t = _unique_traces(c[inside], t[inside], n)
    ok &= ~rejected
    chi = _powmod(d, (p - 1) // 2, p)
    return ok, np.where(chi == 1, t, -t)


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
    """Traces at every prime <= limit: one `_batch_traces` call for the good
    primes above the crossover, the sweep through `trace_at_prime` for the
    rest (the primes <= 229 and the bad primes)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > TRACE_PRIME_GUARD:
        raise CapacityError(f"limit {limit} exceeds the series budget {TRACE_PRIME_GUARD}")
    ps = primes_up_to(limit)
    good = _residues(curve.discriminant, ps) != 0
    batched = good & (ps > _BSGS_ABOVE)
    t = np.empty(len(ps), dtype=np.int64)
    t[batched] = _batch_traces(curve, ps[batched])
    t[~batched] = [trace_at_prime(curve, int(p)) for p in ps[~batched]]
    return TraceSeries(limit=limit, curve=curve, primes=ps, t=t, good=good)


def ec_normalized_sequence(series: TraceSeries, limit: int) -> NormalizedSequence:
    """t_n / n^(1/2) for n <= limit as a normalized multiplicative sequence.

    Good p: u_{k+1} = a_p u_k - u_{k-1} with a_p = t_p/sqrt(p) (normalized
    Euler factor).  Bad p: a_{p^k} = (t_p/sqrt(p))^k.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
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

    values = fill_multiplicative(limit, prime_power, np.full(limit + 1, np.nan))
    return NormalizedSequence(
        limit=limit,
        values=values,
        source="elliptic",
        meta={
            "a4": series.curve.a4,
            "a6": series.curve.a6,
            "bad_primes": [int(p) for p in series.primes[~series.good] if p <= limit],
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
