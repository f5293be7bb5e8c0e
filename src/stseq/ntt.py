"""Exact squaring of integer series by float64 FFTs over balanced digits.

`square_truncated` squares a series of signed integers held as 64-bit limbs
(`stseq.limbs`) exactly, with float FFTs over split digits (Knuth, TAOCP
vol. 2, 4.3.3).  The series splits once into D balanced b-bit digits,
|d| <= 2^(b - 1), so the product of two digit series is a real convolution
whose coefficients stay below D * keep * 2^(2b - 2).  Rounding recovers
them exactly below 2^52 only in principle: float FFT error grows with the
norms of the factors (Percival, Math. Comp. 72, 2003), and digits that all
sit at -2^(b - 1) round off by up to 1/2 at that bound.  So `digit_plan`
takes the widest b whose bound stays at 2^47 or below, five bits of
headroom, with D the fewest digits that hold the widest value.  At 2^19 the
tau stages take b = 14, with 2 and 4 digits; at 10^6, 2 and 5; at 10^7 the
headroom keeps b at 12 and 11, with 3 and 6 digits.  Each digit is
transformed once, and each weight 2^(bw) of the square takes one inverse
transform of the sum of its digit products.  The weights come out in
ascending order, so an int64 carry turns each into one b-bit digit of the
output limbs.  Every rounding is checked, and the carry left past the
output's top bit must be its sign extension, so a wrong product or a too
narrow output raises rather than return a wrong value.

`cyclic_square_truncated` squares residues modulo a prime through the same
kernel.  `find_ntt_primes` lists the moduli of `tau.integrity_check`'s
multiplicativity detector; the other CRT names below it (`get_plan`,
`garner_lift`) have no package caller and stay because the benchmark's
tracer wraps them by name (ROADMAP item 2).  The Garner lift takes balanced
mixed-radix digits (Knuth, TAOCP vol. 2, 4.3.2), whose Horner sum is the
centred value, written in two's complement by int64 carries with no
comparison against half the modulus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import limbs as lb
from .arith import is_prime
from .errors import CapacityError, ConfigurationError, DataCorruptionError

LIMB_BITS = 11
# a plan takes a prime below 2^31, three 11-bit limbs, and carries the
# weights 2^(11k) mod p of their 2 LIMBS - 1 cross products
LIMBS = 3
MAX_MODULUS = 1 << 31
# exact coefficients are integers, so a genuine rounding error stays far
# below 1/2; anything past this means the float product lost precision
ROUNDING_TOLERANCE = 0.25
# the digit plan's bound on every coefficient of a digit product: 5 bits
# below 2^52, since coherent digits near that bound round off by up to 1/2
_HEADROOM = 1 << 47
# entries per step of the digit, product and carry passes: bounds their
# temporaries to a fraction of a spectrum
_CHUNK = 1 << 16


def find_ntt_primes(bound: int) -> list[int]:
    """The fewest primes below 2^31, largest first, whose product exceeds
    2 * bound, so a centred Garner lift recovers every integer of absolute
    value at most bound.

    The float squaring, the lift and the residue comparisons of
    `tau.integrity_check` take any distinct odd primes below 2^31.  The name
    dates from the number-theoretic transform, whose primes had to be 1 mod
    its length; it stays until the benchmark, which wraps this function by
    name, stops naming it (ROADMAP item 2).
    """
    out, product = [], 1
    for p in range(MAX_MODULUS - 1, 2, -2):
        if is_prime(p):
            out.append(p)
            product *= p
            if product > 2 * bound:
                return out
    raise ConfigurationError(f"the odd primes below 2^31 cannot lift a bound of {bound}")


@dataclass(frozen=True)
class SquarePlan:
    """Modulus, FFT length and limb weights 2^(11k) mod p, k = 0..4."""

    p: int
    length: int
    weights: tuple[int, ...]


@functools.lru_cache(maxsize=64)
def get_plan(p: int, length: int) -> SquarePlan:
    """The (cached) plan for squaring mod p at FFT length `length`."""
    if not 2 <= p < MAX_MODULUS:
        raise ConfigurationError(f"modulus {p} outside [2, 2^31)")
    weights = tuple(pow(2, LIMB_BITS * k, p) for k in range(2 * LIMBS - 1))
    return SquarePlan(p=p, length=length, weights=weights)


def round_exact(x: np.ndarray) -> np.ndarray:
    """Round float convolution output to the int64 integers it approximates.

    Raises DataCorruptionError when any value sits more than
    ROUNDING_TOLERANCE from its nearest integer.
    """
    r = np.rint(x)
    err = float(np.max(np.abs(x - r), initial=0.0))
    if err > ROUNDING_TOLERANCE:
        raise DataCorruptionError(
            f"FFT rounding error {err:.3g} exceeds {ROUNDING_TOLERANCE}: product not exact"
        )
    return r.astype(np.int64)


def transform_length(keep: int) -> int:
    """Smallest power of two >= 2 * keep - 1 (keep >= 1): no cyclic wrap
    reaches the first keep coefficients of a square."""
    return 1 << (2 * keep - 2).bit_length()


def digit_plan(series: np.ndarray, keep: int) -> tuple[int, int]:
    """(b, D): the widest digit width b whose D = bits // b + 1 balanced
    digits square a limb array exactly over keep terms, for bits the largest
    bit length of v (v >= 0) or ~v (v < 0) over its rows.

    Balanced digits have |d| <= 2^(b - 1), so each weight of the square sums
    at most D products of keep terms, each at most 2^(2b - 2).  b is the
    widest with D * keep * 2^(2b - 2) <= 2^47 (_HEADROOM).  Raises
    CapacityError, before anything keep-sized is allocated, when no b >= 1
    fits.
    """
    series = np.asarray(series, dtype=np.uint64)
    bits = 0
    for s in range(0, len(series), _CHUNK):
        rows = series[s : s + _CHUNK]
        fill = (rows[:, -1:].view(np.int64) >> 63).view(np.uint64)  # all ones if negative
        # per limb, the OR of every row's v or ~v: its top set bit is bits
        cols = np.bitwise_or.reduce(rows ^ fill, axis=0).tolist()
        bits = max([bits] + [64 * k + c.bit_length() for k, c in enumerate(cols) if c])
    # 2b - 2 <= 47 bounds b by 24
    fits = [b for b in range(1, 25) if (bits // b + 1) * keep << 2 * b - 2 <= _HEADROOM]
    if not fits:
        raise CapacityError(f"no digit width squares {bits}-bit values over {keep} terms exactly")
    return fits[-1], bits // fits[-1] + 1


def _digit(rows: np.ndarray, i: int, b: int, top: bool) -> np.ndarray:
    """Digit i (bits b i .. b i + b - 1) of each row as int64, read as two's
    complement if top, else unsigned.

    A digit may straddle two limbs; bits above the last limb are the sign.
    """
    q, r = divmod(b * i, 64)
    u = rows[:, q] >> np.uint64(r)
    if r > 64 - b:
        above = rows[:, q + 1] if q + 1 < rows.shape[1] else \
            (rows[:, -1].view(np.int64) >> 63).view(np.uint64)
        u |= above << np.uint64(64 - r)
    d = (u & np.uint64((1 << b) - 1)).view(np.int64)
    if top:
        d ^= 1 << (b - 1)
        d -= 1 << (b - 1)
    return d


def _weight_product(spectra: list, w: int, dest: np.ndarray) -> None:
    """dest = sum over i + j = w of spectra[i] * spectra[j].

    Chunk by chunk, each read before its write, so dest may be one of the
    factors."""
    lo = max(0, w - len(spectra) + 1)
    pairs = [(i, w - i) for i in range(lo, (w + 1) // 2)]  # i < j, each twice
    for s in range(0, len(dest), _CHUNK):
        f = {i: spectra[i][s : s + _CHUNK] for i in range(lo, w - lo + 1)}
        acc = f[w // 2] * f[w // 2] if w % 2 == 0 else np.zeros_like(dest[s : s + _CHUNK])
        for i, j in pairs:
            acc += 2 * f[i] * f[j]
        dest[s : s + _CHUNK] = acc


def square_truncated(series: np.ndarray, keep: int, width: int) -> np.ndarray:
    """The first `keep` coefficients of the square of a series, exactly, as
    a (keep, width) limb array; the series is an (N, W) limb array, of
    which only the first keep rows can reach the kept coefficients.

    With D balanced b-bit digits (digit_plan), weight w of the square is one
    inverse transform of sum_{i+j=w} f_i f_j over the digit spectra f.  The
    digits are taken low to high: each low digit is its b bits plus the
    carry from the digit below, less 2^b if that reaches 2^(b - 1), which
    carries 1 into the next; the top digit is its b bits read signed, plus
    the carry.  A spectrum is taken when first needed and dropped after its
    last use; each weight's product goes into a spectrum not filled yet or
    at its last use, so no other spectrum-sized array is taken.  Weights
    0 .. 2D - 2 are rounded in ascending order into a signed carry, which
    gives one b-bit digit of the output per weight and then, past the last
    weight, per carry step.  Raises CapacityError when no digit width keeps
    the products exact, and DataCorruptionError on an inexact product or a
    value wider than width limbs.
    """
    if keep < 1 or width < 1:
        raise ValueError(f"need keep >= 1 and width >= 1, got {keep} and {width}")
    series = np.asarray(series, dtype=np.uint64)[:keep]
    b, D = digit_plan(series, keep)
    n = transform_length(keep)
    spectra = [None] * D

    def spectrum(i):
        if spectra[i] is None:
            spectra[i] = np.empty(n // 2 + 1, dtype=np.complex128)
        return spectra[i]

    buf = np.empty(n)  # digit input of each forward transform, output of each inverse
    m = len(series)
    borrowed = np.zeros(m, dtype=bool)  # the digit below went negative: carry 1 in
    # limb-major, so a limb's pages are touched only once a digit reaches it
    out = np.zeros((width, keep), dtype=np.uint64).T
    carry = np.zeros(keep, dtype=np.int64)
    mask = (1 << b) - 1
    weights = 2 * D - 1
    digits = -(-64 * width // b)  # the last one holds the top bit
    top_bit = 64 * width - 1
    steps = max(weights, digits)
    for w in range(steps):
        if w < D:
            buf[m:] = 0
            for s in range(0, m, _CHUNK):
                e = min(s + _CHUNK, m)
                d = _digit(series[s:e], w, b, w == D - 1)
                d += borrowed[s:e]
                if w < D - 1:
                    np.greater_equal(d, 1 << (b - 1), out=borrowed[s:e])
                    d -= (1 << b) * borrowed[s:e]
                buf[s:e] = d
            np.fft.rfft(buf, out=spectrum(w))
        if w < weights:
            # below D - 1 the top spectrum is not filled yet; from D - 1 on
            # the lowest live one is at its last use
            target = D - 1 if w < D - 1 else w - D + 1
            _weight_product(spectra, w, spectrum(target))
            vals = np.fft.irfft(spectra[target], n=n, out=buf)
            if w >= D - 1:
                spectra[target] = None
        q, r = divmod(b * w, 64)
        for s in range(0, keep, _CHUNK):
            e = min(s + _CHUNK, keep)
            c = carry[s:e]
            if w < weights:
                c += round_exact(vals[s:e])
            d = (c & mask).view(np.uint64)
            c >>= b
            rows = out[s:e]
            if w < digits:
                rows[:, q] |= d << np.uint64(r)
                if r > 64 - b and q + 1 < width:
                    rows[:, q + 1] |= d >> np.uint64(64 - r)
            if w >= digits - 1:
                # every bit from the top bit up must repeat it, the carry too
                sign = (rows[:, -1] >> np.uint64(63)).view(np.int64)
                low = max(top_bit - b * w, 0)
                ext = (d >> np.uint64(low)).view(np.int64)
                if np.any(ext != sign * ((1 << (b - low)) - 1)) or (
                        w == steps - 1 and np.any(c != -sign)):
                    raise DataCorruptionError(f"square exceeds {width} signed 64-bit limbs")
    return out


def cyclic_square_truncated(res: np.ndarray, plan: SquarePlan, keep: int) -> np.ndarray:
    """Square a residue polynomial (degree < keep), return the first `keep`
    coefficients mod plan.p as uint64: the exact square, reduced.  Only
    the plan's modulus is read; the kernel sizes its own transforms."""
    bound = keep * (plan.p - 1) ** 2
    sq = square_truncated(np.asarray(res, dtype=np.uint64)[:, None], keep, lb.width_for(bound))
    return lb.mod_small(sq, plan.p).view(np.uint64)


def garner_lift(residues: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """Centred CRT lift of per-prime residue vectors, as an (N, W) array of
    64-bit limbs in the form of `stseq.limbs`.

    The primes are odd, so the mixed-radix digits can be balanced,
    |d_i| <= (p_i - 1)/2, and held as int32.  Their largest sums telescope, sum (p_i - 1)/2 p_0..p_{i-1} =
    (M - 1)/2 for M the product of the primes, so v = sum d_i p_0..p_{i-1}
    is the centred value itself.  Horner on 32-bit limbs held in int64,
    with arithmetic-shift carries, writes v in two's complement: a limb
    times a modulus plus a carry (|carry| < 2^31) stays below 2^63, and the
    mod-p Horner on the digits below 2^62.
    """
    if not primes:
        raise ValueError("no primes")
    n = len(residues[0])
    digits = np.empty((len(primes), n), dtype=np.int32)
    for i, p in enumerate(primes):
        # d_0 + d_1 p_0 + ... + d_{i-1} p_0..p_{i-2}  (mod p)
        acc = np.zeros(n, dtype=np.int64)
        for j in range(i - 1, -1, -1):
            acc = (acc * (primes[j] % p) + digits[j]) % p
        inv = pow(math.prod(primes[:i]), -1, p)
        half = (p - 1) // 2  # (x + half) % p - half is x's residue in [-half, half]
        digits[i] = ((residues[i].astype(np.int64) - acc) % p * inv + half) % p - half
    # |v| <= (M - 1)/2 < 2^(64 width - 1): `width` signed limbs hold it
    width = (math.prod(primes).bit_length() + 63) // 64
    big = np.zeros((2 * width, n), dtype=np.int64)
    for p, carry in zip(primes[::-1], digits[::-1]):
        for t in range(2 * width):
            v = big[t] * p
            v += carry
            np.bitwise_and(v, 0xFFFF_FFFF, out=big[t])
            carry = np.right_shift(v, 32, out=v)  # out of the top limb: sign extension
    u = big.view(np.uint64)
    return (u[0::2] | (u[1::2] << np.uint64(32))).T.copy()
