"""Exact integer convolution modulo word-size primes, and the CRT lift.

A residue vector modulo a prime p < 2^31 is squared exactly by float64
FFTs over split limbs (Knuth, TAOCP vol. 2, 4.3.3).  Each residue splits
into three 11-bit limbs; the five limb cross products are real
convolutions whose coefficients stay below 2^44, well inside the 53-bit
mantissa, so rounding recovers them exactly.  Every squaring checks its
rounding error and raises rather than return a wrong residue.  The rounded
coefficients are reduced mod p and recombined with the weights 2^(11k)
mod p.  A residue is exact whatever the size of the integer coefficient it
stands for; capacity matters only at a Garner lift, which recovers the
integers exactly when the product of its primes exceeds twice their largest
absolute value.  Each lift takes the fewest of the largest primes below
2^31 that a proven bound on its own output needs (`stseq.tau` bounds every
stage of its eta-power chain apart).  The lift takes balanced mixed-radix
digits (Knuth, TAOCP vol. 2, 4.3.2), whose Horner sum is the centred value,
written in two's complement by int64 carries with no comparison against
half the modulus.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime
from .errors import ConfigurationError, DataCorruptionError

LIMB_BITS = 11
LIMBS = 3
# three 11-bit limbs cover 33 bits; residue times weight must fit in uint64
MAX_MODULUS = 1 << 31
# exact coefficients are integers, so a genuine rounding error stays far
# below 1/2; anything past this means the float product lost precision
ROUNDING_TOLERANCE = 0.25


def find_ntt_primes(bound: int) -> list[int]:
    """The fewest primes below 2^31, largest first, whose product exceeds
    2 * bound, so a centred Garner lift recovers every integer of absolute
    value at most bound.

    The float squaring and the lift take any distinct odd primes below
    2^31.  The name dates from the number-theoretic transform, whose primes
    had to be 1 mod its length; it stays until the benchmark, which wraps
    this function by name, stops naming it (ROADMAP item 2).
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
    """Round float convolution output to the integers it approximates.

    Raises DataCorruptionError when any value sits more than
    ROUNDING_TOLERANCE from its nearest integer.
    """
    r = np.rint(x)
    err = float(np.max(np.abs(x - r), initial=0.0))
    if err > ROUNDING_TOLERANCE:
        raise DataCorruptionError(
            f"FFT rounding error {err:.3g} exceeds {ROUNDING_TOLERANCE}: product not exact"
        )
    return r.astype(np.uint64)


def _limb_products(limb_spectrum):
    """Spectra of the limb products of weight 2^(11k), k = 0..4, one at a time.

    A limb's spectrum is taken when first needed and dropped after its last
    use, and the caller drops each product before asking for the next, which
    keeps fewer full-length arrays live at the squaring's peak.
    """
    f0, f1 = limb_spectrum(0), limb_spectrum(1)
    yield f0 * f0
    yield 2 * f0 * f1
    f2 = limb_spectrum(2)
    s = f0 * f2
    del f0
    s *= 2
    s += f1 * f1
    yield s
    del s
    yield 2 * f1 * f2
    del f1
    yield f2 * f2


def cyclic_square_truncated(res: np.ndarray, plan: SquarePlan, keep: int) -> np.ndarray:
    """Square a residue polynomial (degree < keep <= length/2), return the
    first `keep` coefficients mod plan.p as uint64."""
    n = plan.length
    r = np.asarray(res, dtype=np.uint64)
    mask = np.uint64((1 << LIMB_BITS) - 1)
    p = np.uint64(plan.p)
    out = np.zeros(keep, dtype=np.uint64)
    products = _limb_products(
        lambda k: np.fft.rfft((r >> np.uint64(LIMB_BITS * k)) & mask, n=n))
    for w in plan.weights:
        coeff = round_exact(np.fft.irfft(next(products), n=n)[:keep]) % p
        out += coeff * np.uint64(w) % p
    return out % p


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
