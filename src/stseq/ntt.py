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
absolute value.  Each lift is sized by a proven bound on its own output
(`stseq.tau` bounds every stage of its eta-power chain apart).
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


def find_ntt_primes(transform_len: int, count: int) -> list[int]:
    """`count` primes p < 2^31 with p = 1 (mod transform_len), descending."""
    if transform_len & (transform_len - 1):
        raise ValueError("transform_len must be a power of two")
    out: list[int] = []
    k = (2**31 - 2) // transform_len
    while k >= 1 and len(out) < count:
        p = k * transform_len + 1
        if is_prime(p):
            out.append(p)
        k -= 1
    if len(out) < count:
        raise ConfigurationError(
            f"only {len(out)} NTT primes available below 2^31 for length {transform_len}"
        )
    return out


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
    """Centered CRT lift of per-prime residue vectors, as an (N, W) array of
    64-bit limbs in the form of `stseq.limbs`.

    Mixed-radix digits are computed in uint64 (all moduli < 2^31 so every
    intermediate product fits).  The Horner evaluation and the centring run
    on 32-bit limbs held in uint64, where a limb times a modulus plus a carry
    stays below 2^64.  Values above prod/2 map to negatives.
    """
    k = len(primes)
    if k == 0:
        raise ValueError("no primes")
    digits = [residues[0].astype(np.uint64)]
    for i in range(1, k):
        pi = np.uint64(primes[i])
        # evaluate d_0 + d_1 p_0 + ... + d_{i-1} p_0..p_{i-2}  (mod p_i)
        acc = digits[i - 1] % pi
        for j in range(i - 2, -1, -1):
            acc = (acc * np.uint64(primes[j] % primes[i]) + digits[j]) % pi
        prod_inv = pow(math.prod(primes[:i]) % primes[i], primes[i] - 2, primes[i])
        d = ((residues[i] + (pi - acc % pi)) * np.uint64(prod_inv)) % pi
        digits.append(d)
    modulus = math.prod(primes)
    # |centred value| <= modulus / 2 < 2^(bits - 1): `bits` signed bits hold it
    width = (modulus.bit_length() + 63) // 64
    n32 = 2 * width
    mask = np.uint64(0xFFFF_FFFF)
    big = np.zeros((n32, len(digits[0])), dtype=np.uint64)
    big[0] = digits[-1]
    for j in range(k - 2, -1, -1):
        carry = digits[j]
        for t in range(n32):
            v = big[t] * np.uint64(primes[j]) + carry
            big[t] = v & mask
            carry = v >> np.uint64(32)
    # value > modulus // 2, compared limb by limb from the top
    half = _limbs32(modulus // 2, n32)
    above = np.zeros(big.shape[1], dtype=bool)
    tied = np.ones(big.shape[1], dtype=bool)
    for t in range(n32 - 1, -1, -1):
        above |= tied & (big[t] > half[t])
        tied &= big[t] == half[t]
    # subtract the modulus where above, wrapping to two's complement
    sub = _limbs32(modulus, n32)
    borrow = np.zeros(big.shape[1], dtype=np.uint64)
    for t in range(n32):
        v = big[t] - np.where(above, sub[t], np.uint64(0)) - borrow
        borrow = (v >> np.uint64(63)) & np.uint64(1)  # went below 0 (inputs < 2^33)
        big[t] = v & mask
    return (big[0::2] | (big[1::2] << np.uint64(32))).T.copy()


def _limbs32(value: int, count: int) -> list[np.uint64]:
    return [np.uint64((value >> (32 * t)) & 0xFFFF_FFFF) for t in range(count)]
