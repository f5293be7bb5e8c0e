"""Signed integers packed as little-endian two's-complement 64-bit limbs.

An (N, W) uint64 array holds N integers: row r is
sum_k limbs[r, k] 2^(64k) read as a W*64-bit two's-complement number, so
the top bit of limbs[r, W-1] is its sign.  W is the width of the array, not
of each value; any W that holds the largest value is valid.  Exact tau
tables live in this form, and every stage that reads one (the cache codec,
the float views, the mod-691 congruence) works on the limbs in numpy.
Python ints are built only where exact arithmetic needs them.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_U64 = np.uint64
_ONES = _U64(0xFFFF_FFFF_FFFF_FFFF)
# _BYTE_MASKS[k] keeps the low k bytes of a uint64, k = 0..8
_BYTE_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype=np.uint64)


def from_ints(values: Sequence[int]) -> np.ndarray:
    """Pack Python ints into an (N, W) limb array with the fewest limbs."""
    w = max(((v if v >= 0 else ~v).bit_length() // 64 + 1 for v in values), default=1)
    raw = b"".join(v.to_bytes(8 * w, "little", signed=True) for v in values)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(len(values), w)


def to_ints(limbs: np.ndarray) -> list[int]:
    """The Python ints a limb array holds, one per row."""
    limbs = np.asarray(limbs, dtype=np.uint64)
    w = limbs.shape[1]
    out = limbs[:, w - 1].view(np.int64).tolist()
    for k in range(w - 2, -1, -1):
        out = [hi << 64 | lo for hi, lo in zip(out, limbs[:, k].tolist())]
    return out


def negative(limbs: np.ndarray) -> np.ndarray:
    """Sign of each row, as a bool array."""
    return (limbs[:, -1] >> _U64(63)).astype(bool)


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64 (0 for 0).

    float64 rounding can carry x up to the next power of two, so the
    exponent frexp gives is b or b + 1; x >> (e - 1) is 0 only in the second
    case (shifts by 64 give 0 in numpy).
    """
    e = np.frexp(x.astype(np.float64))[1]
    return e - ((x >> np.maximum(e - 1, 0).astype(np.uint64) == 0) & (x != 0))


def _magnitude(limbs: np.ndarray) -> np.ndarray:
    """|v| per row as unsigned limbs of the same width (exact: |v| <= 2^(64W-1))."""
    sign = (limbs[:, -1:].view(np.int64) >> 63).view(np.uint64)  # all ones if negative
    mag = limbs ^ sign  # -v = ~v + 1, the +1 carried up the limbs
    carry = sign[:, 0] & _U64(1)
    for k in range(mag.shape[1]):
        mag[:, k] += carry
        carry &= mag[:, k] == 0
    return mag


def to_float(limbs: np.ndarray) -> np.ndarray:
    """Correctly rounded float64 of every row, equal to float(int) bit for bit.

    The top 64 bits of |v| go through one uint64 -> float64 conversion with a
    sticky bit OR-ed into their lowest bit for any nonzero bit below them
    (round to odd at 64 bits, then to nearest even at 53, is exact rounding),
    and ldexp puts back the dropped scale.  Values past the float64 range
    give inf where float(int) raises.
    """
    limbs = np.asarray(limbs, dtype=np.uint64)
    mag = _magnitude(limbs)
    # walk up the limbs: hi is the highest nonzero one (index top), lo the
    # limb below it, and below whether any limb under lo is nonzero
    hi, lo = mag[:, 0], np.zeros(len(mag), dtype=np.uint64)
    below = seen = np.zeros(len(mag), dtype=bool)  # seen: limbs under k - 1
    top = np.zeros(len(mag), dtype=np.int64)
    for k in range(1, mag.shape[1]):
        up = mag[:, k] != 0
        below = np.where(up, seen, below)
        lo = np.where(up, mag[:, k - 1], lo)
        hi = np.where(up, mag[:, k], hi)
        top[up] = k
        seen = seen | (mag[:, k - 1] != 0)
    bits = _bit_length(hi)
    shift = (64 - bits).astype(np.uint64)
    # shifts by 64 give 0 in numpy, which covers hi = 0 (bits 0) and bits = 64
    head = (hi << shift) | (lo >> bits.astype(np.uint64))
    head |= (((lo << shift) != 0) | below).astype(np.uint64)
    out = np.ldexp(head.astype(np.float64), 64 * top + bits - 64)
    return np.where(negative(limbs), -out, out)


def mod_small(limbs: np.ndarray, m: int) -> np.ndarray:
    """v mod m in [0, m) per row, for 2 <= m < 2^31 (Python's % on ints):
    Horner from the top limb read as int64, whose % takes the sign of m."""
    limbs = np.asarray(limbs, dtype=np.uint64)
    acc = limbs[:, -1].view(np.int64) % m
    for k in range(limbs.shape[1] - 2, -1, -1):
        acc = (acc * pow(2, 64, m) + (limbs[:, k] % _U64(m)).view(np.int64)) % m
    return acc


def byte_lengths(limbs: np.ndarray) -> np.ndarray:
    """Bytes of each row's shortest two's-complement form, as Python's
    (bit_length(v if v >= 0 else ~v) // 8) + 1: at least 1, at most 8W."""
    limbs = np.asarray(limbs, dtype=np.uint64)
    n, w = limbs.shape
    # ~v for negatives is non-negative with the same shortest length
    u = np.where(negative(limbs)[:, None], limbs ^ _ONES, limbs)
    raw = u.astype("<u8").view(np.uint8).reshape(n, 8 * w)
    nonzero = raw != 0
    # highest nonzero byte; 0 for an all-zero row, whose byte 0 is then 0
    top = np.where(nonzero.any(axis=1), 8 * w - 1 - np.argmax(nonzero[:, ::-1], axis=1), 0)
    return top + 1 + (raw[np.arange(n), top] >= 0x80)


def from_le_bytes(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Rows read from `data` (uint8): lengths[r] >= 1 little-endian
    two's-complement bytes at starts[r], sign-extended to the fewest limbs
    that hold the longest entry.

    Each limb is gathered as one unaligned 8-byte word and masked to the
    bytes that belong to its entry; `data` is padded so no word runs past it.
    """
    n = len(starts)
    w = int((int(lengths.max(initial=1)) + 7) // 8)
    padded = np.concatenate([data, np.zeros(8 * w, dtype=np.uint8)])
    words = np.ndarray(shape=(len(padded) - 7,), dtype="<u8", buffer=padded, strides=(1,))
    starts = starts.astype(np.int64)
    lengths = lengths.astype(np.int64)
    # all ones where the entry's last byte has its top bit set
    fill = np.where(padded[starts + lengths - 1] >= 0x80, _ONES, _U64(0))
    out = np.empty((n, w), dtype=np.uint64)
    for k in range(w):
        keep = _BYTE_MASKS[np.clip(lengths - 8 * k, 0, 8)]
        out[:, k] = words[starts + 8 * k] & keep | fill & ~keep
    return out
