"""Signed integers packed as little-endian two's-complement 64-bit limbs.

An (N, W) uint64 array holds N integers: row r is
sum_k limbs[r, k] 2^(64k) read as a W*64-bit two's-complement number, so
the top bit of limbs[r, W-1] is its sign.  W is the width of the array, not
of each value; any W that holds the largest value is valid.  Exact tau
tables live in this form, and every stage that reads one (the cache codec,
the float views, the mod-691 congruence) works on the limbs in numpy.
Python ints are built only where exact arithmetic needs them.

The whole-table kernels (to_float, mod_small, byte_lengths) run in blocks
of ROW_BLOCK rows: a block's temporaries come back from the allocator block
after block and stay in cache, where full-length ones would be fresh pages
on every call.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .arith import blocks

_U64 = np.uint64
# rows per block of the whole-table kernels: 256 KiB per uint64 column
ROW_BLOCK = 1 << 15


def from_ints(values: Sequence[int]) -> np.ndarray:
    """Pack Python ints into an (N, W) limb array with the fewest limbs."""
    w = max(((v if v >= 0 else ~v).bit_length() // 64 + 1 for v in values), default=1)
    raw = b"".join(v.to_bytes(8 * w, "little", signed=True) for v in values)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(len(values), w)


def width_for(bound: int) -> int:
    """Fewest limbs that hold every integer of absolute value at most bound."""
    return bound.bit_length() // 64 + 1


def to_ints(limbs: np.ndarray) -> list[int]:
    """The Python ints a limb array holds, one per row."""
    limbs = np.asarray(limbs, dtype=np.uint64)
    w = limbs.shape[1]
    out = limbs[:, w - 1].view(np.int64).tolist()
    for k in range(w - 2, -1, -1):
        out = [hi << 64 | lo for hi, lo in zip(out, limbs[:, k].tolist())]
    return out


def _bit_length(x: np.ndarray) -> np.ndarray:
    """Exact bit length of each uint64 (0 for 0), as int64.

    Whichever 32-bit half holds x's top bit converts to float64 exactly, so
    the exponent field of that float is 1022 plus the half's bit length; 0
    has exponent field 0, clamped to bit length 0.
    """
    half = x >> _U64(32)
    upper = half != 0
    np.copyto(half, x, where=~upper)
    bits = half.astype(np.float64).view(np.int64)
    bits >>= 52
    bits -= 1022
    np.maximum(bits, 0, out=bits)
    bits += 32 * upper
    return bits


def to_float(limbs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Correctly rounded float64 of every row, equal to float(int) bit for bit,
    written into `out` when given.

    The top 64 bits of |v| go through one uint64 -> float64 conversion with a
    sticky bit OR-ed into their lowest bit for any nonzero bit below them
    (round to odd at 64 bits, then to nearest even at 53, is exact rounding),
    a power of two puts back the dropped scale and the sign bit is set last.
    The window starts at the top bit, or one bit above it where the exponent
    of float(hi) rounded up; 63 bits still round to odd exactly.  Values past
    the float64 range give inf where float(int) raises.
    """
    limbs = np.asarray(limbs, dtype=np.uint64)
    if out is None:
        out = np.empty(len(limbs), dtype=np.float64)
    for start, stop in blocks(0, len(limbs), ROW_BLOCK):
        _to_float_rows(limbs[start:stop], out[start:stop])
    return out


def _to_float_rows(limbs: np.ndarray, out: np.ndarray) -> None:
    n, w = limbs.shape
    sign = limbs[:, -1].view(np.int64) >> 63  # -1 on negative rows, else 0
    ones = sign.view(np.uint64)
    # |v| = (v ^ ones) - ones, the borrow carried up while the limbs below
    # are 0; walking up, hi is the highest nonzero limb (at bit `scale`), lo
    # the limb below it, sticky whether any limb under lo is nonzero
    hi = limbs[:, 0] ^ ones
    hi -= ones
    lo = np.zeros(n, dtype=np.uint64)
    sticky = np.zeros(n, dtype=bool)
    scale = np.zeros(n, dtype=np.int64)
    prev, carry, seen = hi, None, None
    for k in range(1, w):
        mag = limbs[:, k] ^ ones
        carry = prev == 0 if carry is None else carry & (prev == 0)
        np.subtract(mag, ones, out=mag, where=carry)
        up = mag != 0
        if seen is None:  # nothing lies under limb 0
            seen = prev != 0
        else:
            np.copyto(sticky, seen, where=up)
            seen |= prev != 0
        # lo reads prev before hi (which is prev while k = 1) moves up
        np.copyto(lo, prev, where=up)
        np.copyto(hi, mag, where=up)
        scale[up] = 64 * k
        prev = mag
    # 64 - bits of hi, or one less where float(hi) rounded up to 2^bits;
    # shifts by 64 give 0 in numpy, which covers hi = 0
    shift = hi.astype(np.float64).view(np.int64)
    shift >>= 52
    np.subtract(1086, shift, out=shift)
    np.clip(shift, 0, 64, out=shift)
    left = shift.view(np.uint64)
    np.left_shift(hi, left, out=hi)
    if w > 1:
        right = np.subtract(64, shift).view(np.uint64)
        hi |= np.right_shift(lo, right, out=right)
        np.left_shift(lo, left, out=lo)
        sticky |= lo != 0
        hi |= sticky
    np.copyto(out, hi)
    # 2^(scale - shift) as a float64 bit pattern; past the range it is inf
    scale -= shift
    scale += 1023
    np.clip(scale, 0, 2047, out=scale)
    scale <<= 52
    with np.errstate(over="ignore"):
        out *= scale.view(np.float64)
    sign <<= 63
    out.view(np.int64)[...] |= sign


def _rem(x: np.ndarray, m) -> np.ndarray:
    """x mod m for int64 or uint64 x and a divisor m of x's type, with the
    sign of m: numpy floor-divides a contiguous array by one divisor with a
    multiply, where its % divides each entry, and x - (x // m) m is exact in
    wrapping arithmetic since the remainder fits."""
    x = np.ascontiguousarray(x)
    q = x // m
    q *= m
    return np.subtract(x, q, out=q)


def mod_small(limbs: np.ndarray, m: int) -> np.ndarray:
    """v mod m in [0, m) per row, for 2 <= m < 2^31 (Python's % on ints):
    Horner from the top limb read as int64, every step below 2^63."""
    limbs = np.asarray(limbs, dtype=np.uint64)
    out = np.empty(len(limbs), dtype=np.int64)
    radix = pow(2, 64, m)
    for start, stop in blocks(0, len(limbs), ROW_BLOCK):
        rows = limbs[start:stop]
        acc = _rem(rows[:, -1].view(np.int64), m)
        for k in range(rows.shape[1] - 2, -1, -1):
            acc *= radix
            acc += _rem(rows[:, k], _U64(m)).view(np.int64)
            acc = _rem(acc, m)
        out[start:stop] = acc
    return out


def byte_lengths(limbs: np.ndarray) -> np.ndarray:
    """Bytes of each row's shortest two's-complement form, as Python's
    (bit_length(v if v >= 0 else ~v) // 8) + 1: at least 1, at most 8W.

    ~v for negatives is non-negative with the same shortest length, and its
    bit length is that of its highest nonzero limb plus 64 per limb below.
    """
    limbs = np.asarray(limbs, dtype=np.uint64)
    out = np.empty(len(limbs), dtype=np.int64)
    for start, stop in blocks(0, len(limbs), ROW_BLOCK):
        rows = limbs[start:stop]
        ones = (rows[:, -1].view(np.int64) >> 63).view(np.uint64)
        bits = _bit_length(rows[:, 0] ^ ones)
        for k in range(1, rows.shape[1]):
            u = rows[:, k] ^ ones
            np.copyto(bits, _bit_length(u) + 64 * k, where=u != 0)
        np.right_shift(bits, 3, out=out[start:stop])
    out += 1
    return out


def from_le_bytes(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Rows read from `data` (uint8): lengths[r] >= 1 little-endian
    two's-complement bytes at starts[r], sign-extended to the fewest limbs
    that hold the longest entry, or to the width of `out`, whose rows they
    are written into when it is given.

    Limb k of a row is one unaligned 8-byte word: the word at starts + 8k
    where the entry fills it, else the word that ends on the entry's last
    byte, shifted down arithmetically past the bytes below limb k (by 64
    for a limb wholly above the entry, which leaves the sign).  No word
    reads past the entry; a word that would start before `data` is read at
    byte 0 and moved up.
    """
    n = len(starts)
    if out is None:
        out = np.empty((n, (int(lengths.max(initial=1)) + 7) // 8), dtype=np.uint64)
    if len(data) < 8:
        data = np.concatenate([data, np.zeros(8 - len(data), dtype=np.uint8)])
    words = np.ndarray(shape=(len(data) - 7,), dtype="<i8", buffer=data, strides=(1,))
    starts = np.asarray(starts, dtype=np.int64)
    last = np.subtract(lengths, 8, dtype=np.int64)  # the last word's offset in its entry
    for k in range(out.shape[1]):
        at = np.minimum(last, 8 * k)
        drop = np.subtract(8 * k, at)
        np.minimum(drop, 8, out=drop)
        drop <<= 3
        at += starts
        early = np.flatnonzero(at < 0)
        lift = at[early] * -8
        at[early] = 0
        limb = words[at]
        limb[early] <<= lift
        np.right_shift(limb, drop, out=out[:, k].view(np.int64))
    return out
