"""The limb views of packed signed integers against Python's int arithmetic."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stseq import limbs as lb

from conftest import limbs_at_width


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _ties(draw_m, shift):
    """(2j+1) 2^shift with 2j+1 of 54 bits: halfway between two doubles."""
    return (draw_m | (1 << 53) | 1) << shift


# values with a 54-bit odd head are exact ties; adding a low 1 (sticky) or a
# bit just under the head moves them off the tie in either direction
_tie = st.builds(_ties, st.integers(0, 2**53 - 1), st.integers(0, 140))
_near_tie = st.builds(lambda t, d: t + d, _tie, st.sampled_from([1, -1, 2**11, -(2**11)]))
_ints = st.one_of(_tie, _near_tie, st.integers(-(2**64), 2**64),
                  st.integers(-(2**200), 2**200), st.integers(-(2**70), 2**70))
_signed = st.builds(lambda v, neg: -v if neg else v, _ints, st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.lists(_signed, min_size=1, max_size=30))
def test_views_equal_int_arithmetic(values):
    limbs = lb.from_ints(values)
    assert lb.to_ints(limbs) == values
    assert [_bits(x) for x in lb.to_float(limbs).tolist()] == [_bits(float(v)) for v in values]
    assert lb.mod_small(limbs, 691).tolist() == [v % 691 for v in values]
    assert lb.byte_lengths(limbs).tolist() == [
        (v if v >= 0 else ~v).bit_length() // 8 + 1 for v in values]


def test_extreme_and_wider_rows():
    """Each limb's extremes, and rows held in more limbs than they need."""
    values = [0, 1, -1, 2**63 - 1, -(2**63), 2**63, 2**64 - 1, 2**64, -(2**64),
              2**127 - 1, -(2**127), 2**53 + 1, (2**53 + 1) << 64, ((2**53 + 1) << 64) + 1]
    limbs = lb.from_ints(values)
    assert limbs.shape == (len(values), 2)
    wide = np.concatenate([limbs, (limbs[:, -1:].view(np.int64) >> 63).view(np.uint64)],
                          axis=1)
    for arr in (limbs, wide):
        assert lb.to_ints(arr) == values
        assert lb.to_float(arr).tolist() == [float(v) for v in values]
        for m in (2, 691, 2_130_706_433, 2**31 - 1):
            assert lb.mod_small(arr, m).tolist() == [v % m for v in values]


def test_mod_small_of_an_int64_column():
    """An int64 array read as uint64 is its one-limb form."""
    values = np.array([0, 1, -1, 2**63 - 1, -(2**63), -2_130_706_433, 4_261_412_866])
    col = values.view(np.uint64)[:, None]
    for m in (2, 691, 2_130_706_433):
        assert lb.mod_small(col, m).tolist() == [v % m for v in values.tolist()]


def test_mod_small_at_the_signed_ends():
    """The most negative and most positive value of each width, and +-2^64,
    where the signed top limb carries the whole sign."""
    for w in (1, 2, 3):
        values = [-(2 ** (64 * w - 1)), 2 ** (64 * w - 1) - 1]
        values += [2**64, -(2**64)] if w > 1 else []
        limbs = lb.from_ints(values)
        assert limbs.shape[1] == w
        for m in (2, 3, 691, 2_130_706_433, 2**31 - 1):
            assert lb.mod_small(limbs, m).tolist() == [v % m for v in values]


def test_le_bytes_gather():
    values = [0, -1, 300, -(2**100), 2**130 + 7]
    blobs = [v.to_bytes((v if v >= 0 else ~v).bit_length() // 8 + 1, "little", signed=True)
             for v in values]
    data = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    lengths = np.array([len(b) for b in blobs])
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    assert lb.to_ints(lb.from_le_bytes(data, starts, lengths)) == values


def _shortest(v: int) -> int:
    return (v if v >= 0 else ~v).bit_length() // 8 + 1


def _edges(w: int) -> list[int]:
    """Values of w limbs at the kernels' edges: the signed ends, rows whose top
    limb is 0 or all ones, and shortest forms of exactly 8k and 8k + 1 bytes."""
    top = 2 ** (64 * w - 1)
    out = [0, 1, -1, -top, -top + 1, top - 1]
    if w > 1:
        below = 2 ** (64 * (w - 1))  # top limb 0 from here down, all ones from -here up
        out += [below - 1, below // 2, below // 2 - 1, (below // 2) + (1 << 11) + 1,
                -below, -below + 1, -(below // 2), -(below // 2) - 1]
    for k in range(1, w + 1):
        b = 2 ** (64 * k - 1)
        out += [b - 1, -b]  # exactly 8k bytes
        if k < w:
            out += [b, -b - 1]  # exactly 8k + 1 bytes
    return out


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_float_and_length_kernels_at_the_edges(monkeypatch, w):
    """The whole-table kernels run in row blocks; blocks of 5 rows end inside the list."""
    monkeypatch.setattr(lb, "ROW_BLOCK", 5)
    values = _edges(w)
    limbs = limbs_at_width(values, w)
    assert [_bits(x) for x in lb.to_float(limbs).tolist()] == [_bits(float(v)) for v in values]
    out = np.full(len(values) + 1, 7.0)
    lb.to_float(limbs, out=out[1:])
    assert out[0] == 7.0
    assert [_bits(x) for x in out[1:].tolist()] == [_bits(float(v)) for v in values]
    lengths = lb.byte_lengths(limbs).tolist()
    assert lengths == [_shortest(v) for v in values]
    assert set(range(8, 8 * w + 1, 8)) <= set(lengths)
    assert lb.mod_small(limbs, 2**31 - 1).tolist() == [v % (2**31 - 1) for v in values]


@pytest.mark.parametrize("w", [1, 2, 3, 4])
def test_le_bytes_into_table_rows(w):
    """Entries behind u32 prefixes, as in the exact-tau cache, read into rows
    1.. of a table: the first entry's last word starts before the data, and
    a table wider than the entries sign-extends them."""
    values = _edges(w)
    blobs = [v.to_bytes(_shortest(v), "little", signed=True) for v in values]
    data = np.frombuffer(b"".join(struct.pack("<I", len(b)) + b for b in blobs), dtype=np.uint8)
    lengths = np.array([len(b) for b in blobs], dtype=np.uint8)
    starts = np.cumsum(4 + lengths.astype(np.int64)) - lengths
    for width in (w, w + 1):
        table = np.full((len(values) + 1, width), 0xA5A5_A5A5_A5A5_A5A5, dtype=np.uint64)
        lb.from_le_bytes(data, starts, lengths, out=table[1:])
        assert lb.to_ints(table[1:]) == values
        assert (table[0] == 0xA5A5_A5A5_A5A5_A5A5).all()
    assert lb.to_ints(lb.from_le_bytes(data, starts, lengths)) == values
    assert lb.from_le_bytes(data, starts, lengths).shape == (len(values), w)


def test_le_bytes_shorter_than_a_word():
    data = np.frombuffer(b"\xfb\x01\x80", dtype=np.uint8)
    assert lb.to_ints(lb.from_le_bytes(data, np.array([0, 1]), np.array([1, 2]))) == [-5, -32767]
