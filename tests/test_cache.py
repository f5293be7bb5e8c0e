import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stseq.arith import AngleSeries, NormalizedSequence, primes_up_to
from stseq.cache import (
    _HEADER,
    KIND_EXACT_TAU,
    MAGIC,
    VERSION,
    _checksum,
    load_cache,
    save_cache,
)
from stseq.elliptic import CurveSpec, trace_series
from stseq.errors import CacheFormatError, ChecksumError
from stseq.synthetic import StRngStream, sample_st_angles
from stseq.tau import ExactTauTable, tau_naive_oracle


def test_exact_tau_roundtrip(tmp_path):
    table = tau_naive_oracle(300)
    path = tmp_path / "t.astc"
    save_cache(path, table)
    back = load_cache(path)
    assert back.limit == 300
    assert back.taus == table.taus


def test_exact_tau_big_values(tmp_path):
    taus = list(tau_naive_oracle(50).taus)
    taus[7] = -(10**40)  # force a long negative entry through the codec
    taus[9] = 10**45
    table = ExactTauTable.from_ints(taus)
    path = tmp_path / "t.astc"
    save_cache(path, table)
    assert load_cache(path).taus == table.taus


@pytest.mark.parametrize("change", ["prefix", "value", "extra"])
def test_exact_tau_payload_cut_or_padded(tmp_path, change):
    """A checksum-valid payload that stops inside an entry, or runs past the
    last one, fails typed (slices past the end must not pass as data)."""
    path = tmp_path / "t.astc"
    save_cache(path, tau_naive_oracle(300))
    payload = path.read_bytes()[_HEADER.size :]
    last = 0
    for _ in range(299):
        last += 4 + struct.unpack_from("<I", payload, last)[0]
    cut = {"prefix": payload[: last + 2], "value": payload[:-1], "extra": payload + b"\0"}[change]
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, KIND_EXACT_TAU, 300, _checksum(cut)) + cut)
    with pytest.raises(CacheFormatError):
        load_cache(path)


def _write_exact_tau(path, limit, payload):
    """A file whose header and checksum are valid for `payload`."""
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, KIND_EXACT_TAU, limit, _checksum(payload))
                     + payload)


def test_zero_length_entry_rejected(tmp_path):
    """The encoder writes every entry in at least one byte; an empty one is
    not read as 0."""
    path = tmp_path / "t.astc"
    # 1, an empty entry, then -24 in two bytes: 15 bytes, as long as 3 shortest entries
    _write_exact_tau(path, 3, b"\x01\0\0\0\x01" + b"\0\0\0\0" + b"\x02\0\0\0\xe8\xff")
    with pytest.raises(CacheFormatError, match="entry 2"):
        load_cache(path)


@pytest.mark.parametrize("length", [256, 257, 1 << 16, 1 << 24])
def test_length_prefix_past_255_rejected(tmp_path, length):
    """A prefix of 256 or more is refused, even where following its low byte
    alone would land exactly on the payload's end."""
    path = tmp_path / "t.astc"
    entry = struct.pack("<I", length) + b"\x07" * length
    ones = b"\x01\0\0\0\x01"
    for payload, limit in ((ones + entry, 2), (entry + ones, 2),
                           (struct.pack("<I", length) + b"\x07" * (length & 0xFF), 1)):
        _write_exact_tau(path, limit, payload)
        with pytest.raises(CacheFormatError):
            load_cache(path)


def test_entry_past_255_bytes_refused_on_save(tmp_path):
    path = tmp_path / "t.astc"
    fits = (0, -(2**2039), 2**2039 - 1)  # 255 bytes each
    save_cache(path, ExactTauTable.from_ints(fits))
    assert load_cache(path).taus == fits
    for v in (2**2039, -(2**2039) - 1):  # 256 bytes
        with pytest.raises(ValueError):
            save_cache(path, ExactTauTable.from_ints([0, v]))


def _edge_ints():
    """0, +-1, +-2^(8k-1) +-1 for every byte length k up to 19."""
    out = [0, 1, -1]
    for k in range(1, 20):
        out += [s * (2 ** (8 * k - 1)) + d for s in (1, -1) for d in (-1, 0, 1)]
    return out


_ints = st.one_of(st.sampled_from(_edge_ints()), st.integers(-(2**151), 2**151),
                  st.integers(-(2**70), 2**70))


@settings(max_examples=150, deadline=None)
@given(st.lists(_ints, min_size=1, max_size=40))
def test_exact_tau_roundtrip_property(tmp_path_factory, values):
    taus = [0, *values]
    path = tmp_path_factory.mktemp("prop") / "t.astc"
    save_cache(path, ExactTauTable.from_ints(taus))
    back = load_cache(path)
    assert back.limit == len(values)
    assert back.taus == tuple(taus)
    # the stored bytes are each value's shortest two's-complement form
    payload = path.read_bytes()[_HEADER.size :]
    assert len(payload) == sum(4 + (v if v >= 0 else ~v).bit_length() // 8 + 1 for v in values)


def test_normalized_roundtrip(tmp_path):
    vals = np.concatenate([[np.nan, 1.0], np.linspace(-1, 1, 99)])
    seq = NormalizedSequence(limit=100, values=vals, source="synthetic",
                             meta={"seed": 3, "rule": "hecke-chebyshev"})
    path = tmp_path / "s.astc"
    save_cache(path, seq)
    back = load_cache(path)
    assert back.limit == seq.limit
    assert back.source == "synthetic"
    assert back.meta == seq.meta
    assert np.array_equal(back.values[1:], seq.values[1:])


def test_angles_roundtrip(tmp_path):
    ps = primes_up_to(500)
    theta = sample_st_angles(StRngStream(1), ps)[0]
    ang = AngleSeries.from_theta(ps, theta, source="synthetic", limit=500)
    path = tmp_path / "a.astc"
    save_cache(path, ang)
    back = load_cache(path)
    assert back.limit == 500
    assert back.source == "synthetic"
    assert np.array_equal(back.primes, ang.primes)
    assert np.array_equal(back.theta, ang.theta)
    assert np.array_equal(back.a, ang.a)


def test_traces_roundtrip(tmp_path):
    series = trace_series(CurveSpec(-1, 1), 500)
    path = tmp_path / "tr.astc"
    save_cache(path, series)
    back = load_cache(path)
    assert back.limit == 500
    assert back.curve.a4 == -1 and back.curve.a6 == 1
    assert np.array_equal(back.primes, series.primes)
    assert np.array_equal(back.t, series.t)
    assert np.array_equal(back.good, series.good)


def test_traces_curve_past_int64_refused_on_save(tmp_path):
    series = trace_series(CurveSpec(-1, 1), 500)
    path = tmp_path / "tr.astc"
    for a4, a6 in ((-(2**63), 2**63 - 1), (2**63 - 1, -(2**63))):  # the int64 ends fit
        save_cache(path, dataclasses.replace(series, curve=CurveSpec(a4, a6)))
        back = load_cache(path).curve
        assert (back.a4, back.a6) == (a4, a6)
    path.unlink()
    for a4, a6 in ((2**63, 1), (1, -(2**63) - 1)):
        with pytest.raises(ValueError, match=r"\[-2\^63, 2\^63\)"):
            save_cache(path, dataclasses.replace(series, curve=CurveSpec(a4, a6)))
    assert list(tmp_path.iterdir()) == []


def test_truncated_file_checksum_error(tmp_path):
    path = tmp_path / "t.astc"
    save_cache(path, tau_naive_oracle(100))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(ChecksumError):
        load_cache(path)


def test_flipped_payload_byte(tmp_path):
    path = tmp_path / "t.astc"
    save_cache(path, tau_naive_oracle(100))
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ChecksumError):
        load_cache(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "t.astc"
    save_cache(path, tau_naive_oracle(100))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_cache(path)


def test_unknown_version_and_kind(tmp_path):
    path = tmp_path / "t.astc"
    save_cache(path, tau_naive_oracle(100))
    raw = bytearray(path.read_bytes())
    raw[4] = 99  # version low byte
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_cache(path)
    raw = bytearray(save_and_read(tmp_path))
    raw[8] = 42  # kind byte
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_cache(path)


def save_and_read(tmp_path):
    path = tmp_path / "t.astc"
    save_cache(path, tau_naive_oracle(100))
    return path.read_bytes()


def test_non_finite_floats_rejected(tmp_path):
    vals = np.concatenate([[np.nan, 1.0], np.ones(99)])
    vals[50] = np.inf
    seq = NormalizedSequence(limit=100, values=vals, source="synthetic")
    with pytest.raises(ValueError):
        save_cache(tmp_path / "bad.astc", seq)


def test_uncacheable_type(tmp_path):
    with pytest.raises(TypeError):
        save_cache(tmp_path / "x.astc", {"not": "cacheable"})


def _one_of_each_kind():
    ps = primes_up_to(500)
    vals = np.concatenate([[np.nan, 1.0], np.linspace(-1, 1, 99)])
    return {
        "exact-tau": tau_naive_oracle(300),
        "normalized": NormalizedSequence(limit=100, values=vals, source="synthetic"),
        "angles": AngleSeries.from_theta(ps, sample_st_angles(StRngStream(1), ps)[0],
                                         source="synthetic", limit=500),
        "traces": trace_series(CurveSpec(-1, 1), 500),
    }


@pytest.mark.parametrize("delta", [7, -7, 1 << 40])
@pytest.mark.parametrize("kind", ["exact-tau", "normalized", "angles", "traces"])
def test_header_limit_disagreeing_with_payload(tmp_path, kind, delta):
    """The header is outside the checksum: a changed limit must still fail typed."""
    path = tmp_path / "x.astc"
    save_cache(path, _one_of_each_kind()[kind])
    raw = bytearray(path.read_bytes())
    off = _HEADER.size - 16  # the u64 limit precedes the u64 checksum
    (limit,) = struct.unpack_from("<Q", raw, off)
    struct.pack_into("<Q", raw, off, limit + delta)
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_cache(path)


class _HalfWriter:
    """File stand-in that writes half of the first chunk, then is interrupted."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(bytes(data)[: len(data) // 2])
        raise KeyboardInterrupt


def test_interrupted_save_leaves_no_file(tmp_path, monkeypatch):
    import builtins

    import stseq.cache

    def interrupt_writes():
        real_open = builtins.open
        monkeypatch.setattr(stseq.cache, "open", lambda *a: _HalfWriter(real_open(*a)),
                            raising=False)

    path = tmp_path / "t.astc"
    interrupt_writes()
    with pytest.raises(KeyboardInterrupt):
        save_cache(path, tau_naive_oracle(100))
    assert list(tmp_path.iterdir()) == []

    monkeypatch.undo()  # a complete file survives an interrupted overwrite
    save_cache(path, tau_naive_oracle(100))
    before = path.read_bytes()
    interrupt_writes()
    with pytest.raises(KeyboardInterrupt):
        save_cache(path, tau_naive_oracle(120))
    assert [p.name for p in tmp_path.iterdir()] == ["t.astc"]
    assert path.read_bytes() == before
