import dataclasses
import hashlib
import json
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
    _entry_runs,
    load_cache,
    save_cache,
)
from stseq.elliptic import CurveSpec, trace_series
from stseq.errors import CacheFormatError, ChecksumError
from stseq.synthetic import StRngStream, SyntheticSpec, build_synthetic_sequence, sample_st_angles
from stseq.tau import ExactTauTable, tau_naive_oracle


def test_exact_tau_roundtrip(tmp_path):
    table = tau_naive_oracle(300)
    path = tmp_path / "t.astc"
    save_cache(path, table)
    back = load_cache(path)
    assert back.limit == 300
    assert back.taus == table.taus


def test_exact_tau_roundtrip_at_limit_zero(tmp_path):
    path = tmp_path / "t.astc"
    save_cache(path, ExactTauTable.from_ints([0]))
    back = load_cache(path)
    assert back.limit == 0
    assert back.limbs.tobytes() == np.zeros((1, 1), dtype=np.uint64).tobytes()
    assert path.stat().st_size == _HEADER.size


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
@given(st.lists(_ints, max_size=40))
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


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_meta_rejected(tmp_path, value):
    vals = np.concatenate([[np.nan, 1.0], np.ones(99)])
    seq = NormalizedSequence(limit=100, values=vals, source="synthetic", meta={"rho": value})
    with pytest.raises(ValueError):
        save_cache(tmp_path / "bad.astc", seq)
    assert list(tmp_path.iterdir()) == []


def test_uncacheable_type(tmp_path):
    with pytest.raises(TypeError):
        save_cache(tmp_path / "x.astc", {"not": "cacheable"})


def _sequential_walk(limit: int, payload: bytes) -> tuple[list[int], list[int]]:
    """(starts, values) of an exact-tau payload by one Python step per entry,
    following each u32 length prefix from byte 0: the decoder's walk before
    it scanned for candidate starts, kept as the oracle of that scan."""
    if 5 * limit > len(payload):
        raise CacheFormatError("payload too short for the limit")
    starts, values, off = [], [], 0
    for k in range(limit):
        if off + 4 > len(payload):
            raise CacheFormatError("entries run past the payload")
        (n,) = struct.unpack_from("<I", payload, off)
        if not 1 <= n <= 255:
            raise CacheFormatError(f"entry {k + 1} has a length prefix outside 1..255")
        if off + 4 + n > len(payload):
            raise CacheFormatError("entries run past the payload")
        starts.append(off)
        values.append(int.from_bytes(payload[off + 4 : off + 4 + n], "little", signed=True))
        off += 4 + n
    if off != len(payload):
        raise CacheFormatError("entries end before the payload does")
    return starts, values


def _false_candidates(payload: bytes, starts: list[int]) -> list[int]:
    """Bytes xx 00 00 00 (xx != 0) of the payload that start no entry."""
    data = np.frombuffer(payload, dtype=np.uint8)
    cand = np.flatnonzero((data[:-3] != 0) & (data[1:-2] == 0) & (data[2:-1] == 0)
                          & (data[3:] == 0))
    return sorted(set(cand.tolist()) - set(starts))


def _scanned_starts(limit: int, payload: bytes) -> list[int]:
    runs = _entry_runs(np.frombuffer(payload, dtype=np.uint8), limit)
    return [int(x) for starts, _ in runs for x in starts]


def _outcome(load):
    """The values a load returns, or the type of what it raises."""
    try:
        return list(load())
    except Exception as exc:
        return type(exc)


def test_entry_starts_at_2_19_match_the_sequential_walk(tmp_path, tau_2_19):
    """At 2^19 one data run xx 00 00 00 lies inside an entry, the bytes
    8b 00 00 00 of tau(481424); the scan must step over it."""
    path = tmp_path / "t.astc"
    save_cache(path, tau_2_19)
    payload = path.read_bytes()[_HEADER.size :]
    starts, values = _sequential_walk(2**19, payload)
    false = _false_candidates(payload, starts)
    assert len(false) == 1
    assert starts[481423] < false[0] < starts[481424]  # inside tau(481424)'s entry
    assert payload[false[0] : false[0] + 4] == b"\x8b\0\0\0"
    assert _scanned_starts(2**19, payload) == starts
    back = load_cache(path)
    assert back.limbs.tobytes() == tau_2_19.limbs.tobytes()


def _planted(head, xx, tail):
    """An int whose shortest form holds xx 00 00 00 after the `head` bytes:
    `tail` ends in 7f or 80, which carries the sign and is neither a 00 nor
    an ff sign byte, so no byte is trimmed."""
    return int.from_bytes(head + bytes([xx, 0, 0, 0]) + tail, "little", signed=True)


_plant = st.builds(_planted, st.binary(max_size=40), st.integers(1, 255),
                   st.binary(max_size=30).map(lambda b: b + b"\x7f")
                   | st.binary(max_size=30).map(lambda b: b + b"\x80"))
# shortest forms of every length 1..255
_any_length = st.integers(1, 255).flatmap(
    lambda n: st.integers(-(2 ** (8 * n - 1)), 2 ** (8 * n - 1) - 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(_any_length | _ints, min_size=1, max_size=20), _plant, _plant, _plant,
       st.integers(0, 20))
def test_planted_false_candidates_match_the_sequential_walk(
        tmp_path_factory, values, first, middle, last, at):
    """Data runs xx 00 00 00 in the first, a middle and the last entry."""
    values = [first, *values[: at % len(values)], middle, *values[at % len(values) :], last]
    taus = [0, *values]
    path = tmp_path_factory.mktemp("plant") / "t.astc"
    save_cache(path, ExactTauTable.from_ints(taus))
    payload = path.read_bytes()[_HEADER.size :]
    starts, read = _sequential_walk(len(values), payload)
    assert read == values
    assert len(_false_candidates(payload, starts)) >= 3
    assert _scanned_starts(len(values), payload) == starts
    assert load_cache(path).taus == tuple(taus)


@settings(max_examples=150, deadline=None)
@given(st.lists(_plant | _ints, min_size=1, max_size=12), st.data())
def test_corrupted_prefixes_fail_as_the_sequential_walk_does(tmp_path_factory, values, data):
    """Prefixes rewritten (onto false candidates, past the end, to 0 or past
    255), bytes cut or appended and the header limit moved: the scan returns
    what the sequential walk returns, or raises CacheFormatError where it does."""
    path = tmp_path_factory.mktemp("corrupt") / "t.astc"
    save_cache(path, ExactTauTable.from_ints([0, *values]))
    payload = bytearray(path.read_bytes()[_HEADER.size :])
    starts, _ = _sequential_walk(len(values), bytes(payload))
    targets = starts + _false_candidates(bytes(payload), starts) + [len(payload)]
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.sampled_from(starts))
        goal = data.draw(st.sampled_from(targets) | st.integers(at + 4, len(payload) + 9))
        prefix = data.draw(st.sampled_from([goal - at - 4, 0, 256, 1 << 24])
                           | st.integers(0, 300))
        struct.pack_into("<I", payload, at, prefix & 0xFFFF_FFFF)
    payload = bytes(payload[: data.draw(st.integers(len(payload) - 6, len(payload)))])
    payload += data.draw(st.sampled_from([b"", b"\0", b"\x01\0\0\0\x05"]))
    limit = len(values) + data.draw(st.integers(-2, 2))
    if limit < 0:
        return
    _write_exact_tau(path, limit, payload)
    want = _outcome(lambda: _sequential_walk(limit, payload)[1])
    got = _outcome(lambda: load_cache(path).taus[1:])
    assert got == want
    assert got is not IndexError


def _with_false_candidate():
    """Entries 1, then 8 bytes aa 03 00 00 00 bb cc dd holding a false
    candidate at payload byte 10, then 2: a prefix of 1 on the middle entry
    links to byte 10, whose own link is the last entry's start, byte 17."""
    return [b"\x01\0\0\0\x01", b"\x08\0\0\0\xaa\x03\0\0\0\xbb\xcc\xdd",
            b"\x01\0\0\0\x02"]


@pytest.mark.parametrize("case", ["zero prefix", "high prefix byte", "past the end",
                                  "trailing bytes", "ends on a false candidate",
                                  "resumes on a false candidate"])
def test_malformed_exact_tau_payloads(tmp_path, case):
    entries = _with_false_candidate()
    limit = 3
    if case == "zero prefix":
        entries[2] = b"\0\0\0\0\x02"
    elif case == "high prefix byte":
        entries[1] = b"\x08\0\x01\0" + entries[1][4:]
    elif case == "past the end":
        entries[2] = b"\x02\0\0\0\x02"
    elif case == "trailing bytes":
        entries.append(b"\0")
    elif case == "ends on a false candidate":
        limit = 2
        entries[1] = b"\x01\0\0\0" + entries[1][4:]  # entry 2 ends on byte 10, not 22
    else:  # entry 3 is read at the false candidate and ends on byte 17, not 22
        entries[1] = b"\x01\0\0\0" + entries[1][4:]
    payload = b"".join(entries)
    assert _outcome(lambda: _sequential_walk(limit, payload)) is CacheFormatError
    path = tmp_path / "t.astc"
    _write_exact_tau(path, limit, payload)
    with pytest.raises(CacheFormatError):
        load_cache(path)


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


def _one_shot_file(obj) -> bytes:
    """The whole file as one bytes object, every field packed on its own by
    struct from Python ints and floats: the layout the chunked writer keeps."""

    def block(s):
        return struct.pack("<I", len(s.encode())) + s.encode()

    def packed(code, arr):
        return struct.pack(f"<{len(arr)}{code}", *arr.tolist())

    if isinstance(obj, ExactTauTable):
        lengths = [(v if v >= 0 else ~v).bit_length() // 8 + 1 for v in obj.taus[1:]]
        kind, payload = 1, b"".join(struct.pack("<I", n) + v.to_bytes(n, "little", signed=True)
                                    for v, n in zip(obj.taus[1:], lengths))
    elif isinstance(obj, NormalizedSequence):
        kind, payload = 2, (block(obj.source) + block(json.dumps(obj.meta, sort_keys=True))
                            + packed("d", obj.values[1:]))
    elif isinstance(obj, AngleSeries):
        kind, payload = 3, (block(obj.source) + struct.pack("<Q", len(obj))
                            + packed("q", obj.primes) + packed("d", obj.a)
                            + packed("d", obj.theta))
    else:
        kind, payload = 4, (struct.pack("<qqQ", obj.curve.a4, obj.curve.a6, len(obj))
                            + packed("q", obj.primes) + packed("q", obj.t)
                            + packed("B", obj.good.astype(np.uint8)))
    checksum = hashlib.blake2b(payload, digest_size=8).digest()
    return struct.pack("<4sIBQ", b"ASTC", 1, kind, obj.limit) + checksum + payload


@pytest.mark.parametrize("kind", ["exact-tau", "normalized", "angles", "traces", "synthetic"])
def test_file_bytes_equal_the_one_shot_layout(tmp_path, kind):
    objs = _one_of_each_kind()
    taus = list(objs["exact-tau"].taus)
    taus[7:10] = [-(10**40), 10**45, -(2**63)]  # entries past one limb
    objs["exact-tau"] = ExactTauTable.from_ints(taus)
    objs["synthetic"] = build_synthetic_sequence(SyntheticSpec(limit=1000, seed=7))[1]
    path = tmp_path / "x.astc"
    save_cache(path, objs[kind])
    assert path.read_bytes() == _one_shot_file(objs[kind])


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
