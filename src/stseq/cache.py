"""Binary caches for coefficient tables, sequences, angles, and traces.

Layout: a fixed header followed by a kind-specific payload.

  magic    4 bytes  b"ASTC"
  version  u32 LE   currently 1
  kind     u8       1 exact-tau, 2 normalized, 3 angles, 4 traces
  limit    u64 LE
  checksum u64 LE   BLAKE2b-64 of the payload bytes

Exact tau entries are stored as a u32 LE length prefix plus that many
little-endian two's-complement bytes.  Float payloads are IEEE-754 binary64
little-endian; non-finite values refuse to serialize.  Loads verify magic,
version, kind, and checksum before any parsing.  The header is outside the
checksum, so parsers check the header limit against the payload length and
the stored primes, and raise CacheFormatError on any disagreement.  Saves
write a temporary file beside the target and rename it into place, so an
interrupted save never leaves a partial file under the target name.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from .arith import AngleSeries, NormalizedSequence, is_prime
from .elliptic import CurveSpec, TraceSeries
from .errors import CacheFormatError, ChecksumError
from .tau import ExactTauTable

MAGIC = b"ASTC"
VERSION = 1
KIND_EXACT_TAU = 1
KIND_NORMALIZED = 2
KIND_ANGLES = 3
KIND_TRACES = 4

_HEADER = struct.Struct("<4sIBQQ")


def _checksum(payload) -> int:
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


def _signed_le_bytes(v: int) -> bytes:
    nbytes = ((v if v >= 0 else ~v).bit_length() // 8) + 1
    return v.to_bytes(nbytes, "little", signed=True)


def _floats_bytes(arr: np.ndarray) -> bytes:
    arr = np.asarray(arr, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("refusing to serialize non-finite floats")
    return arr.astype("<f8").tobytes()


def _str_block(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _read_str(buf: memoryview, off: int) -> tuple[str, int]:
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    if off + n > len(buf):
        raise CacheFormatError("string block runs past the payload")
    return bytes(buf[off : off + n]).decode("utf-8"), off + n


def _check_primes(primes: np.ndarray, limit: int, complete: bool) -> None:
    """Stored primes must not exceed the header limit.  A `complete` series
    holds every prime <= limit, so no prime may lie between its last one and
    the limit either; the scan stops at the first prime, within one gap."""
    last = int(primes.max()) if len(primes) else 1
    if last > limit or (complete and any(is_prime(m) for m in range(last + 1, limit + 1))):
        raise CacheFormatError(f"header limit {limit} disagrees with the stored primes "
                               f"(largest {last})")


def _payload_exact_tau(table: ExactTauTable) -> bytes:
    parts = []
    for n in range(1, table.limit + 1):
        raw = _signed_le_bytes(table.taus[n])
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
    return b"".join(parts)


def _parse_exact_tau(limit: int, buf: memoryview) -> ExactTauTable:
    if 5 * limit > len(buf):  # every entry is a 4-byte length plus at least one byte
        raise CacheFormatError(f"exact-tau payload too short for header limit {limit}")
    data = bytes(buf)  # one copy: slicing bytes beats a bytes() copy per entry
    taus = [0] * (limit + 1)
    off = 0
    for n in range(1, limit + 1):
        ln = int.from_bytes(data[off : off + 4], "little")
        off += 4
        taus[n] = int.from_bytes(data[off : off + ln], "little", signed=True)
        off += ln
    # a slice past the end comes back short, so a truncated payload ends with
    # off > len(data) and an overlong one with off < len(data)
    if off != len(data):
        raise CacheFormatError(f"exact-tau entries end at byte {off} of a {len(data)}-byte payload")
    return ExactTauTable(limit=limit, taus=taus)


def _payload_normalized(seq: NormalizedSequence) -> bytes:
    meta = json.dumps(seq.meta, sort_keys=True)
    return _str_block(seq.source) + _str_block(meta) + _floats_bytes(seq.values[1:])


def _parse_normalized(limit: int, buf: memoryview) -> NormalizedSequence:
    source, off = _read_str(buf, 0)
    meta_raw, off = _read_str(buf, off)
    if len(buf) - off != 8 * limit:
        raise CacheFormatError(
            f"sequence payload holds {len(buf) - off} value bytes, header limit {limit}")
    vals = np.empty(limit + 1, dtype=np.float64)
    vals[0] = np.nan
    vals[1:] = np.frombuffer(buf[off:], dtype="<f8", count=limit)
    return NormalizedSequence(limit=limit, values=vals, source=source, meta=json.loads(meta_raw))


def _payload_angles(angles: AngleSeries) -> bytes:
    return (
        _str_block(angles.source)
        + struct.pack("<Q", len(angles))
        + angles.primes.astype("<i8").tobytes()
        + _floats_bytes(angles.a)
        + _floats_bytes(angles.theta)
    )


def _parse_angles(limit: int, buf: memoryview) -> AngleSeries:
    source, off = _read_str(buf, 0)
    (n,) = struct.unpack_from("<Q", buf, off)
    off += 8
    if len(buf) - off != 24 * n:
        raise CacheFormatError(f"angles payload does not hold {n} records")
    primes = np.frombuffer(buf[off : off + 8 * n], dtype="<i8").copy()
    off += 8 * n
    a = np.frombuffer(buf[off : off + 8 * n], dtype="<f8").copy()
    off += 8 * n
    theta = np.frombuffer(buf[off : off + 8 * n], dtype="<f8").copy()
    # elliptic angles omit the curve's bad primes, so only their maximum is checked
    _check_primes(primes, limit, complete=source != "elliptic")
    return AngleSeries(primes=primes, a=a, theta=theta, source=source, limit=limit)


def _payload_traces(series: TraceSeries) -> bytes:
    return (
        struct.pack("<qq", series.curve.a4, series.curve.a6)
        + struct.pack("<Q", len(series))
        + series.primes.astype("<i8").tobytes()
        + series.t.astype("<i8").tobytes()
        + series.good.astype(np.uint8).tobytes()
    )


def _parse_traces(limit: int, buf: memoryview) -> TraceSeries:
    a4, a6 = struct.unpack_from("<qq", buf, 0)
    (n,) = struct.unpack_from("<Q", buf, 16)
    off = 24
    if len(buf) - off != 17 * n:
        raise CacheFormatError(f"traces payload does not hold {n} records")
    primes = np.frombuffer(buf[off : off + 8 * n], dtype="<i8").copy()
    off += 8 * n
    t = np.frombuffer(buf[off : off + 8 * n], dtype="<i8").copy()
    off += 8 * n
    good = np.frombuffer(buf[off : off + n], dtype=np.uint8).astype(bool)
    _check_primes(primes, limit, complete=True)
    return TraceSeries(
        limit=limit, curve=CurveSpec(a4, a6), primes=primes, t=t, good=good
    )


_SAVERS = {
    ExactTauTable: (KIND_EXACT_TAU, _payload_exact_tau),
    NormalizedSequence: (KIND_NORMALIZED, _payload_normalized),
    AngleSeries: (KIND_ANGLES, _payload_angles),
    TraceSeries: (KIND_TRACES, _payload_traces),
}

_PARSERS = {
    KIND_EXACT_TAU: _parse_exact_tau,
    KIND_NORMALIZED: _parse_normalized,
    KIND_ANGLES: _parse_angles,
    KIND_TRACES: _parse_traces,
}


def save_cache(path, obj) -> None:
    """Write header + payload for any of the four cacheable types."""
    try:
        kind, encode = _SAVERS[type(obj)]
    except KeyError:
        raise TypeError(f"cannot cache objects of type {type(obj).__name__}") from None
    payload = encode(obj)
    header = _HEADER.pack(MAGIC, VERSION, kind, obj.limit, _checksum(payload))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_cache(path):
    """Read, verify, and parse a cache file back to its object."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise CacheFormatError("file shorter than header")
    magic, version, kind, limit, checksum = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise CacheFormatError(f"unsupported version {version}")
    if kind not in _PARSERS:
        raise CacheFormatError(f"unknown kind {kind}")
    payload = memoryview(blob)[_HEADER.size :]
    if _checksum(payload) != checksum:
        raise ChecksumError("payload checksum mismatch")
    try:
        return _PARSERS[kind](limit, payload)
    except (struct.error, ValueError) as exc:
        # the payload is intact, so the header disagrees with it
        raise CacheFormatError(f"kind {kind} payload does not parse: {exc}") from exc
