"""Binary caches for coefficient tables, sequences, angles, and traces.

Layout: a fixed header followed by a kind-specific payload.

  magic    4 bytes  b"ASTC"
  version  u32 LE   currently 1
  kind     u8       1 exact-tau, 2 normalized, 3 angles, 4 traces
  limit    u64 LE
  checksum u64 LE   BLAKE2b-64 of the payload bytes

Exact tau entries are stored as a u32 LE length prefix plus that many
bytes of the entry's shortest little-endian two's-complement form, so at
least one.  Entries are encoded from and decoded to the table's 64-bit
limbs (`stseq.limbs`) in numpy, block by block, with no Python step per
entry: the decoder finds the entry starts among the candidates, bytes
1..255 followed by three zero bytes, where each start's length links to
the next (`_entry_runs`).  It reads prefixes of 1..255 only; a zero or
larger prefix is a CacheFormatError, and save_cache raises ValueError on a
value whose shortest form passes 255 bytes (outside [-2^2039, 2^2039)),
which could not be read back.  Traces store the
curve's A and B as int64, and save_cache raises ValueError on a curve
whose coefficients leave [-2^63, 2^63).

Float payloads are IEEE-754 binary64 little-endian; non-finite values,
in the payload or in a sequence's JSON meta, refuse to serialize.  Loads
verify magic, version, kind, and checksum before any parsing.  The header
is outside the checksum, so parsers check the header limit against the
payload length and the stored primes, and raise CacheFormatError on any
disagreement.  Saves write a temporary file beside the target and rename
it into place, so an interrupted save never leaves a partial file under
the target name.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from . import limbs as lb
from .arith import AngleSeries, NormalizedSequence, blocks, is_prime
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
# longest exact-tau entry the decoder reads: the prefix's high three bytes are 0
MAX_ENTRY_BYTES = 255
# payload bytes per block of the exact-tau decoder's scan for entry starts
_SCAN_BYTES = 1 << 18


def _checksum(*chunks) -> int:
    """BLAKE2b-64 of the chunks' bytes laid end to end."""
    h = hashlib.blake2b(digest_size=8)
    for chunk in chunks:
        h.update(chunk)
    return int.from_bytes(h.digest(), "little")


def _floats(arr: np.ndarray) -> np.ndarray:
    """arr as contiguous binary64 LE, a view when it already is one."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if not np.all(np.isfinite(arr)):
        raise ValueError("refusing to serialize non-finite floats")
    return arr


def _int64s(arr: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype="<i8")


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


def _payload_exact_tau(table: ExactTauTable) -> list:
    body = table.limbs[1:]
    w = body.shape[1]
    columns = np.arange(4 + 8 * w, dtype=np.uint16)
    chunks = []
    for start, stop in blocks(0, len(body), lb.ROW_BLOCK):
        rows = body[start:stop]
        lengths = lb.byte_lengths(rows)
        if lengths.max() > MAX_ENTRY_BYTES:
            raise ValueError(f"exact-tau entry of {int(lengths.max())} bytes exceeds "
                             f"{MAX_ENTRY_BYTES}, the longest the decoder reads")
        # each row: the u32 prefix, then all 8W bytes; a mask keeps the prefix
        # and the entry's first `length` bytes, and row-major order lays them
        # end to end
        raw = np.zeros((len(rows), 4 + 8 * w), dtype=np.uint8)
        raw[:, 0] = lengths
        raw[:, 4:] = rows.astype("<u8", copy=False).view(np.uint8)
        ends = lengths.astype(np.uint16)
        ends += 4
        chunks.append(raw[columns < ends[:, None]])
    return chunks


def _entry_runs(data: np.ndarray, limit: int):
    """The starts of the payload's `limit` entries, in runs of consecutive
    entries, each run a (starts, lengths) pair, as the length prefixes chain
    them from byte 0 to the payload's end.

    Every start is a candidate, a byte in 1..255 followed by three zero
    bytes, and each start's link (start + 4 + its length) is the next start.
    A candidate that is not a start lies inside an entry's data (xx 00 00
    00), so where each link of a run of candidates lands on the next one,
    the run is a run of entries.  The payload is scanned in blocks of
    _SCAN_BYTES, and the walk steps once per block and once per link that
    skips a candidate, not once per entry.
    """
    size = len(data)
    runs, got, at = [], 0, 0
    for lo in range(0, size - 3, _SCAN_BYTES):
        hi = min(lo + _SCAN_BYTES, size - 3)
        if got == limit:
            break
        if at >= hi:  # the next start lies past this block
            continue
        zero3 = data[lo + 1 : hi + 1] | data[lo + 2 : hi + 2]
        zero3 |= data[lo + 3 : hi + 3]
        is_cand = zero3 == 0
        is_cand &= data[lo:hi] != 0
        cand = np.flatnonzero(is_cand)
        cand += lo
        lengths = data[cand]
        link = cand + 4
        link += lengths
        # the block's last candidate links past it
        breaks = np.append(np.flatnonzero(link[:-1] != cand[1:]), len(cand) - 1)
        while got < limit and at < hi:
            j = int(np.searchsorted(cand, at))
            if j == len(cand) or cand[j] != at:
                raise CacheFormatError(f"exact-tau entry {got + 1} has a length prefix "
                                       f"outside 1..{MAX_ENTRY_BYTES}")
            stop = min(int(breaks[np.searchsorted(breaks, j)]) + 1, j + limit - got)
            runs.append((cand[j:stop], lengths[j:stop]))
            got += stop - j
            at = int(link[stop - 1])
    if got < limit:
        raise CacheFormatError(f"exact-tau entries run past the {size}-byte payload")
    if at != size:
        raise CacheFormatError(f"exact-tau entries end at byte {at} of a {size}-byte payload")
    return runs


def _parse_exact_tau(limit: int, buf: memoryview) -> ExactTauTable:
    if 5 * limit > len(buf):  # every entry is a 4-byte length plus at least one byte
        raise CacheFormatError(f"exact-tau payload too short for header limit {limit}")
    data = np.frombuffer(buf, dtype=np.uint8)
    runs = _entry_runs(data, limit)
    longest = max((int(lengths.max()) for _, lengths in runs), default=1)
    table = np.empty((limit + 1, (longest + 7) // 8), dtype=np.uint64)
    table[0] = 0
    row = 1
    for starts, lengths in runs:
        starts += 4
        lb.from_le_bytes(data, starts, lengths, out=table[row : row + len(starts)])
        row += len(starts)
    return ExactTauTable(limit=limit, limbs=table)


def _payload_normalized(seq: NormalizedSequence) -> list:
    meta = json.dumps(seq.meta, sort_keys=True, allow_nan=False)
    return [_str_block(seq.source), _str_block(meta), _floats(seq.values[1:])]


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


def _payload_angles(angles: AngleSeries) -> list:
    return [
        _str_block(angles.source),
        struct.pack("<Q", len(angles)),
        _int64s(angles.primes),
        _floats(angles.a),
        _floats(angles.theta),
    ]


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


def _payload_traces(series: TraceSeries) -> list:
    coeffs = (series.curve.a4, series.curve.a6)
    if not all(-(2**63) <= c < 2**63 for c in coeffs):
        raise ValueError(f"curve coefficients {coeffs} outside [-2^63, 2^63): "
                         "the traces format stores A and B as int64")
    return [
        struct.pack("<qqQ", *coeffs, len(series)),
        _int64s(series.primes),
        _int64s(series.t),
        series.good.astype(np.uint8),
    ]


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
    """Write header + payload for any of the four cacheable types.

    The payload encoders return it as a list of buffers, views of the
    object's arrays where their layout already is the file's, so the
    checksum and the write read those buffers in place and nothing copies
    the whole payload."""
    try:
        kind, encode = _SAVERS[type(obj)]
    except KeyError:
        raise TypeError(f"cannot cache objects of type {type(obj).__name__}") from None
    chunks = encode(obj)
    header = _HEADER.pack(MAGIC, VERSION, kind, obj.limit, _checksum(*chunks))
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(header)
            for chunk in chunks:
                fh.write(chunk)
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
