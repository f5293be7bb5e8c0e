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
read each payload once, field by field, straight into the arrays the
loaded object keeps (an exact-tau payload into one uint8 array that the
decoder scans), and compute the checksum over those same buffers, so no
copy of the file is held beside them.  A load checks, in order: magic,
version and kind; every size the header and payload declare, against the
file's size, before anything of that size is allocated; the checksum; and
only then decodes strings, JSON meta and entries.  The header is outside
the checksum, so the size checks and the decoders check the header limit
against the payload length and the stored primes, and raise
CacheFormatError on any disagreement.  Saves write a temporary file beside
the target and rename it into place, so an interrupted save never leaves a
partial file under the target name.
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
_U32 = struct.Struct("<I")
_COUNT = struct.Struct("<Q")
_TRACES_HEAD = struct.Struct("<qqQ")  # A, B, record count
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
    return _U32.pack(len(raw)) + raw


def _read_fully(fh, view: memoryview) -> int:
    """Bytes read into `view`, which fills it unless the file ends first."""
    got = 0
    while got < len(view) and (n := fh.readinto(view[got:])):
        got += n
    return got


class _Payload:
    """A cache file's payload, read in order, each field straight into the
    buffer that keeps it.  Every read is checked against the bytes the file
    has left (its size from os.fstat) before its buffer is allocated, and
    feeds the BLAKE2b-64 over the buffer it filled."""

    def __init__(self, fh, size: int):
        self.fh, self.left = fh, size
        self.hash = hashlib.blake2b(digest_size=8)

    def into(self, buf) -> None:
        view = memoryview(buf).cast("B")
        if _read_fully(self.fh, view) != len(view):
            raise CacheFormatError("file ends inside its payload")
        self.hash.update(view)
        self.left -= len(view)

    def array(self, count: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        if count * dtype.itemsize > self.left:
            raise CacheFormatError(f"payload ends {count * dtype.itemsize - self.left} bytes "
                                   "short of its next field")
        arr = np.empty(count, dtype=dtype)
        self.into(arr)
        return arr

    def unpack(self, st: struct.Struct) -> tuple:
        return st.unpack(self.array(st.size, np.uint8))

    def block(self) -> bytes:
        """A string block's raw bytes, decoded only once the checksum holds."""
        (n,) = self.unpack(_U32)
        return self.array(n, np.uint8).tobytes()

    def checksum(self) -> int:
        return int.from_bytes(self.hash.digest(), "little")


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


def _read_exact_tau(limit: int, rd: _Payload):
    if 5 * limit > rd.left:  # every entry is a 4-byte length plus at least one byte
        raise CacheFormatError(f"exact-tau payload too short for header limit {limit}")
    data = rd.array(rd.left, np.uint8)
    return lambda: _parse_exact_tau(limit, data)


def _parse_exact_tau(limit: int, data: np.ndarray) -> ExactTauTable:
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


def _read_normalized(limit: int, rd: _Payload):
    source, meta = rd.block(), rd.block()
    if rd.left != 8 * limit:
        raise CacheFormatError(
            f"sequence payload holds {rd.left} value bytes, header limit {limit}")
    values = np.empty(limit + 1, dtype="<f8")
    values[0] = np.nan
    rd.into(values[1:])
    return lambda: NormalizedSequence(limit=limit, values=values, source=source.decode("utf-8"),
                                      meta=json.loads(meta))


def _payload_angles(angles: AngleSeries) -> list:
    return [
        _str_block(angles.source),
        _COUNT.pack(len(angles)),
        _int64s(angles.primes),
        _floats(angles.a),
        _floats(angles.theta),
    ]


def _read_angles(limit: int, rd: _Payload):
    source = rd.block()
    (n,) = rd.unpack(_COUNT)
    if rd.left != 24 * n:
        raise CacheFormatError(f"angles payload does not hold {n} records")
    primes, a, theta = rd.array(n, "<i8"), rd.array(n, "<f8"), rd.array(n, "<f8")

    def decode():
        src = source.decode("utf-8")
        # elliptic angles omit the curve's bad primes, so only their maximum is checked
        _check_primes(primes, limit, complete=src != "elliptic")
        return AngleSeries(primes=primes, a=a, theta=theta, source=src, limit=limit)

    return decode


def _payload_traces(series: TraceSeries) -> list:
    coeffs = (series.curve.a4, series.curve.a6)
    if not all(-(2**63) <= c < 2**63 for c in coeffs):
        raise ValueError(f"curve coefficients {coeffs} outside [-2^63, 2^63): "
                         "the traces format stores A and B as int64")
    return [
        _TRACES_HEAD.pack(*coeffs, len(series)),
        _int64s(series.primes),
        _int64s(series.t),
        series.good.astype(np.uint8),
    ]


def _read_traces(limit: int, rd: _Payload):
    a4, a6, n = rd.unpack(_TRACES_HEAD)
    if rd.left != 17 * n:
        raise CacheFormatError(f"traces payload does not hold {n} records")
    primes, t, good = rd.array(n, "<i8"), rd.array(n, "<i8"), rd.array(n, np.uint8)

    def decode():
        _check_primes(primes, limit, complete=True)
        np.minimum(good, 1, out=good)  # any nonzero byte reads as good
        return TraceSeries(limit=limit, curve=CurveSpec(a4, a6), primes=primes, t=t,
                           good=good.view(bool))

    return decode


_SAVERS = {
    ExactTauTable: (KIND_EXACT_TAU, _payload_exact_tau),
    NormalizedSequence: (KIND_NORMALIZED, _payload_normalized),
    AngleSeries: (KIND_ANGLES, _payload_angles),
    TraceSeries: (KIND_TRACES, _payload_traces),
}

# kind -> reader: checks the payload's sizes and reads it, returning its decoder
_READERS = {
    KIND_EXACT_TAU: _read_exact_tau,
    KIND_NORMALIZED: _read_normalized,
    KIND_ANGLES: _read_angles,
    KIND_TRACES: _read_traces,
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
    """Read, verify, and parse a cache file back to its object.

    Each payload field is read once, straight into its final array, and
    checksummed there; sizes are checked before allocating, the checksum
    before decoding (the module docstring gives the order)."""
    with open(path, "rb", buffering=0) as fh:
        head = bytearray(_HEADER.size)
        if _read_fully(fh, memoryview(head)) < _HEADER.size:
            raise CacheFormatError("file shorter than header")
        magic, version, kind, limit, checksum = _HEADER.unpack(head)
        if magic != MAGIC:
            raise CacheFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CacheFormatError(f"unsupported version {version}")
        if kind not in _READERS:
            raise CacheFormatError(f"unknown kind {kind}")
        payload = _Payload(fh, os.fstat(fh.fileno()).st_size - _HEADER.size)
        decode = _READERS[kind](limit, payload)
    if payload.checksum() != checksum:
        raise ChecksumError("payload checksum mismatch")
    try:
        return decode()
    except ValueError as exc:
        # the payload is intact, so the header disagrees with it
        raise CacheFormatError(f"kind {kind} payload does not parse: {exc}") from exc
