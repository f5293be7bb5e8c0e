"""Byte pins of every stage that reads an exact tau table, at 2^15.

The digests were recorded while tables were still lists of Python ints, so
the limb-packed codec, float views and integrity detectors must reproduce
the int path byte for byte; the angles digest alone was taken later, once
tau_angles read a_p with normalize_tau's numpy power.  The faulty table
reaches each detector: an over-bound entry, one exactly on the divisor
bound and one just past it (both inside the float screen's band, so
decided in ints), congruence and multiplicativity breaks, and a 151-bit
entry that needs a third limb.
"""

import hashlib
import math

import numpy as np
import pytest

from stseq.cache import load_cache, save_cache
from stseq.tau import ExactTauTable, expand_delta, integrity_check, normalize_tau, tau_angles

LIMIT = 2**15

PINS = {
    "cache_clean": "9790115a047828f8e81a248ed65fd977",
    "cache_faulty": "8b4fae859f72b5ec92abfaf41ade2f29",
    "normalize": "78c64848cba8bb93b71932ed204300c1",
    "angles": "2f5952c13448c97c1ce4df772d27ccb6",
    "integrity_clean": "8aaf3aca44da364d049562494e3d75ae",
    "integrity_faulty": "988f0aa3bc47276dce5dbca9505a43c6",
    "integrity_sampled_clean": "87c5b1e43ba41056a9b0de3aa17b425b",
    "integrity_sampled_faulty": "0bf1651a7c7798dd0e95bd1e143d1a02",
}


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in parts:
        if isinstance(a, np.ndarray):
            h.update(a.dtype.str.encode())
            h.update(np.ascontiguousarray(a).tobytes())
        else:
            h.update(a)
    return h.hexdigest()


@pytest.fixture(scope="module")
def tables():
    clean = expand_delta(LIMIT)
    taus = list(clean.taus)
    taus[5] = 10**40
    taus[6] = 0
    taus[11] = math.isqrt(4 * 11**11)  # on the divisor bound: passes
    taus[13] = math.isqrt(4 * 13**11) + 1
    taus[17] = -(math.isqrt(4 * 17**11) + 1)
    taus[77] += 1
    taus[30000] += 691 * 2**70
    taus[LIMIT - 1] = -(2**150) - 1
    faulty = ExactTauTable.from_ints(taus)
    assert faulty.limbs.shape == (LIMIT + 1, 3)
    return {"clean": clean, "faulty": faulty}


@pytest.mark.parametrize("name", ["clean", "faulty"])
def test_cache_file_bytes(tmp_path, tables, name):
    path = tmp_path / "t.astc"
    save_cache(path, tables[name])
    assert _digest(path.read_bytes()) == PINS[f"cache_{name}"]
    assert load_cache(path).taus == tables[name].taus


def test_normalized_and_angle_bytes(tables):
    assert _digest(normalize_tau(tables["clean"]).values) == PINS["normalize"]
    ang = tau_angles(tables["clean"])
    assert _digest(ang.primes, ang.a, ang.theta) == PINS["angles"]


@pytest.mark.parametrize("name", ["clean", "faulty"])
def test_integrity_bytes(tables, name):
    assert _digest(integrity_check(tables[name]).canonical_bytes()) == PINS[f"integrity_{name}"]


@pytest.mark.parametrize("name", ["clean", "faulty"])
def test_sampled_integrity_bytes(monkeypatch, tables, name):
    import stseq.tau as tau_mod

    monkeypatch.setattr(tau_mod, "INTEGRITY_SAMPLE_CAP", 500)
    rep = integrity_check(tables[name])
    assert rep.parameters["sampled"] is True
    assert _digest(rep.canonical_bytes()) == PINS[f"integrity_sampled_{name}"]
