"""Byte pins of every table filled by the multiplicative recursion at 2^15.

The digests were recorded before the fill loops were merged into one kernel;
any change to the bytes of these tables (values, dtype or length) fails here.
"""

import hashlib
import math

import numpy as np
import pytest

from stseq.arith import (
    RULE_KINDS,
    AngleSeries,
    PrimePowerRule,
    assemble_multiplicative,
    build_spf_sieve,
    exponent_core_tables,
    largest_prime_factor_table,
    primes_up_to,
)
from stseq.elliptic import CurveSpec, ec_normalized_sequence, trace_series
from stseq.synthetic import SyntheticSpec, build_synthetic_sequence
from stseq.tau import _divisor_counts, _sigma11_mod691

LIMIT = 2**15

PINS = {
    "hecke-chebyshev": "ef8e5f3da33feb6d49d5f1400a387441",
    "truncate-zero": "04d6c1137f2e372c69977d4e6c9a1fab",
    "ec(-1,1)": "4690d9271ee04d481821e2b7a9992e3e",
    "divisor_counts": "8abbd38172a45a33ce1731b925b4ccc6",
    "sigma11_mod691": "32c5848875439f34955ce49ed480d900",
    "largest_prime_factor": "818f6acfb6fe671ab2225f8fe9583f70",
    "exponent_core": "6cb12250482930c1ad85e24da130a80c",
}


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.dtype.str.encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def sieve():
    return build_spf_sieve(LIMIT)


def _angles() -> AngleSeries:
    """Fixed angles that reach every regime of the sine ratio: theta = 0 and
    pi exactly, the recurrence band near both ends, and the open interval."""
    ps = primes_up_to(LIMIT)
    theta = np.mod(ps * (math.sqrt(5.0) - 1.0) / 2.0, 1.0) * math.pi
    theta[:5] = [0.0, math.pi, 1e-3, math.pi - 1e-13, 1e-14]
    return AngleSeries.from_theta(ps, theta, source="pin", limit=LIMIT)


@pytest.mark.parametrize("kind", RULE_KINDS)
def test_assembled_sequence_bytes(kind):
    seq = assemble_multiplicative(_angles(), PrimePowerRule(kind=kind), LIMIT)
    assert _digest(seq.values) == PINS[kind]


def test_elliptic_sequence_bytes():
    series = trace_series(CurveSpec(-1, 1), LIMIT)
    seq = ec_normalized_sequence(series, LIMIT)
    assert _digest(seq.values) == PINS["ec(-1,1)"]


def test_integer_table_bytes(sieve):
    assert _digest(_divisor_counts(LIMIT)) == PINS["divisor_counts"]
    assert _digest(_sigma11_mod691(LIMIT)) == PINS["sigma11_mod691"]
    assert _digest(largest_prime_factor_table(sieve)) == PINS["largest_prime_factor"]
    assert _digest(*exponent_core_tables(sieve)) == PINS["exponent_core"]


def _walked_tables(limit: int, cm_traces) -> list[np.ndarray]:
    """Every table filled over `dyadic_blocks` or by blocked prime-power
    strikes, (e, core) from a fresh sieve under the current block size."""
    sieve = build_spf_sieve(limit)
    _, synth = build_synthetic_sequence(SyntheticSpec(limit=limit, seed=7))
    return [
        *exponent_core_tables(sieve),
        largest_prime_factor_table(sieve),
        synth.values,
        ec_normalized_sequence(cm_traces, limit).values,
        _divisor_counts(limit),
        _sigma11_mod691(limit),
    ]


@pytest.mark.parametrize("block", [7, 100])
def test_tables_independent_of_block_size(monkeypatch, block):
    import stseq.arith as arith_mod

    limit = 20_000
    # y^2 = x^3 + 1: a_p = 0 at every p = 2 mod 3
    cm_traces = trace_series(CurveSpec(0, 1), limit)
    want = [t.tobytes() for t in _walked_tables(limit, cm_traces)]
    monkeypatch.setattr(arith_mod, "_BLOCK", block)
    assert [t.tobytes() for t in _walked_tables(limit, cm_traces)] == want
