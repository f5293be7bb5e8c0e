"""Runtime/memory budget checks for the example-level performance contracts."""

import time

import pytest

from stseq import build_spf_sieve
from stseq.elliptic import CurveSpec, trace_series
from stseq.tau import tau_naive_oracle

pytestmark = pytest.mark.slow


def test_sieve_hundred_million_under_ten_seconds():
    t0 = time.perf_counter()
    sieve = build_spf_sieve(10**8)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0, f"sieve(1e8) took {elapsed:.1f}s"
    assert sieve.spf.nbytes <= 1_000_000_000
    assert int(sieve.spf[99999989]) == 99999989  # prime
    assert int(sieve.spf[99999990]) == 2


def test_naive_oracle_ten_thousand_under_a_minute():
    t0 = time.perf_counter()
    table = tau_naive_oracle(10**4)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"oracle(1e4) took {elapsed:.1f}s"
    assert table.taus[2] * table.taus[4999] == table.taus[9998]


def test_trace_series_hundred_thousand_under_two_minutes():
    t0 = time.perf_counter()
    series = trace_series(CurveSpec(-1, 1), 10**5)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"trace series(1e5) took {elapsed:.1f}s"
    assert len(series) == 9592
