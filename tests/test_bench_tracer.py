"""The benchmark reaches into stseq by module, function and cache file name:
its tracer wraps functions by name, so a rename or removal would silently
drop spans, and its pins hash the cache files each call creates, so a new
cache key would only show as a digest mismatch.  These keep them in step."""

import importlib
import importlib.util
import inspect
import os
import sys
from pathlib import Path

import pytest

from stseq.arith import primes_up_to
from stseq.cli import main
from stseq.ntt import find_ntt_primes, get_plan

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_bench(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    return _load_bench(monkeypatch, "tracer")


def test_every_target_exists(tracer):
    missing = [
        (modname, fname)
        for modname, funcs in tracer.TARGETS.items()
        for fname in funcs
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []


def test_square_hook_reads_plan_length(tracer):
    plan = get_plan(find_ntt_primes(0)[0], 8)
    assert tracer._square_attrs((None, plan), {}, None) == {"transform_len": 8}


# hook -> (module, function, position, parameter) it reads positionally
HOOK_READS = {
    "_square_attrs": [("stseq.ntt", "cyclic_square_truncated", 1, "plan")],
    "_garner_attrs": [("stseq.ntt", "garner_lift", 1, "primes")],
    "_sweep_attrs": [("stseq.elliptic", "trace_at_prime", 1, "p")],
    "_file_attrs": [("stseq.cache", "load_cache", 0, "path"),
                    ("stseq.cache", "save_cache", 0, "path")],
}


def test_hook_positions_name_their_parameters(tracer):
    # _series_attrs reads `threads` at position 2 of trace_series, a parameter
    # gone since traces run on one thread; it falls back to 1, and the metric
    # it feeds goes with the next benchmark change (ROADMAP item 2)
    hooks = {hook.__name__ for funcs in tracer.TARGETS.values() for hook in funcs.values()
             if hook is not None}
    assert hooks - {"_sample_attrs", "_series_attrs"} == set(HOOK_READS)
    for reads in HOOK_READS.values():
        for modname, fname, pos, name in reads:
            params = list(inspect.signature(
                getattr(importlib.import_module(modname), fname)).parameters)
            assert params[pos] == name, (fname, params)


def test_every_session_call_exits_zero(tmp_path, monkeypatch):
    # every workload the benchmark runs, replayed small through the real entry point
    session = _load_bench(monkeypatch, "session")
    assert sorted(session.LIMITS) == ["ec-session", "synth-session", "tau-session"]
    for workload in sorted(session.LIMITS):
        work = tmp_path / workload
        for i, argv in enumerate(session.session_calls(workload, 7, limit=2000)):
            full = [*argv, "--cache-dir", str(work / "cache"), "--out-dir", str(work / f"out{i}")]
            assert main(full) == 0, argv


def test_synth_session_caches_once(tmp_path, monkeypatch):
    session = _load_bench(monkeypatch, "session")
    cache = tmp_path / "cache"
    created = []
    for i, argv in enumerate(session.session_calls("synth-session", 7, limit=2000)):
        before = set(os.listdir(cache)) if cache.exists() else set()
        assert main([*argv, "--cache-dir", str(cache), "--out-dir", str(tmp_path / f"out{i}")]) == 0
        created.append(sorted(set(os.listdir(cache)) - before))
    assert created[0] == ["synth_2000_7_hecke-chebyshev_0.25.astc", "synth_angles_2000_7.astc"]
    assert created[1:] == [[]] * (len(created) - 1)


def test_ec_session_traces_each_prime_once(tmp_path, monkeypatch):
    """bench/test_bench.py counts elliptic.sweeps as trace_at_prime spans.
    trace_series sweeps through trace_at_prime, via the module, exactly the
    primes <= 229 and the bad primes; the good primes above 229 go to one
    trace_batch call, which the tracer does not wrap."""
    tracer = _load_bench(monkeypatch, "tracer")
    session = _load_bench(monkeypatch, "session")
    calls = session.session_calls("ec-session", 7, limit=2000)
    with tracer.Tracer(session="ec-session:7") as tr:
        for i, argv in enumerate(calls):
            out = str(tmp_path / f"out{i}")
            assert main([*argv, "--cache-dir", str(tmp_path / "cache"), "--out-dir", out]) == 0
    metrics = tracer.layer_metrics(tr.spans)
    ps = primes_up_to(2000)
    swept = ps[(ps <= 229) | (-16 * 23 % ps == 0)]  # y^2 = x^3 - x + 1: disc = -16 * 23
    assert metrics["elliptic.sweeps"][0] == len(swept) == 50
    assert metrics["elliptic.sweep_points"][0] == int(swept.sum())
