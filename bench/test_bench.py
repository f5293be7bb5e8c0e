"""The benchmark's own tests, at tiny sizes: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from session import CURVES, DEFAULT_SEED, import_cli, run_session, session_calls, session_key
from tracer import COUNT_METRICS, TARGETS, Tracer, layer_metrics, self_times, stseq_modules

TINY = {"tau-session": 2_000, "ec-session": 2_000, "synth-session": 20_000}
HERE = Path(__file__).resolve().parent

cli = import_cli()


def traced_session(workload, seed, work):
    with Tracer(session=f"{workload}:{seed}") as tracer:
        result = run_session(cli, session_calls(workload, seed, TINY[workload]), work, tracer)
    return result, tracer.spans


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_every_call_exits_zero(workload, tmp_path):
    result = run_session(cli, session_calls(workload, DEFAULT_SEED, TINY[workload]), tmp_path)
    for call in result["calls"]:
        assert call["exit"] == 0 and call["error"] is None, call
        assert len(call["digest"]) == 32
    assert result["peak_kib"] > 0


@pytest.mark.parametrize("workload", ["tau-session", "synth-session"])
def test_self_times_add_up_to_the_root_span(workload, tmp_path):
    _, spans = traced_session(workload, DEFAULT_SEED, tmp_path)
    (root,) = [sp for sp in spans if sp.parent is None]
    assert root.name == "session"
    assert {sp.session for sp in spans} == {f"{workload}:{DEFAULT_SEED}"}
    selfs = self_times(spans)
    assert min(selfs.values()) >= 0.0
    assert sum(selfs.values()) == pytest.approx(root.duration, rel=1e-9, abs=1e-9)


def test_every_binding_is_patched_and_then_restored():
    before = {(m.__name__, k): v for m in stseq_modules() for k, v in vars(m).items()}
    with Tracer(session="t"):
        import stseq.tau
        import stseq.verify

        assert stseq.tau.cyclic_square_truncated.__wrapped__ is \
            before[("stseq.ntt", "cyclic_square_truncated")]
        assert stseq.verify.normal_cdf.__wrapped__ is before[("stseq.stats", "normal_cdf")]
        for modname, funcs in TARGETS.items():
            for fname in funcs:
                original = before[(modname, fname)]
                for mod in stseq_modules():
                    for attr, val in vars(mod).items():
                        assert val is not original, f"{mod.__name__}.{attr} left unpatched"
    after = {(m.__name__, k): v for m in stseq_modules() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_restored_after_a_failing_session():
    before = {(m.__name__, k): v for m in stseq_modules() for k, v in vars(m).items()}
    with pytest.raises(RuntimeError):
        with Tracer(session="t"):
            raise RuntimeError("boom")
    assert all(vars(sys.modules[m])[k] is v for (m, k), v in before.items())


def test_exact_counts_at_tiny_size(tmp_path):
    import stseq.arith

    _, spans = traced_session("tau-session", DEFAULT_SEED, tmp_path / "tau")
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    assert m["ntt.transform_len"] == 4096  # 2 * 2000 - 1 rounded up to a power of two
    assert m["ntt.square_calls"] == 3 * m["tau.crt_moduli"]
    assert m["ntt.butterflies"] == m["ntt.square_calls"] * 4096 * 12
    assert m["cli.calls"] == len(session_calls("tau-session", DEFAULT_SEED))
    assert m["cache.saves"] == 1 and m["cache.loads"] == 6
    assert m["cache.bytes_read"] == 6 * m["cache.bytes_written"]

    _, spans = traced_session("ec-session", DEFAULT_SEED, tmp_path / "ec")
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    primes = stseq.arith.primes_up_to(TINY["ec-session"])
    assert m["elliptic.sweeps"] == len(primes)
    assert m["elliptic.sweep_points"] == int(primes.sum())
    assert m["ntt.square_s"] == 0.0 and m["ntt.square_calls"] == 0


@pytest.mark.parametrize("workload", ["ec-session", "synth-session"])
def test_two_seeds_differ_in_outputs_not_in_seed_free_counts(workload, tmp_path):
    seeds = (DEFAULT_SEED, DEFAULT_SEED + 1)
    runs = [traced_session(workload, s, tmp_path / str(s)) for s in seeds]
    digests = [[c["digest"] for c in r["calls"]] for r, _ in runs]
    assert all(a != b for a, b in zip(*digests))
    counts = [layer_metrics(spans) for _, spans in runs]
    # proposals follow the sampled angles; the cache metadata holds the seed
    # and the acceptance rate, whose decimal length varies
    for name in set(COUNT_METRICS) - {"synthetic.proposals", "cache.bytes_written"}:
        assert counts[0][name] == counts[1][name], name


def test_pins_cover_every_session_key():
    pins = json.loads((HERE / "pins.json").read_text())
    keys = {"tau-session": ["any"], "ec-session": ["{},{}".format(*c) for c in CURVES],
            "synth-session": [str(DEFAULT_SEED)]}
    assert {w: sorted(v) for w, v in pins.items()} == {w: sorted(v) for w, v in keys.items()}
    for workload in pins:
        assert session_key(workload, DEFAULT_SEED) in pins[workload]
        for digests in pins[workload].values():
            assert len(digests) == len(session_calls(workload, DEFAULT_SEED))


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ec-session", "--seed", "7",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
