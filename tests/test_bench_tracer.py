"""The benchmark's tracer wraps stseq functions by module and name, so a
rename or removal would silently drop its spans; this keeps them in step."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from stseq.ntt import find_ntt_primes, get_plan

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ untouched
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists(tracer):
    missing = [
        (modname, fname)
        for modname, funcs in tracer.TARGETS.items()
        for fname in funcs
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert missing == []


def test_square_hook_reads_plan_length(tracer):
    plan = get_plan(find_ntt_primes(8, 1)[0], 8)
    assert tracer._square_attrs((None, plan), {}, None) == {"transform_len": 8}
