"""Public signatures: every table a kernel needs is built from the kernel's
own inputs, so no public function takes a sieve or a memory budget."""

import importlib
import inspect

import pytest

import stseq

MODULES = ["stseq.verify", "stseq.tau", "stseq.elliptic", "stseq.synthetic", "stseq.cli"]
DERIVED = {"sieve", "budget", "budget_bytes"}


@pytest.mark.parametrize("modname", MODULES)
def test_no_public_function_takes_a_derivable_argument(modname):
    # functions imported from stseq.arith, which owns the sieve, are skipped
    module = importlib.import_module(modname)
    offending = [
        f"{name}({param})"
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == modname and not name.startswith("_")
        for param in inspect.signature(fn).parameters
        if param in DERIVED
    ]
    assert offending == []


def test_tau_config_is_gone():
    assert "TauConfig" not in stseq.__all__
    assert not hasattr(stseq, "TauConfig")
