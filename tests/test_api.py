"""Public signatures: every table a kernel needs is built from the kernel's
own inputs, so no public function takes a sieve or a memory budget."""

import dataclasses
import importlib
import inspect

import numpy as np
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


def test_exact_tau_table_holds_one_limb_array():
    """Limbs are the only storage: no int list is kept beside them, and the
    int view is rebuilt on access, so it cannot be edited out of step."""
    from stseq.tau import ExactTauTable, tau_naive_oracle

    assert [f.name for f in dataclasses.fields(ExactTauTable)] == ["limit", "limbs"]
    table = tau_naive_oracle(30)
    state = vars(table)
    arrays = [v for v in state.values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0].dtype == np.uint64 and arrays[0].ndim == 2
    assert not any(isinstance(v, (list, tuple)) for v in state.values())
    with pytest.raises(TypeError):
        table.taus[3] = 0
    assert table.taus[1:4] == (1, -24, 252) and table[3] == 252
