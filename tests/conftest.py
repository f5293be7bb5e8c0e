import ast
import sys
import tracemalloc

import numpy as np
import pytest

import stseq
from stseq.arith import build_spf_sieve
from stseq.tau import expand_delta

# Every route to a smallest-prime-factor sieve or a table derived from one.
SIEVE_NAMES = ("build_spf_sieve", "exponent_core_tables", "largest_prime_factor_table")


@pytest.fixture(scope="session")
def sieve_10k():
    return build_spf_sieve(10_000)


@pytest.fixture(scope="session")
def tau_2_19():
    """The exact table at 2^19, the tau-session limit of the benchmark."""
    return expand_delta(2**19)


def refuse_sieves(monkeypatch, caller: str) -> None:
    """Make any SPF sieve, (e, core) derivation or largest-prime-factor table
    fail the test, through every stseq module that binds one of the names."""

    def refuse(*args):
        pytest.fail(f"{caller} built a sieve")

    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == stseq.__name__:
            for name in SIEVE_NAMES:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)


def source_identifiers(tree: ast.AST):
    """(line, name) for every name, attribute, imported name or module and
    string constant in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value


def traced_peak(fn):
    """(fn(), peak bytes traced while fn ran, above the bytes traced when it
    started).  numpy reports its array buffers to tracemalloc, so the peak
    counts every array fn allocates, whatever the C heap keeps resident."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return out, peak - base


def limbs_at_width(values, w: int) -> np.ndarray:
    """values as an (N, w) limb array (`stseq.limbs`) of exactly w limbs,
    each wrapped into the signed range of w limbs."""
    half = 2 ** (64 * w - 1)
    raw = b"".join(((v + half) % (2 * half) - half).to_bytes(8 * w, "little", signed=True)
                   for v in values)
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64).reshape(len(values), w)


def brute_spf(n: int) -> int:
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    raise AssertionError("unreachable for n >= 2")


def brute_factor(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def enum_trace(a4: int, a6: int, p: int) -> int:
    """Point-enumeration oracle, valid for good and bad primes."""
    A, B = a4 % p, a6 % p
    roots = {}  # v -> every y with y^2 = v mod p
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    pts = []
    sing = set()
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        for y in roots.get(f, []):
            pts.append((x, y))
            if (3 * x * x + A) % p == 0 and (2 * y) % p == 0:
                sing.add((x, y))
    if not sing:
        return p + 1 - (len(pts) + 1)
    return p - (len(pts) - len(sing) + 1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
