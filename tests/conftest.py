import numpy as np
import pytest

from stseq import build_spf_sieve


@pytest.fixture(scope="session")
def sieve_10k():
    return build_spf_sieve(10_000)


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
