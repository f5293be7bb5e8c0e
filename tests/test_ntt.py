import math

import numpy as np
import pytest

from stseq.arith import is_prime
from stseq.errors import ConfigurationError, DataCorruptionError
from stseq.limbs import to_ints
from stseq.ntt import (
    cyclic_square_truncated,
    find_ntt_primes,
    garner_lift,
    get_plan,
    round_exact,
)


def test_find_ntt_primes_properties():
    assert find_ntt_primes(0) == [2**31 - 1]  # a lift needs at least one prime
    for bound in (1, 2**40, 2**61, 2**62, 10**36, 2 * (4 * 10**6) ** 6):
        ps = find_ntt_primes(bound)
        assert ps == sorted(ps, reverse=True)
        assert all(is_prime(p) and p < 2**31 for p in ps)
        assert math.prod(ps) > 2 * bound
        assert math.prod(ps[:-1]) <= 2 * bound  # the fewest: one prime less falls short
    # one descending scan: every prime between the smallest chosen and 2^31 is taken
    ps = find_ntt_primes(10**36)
    assert ps == [p for p in range(2**31 - 1, ps[-1] - 1, -1) if is_prime(p)]


def _residue_cases(rng, p, keep):
    """Random residues, all p - 1, and the largest residue whose two low
    limbs are all ones."""
    max_limbs = ((p >> 22) << 22) - 1
    return {
        "random": rng.integers(0, p, keep),
        "p_minus_1": np.full(keep, p - 1),
        "max_limbs": np.full(keep, max_limbs),
    }


def test_square_matches_object_convolution(rng):
    L = 1 << 12
    keep = L // 2
    p = find_ntt_primes(0)[0]
    plan = get_plan(p, L)
    for case, res in _residue_cases(rng, p, keep).items():
        res = res.astype(np.uint64)
        got = cyclic_square_truncated(res, plan, keep)
        coeffs = res.astype(object)
        ref = np.convolve(coeffs, coeffs)[:keep] % p
        assert got.dtype == np.uint64
        assert np.array_equal(got.astype(object), ref), case


def test_square_exact_at_full_length_with_max_limbs():
    # a constant input c squares to (i + 1) c^2: every limb product adds
    # coherently, the largest coefficients the 10^6 tau table ever meets
    L = 1 << 21
    keep = L // 2
    p = find_ntt_primes(0)[0]
    c = ((p >> 22) << 22) - 1
    got = cyclic_square_truncated(np.full(keep, c, dtype=np.uint64), get_plan(p, L), keep)
    i = np.arange(1, keep + 1, dtype=np.uint64)
    assert np.array_equal(got, i * np.uint64(c * c % p) % np.uint64(p))


def test_round_exact_guard():
    assert round_exact(np.array([0.0, 1.2, 2.75, 3e12 + 0.1])).tolist() == [0, 1, 3, 3 * 10**12]
    with pytest.raises(DataCorruptionError):
        round_exact(np.array([1.0, 2.3, 3.0]))


def test_square_raises_on_inexact_float_product(rng, monkeypatch):
    L = 1 << 9
    p = find_ntt_primes(0)[0]
    res = rng.integers(0, p, L // 2).astype(np.uint64)
    real_irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: real_irfft(*a, **k) + 0.3)
    with pytest.raises(DataCorruptionError):
        cyclic_square_truncated(res, get_plan(p, L), L // 2)


def test_garner_lift_roundtrip(rng):
    primes = find_ntt_primes(2**150)
    M = math.prod(primes)
    vals = [int(rng.integers(-(10**18), 10**18)) * int(rng.integers(1, 10**18)) for _ in range(64)]
    vals = [v if abs(v) * 2 < M else v % (M // 3) for v in vals]
    residues = [np.array([v % p for v in vals], dtype=np.uint64) for p in primes]
    lifted = garner_lift(residues, primes)
    assert to_ints(lifted) == vals


def test_garner_lift_centering(rng):
    """Balanced digits give the centred value at the ends of the range too:
    the lift equals Python's centred residue, u % M folded to (-M/2, M/2)."""
    cases = [find_ntt_primes(2**200)[:k] for k in range(1, 7)]
    cases += [[3, 5, 7, 257, 263, 65537][:k] for k in range(1, 7)]
    for primes in cases:
        M = math.prod(primes)
        h = (M - 1) // 2
        vals = [0, 1, -1, h, -h, (M + 1) // 2 - M, h - 1, 1 - h]
        vals += [int(u) for u in rng.integers(0, 2**62, 64)]
        vals += [int.from_bytes(rng.bytes(24), "little") for _ in range(64)]
        want = [u % M - M if u % M > h else u % M for u in vals]
        residues = [np.array([u % p for u in vals], dtype=np.uint64) for p in primes]
        assert to_ints(garner_lift(residues, primes)) == want, primes


def test_plan_rejects_bad_modulus():
    with pytest.raises(ConfigurationError):
        get_plan(2**31 + 11, 1 << 10)  # three 11-bit limbs need p < 2^31
    plan = get_plan(7919, 1 << 10)
    assert (plan.p, plan.length) == (7919, 1 << 10)
    assert plan.weights == tuple(pow(2, 11 * k, 7919) for k in range(5))
