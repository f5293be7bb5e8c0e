import math

import numpy as np
import pytest

from stseq import limbs as lb
from stseq.arith import is_prime
from stseq.errors import CapacityError, ConfigurationError, DataCorruptionError
from stseq.limbs import to_ints
from stseq.ntt import (
    cyclic_square_truncated,
    digit_count,
    find_ntt_primes,
    garner_lift,
    get_plan,
    round_exact,
    square_truncated,
    transform_length,
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


def _widened(values, width):
    """Limbs of `values` sign-extended to `width` limbs."""
    limbs = lb.from_ints(values)
    fill = (limbs[:, -1:].view(np.int64) >> 63).view(np.uint64)
    return np.hstack([limbs] + [fill] * (width - limbs.shape[1]))


def _square_prefix(values, keep):
    """First keep coefficients of the square of sum values[i] q^i, in Python ints."""
    return [sum(values[i] * values[k - i] for i in range(k + 1)
                if i < len(values) and k - i < len(values)) for k in range(keep)]


def test_digit_count_at_the_signed_edges():
    # D digits hold [-2^(11D - 1), 2^(11D - 1)): unsigned below, signed on top
    for d in (1, 2, 3, 6, 7, 12):
        edge = 1 << (11 * d - 1)
        for values, want in (([edge - 1], d), ([-edge], d), ([edge], d + 1), ([-edge - 1], d + 1)):
            assert digit_count(_widened(values, 4)) == want, (values, want)
    assert digit_count(np.zeros((5, 2), dtype=np.uint64)) == 1
    assert digit_count(np.zeros((0, 1), dtype=np.uint64)) == 1
    assert [transform_length(k) for k in (1, 2, 3, 5, 1000)] == [1, 4, 8, 16, 2048]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_square_truncated_matches_python_ints(rng, width):
    top = 64 * width - 2  # the square of every value below stays in reach of 3 * width limbs
    edges = [s * ((1 << k) - 1) for k in range(1, top, 11) for s in (1, -1)]
    edges += [s * ((1 << k) - 1) for k in range(11, top, 11) for s in (1, -1)]
    cases = [edges, [-(1 << top)] * 7, [(1 << top) - 1] * 5]
    for size in (1, 2, 3, 5, 33, 100):
        bits = int(rng.integers(1, top + 1))
        cases.append([int.from_bytes(rng.bytes(24), "little") % (1 << bits) - (1 << (bits - 1))
                      for _ in range(size)])
    for values in cases:
        for keep in sorted({1, 2, 3, len(values), len(values) + 4}):
            want = _square_prefix(values, keep)
            out_width = lb.width_for(max(abs(v) for v in want))
            got = square_truncated(_widened(values, width), keep, out_width)
            assert got.shape == (keep, out_width)
            assert to_ints(got) == want, (width, keep, values[:3])
            # any wider output holds the same values, sign-extended
            assert to_ints(square_truncated(_widened(values, width), keep, out_width + 1)) == want


def test_square_truncated_raises_on_too_narrow_output():
    # 2 * 2^31 * 2^31 = 2^63 needs a second limb; its negative does not
    series = lb.from_ints([1 << 31, 1 << 31])
    assert to_ints(square_truncated(series, 2, 2)) == [1 << 62, 1 << 63]
    with pytest.raises(DataCorruptionError):
        square_truncated(series, 2, 1)
    assert to_ints(square_truncated(lb.from_ints([1 << 31, -(1 << 31)]), 2, 1)) == \
        [1 << 62, -(1 << 63)]
    with pytest.raises(DataCorruptionError):  # more weights than output digits
        square_truncated(_widened([-(1 << 150)], 3), 1, 2)


@pytest.mark.parametrize("values, weight, excess, caught", [
    # 3 digits, one limb out: 5 weights, then one carry step to digit 5 (bits 55..65)
    ([1 << 30, -(1 << 29), 12345], 4, 22, True),  # 2^(44 + 22) = 2^66: bits 63..65
    #                                               stay 0, the carry is 1
    ([1 << 30, -(1 << 29), 12345], 4, 19, True),  # 2^63: the top bit flips, the carry not
    ([1 << 30, -(1 << 29), 12345], 4, 18, False),  # 2^62 still fits
    # 4 digits, one limb out: 7 weights, the last past the output's 6 digits
    ([1, 12345, -(1 << 39)], 6, 0, True),  # 2^66 arrives as digit 6 itself
], ids=["carry-only", "top-bit", "fits", "past-the-last-digit"])
def test_square_truncated_checks_the_carry_past_the_top_bit(monkeypatch, values, weight, excess,
                                                            caught):
    """A product that is off by 2^(11 weight + excess) in one entry, injected
    into the inverse transform of that weight, is caught exactly when the
    entry leaves one signed limb."""
    series = lb.from_ints(values)
    assert digit_count(series) == (weight + 2) // 2
    honest = to_ints(square_truncated(series, 3, 1))
    calls = []
    real_irfft = np.fft.irfft

    def inject(*args, **kwargs):
        out = real_irfft(*args, **kwargs)
        if len(calls) == weight:
            out[0] += 2.0**excess
        calls.append(None)
        return out

    monkeypatch.setattr(np.fft, "irfft", inject)
    if caught:
        with pytest.raises(DataCorruptionError):
            square_truncated(series, 3, 1)
    else:
        got = to_ints(square_truncated(series, 3, 1))
        assert got == [honest[0] + (1 << (11 * weight + excess))] + honest[1:]


def test_square_truncated_refuses_inexact_capacity_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Allocated

    series = lb.from_ints([(1 << 40) - 1] * 4)  # 41 bits: 4 digits
    assert digit_count(series) == 4
    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    # 4 digits * 2^28 terms * 2^22 reaches 2^52
    with pytest.raises(CapacityError):
        square_truncated(series, 1 << 28, 2)
    with pytest.raises(Allocated):  # one term fewer passes the check
        square_truncated(series, (1 << 28) - 1, 2)
