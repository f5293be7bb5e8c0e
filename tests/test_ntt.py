import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stseq import limbs as lb
from stseq import ntt
from stseq.arith import is_prime
from stseq.errors import CapacityError, ConfigurationError, DataCorruptionError
from stseq.limbs import to_ints
from stseq.ntt import (
    cyclic_square_truncated,
    digit_plan,
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


def test_digit_plan_at_the_signed_edges():
    # D digits of b bits hold [-2^(bD - 1), 2^(bD - 1)): balanced below, signed on top
    for keep in (1, 1000, 2**19, 2**20):
        plans = {digit_plan(_widened([(1 << k) - 1], 4), keep) for k in range(255)}
        assert len(plans) >= 10
        for b, D in plans:
            edge = 1 << (b * D - 1)
            for values in ([edge - 1], [-edge], [edge - 1, -edge, 0]):
                assert digit_plan(_widened(values, 4), keep) == (b, D), (keep, values, b, D)
            for values in ([edge], [-edge - 1]):  # one bit more: never fewer digit bits
                wb, wD = digit_plan(_widened(values, 4), keep)
                assert wb <= b and wb * wD > b * D, (keep, values, b, D)
            # the widest width whose bound stays within the headroom
            assert D * keep << 2 * b - 2 <= 1 << 47
            assert ((b * D - 1) // (b + 1) + 1) * keep << 2 * b > 1 << 47
    # eta^6 (26 bits) and eta^12 (53 bits) at 2^19
    assert [digit_plan(lb.from_ints([-(1 << k)]), 2**19) for k in (26, 53)] == [(14, 2), (14, 4)]
    assert digit_plan(np.zeros((5, 2), dtype=np.uint64), 1) == (24, 1)
    assert digit_plan(np.zeros((0, 1), dtype=np.uint64), 1) == (24, 1)
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


@pytest.mark.parametrize("values, plan, weight, excess, caught", [
    # 2 digits of 23 bits, one limb out: 3 weights and 3 output digits (bits 46..68 last)
    ([1 << 30, -(1 << 29), 12345], (23, 2), 2, 23, True),  # 2^(46 + 23) = 2^69: bits
    #                                                         63..68 stay 0, the carry is 1
    ([1 << 30, -(1 << 29), 12345], (23, 2), 2, 17, True),  # 2^63: the top bit flips, the carry not
    ([1 << 30, -(1 << 29), 12345], (23, 2), 2, 16, False),  # 2^62 still fits
    # 3 digits of 22 bits, one limb out: 5 weights, the last past the output's 3 digits
    ([1, 0, -(1 << 61)], (22, 3), 4, 0, True),  # 2^88 arrives as digit 4 itself
], ids=["carry-only", "top-bit", "fits", "past-the-last-digit"])
def test_square_truncated_checks_the_carry_past_the_top_bit(monkeypatch, values, plan, weight,
                                                            excess, caught):
    """A product that is off by 2^(b weight + excess) in one entry, injected
    into the inverse transform of that weight, is caught exactly when the
    entry leaves one signed limb."""
    series = lb.from_ints(values)
    b, D = plan
    assert digit_plan(series, 3) == plan and 2 * D - 1 > weight
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
        assert got == [honest[0] + (1 << (b * weight + excess))] + honest[1:]


def test_square_truncated_refuses_inexact_capacity_before_allocating(monkeypatch):
    class Allocated(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Allocated

    series = lb.from_ints([(1 << 40) - 1] * 4)  # 40 bits: 41 digits of one bit
    edge = (1 << 47) // 41  # 41 digits * edge terms * 2^0 stays within 2^47
    assert digit_plan(series, edge) == (1, 41)
    monkeypatch.setattr(np, "empty", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    # one term more and no width b >= 1 keeps the products exact
    with pytest.raises(CapacityError):
        square_truncated(series, edge + 1, 2)
    with pytest.raises(CapacityError):
        digit_plan(series, edge + 1)
    with pytest.raises(Allocated):  # edge terms pass the check
        square_truncated(series, edge, 2)


def _edge_value(b, D):
    """The value whose balanced b-bit digits are -2^(b-1) below a top digit
    of 1 - 2^(b-1): after the borrows from below, the nearest the top comes."""
    h = 1 << (b - 1)
    return sum(-h << (b * i) for i in range(D - 1)) + ((1 - h) << (b * (D - 1)))


def _scaled(big, m, width):
    """Limbs of big * m for an int 0 <= big and an int64 array |m| <= 2^20,
    by 32-bit halves of big with arithmetic-shift carries."""
    halves, carry = [], 0
    for j in range(2 * width):
        v = m * ((big >> 32 * j) & 0xFFFF_FFFF) + carry  # |v| < 2^53
        halves.append((v & 0xFFFF_FFFF).view(np.uint64))
        carry = v >> 32
    return np.stack([halves[2 * k] | halves[2 * k + 1] << np.uint64(32)
                     for k in range(width)], axis=1)


@pytest.mark.parametrize("keep, plan", [(2**19, (15, 1)), (2**19, (14, 4)),
                                        (2**20, (14, 2)), (2**20, (13, 8))],
                         ids=["2^19-b15", "2^19-b14", "2^20-b14", "2^20-b13"])
def test_square_truncated_is_exact_on_coherent_edge_digits(monkeypatch, keep, plan):
    """The inputs the headroom exists for: every digit at the edge and the
    bound D keep 2^(2b-2) at 2^47 itself.  Constant, alternating and random
    signs of one edge value c square to c^2 times the square of their sign
    series, with every rounding within 0.1 of an integer."""
    b, D = plan
    assert D * keep << 2 * b - 2 == 1 << 47
    c = _edge_value(b, D)
    pair = lb.from_ints([c, -c])
    k = np.arange(keep)
    negative = {"constant": k * 0, "alternating": k % 2,
                "random": np.random.default_rng(7).integers(0, 2, keep)}
    errors, digits = [], []
    real_round, real_rfft = ntt.round_exact, np.fft.rfft

    def spy(x):
        errors.append(float(np.max(np.abs(x - np.rint(x)), initial=0.0)))
        return real_round(x)

    def digit_spy(x, *args, **kwargs):
        digits.append((x[:keep].min(), x[:keep].max()))
        return real_rfft(x, *args, **kwargs)

    monkeypatch.setattr(ntt, "round_exact", spy)
    monkeypatch.setattr(np.fft, "rfft", digit_spy)
    width = lb.width_for(keep * c * c)
    n = transform_length(keep)
    for form, neg in negative.items():
        series = pair[neg]
        assert digit_plan(series, keep) == plan, form
        signs = real_rfft(1.0 - 2 * neg, n)
        auto = np.fft.irfft(signs * signs, n)[:keep]  # |entries| <= keep: exact after rounding
        m = np.rint(auto).astype(np.int64)
        assert np.max(np.abs(auto - m)) < 1e-3
        if form != "random":
            assert np.array_equal(m, (k + 1) * (1 - 2 * negative[form]))
        errors.clear()
        digits.clear()
        got = square_truncated(series, keep, width)
        assert 0 < max(errors) <= 0.1, (form, max(errors))
        h = 1 << (b - 1)
        if form == "constant":
            assert digits == [(-h, -h)] * (D - 1) + [(1 - h, 1 - h)]
        else:
            assert len(digits) == D and all(-h <= lo and hi <= h for lo, hi in digits)
        assert np.array_equal(got, _scaled(c * c, m, width)), form


@st.composite
def _edge_series(draw):
    """(values, width, keep): values of `width` signed limbs that are sums of
    b-bit digits at or next to the balanced edges, or any in-range ints."""
    width = draw(st.integers(1, 3))
    b = draw(st.integers(1, 24))
    h = 1 << (b - 1)
    top = 64 * width - 1  # |sum of digits| < 2^(b * digits) <= 2^top
    digits = st.lists(st.sampled_from([-h, 1 - h, -1, 0, 1, h - 1, h]),
                      min_size=1, max_size=top // b)
    value = st.one_of(st.builds(lambda ds: sum(d << (b * i) for i, d in enumerate(ds)), digits),
                      st.integers(-(1 << top), (1 << top) - 1))
    values = draw(st.lists(value, min_size=1, max_size=12))
    return values, width, draw(st.integers(1, len(values) + 3))


@settings(max_examples=200, deadline=None)
@given(_edge_series())
def test_square_truncated_matches_python_ints_at_digit_edges(case):
    values, width, keep = case
    want = _square_prefix(values, keep)
    out_width = lb.width_for(max(abs(v) for v in want))
    series = _widened(values, width)
    b, D = digit_plan(series[:keep], keep)
    digits = []
    real_rfft = np.fft.rfft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "rfft",
                   lambda x, *a, **k: digits.append(x.copy()) or real_rfft(x, *a, **k))
        got = square_truncated(series, keep, out_width)
    assert to_ints(got) == want
    assert to_ints(square_truncated(series, keep, out_width + 1)) == want
    # the digits are balanced and sum back to the values
    assert len(digits) == D and all(np.all(np.abs(d) <= 1 << (b - 1)) for d in digits)
    rows = range(min(keep, len(values)))
    assert [sum(int(d[r]) << (b * i) for i, d in enumerate(digits)) for r in rows] == values[:keep]
