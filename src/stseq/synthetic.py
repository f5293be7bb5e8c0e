"""Seeded synthetic members of the sequence class via Sato-Tate angle sampling.

Angles are drawn by rejection from density (2/pi) sin^2(theta) on [0, pi]:
propose theta uniform, accept with probability sin^2(theta) (envelope area
2, target area 1, so the long-run acceptance rate is 1/2).

Randomness is counter-based: every uniform is a pure function of
(seed, p, attempt, component) through a splitmix-style 64-bit finalizer,
so the draw for prime p never depends on evaluation order, chunking, or
thread count.  Same (limit, seed, rule) in, bit-identical sequence out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import math
import numpy as np

from .arith import (
    AngleSeries,
    NormalizedSequence,
    PrimePowerRule,
    assemble_multiplicative,
    growth_violations,
    primes_up_to,
)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_MAX_ATTEMPTS = 512
# Highest prime power k whose growth bound each sampled rule is checked at.
_GROWTH_MAX_EXPONENT = 6


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _M1
    z = (z ^ (z >> np.uint64(27))) * _M2
    return z ^ (z >> np.uint64(31))


def _keyed_u01(seed: int, p: np.ndarray, attempt: int, component: int) -> np.ndarray:
    """Uniform [0,1) doubles keyed by (seed, p, attempt, component)."""
    base = mix64(np.uint64(seed) ^ (p.astype(np.uint64) * _GAMMA))
    # scalar counter mixed in Python ints (numpy warns on scalar wraparound)
    ctr = np.uint64(((2 * attempt + component) * 0xBF58476D1CE4E5B9) % 2**64)
    bits = mix64(base ^ ctr)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass
class StRngStream:
    """Counter-based stream; holds only the seed, all state is in the keys."""

    seed: int

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def sample_st_angles(stream: StRngStream, primes: np.ndarray):
    """Vectorized rejection sampler over a prime array.

    Returns (theta, n_accepted, n_proposed): one float64 angle per prime,
    and the sampler's acceptance counts.
    """
    primes = np.asarray(primes, dtype=np.int64)
    theta = np.empty(len(primes), dtype=np.float64)
    pending = np.arange(len(primes))
    proposed = 0
    attempt = 0
    while len(pending):
        if attempt >= _MAX_ATTEMPTS:
            raise RuntimeError("rejection sampler exceeded the attempt cap")
        u1 = _keyed_u01(stream.seed, primes[pending], attempt, 0)
        u2 = _keyed_u01(stream.seed, primes[pending], attempt, 1)
        prop = math.pi * u1
        accept = u2 < np.sin(prop) ** 2
        theta[pending[accept]] = prop[accept]
        proposed += len(pending)
        pending = pending[~accept]
        attempt += 1
    return theta, len(primes), proposed


@dataclass
class SyntheticSpec:
    """Same (limit, seed, rule) always yields a bit-identical sequence."""

    limit: int
    seed: int
    rule: PrimePowerRule = field(default_factory=PrimePowerRule)


def build_synthetic_sequence(spec: SyntheticSpec) -> tuple[AngleSeries, NormalizedSequence]:
    """Sample angles for every prime <= limit, then assemble the sequence.

    Growth-bound violations of the chosen rule (possible at small primes
    with near-boundary angles) are counted into the sequence metadata.
    """
    ps = primes_up_to(spec.limit)
    stream = StRngStream(spec.seed)
    theta, n_acc, n_prop = sample_st_angles(stream, ps)
    angles = AngleSeries.from_theta(ps, theta, source="synthetic", limit=spec.limit)
    seq = assemble_multiplicative(angles, spec.rule, spec.limit, ps)
    violations = growth_violations(spec.rule, angles, _GROWTH_MAX_EXPONENT)
    seq.meta.update(
        {
            "seed": spec.seed,
            "rule": spec.rule.kind,
            "rho": spec.rule.rho,
            "proposals": n_prop,
            "accepted": n_acc,
            "acceptance_rate": (n_acc / n_prop) if n_prop else 0.0,
            "growth_violations": len(violations),
        }
    )
    return angles, seq
