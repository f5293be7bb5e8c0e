"""Sato-Tate integrals (closed forms and quadrature) and empirical machinery.

The angle law has density (2/pi) sin^2(theta) on [0, pi].  Closed forms
live on STConstants and serve as oracles for the quadrature engine:

  CDF          F(alpha) = alpha/pi - sin(2 alpha)/(2 pi)
  h(gamma)     (2/pi) int_0^pi (2|cos t|)^gamma sin^2 t dt
               h(0) = h(2) = 1, h(1) = 8/(3 pi), one-sided h'(0) = -1/2
  log moments  (2/pi) int_0^2 (log u)^j sqrt(1 - (u/2)^2) du
               j=1: -1/2, j=2: 1/2 + pi^2/12
  cos moments  int_0^pi cos t sin^2 t dt = 0
               int_0^pi |cos t| sin^2 t dt = 2/3
  half band    P(|cos theta| >= 1/2) = 2/3 - sqrt(3)/(2 pi)

Iterated logarithms follow the convention log_1 x = max(log x, 1) and
log_k x = log_1(log_{k-1} x).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arith import AngleSeries
from .quadrature import adaptive_simpson
from .report import VerificationReport


def log1(x: float) -> float:
    return max(math.log(x), 1.0) if x > 0 else 1.0


def log2_iter(x: float) -> float:
    return log1(log1(x))


def log3_iter(x: float) -> float:
    return log1(log2_iter(x))


# ---------------------------------------------------------------------------
# Closed forms and quadrature
# ---------------------------------------------------------------------------


def st_cdf(alpha):
    """Exact angle CDF alpha/pi - sin(2 alpha)/(2 pi) on [0, pi]."""
    arr = np.asarray(alpha, dtype=np.float64)
    if np.any(arr < -1e-15) or np.any(arr > math.pi + 1e-15):
        raise ValueError("alpha outside [0, pi]")
    return np.clip(arr / math.pi - np.sin(2.0 * arr) / (2.0 * math.pi), 0.0, 1.0)


def st_pdf(theta):
    return (2.0 / math.pi) * np.sin(np.asarray(theta, dtype=np.float64)) ** 2


# absolute tolerance of the constant quadratures below (h_gamma takes its own)
_QUAD_TOL = 1e-11


def h_gamma(gamma: float, tol: float = 1e-9) -> float:
    """(2/pi) int_0^pi (2|cos t|)^gamma sin^2 t dt by adaptive quadrature.

    The integrand has a kink (and for gamma < 1 a cusp) at pi/2, so the
    interval is split there.  Absolute tolerance ~tol.
    """
    if not 0.0 <= gamma <= 2.0:
        raise ValueError("gamma must lie in [0, 2]")

    def f(t: float) -> float:
        c = abs(math.cos(t))
        return (2.0 * c) ** gamma * math.sin(t) ** 2 if c > 0.0 else 0.0

    val = adaptive_simpson(f, 0.0, math.pi, tol=tol * math.pi / 4.0, split_at=[math.pi / 2.0])
    return (2.0 / math.pi) * val


def _log_power_integral(j: int) -> float:
    """(2/pi) int_0^2 (log u)^j sqrt(1 - (u/2)^2) du.

    Substituting u = 2 sin(t) and then t = e^s removes the endpoint
    blow-up: the s-integrand decays like e^s |s|^j toward -inf, so a
    truncation at s = -46 contributes < 1e-17.
    """

    def g(s: float) -> float:
        t = math.exp(s)
        return (math.log(2.0 * math.sin(t))) ** j * math.cos(t) ** 2 * t

    val = adaptive_simpson(g, -46.0, math.log(math.pi / 2.0), tol=_QUAD_TOL)
    return (4.0 / math.pi) * val


def st_log_moments() -> tuple[float, float]:
    """First and second moments of log(2|cos theta|) under the angle law.

    Quadrature route; the closed-form targets are -1/2 and 1/2 + pi^2/12.
    """
    return _log_power_integral(1), _log_power_integral(2)


def cos_moment_integrals() -> tuple[float, float]:
    """Raw integrals int_0^pi cos t sin^2 t dt and int_0^pi |cos t| sin^2 t dt."""
    signed = adaptive_simpson(
        lambda t: math.cos(t) * math.sin(t) ** 2, 0.0, math.pi, tol=_QUAD_TOL,
        split_at=[math.pi / 2],
    )
    absolute = adaptive_simpson(
        lambda t: abs(math.cos(t)) * math.sin(t) ** 2, 0.0, math.pi, tol=_QUAD_TOL,
        split_at=[math.pi / 2],
    )
    return signed, absolute


def half_band_density() -> float:
    """P(|cos theta| >= 1/2) by quadrature: (2/pi) over [0,pi/3] u [2pi/3,pi]."""
    f = lambda t: math.sin(t) ** 2
    val = adaptive_simpson(f, 0.0, math.pi / 3.0, tol=_QUAD_TOL) + adaptive_simpson(
        f, 2.0 * math.pi / 3.0, math.pi, tol=_QUAD_TOL
    )
    return (2.0 / math.pi) * val


@dataclass(frozen=True)
class STConstants:
    """Closed-form constants of the angle law.

    abs_cos_moment is the full-range integral int_0^pi |cos| sin^2 = 2/3;
    note h(1) = (4/pi) * abs_cos_moment = 8/(3 pi).
    """

    h1: float = 8.0 / (3.0 * math.pi)
    clt_c: float = 0.5 + math.pi**2 / 12.0
    abs_cos_moment: float = 2.0 / 3.0
    signed_cos_moment: float = 0.0
    half_density: float = 2.0 / 3.0 - math.sqrt(3.0) / (2.0 * math.pi)

    def quadrature_check(self) -> dict:
        """Recompute every constant by the independent quadrature route."""
        m1, m2 = st_log_moments()
        signed, absolute = cos_moment_integrals()
        return {
            "h1": h_gamma(1.0),
            "clt_c": m2,
            "log_moment_m1": m1,
            "abs_cos_moment": absolute,
            "signed_cos_moment": signed,
            "half_density": half_band_density(),
        }


# ---------------------------------------------------------------------------
# Empirical machinery
# ---------------------------------------------------------------------------


# Sorted points per block of the KS scan.
_KS_BLOCK = 1024


def ks_statistic(sample, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov sup distance between an ECDF and cdf.

    cdf must be nondecreasing: then on a sorted block [s, e) every term
    i/n - F(x_i) is at most e/n - F(x_s) and every F(x_i) - i/n at most
    F(x_{e-1}) - s/n.  cdf is evaluated at the block ends first, and then
    only inside the blocks whose bound reaches the best term seen there
    (less a 1e-12 margin), so the result is the same float as the maximum
    over every point.  The sample is sorted here and must not be empty.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = int(x.size)
    if n < 1:
        raise ValueError("empty sample")
    starts = np.arange(0, n, _KS_BLOCK)
    ends = np.minimum(starts + _KS_BLOCK, n)
    f_ends = np.asarray(cdf(np.concatenate([x[starts], x[ends - 1]])), dtype=np.float64)
    f_first, f_last = f_ends[: starts.size], f_ends[starts.size :]
    best = max(
        np.max((starts + 1) / n - f_first),
        np.max(f_first - starts / n),
        np.max(ends / n - f_last),
        np.max(f_last - (ends - 1) / n),
    )
    bound = np.maximum(ends / n - f_first, f_last - starts / n)
    hit = np.nonzero(bound >= best - 1e-12)[0]
    i = (starts[hit, None] + np.arange(_KS_BLOCK)).ravel()
    i = i[i < n]
    f = np.asarray(cdf(x[i]), dtype=np.float64)
    upper = np.max((i + 1) / n - f, initial=best)
    lower = np.max(f - i / n, initial=best)
    return float(max(upper, lower))


def normal_cdf(x):
    arr = np.asarray(x, dtype=np.float64) / math.sqrt(2.0)
    erf = np.fromiter(map(math.erf, arr.ravel()), np.float64, count=arr.size)
    return 0.5 * (1.0 + erf.reshape(arr.shape))


@dataclass
class LogMomentEstimate:
    """Mertens-weighted log-moment sums over primes in support.

    mu     = sum log|a_p| / p
    sigma2 = sum (log|a_p|)^2 / p * (1 - 1/p)
    """

    x: int
    mu: float
    sigma2: float
    primes_in_support: int
    support_floor: float

    def __post_init__(self):
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")


def prime_log_moments(
    angles: AngleSeries, x: int, support_floor: float = 0.0
) -> LogMomentEstimate:
    """Restrict to primes p <= x with |a_p| > support_floor and sum.

    Floor 0 keeps the whole nonzero support; floor (log_2 x)^(-A)
    reproduces the A-filtered support used by the distributional checks.
    """
    if x > angles.limit:
        raise ValueError(f"cutoff {x} beyond angle coverage {angles.limit}")
    keep = (angles.primes <= x) & (np.abs(angles.a) > support_floor)
    p = angles.primes[keep].astype(np.float64)
    a = np.abs(angles.a[keep])
    la = np.log(a)
    mu = float(np.sum(la / p))
    sigma2 = float(np.sum(la**2 / p * (1.0 - 1.0 / p)))
    return LogMomentEstimate(
        x=x, mu=mu, sigma2=sigma2, primes_in_support=int(p.size), support_floor=support_floor
    )


def prime_angle_summary(angles: AngleSeries, gammas: list[float]) -> VerificationReport:
    """Per-gamma means and Mertens-weighted sums plus the standard panel.

    For each gamma: unweighted prime mean of (2|cos theta_p|)^gamma and
    sum over p of (2|cos theta_p|)^gamma / p.  Panel: mean 2 cos, mean
    |cos|, fraction with |cos| >= 1/2, and KS against the exact CDF.
    """
    t0 = time.perf_counter()
    if len(angles) == 0:
        raise ValueError("empty angle series")
    u = np.abs(angles.a)  # 2|cos theta_p|
    p = angles.primes.astype(np.float64)
    rows = []
    for g in gammas:
        ug = u**g
        rows.append(
            {
                "gamma": g,
                "mean": float(np.mean(ug)),
                "mertens_sum": float(np.sum(ug / p)),
            }
        )
    ks = ks_statistic(angles.theta, st_cdf)
    params = {
        "n_primes": len(angles),
        "source": angles.source,
        "mean_2cos": float(np.mean(angles.a)),
        "mean_abs_cos": float(np.mean(u / 2.0)),
        "frac_abs_cos_ge_half": float(np.mean(u / 2.0 >= 0.5)),
        "ks_vs_st_cdf": ks,
    }
    return VerificationReport(
        name="prime-angle-summary",
        parameters=params,
        rows=rows,
        flags=[],
        runtime=time.perf_counter() - t0,
    )
