"""Adaptive Simpson quadrature with explicit split points.

Plain recursive Simpson with the standard 1/15 error estimate.  Integrands
with kinks or transformed endpoint singularities are handled by listing the
split points; each panel then sees a smooth function.
"""

from __future__ import annotations

from typing import Callable, Iterable

# Halvings per panel before the estimate is accepted as it stands.
_MAX_DEPTH = 50


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(a, fa, m, fm, flm)
    right = _simpson(m, fm, b, fb, frm)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return _adapt(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + _adapt(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    split_at: Iterable[float] = (),
) -> float:
    """Integrate f over [a, b] to absolute tolerance ~tol."""
    points = [a] + sorted(x for x in split_at if a < x < b) + [b]
    total = 0.0
    panel_tol = tol / max(1, len(points) - 1)
    for lo, hi in zip(points[:-1], points[1:]):
        m = 0.5 * (lo + hi)
        flo, fhi, fm = f(lo), f(hi), f(m)
        whole = _simpson(lo, flo, hi, fhi, fm)
        total += _adapt(f, lo, flo, hi, fhi, m, fm, whole, panel_tol, _MAX_DEPTH)
    return total
