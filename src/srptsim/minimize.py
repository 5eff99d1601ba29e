"""Bracketed scalar minimization used by the classical solver.

Interval golden-section search is preferred over bracket-triple variants
because the minimum may sit on the boundary of the physical window, where
no interior bracket exists.
"""

import math

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, rtol=1e-10, max_iter=200):
    """Minimize f on [lo, hi] assuming unimodality; return (x_min, n_evals).

    The interval shrinks by the golden ratio each step until its width
    falls below rtol * (hi - lo). Boundary minima are handled naturally:
    the interval simply collapses onto the boundary.
    """
    if hi <= lo:
        raise ValueError(f"empty search interval [{lo}, {hi}]")
    span = hi - lo
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    evals = 2
    for _ in range(max_iter):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
        evals += 1
        if (b - a) <= rtol * span:
            break
    return 0.5 * (a + b), evals


def scan_then_refine(f, lo, hi, coarse_points=256, rtol=1e-10):
    """Coarse grid scan followed by golden-section refinement of the best cell.

    Returns (x_min, n_evals). The refinement bracket spans one grid cell on
    each side of the best coarse sample, clamped to [lo, hi], so a global
    minimum resolved by the grid is retained.
    """
    if coarse_points < 3:
        raise ValueError("coarse scan needs at least 3 points")
    step = (hi - lo) / (coarse_points - 1)
    best_i, best_v = 0, math.inf
    for i in range(coarse_points):
        v = f(lo + i * step)
        if v < best_v:
            best_i, best_v = i, v
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)
    x, extra = golden_section(f, a, b, rtol=rtol * (hi - lo) / max(b - a, 1e-300))
    return x, coarse_points + extra
