"""Guarded Illinois false position for monotone scalar maps that may overflow to +inf."""

from __future__ import annotations

import math
from typing import Callable


class BracketError(RuntimeError):
    """No finite bracket could be established for a monotone root-find."""


# Progress budget: after k steps the bracket is no wider than bisection would
# leave it after _RATE * (k - _SLACK) steps, so a root takes at most
# _SLACK + 1 + n / _RATE steps where bisection takes n.
_RATE = 0.8
_SLACK = 8


def decreasing_root(
    g: Callable[[float], float],
    target: float,
    guess: float,
    rel_tol: float = 1e-14,
    max_iter: int = 200,
    max_expansions: int = 600,
) -> float:
    """Solve g(r) = target for a nonincreasing map g on r > 0.

    Values of g above the target may be +inf (overflow counts as "too big")
    or NaN, which also counts as above.  Geometric expansion from ``guess``
    brackets the root; Illinois false position (Dowell and Jarratt, BIT 11
    (1971) 168-174) then shrinks the bracket until ``hi - lo <= rel_tol * hi``.
    Three guards keep the worst case within a constant of bisection:

    - a bisection step whenever an end value is not finite;
    - trial points at least ``rel_tol * hi / 2`` inside the bracket, so that
      the far end moves once the secant has converged;
    - a bisection step whenever the bracket is wider than the progress
      budget allows (at most 1.25 times bisection's step count plus 9).

    Returns the upper end of the final bracket: g(result) <= target, and g
    is above the target (or NaN) at some r >= result * (1 - rel_tol).
    Returns 0.0 when g stays at or below the target all the way down to
    zero.  Raises :class:`BracketError` when geometric expansion fails to
    bracket the target.
    """
    if not (guess > 0) or not math.isfinite(guess):
        raise ValueError("guess must be a positive finite number")

    # f = g - target: f(lo) > 0 or NaN ("above"), f(hi) <= 0
    hi = guess
    f_hi = g(hi) - target
    lo = f_lo = None
    n = 0
    while not (f_hi <= 0.0):  # inf and nan count as above
        lo, f_lo = hi, f_hi
        hi *= 2.0
        n += 1
        if n > max_expansions or not math.isfinite(hi):
            raise BracketError("no finite upper bracket: the integral diverges for every radius")
        f_hi = g(hi) - target
    if lo is None:
        lo = hi / 2.0
        f_lo = g(lo) - target
        n = 0
        while f_lo <= 0.0:
            hi, f_hi = lo, f_lo
            lo /= 2.0
            n += 1
            if n > max_expansions:
                # g stays at or below target arbitrarily close to zero
                return 0.0
            f_lo = g(lo) - target

    kept = 0  # +1 after lo moved, -1 after hi moved
    width = hi - lo
    for k in range(max_iter):
        tol = rel_tol * hi
        if hi - lo <= tol:
            break
        budget = width * 0.5 ** (_RATE * (k - _SLACK))
        if hi - lo > budget or not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            x = 0.5 * (lo + hi)
        else:
            x = lo + f_lo * ((hi - lo) / (f_lo - f_hi))
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        f_x = g(x) - target
        if f_x <= 0.0:
            hi, f_hi = x, f_x
            if kept < 0:
                f_lo *= 0.5  # Illinois: hi moved twice in a row, so damp the stale end
            kept = -1
        else:
            lo, f_lo = x, f_x
            if kept > 0:
                f_hi *= 0.5
            kept = 1
    return hi
