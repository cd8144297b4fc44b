"""Bracketed Newton for convex nonincreasing scalar maps, the one root-finder of igc: the deformed
cumulant's mass in k, and the Luxemburg, dual and deformed gauges' modulars in k = -1 - log(s / scale),
s the reciprocal radius (``orlicz._gauge``).  Bisection inside an a-priori bracket is the safeguard.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

# progress budget: after j trials no wider than bisection leaves it after _RATE * (j - _SLACK) steps
_RATE = 0.8
_SLACK = 8

# a step that does not shrink is rounding only while f - target is at most this times f
_ROUNDING = 64 * sys.float_info.epsilon


def decreasing_root(
    f: Callable[[float], tuple[float, float] | None],
    target: float,
    x: float,
    fx: tuple[float, float] | None,
    lower: float,
    upper: float,
    rel_tol: float,
) -> tuple[float, tuple[float, float] | None]:
    """Largest x with computed f(x) >= target, and f(x), for a convex nonincreasing f, by Newton from x.

    ``f`` returns (value, slope), or None past the edge of its domain (counted as below the target);
    ``fx`` is f at the start.  The root lies in [lower, upper]; each trial is clipped to [lower, upper -
    rel_tol * max(1, |upper|) / 2].  By convexity every Newton step after the first where f >= target
    stays there; while f > 2 * target > 0 the step is Newton's on log f, value * log(target / value) /
    slope, longer, exact for an exponential f, and able to cross the root where log f is not convex.
    The evaluated points on either side bracket the root; a step too short to move x moves it one ulp,
    and a trial is bisected when it leaves the bracket or, once both ends are evaluated, while the
    bracket is wider than bisection would leave it after 0.8 * (j - 8) steps, j the trials since.  It
    stops at a point with f >= target once the step is at most ``rel_tol * |x|``, or no shorter than the
    last while f - target <= 64 eps * f (the rounding floor of a sum of positive terms), or when no
    bisection point lies inside the bracket, and returns (x, f(x)) for the largest evaluated x with f(x) >=
    target, or (-inf, None) when no evaluated point reaches the target.
    """
    lo, flo, hi = -math.inf, None, math.inf  # evaluated: flo = f(lo) >= target > f(hi), or f(hi) is None
    cap = upper - 0.5 * rel_tol * max(1.0, abs(upper))
    prev = math.inf  # length of the last step taken from the f >= target side
    budget = math.inf  # widest bracket allowed; finite once both ends are evaluated
    while True:
        step = math.nan  # no Newton step on a domain exit or a value or slope that is not finite
        if fx is None or fx[0] < target:
            hi = x
            if fx is not None and -math.inf < fx[1] < 0.0:
                step = (target - fx[0]) / fx[1]
        else:
            value, slope = fx
            lo, flo = x, fx
            if math.isfinite(value) and -math.inf < slope < 0.0:
                step = (target - value) / slope
                if value > 2.0 * target > 0.0:
                    step = value * math.log(target / value) / slope  # the Newton step of log f
                if abs(step) <= rel_tol * abs(x):
                    return x, fx
                if abs(step) >= prev and value - target <= _ROUNDING * value:
                    return x, fx  # the value sits on its rounding floor
                prev = abs(step)
        x_next = x + step
        if x_next == x:
            x_next = math.nextafter(x, math.copysign(math.inf, step))
        if x_next > cap:
            x_next = cap
        elif x_next < lower < x:  # not from x <= lower, where the computed f fell below target
            x_next = lower
        if budget < math.inf:
            budget *= 0.5**_RATE
        elif hi - lo < math.inf:
            budget = (hi - lo) * 2.0 ** (_RATE * _SLACK)
        if not lo < x_next < hi or hi - lo > budget:
            x_next = 0.5 * (max(lo, lower) + min(hi, cap))
            if not lo < x_next < hi:
                return lo, flo
        x = x_next
        fx = f(x)
