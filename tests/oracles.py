"""Shared independent oracles for the test suite."""

import math

import numpy as np


def cumulant_difference(p, a_vals, b_vals):
    """K_p(a) - K_p(b) evaluated stably for nearby coordinates.

    Uses a shared shift and termwise expm1 so that finite-difference stencils
    built from these differences are not dominated by cancellation noise.
    """
    a = np.asarray(a_vals, dtype=float)
    b = np.asarray(b_vals, dtype=float)
    shift = float(np.max(b))
    eb = p.prob * np.exp(b - shift)
    mb = float(np.sum(eb))
    num = float(np.sum(eb * np.expm1(a - b)))
    return math.log1p(num / mb)


def log_space_patch(p, u_vals):
    """exp(max(u - K_p(u) + log p, -700)) renormalised: the exponential patch written in log space.

    K_p(u) comes from a max-shifted log-sum-exp; the floor acts on the log density, before any
    exponential is taken.
    """
    u = np.asarray(u_vals, dtype=float)
    top = float(np.max(u))
    k = top + math.log(float(p.prob @ np.exp(u - top)))
    q = np.exp(np.maximum(u - k + np.log(p.values), -700.0))
    return q / float(q @ p.base.weights)


def fd_gradient(p, u_vals, v_vals, h=1e-5):
    """Central difference of the cumulant along v."""
    return cumulant_difference(p, u_vals + h * v_vals, u_vals - h * v_vals) / (2.0 * h)


def fd_hessian(p, u_vals, vi_vals, vj_vals, h=1e-5):
    """Central mixed difference of the cumulant along (vi, vj)."""
    d_plus = cumulant_difference(p, u_vals + h * vi_vals + h * vj_vals, u_vals + h * vi_vals - h * vj_vals)
    d_minus = cumulant_difference(p, u_vals - h * vi_vals + h * vj_vals, u_vals - h * vi_vals - h * vj_vals)
    return (d_plus - d_minus) / (4.0 * h * h)


def walsh_values(spec):
    """u(x) = sum over the spectrum of c * (-1)**popcount(x & mask), for every state x."""
    states = range(1 << spec.n)
    return np.array([
        sum(c * (1.0 - 2.0 * (bin(x & mask).count("1") & 1)) for mask, c in spec.coeffs.items())
        for x in states
    ])


def rk4_scalar(f, y0, t_final, n_steps):
    """Classical RK4 for a scalar autonomous equation y' = f(y)."""
    h = t_final / n_steps
    y = y0
    for _ in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def bisection_root(g, target, guess, rel_tol=1e-14):
    """Plain bisection for a nonincreasing g from the bracket that doubling or halving ``guess`` finds.

    The same bracket and stop rule as ``_rootfind.decreasing_root``; inf and NaN count as above.
    """
    def above(r):
        return not (g(r) <= target)

    hi = guess
    while above(hi):
        hi *= 2.0
    lo = hi / 2.0
    while not above(lo):
        hi, lo = lo, lo / 2.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi
