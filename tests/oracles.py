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
