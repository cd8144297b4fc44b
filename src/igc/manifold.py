"""Exponential and mixture charts, the cumulant functional, transports and divergences.

Around a positive density p, nearby positive densities are parameterized as
q = exp(u - K_p(u)) * p with u centered under p, where K_p(u) = log E_p[exp u]
is the cumulant functional.  The inverse chart is u = log(q/p) - E_p[log(q/p)].
The mixture side uses the expectation coordinate q/p - 1, which also accepts
signed unit-mass functions.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .measures import (
    Density,
    InvariantError,
    RandomVariable,
    TangentVector,
    _dot,
    _fibre_values,
    _max,
    _min,
    require_same_base,
    tangent,
    values_on,
)

__all__ = [
    "cumulant",
    "cumulant_derivatives",
    "cumulant_gradient",
    "cumulant_gradient_derivative",
    "patch_e",
    "chart_s",
    "transition_e",
    "transport_e",
    "transport_m",
    "chart_m",
    "patch_m",
    "divergence",
    "DivergenceResult",
    "pythagorean_check",
    "PythagoreanResult",
    "orthogonal_mixture_third",
]


def _log_partition(vals: np.ndarray, prob: np.ndarray) -> float:
    """log sum(prob * exp(vals)), shifted by max(vals) so no exponential overflows."""
    top = _max(vals)
    return top + float(np.log(_dot(prob, np.exp(vals - top))))


def cumulant(p: Density, u) -> float:
    """K_p(u) = log E_p[exp u] for u centered under p; overflow-safe."""
    return _log_partition(_fibre_values(p, u, "cumulant"), p.prob)


_FLOOR = math.exp(-700.0)  # in the normal range; only bites below ~1e-304


def patch_e(p: Density, u) -> Density:
    """The density exp(u - K_p(u)) * p, renormalized exactly.

    With s = u + log p, one exponential of s minus a shift gives q up to the
    factor z = exp(K_p(u) - shift), its mass.  The shift is max(s) plus the log
    weight at the argmax, so that term of z is 1: z >= 1 cannot underflow, and
    no entry that survives the floor is subnormal.  Entries of q / z below
    exp(-700), far below any resolvable probability, are raised to it and the
    patch renormalized, so strict positivity survives extreme concentration.
    """
    vals = _fibre_values(p, u, "patch_e")
    weights = p.base.weights
    q = vals + p.log_values
    top = q.argmax()
    q -= q[top] + math.log(weights[top])
    np.exp(q, out=q)
    q /= _dot(q, weights)
    if (low := _min(q)) < _FLOOR:
        np.maximum(q, _FLOOR, out=q)
        q /= (mass := _dot(q, weights))
        low = _FLOOR / mass  # dividing by mass > 0 keeps the order, so a raised entry stays the least
    q.setflags(write=False)
    return Density._adopt(p.base, q)._check(low)


def chart_s(p: Density, q: Density) -> TangentVector:
    """The centered log-likelihood log(q/p) - E_p[log(q/p)]."""
    require_same_base(p, q, "chart_s")
    return tangent(p, q.log_values - p.log_values)


def cumulant_derivatives(
    p: Density,
    u,
    dirs: Sequence,
) -> tuple[np.ndarray, np.ndarray]:
    """First and second derivatives of K_p at u along the given directions.

    Returns (grad, hess) with grad[i] = E_q[v_i] and hess[i, j] = Cov_q(v_i, v_j)
    where q is the patched density at u.  As in ``covariance``, each direction is
    first shifted by its value at the mode of q, which keeps a large common offset.
    """
    q = patch_e(p, u)
    rows = [values_on(p.base, v) for v in dirs]
    if not rows:
        raise InvariantError("cumulant_derivatives needs at least one direction")
    mats = np.stack(rows)
    means = mats @ q.prob
    shifted = mats - mats[:, [q.prob.argmax()]]
    centered = shifted - (shifted @ q.prob)[:, None]
    hess = (centered * q.prob) @ centered.T
    return means, hess


def cumulant_gradient(p: Density, u) -> TangentVector:
    """The gradient of K_p at u as the mixture coordinate q/p - 1."""
    q = patch_e(p, u)
    return TangentVector(p, q.values / p.values - 1.0)


def cumulant_gradient_derivative(p: Density, u, w) -> RandomVariable:
    """Directional derivative of the gradient map: (q/p) * (w - E_q[w]), w shifted first by its value at q's mode."""
    q = patch_e(p, u)
    wv = values_on(p.base, w)
    wv = wv - wv[q.prob.argmax()]
    return RandomVariable(p.base, (q.values / p.values) * (wv - _dot(q.prob, wv)))


def transition_e(p1: Density, p2: Density, u) -> TangentVector:
    """Chart transition: u + log(p1/p2), recentered under p2."""
    require_same_base(p1, p2, "transition_e")
    vals = values_on(p1.base, u)
    return tangent(p2, vals + p1.log_values - p2.log_values)


def transport_e(p: Density, q: Density, u) -> TangentVector:
    """Exponential transport u - E_q[u] onto the tangent space at q."""
    require_same_base(p, q, "transport_e")
    return tangent(q, values_on(p.base, u))


def transport_m(p: Density, q: Density, v) -> TangentVector:
    """Mixture transport (p/q) * v of a vector v at p; stays centered since E_q[(p/q)v] = E_p[v]."""
    require_same_base(p, q, "transport_m")
    return TangentVector(q, _fibre_values(p, v, "transport_m") * p.values / q.values)


def chart_m(p: Density, q) -> TangentVector:
    """Mixture chart q/p - 1 for a density or signed unit-mass function q."""
    if isinstance(q, Density):
        qv = q.values
        require_same_base(p, q, "chart_m")
    else:
        qv = values_on(p.base, q)
        mass = _dot(qv, p.base.weights)
        if abs(mass - 1.0) > 1e-10:
            raise InvariantError(f"chart_m: argument has mass {mass!r}, expected 1")
    return TangentVector(p, qv / p.values - 1.0)


def patch_m(p: Density, v) -> RandomVariable:
    """Inverse mixture chart (v + 1) * p; unit mass, possibly signed."""
    vals = _fibre_values(p, v, "patch_m")
    return RandomVariable(p.base, (vals + 1.0) * p.values)


def _kl(q: Density, r: Density) -> float:
    """E_q[log(q/r)] for densities on one base."""
    return _dot(q.prob, q.log_values - r.log_values)


class DivergenceResult(NamedTuple):
    direct: float
    bregman: float


def divergence(q: Density, r: Density, p: Density | None = None) -> DivergenceResult:
    """Kullback-Leibler divergence E_q[log(q/r)], with a chart-based cross-check.

    The second entry evaluates K_p(v) - K_p(u) - DK_p(u)(v - u) with u, v the
    chart coordinates of q and r at center p (defaulting to p = q), which must
    agree with the direct sum.
    """
    require_same_base(q, r, "divergence")
    direct = _kl(q, r)
    if p is None:
        p = q
    u = chart_s(p, q)
    v = chart_s(p, r)
    grad_dir = _dot(q.prob, v.values - u.values)
    bregman = cumulant(p, v) - cumulant(p, u) - grad_dir
    return DivergenceResult(direct, bregman)


class PythagoreanResult(NamedTuple):
    pairing: float
    defect: float
    d_r_q: float
    d_r_p: float
    d_p_q: float


def pythagorean_check(p: Density, q: Density, r: Density) -> PythagoreanResult:
    """Duality pairing of the mixture and exponential coordinates of (r, q) at p.

    The pairing E_p[(r/p - 1) * s_p(q)] equals D(r||p) + D(p||q) - D(r||q)
    identically, so the reported defect must vanish; a zero pairing is the
    orthogonality case in which the three divergences split additively.
    """
    pairing = _dot(p.prob, chart_m(p, r).values * chart_s(p, q).values)
    d_r_q = _kl(r, q)  # chart_m and chart_s have checked that p, q and r share one base
    d_r_p = _kl(r, p)
    d_p_q = _kl(p, q)
    defect = d_r_q - d_r_p - d_p_q + pairing
    return PythagoreanResult(pairing, defect, d_r_q, d_r_p, d_p_q)


def orthogonal_mixture_third(p: Density, q: Density, rng: np.random.Generator) -> Density:
    """A density r with E_p[(r/p - 1) s_p(q)] = 0, built on a mixture line.

    Draw a direction w, center it under p, remove its component along s_p(q)
    in the p inner product, and move from p along the mixture line to
    r = p * (1 + w / (2 max|w|)), which stays positive.  Raises when the
    projection leaves at most 1e-12 of the centred draw's sup norm.
    """
    u = chart_s(p, q).values
    uu = _dot(p.prob, u * u)
    if uu == 0.0:
        raise InvariantError("q equals p, no direction to be orthogonal to")
    w = rng.standard_normal(p.base.size)
    w = w - _dot(p.prob, w)
    drawn = float(np.max(np.abs(w)))
    w = w - (_dot(p.prob, w * u) / uu) * u
    sup = float(np.max(np.abs(w)))
    if sup <= 1e-12 * drawn:  # only rounding is left, as always on two points, where s_p(q) spans every draw
        raise InvariantError("degenerate direction draw")
    t = 0.5 / sup
    return Density(p.base, p.values * (1.0 + t * w))
