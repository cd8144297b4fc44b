"""Deformed logarithms and exponentials, escort expectations, arcs and cumulants.

A deformation is generated by a positive increasing function phi on the
positive axis: the deformed logarithm is the integral of 1/phi from 1, and
the deformed exponential is its inverse.  The families implemented are the
power family (parameter q in (0, 1]), the symmetric power-mean family
(parameter kappa in [0, 1)), the rational x/(x+1) family whose exponential
is the Wright omega function, and the classical logarithm as the
phi(x) = x special case.

Charts, arcs and the cumulant-like normalizing constant follow the same
pattern as the exponential manifold, with the escort weight phi(p) replacing
p in every pairing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple

import numpy as np

from ._rootfind import decreasing_root
from .measures import (
    Density,
    InvariantError,
    RandomVariable,
    _dot,
    _finite_sum,
    _max,
    _min,
    require_same_base,
    values_on,
)
from .orlicz import _REL_TOL, _gauge

__all__ = [
    "DeformedLogarithm",
    "make_deformed",
    "DEFORMED_TAGS",
    "phi_norm",
    "escort_expect",
    "phi_connected",
    "PhiArcMassPoint",
    "phi_cumulant",
    "phi_patch",
    "phi_chart",
    "PhiChartResult",
    "phi_arc",
    "PhiArcResult",
]

DEFORMED_TAGS = ("classical", "tsallis", "kaniadakis", "newton")


@dataclass(frozen=True)
class DeformedLogarithm:
    """A deformation family: phi, its logarithm, its exponential, range metadata.

    ``lower_bound`` is the infimum of the logarithm's range (so the deformed
    exponential is defined on arguments above it); -inf when the range is the
    whole line.  ``log`` and ``exp`` are vectorized; ``exp`` returns 0 at the
    domain edge and NaN below it as a divergence flag rather than raising.
    These five fields are the whole deformation: the slope of ``exp`` at u is
    phi(exp(u)), which both root-finds (``phi_norm``, ``phi_cumulant``) read.
    """

    tag: str
    phi: Callable[[np.ndarray], np.ndarray]
    log: Callable[[np.ndarray], np.ndarray]
    exp: Callable[[np.ndarray], np.ndarray]
    lower_bound: float


def _classical() -> DeformedLogarithm:
    return DeformedLogarithm(
        "classical",
        lambda x: np.asarray(x, dtype=float),
        lambda v: np.log(v),
        lambda u: np.exp(np.asarray(u, dtype=float)),
        -math.inf,
    )


def _tsallis(q: float) -> DeformedLogarithm:
    if not 0.0 < q <= 1.0:
        raise InvariantError("power-family parameter must lie in (0, 1]")
    if q == 1.0:
        return replace(_classical(), tag="tsallis")
    eps = 1.0 - q
    edge = -1.0 / eps

    def log_q(v):
        v = np.asarray(v, dtype=float)
        return np.expm1(eps * np.log(v)) / eps

    def exp_q(u):
        # log1p keeps full precision as q -> 1; 0 at the edge, NaN below it
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.exp(np.log1p(eps * np.asarray(u, dtype=float)) / eps)

    return DeformedLogarithm("tsallis", lambda x: np.asarray(x, dtype=float) ** q, log_q, exp_q, edge)


def _kaniadakis(kappa: float) -> DeformedLogarithm:
    if not 0.0 <= kappa < 1.0:
        raise InvariantError("symmetric-power parameter must lie in [0, 1)")
    if kappa == 0.0:
        return replace(_classical(), tag="kaniadakis")

    def phi(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x / (x**kappa + x**-kappa)

    # sinh/asinh forms of (v**k - v**-k) / 2k and (ku + sqrt(1 + (ku)**2))**(1/k): no cancellation
    def log_k(v):
        return np.sinh(kappa * np.log(np.asarray(v, dtype=float))) / kappa

    def exp_k(u):
        return np.exp(np.arcsinh(kappa * np.asarray(u, dtype=float)) / kappa)

    return DeformedLogarithm("kaniadakis", phi, log_k, exp_k, -math.inf)


def _newton() -> DeformedLogarithm:
    def phi(x):
        x = np.asarray(x, dtype=float)
        return x / (x + 1.0)

    def log_n(v):
        v = np.asarray(v, dtype=float)
        return v - 1.0 + np.log(v)

    def exp_n(u):
        # v - 1 + log(v) = u  <=>  log(v) + v = u + 1, so v is the Wright omega of u + 1
        x = np.asarray(u, dtype=float) + 1.0
        return np.array([_wright_omega(t) for t in x.ravel().tolist()], dtype=float).reshape(x.shape)[()]

    return DeformedLogarithm("newton", phi, log_n, exp_n, -math.inf)


_EPS = sys.float_info.epsilon


def _wright_omega(x: float) -> float:
    """The real Wright omega, the w with w + log(w) = x.

    Lawrence, Corless & Jeffrey, Algorithm 917 (ACM TOMS 38(3), 2012): a start value on each of
    (-inf, -2), [-2, 1) and [1, inf), then one Fritsch-Shafer-Crowley step (CACM 16(2), 1973) and
    a second one only when the first one's error bound reaches 72 eps.  Every expression keeps the
    operation order of the algorithm's C implementation, whose libm ``math`` calls, so the result is
    bitwise that implementation's.
    """
    if x != x or x > 1e20:  # NaN, and omega(x) = x to double precision
        return x
    if x < -50.0:  # omega(x) = exp(x) to double precision; 0.0 at -inf
        return math.exp(x)
    if x < -2.0:
        w = math.exp(x)
    elif x < 1.0:
        w = math.exp(2.0 * (x - 1.0) / 3.0)
    else:
        w = math.log(x)
        w = x - w + w / x
    for second in (False, True):
        r = x - w - math.log(w)
        wp1 = w + 1.0
        a = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)  # written out twice in the C implementation
        w = w * (1.0 + r / wp1 * (a - r) / (a - 2.0 * r))
        if second or abs((2.0 * w * w - 8.0 * w - 1.0) * math.pow(abs(r), 4.0)) < _EPS * 72.0 * math.pow(abs(wp1), 6.0):
            break
    return w


def make_deformed(tag: str, param: float | None = None) -> DeformedLogarithm:
    """Build a deformation family by tag; param is required for the parametric ones."""
    if tag == "classical":
        return _classical()
    if tag == "tsallis":
        if param is None:
            raise InvariantError("tsallis needs a parameter q in (0, 1]")
        return _tsallis(float(param))
    if tag == "kaniadakis":
        if param is None:
            raise InvariantError("kaniadakis needs a parameter kappa in [0, 1)")
        return _kaniadakis(float(param))
    if tag == "newton":
        return _newton()
    raise InvariantError(f"unknown deformation tag {tag!r}; choose one of {DEFORMED_TAGS}")


def phi_norm(p: Density, u, d: DeformedLogarithm) -> float:
    """inf { r > 0 : integral of exp_phi(|u|/r + log_phi p) dmu <= 2 }, the gauge of ``orlicz``.

    In s = 1/r the tangent of exp_phi at log_phi p gives M(s) >= 1 + s * sum(w * phi(p) * |u|), and
    phi(x) <= x + 1 (every family here) gives M(s) <= 1 + (1 + sum(w)) (e**(s max|u|) - 1), at most 2
    for s max|u| <= log1p(1 / (1 + sum(w))): the gauge starts from the tangent weights w * phi(p) * level.
    """
    w = p.base.weights
    log_p = d.log(p.values)
    sloped = lambda y: (e := d.exp(y + log_p), d.phi(e))  # noqa: E731
    level = math.log1p(1.0 / (1.0 + float(w.sum())))
    tangent = w * d.phi(p.values) * level
    return _gauge(w, sloped, np.abs(values_on(p.base, u)), level, tangent, "deformed norm", d.tag, base=1.0)


def escort_expect(p: Density, u, d: DeformedLogarithm) -> float:
    """Expectation of u under the normalized escort weight phi(p)/mass."""
    w = p.base.weights * d.phi(p.values)
    return _dot(w, values_on(p.base, u)) / float(np.sum(w))


class PhiArcMassPoint(NamedTuple):
    t: float
    mass: float
    finite: bool


def phi_connected(
    p: Density, q: Density, d: DeformedLogarithm, t_grid: Iterable[float]
) -> list[PhiArcMassPoint]:
    """Masses of the unnormalized deformed arc between p and q over a t grid.

    On [0, 1] convexity of the deformed exponential keeps the mass at or below
    one; outside that interval the arc may leave the domain of the deformed
    exponential, which is reported as a non-finite point.  Every t must be finite.
    """
    require_same_base(p, q, "phi_connected")
    lp = d.log(p.values)
    lq = d.log(q.values)
    out = []
    for t in t_grid:
        mass = _arc_at(p, lp, lq, d, float(t))[1]
        out.append(PhiArcMassPoint(float(t), mass, math.isfinite(mass)))
    return out


def _arc_at(p: Density, lp: np.ndarray, lq: np.ndarray, d: DeformedLogarithm, t: float) -> tuple[np.ndarray, float]:
    """exp_phi((1 - t) lp + t lq) and its mass: finite exactly when every value is (exp_phi >= 0 or NaN)."""
    if not math.isfinite(t):
        raise InvariantError(f"t must be finite, got {t}")
    vals = _exp_phi(d, (1.0 - t) * lp + t * lq)
    return vals, _finite_sum(p.base.weights, vals)


def _exp_phi(d: DeformedLogarithm, x: np.ndarray) -> np.ndarray:
    """exp_phi(x), NaN past the domain edge, without the overflow and edge warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        return d.exp(x)


def phi_cumulant(p: Density, u, d: DeformedLogarithm) -> float:
    """The unique constant k making exp_phi(u - k + log_phi p) a unit-mass function.

    On escort-centered coordinates (vanishing pairing against phi(p)) the
    constant is nonnegative by convexity and zero exactly when u vanishes.
    Coordinates carrying a nonzero escort pairing are normalized all the
    same; their constant may take either sign.  Raises when u + log_phi p
    leaves the domain of the deformed exponential or the mass diverges.  If
    the mass drops past 1 only at a domain exit, k is the largest constant
    that keeps the patch inside the domain (its mass then exceeds 1).  k is
    solved to the gauges' relative tolerance of 1e-14.
    """
    return _cumulant(p, values_on(p.base, u), d.log(p.values), d)


def _cumulant(p: Density, u_vals: np.ndarray, log_p: np.ndarray, d: DeformedLogarithm) -> float:
    """:func:`phi_cumulant` of the coordinate values u_vals, given log_phi p.

    The mass k -> sum(w * exp_phi(u - k + log_phi p)) is convex and decreasing, with slope
    -sum(w * phi(exp_phi(.))), so Newton from k = 0 solves it inside [-s, s], s = max |u|
    (the patch is >= p at k = -s and <= p at k = s), capped for a finite ``lower_bound`` at
    the domain edge min(u + log_phi p) - lower_bound, past which the patch leaves the domain.
    """
    s = max(_max(u_vals), -_min(u_vals))
    if s == 0.0:
        return 0.0
    w = p.base.weights

    def at(k: float) -> tuple[np.ndarray, np.ndarray, tuple[float, float] | None]:
        """The patch's argument and values at k, with its mass and slope, or None when a value leaves the
        domain: a NaN, or a 0 at or below the edge (above it a 0 is an underflow)."""
        x = u_vals - k + log_p
        vals = d.exp(x)
        inside = _min(vals) > 0.0 or np.all((vals > 0.0) | ((vals == 0.0) & (x > d.lower_bound)))
        return x, vals, (_dot(w, vals), -_dot(w, d.phi(vals))) if inside else None

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x0, at_zero, at_start = at(0.0)
        if math.isnan(_max(at_zero)):
            raise InvariantError("coordinate leaves the deformed-exponential domain at k = 0")
        if not math.isfinite(at_start[0] if at_start else _dot(w, at_zero)):
            raise InvariantError("mass integral diverges at k = 0")
        upper = s if d.lower_bound == -math.inf else min(s, _min(x0) - d.lower_bound)
        k = decreasing_root(lambda k: at(k)[2], 1.0, 0.0, at_start, -s, upper, _REL_TOL)[0]
    # snap roundoff-level negatives so centered coordinates keep k >= 0 exactly
    return 0.0 if -1e-13 < k < 0.0 else k


def phi_patch(p: Density, u, d: DeformedLogarithm) -> Density:
    """The unit-mass density exp_phi(u - K + log_phi p)."""
    return _patch(p, values_on(p.base, u), d.log(p.values), d)[1]


def _patch(p: Density, u_vals: np.ndarray, log_p: np.ndarray, d: DeformedLogarithm) -> tuple[float, Density]:
    """The cumulant k of u_vals, given log_phi p, and the unit-mass density exp_phi(u - k + log_phi p)."""
    k = _cumulant(p, u_vals, log_p, d)
    return k, Density.from_unnormalized(p.base, _exp_phi(d, u_vals - k + log_p))


class PhiChartResult(NamedTuple):
    u: RandomVariable
    k: float


def phi_chart(p: Density, q: Density, d: DeformedLogarithm) -> PhiChartResult:
    """Chart coordinate of q at p: the escort-pair-centered deformed log ratio.

    Returns u = log_phi q - log_phi p centered against the unnormalized escort
    weight phi(p) dmu, and the normalizing constant k equal to the same
    pairing of log_phi p - log_phi q, so that exp_phi(u - k + log_phi p)
    reconstructs q exactly.  The reconstruction is verified: a defect above
    1e-9 * max(1, max q) raises.
    """
    require_same_base(p, q, "phi_chart")
    return _chart(p, q, d, d.log(p.values), d.log(q.values), d.phi(p.values))


def _chart(
    p: Density, q: Density, d: DeformedLogarithm, log_p: np.ndarray, log_q: np.ndarray, phi_p: np.ndarray
) -> PhiChartResult:
    """:func:`phi_chart` given log_phi p, log_phi q and phi(p), its reconstruction check included."""
    delta = log_q - log_p
    pairing = _dot(p.base.weights, phi_p * delta)
    u = RandomVariable(p.base, delta - pairing)
    k = -pairing
    recon = _exp_phi(d, u.values - k + log_p)
    defect = _max(np.abs(recon - q.values))
    if not math.isfinite(defect) or defect > 1e-9 * max(1.0, _max(q.values)):
        raise InvariantError(f"chart reconstruction defect {defect!r} exceeds 1e-9")
    return PhiChartResult(u, k)


class PhiArcResult(NamedTuple):
    density: Density
    psi: float
    family_density: Density
    pairing_unnormalized: float
    pairing_normalized: float


def phi_arc(p0: Density, p1: Density, d: DeformedLogarithm, t: float) -> PhiArcResult:
    """The normalized deformed arc at parameter t, with its normalizing report.

    ``density`` interpolates the deformed logarithms and renormalizes by
    division.  ``psi`` is the constant that normalizes the one-parameter
    family through p0 with the chart statistic u of p1, so that
    exp_phi(t u - psi + log_phi p0) has unit mass by construction;
    ``family_density`` is that family member.  Because the statistic is
    centered against the unnormalized escort weight, psi can dip below zero
    at intermediate t when the escort mass differs from one; it vanishes at
    t = 0 and is nonnegative at t = 1.  For the classical tag the two
    densities coincide; for genuinely deformed tags subtracting a constant
    inside the deformed exponential is not a rescaling, so they differ and
    both printed pairing variants of psi (computed against the unnormalized
    and the normalized escort weight of p0) are reported for comparison.
    """
    require_same_base(p0, p1, "phi_arc")
    lp0 = d.log(p0.values)
    lp1 = d.log(p1.values)
    raw, mass = _arc_at(p0, lp0, lp1, d, t)
    if not math.isfinite(mass):
        raise InvariantError(f"arc mass diverges at t = {t}")
    density = Density.from_unnormalized(p0.base, raw)
    phi_p0 = d.phi(p0.values)
    u = _chart(p0, p1, d, lp0, lp1, phi_p0).u
    psi, family = _patch(p0, t * u.values, lp0, d) if t != 0.0 else (0.0, p0)
    diff = d.log(density.values) - lp0
    pairing_un = _dot(p0.base.weights, phi_p0 * diff)
    pairing_norm = pairing_un / _dot(p0.base.weights, phi_p0)
    return PhiArcResult(density, psi, family, pairing_un, pairing_norm)
