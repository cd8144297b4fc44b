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
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ._rootfind import BracketError, decreasing_root
from .measures import (
    Density,
    InvariantError,
    RandomVariable,
    _dot,
    require_same_base,
    values_on,
)

__all__ = [
    "DeformedLogarithm",
    "make_deformed",
    "DEFORMED_TAGS",
    "affine_bound_defect",
    "phi_norm",
    "escort_mass",
    "escort_expect",
    "escort_density",
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
        d = _classical()
        return DeformedLogarithm("tsallis", d.phi, d.log, d.exp, -math.inf)
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
        d = _classical()
        return DeformedLogarithm("kaniadakis", d.phi, d.log, d.exp, -math.inf)

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
        from scipy.special import wrightomega  # imported here so that `import igc` does not load scipy

        return wrightomega(np.asarray(u, dtype=float) + 1.0)

    return DeformedLogarithm("newton", phi, log_n, exp_n, -math.inf)


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


def affine_bound_defect(d: DeformedLogarithm) -> float:
    """Largest violation of phi(x) <= x + 1 on 241 geometric points of [1e-6, 1e6].

    A nonpositive return certifies the affine bound on the grid; every family
    here satisfies it.
    """
    grid = np.geomspace(1e-6, 1e6, 241)
    return float(np.max(d.phi(grid) - (grid + 1.0)))


def _phi_norm_integral(p: Density, abs_vals: np.ndarray, d: DeformedLogarithm, r: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        out = d.exp(abs_vals / r + d.log(p.values))
    total = _dot(p.base.weights, out)
    return total if math.isfinite(total) else math.inf


def phi_norm(p: Density, u, d: DeformedLogarithm) -> float:
    """inf { r > 0 : integral of exp_phi(|u|/r + log_phi p) dmu <= 2 }."""
    abs_vals = np.abs(values_on(p.base, u))
    if float(np.max(abs_vals)) == 0.0:
        return 0.0
    try:
        return decreasing_root(
            lambda r: _phi_norm_integral(p, abs_vals, d, r),
            2.0,
            max(float(np.max(abs_vals)), 1e-6),
        )
    except BracketError as exc:
        raise InvariantError(f"deformed norm diverges for tag {d.tag!r}: {exc}") from exc


def escort_mass(p: Density, d: DeformedLogarithm) -> float:
    """Total mass of the escort weight phi(p) against the base measure."""
    return _dot(p.base.weights, d.phi(p.values))


def escort_expect(p: Density, u, d: DeformedLogarithm) -> float:
    """Expectation of u under the normalized escort weight phi(p)/mass."""
    w = p.base.weights * d.phi(p.values)
    return _dot(w, values_on(p.base, u)) / float(np.sum(w))


def escort_density(p: Density, d: DeformedLogarithm) -> Density:
    """The normalized escort weight as a density."""
    return Density.from_unnormalized(p.base, d.phi(p.values))


@dataclass(frozen=True)
class PhiArcMassPoint:
    t: float
    mass: float
    finite: bool


def phi_connected(
    p: Density, q: Density, d: DeformedLogarithm, t_grid: Iterable[float]
) -> list[PhiArcMassPoint]:
    """Masses of the unnormalized deformed arc between p and q over a t grid.

    On [0, 1] convexity of the deformed exponential keeps the mass at or below
    one; outside that interval the arc may leave the domain of the deformed
    exponential, which is reported as a non-finite point.
    """
    require_same_base(p, q, "phi_connected")
    lp = d.log(p.values)
    lq = d.log(q.values)
    out = []
    for t in t_grid:
        with np.errstate(over="ignore", invalid="ignore"):
            vals = d.exp((1.0 - float(t)) * lp + float(t) * lq)
        total = _dot(p.base.weights, vals)
        finite = bool(np.all(np.isfinite(vals))) and math.isfinite(total)
        out.append(PhiArcMassPoint(float(t), total if finite else math.inf, finite))
    return out


def _patch_mass(p: Density, u_vals: np.ndarray, d: DeformedLogarithm, k: float) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        vals = d.exp(u_vals - k + d.log(p.values))
    if not np.all(vals > 0.0):
        return 0.0  # domain exit (NaN) or a zero value: treat as past the unit-mass target
    total = _dot(p.base.weights, vals)
    return total if math.isfinite(total) else math.inf


def phi_cumulant(p: Density, u, d: DeformedLogarithm, rel_tol: float = 1e-14) -> float:
    """The unique constant k making exp_phi(u - k + log_phi p) a unit-mass function.

    On escort-centered coordinates (vanishing pairing against phi(p)) the
    constant is nonnegative by convexity and zero exactly when u vanishes.
    Coordinates carrying a nonzero escort pairing are normalized all the
    same; their constant may take either sign.  Raises when u + log_phi p
    leaves the domain of the deformed exponential or the mass diverges.  If
    the mass drops past 1 only at a domain exit, k is the largest constant
    that keeps the patch inside the domain (its mass then exceeds 1).
    """
    u_vals = values_on(p.base, u)
    if float(np.max(np.abs(u_vals))) == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        at_zero = d.exp(u_vals + d.log(p.values))
    if np.any(np.isnan(at_zero)):
        raise InvariantError("coordinate leaves the deformed-exponential domain at k = 0")
    mass0 = _dot(p.base.weights, at_zero)
    if not math.isfinite(mass0):
        raise InvariantError("mass integral diverges at k = 0")
    # -mass(k(r)) is nonincreasing in r > 0 for k = 1/r (root k > 0) and k = -r (root k < 0);
    # the root-finder's answer keeps mass(k) >= 1, the side inside the domain
    to_k = (lambda r: 1.0 / r) if mass0 >= 1.0 else (lambda r: -r)
    try:
        r = decreasing_root(lambda r: -_patch_mass(p, u_vals, d, to_k(r)), -1.0, 1.0, rel_tol=rel_tol)
    except BracketError as exc:
        raise InvariantError(f"no finite normalizing constant: {exc}") from exc
    k = to_k(r)
    # snap roundoff-level negatives so centered coordinates keep k >= 0 exactly
    return 0.0 if -1e-13 < k < 0.0 else k


def phi_patch(p: Density, u, d: DeformedLogarithm) -> Density:
    """The unit-mass density exp_phi(u - K + log_phi p)."""
    u_vals = values_on(p.base, u)
    return _patch_at(p, u_vals, d, phi_cumulant(p, u_vals, d))


def _patch_at(p: Density, u_vals: np.ndarray, d: DeformedLogarithm, k: float) -> Density:
    """exp_phi(u - k + log_phi p) renormalized, for a k that phi_cumulant has already solved."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = d.exp(u_vals - k + d.log(p.values))
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
        raise InvariantError("patched values leave the positive cone")
    return Density.from_unnormalized(p.base, vals)


@dataclass(frozen=True)
class PhiChartResult:
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
    delta = d.log(q.values) - d.log(p.values)
    pairing = _dot(p.base.weights, d.phi(p.values) * delta)
    u = RandomVariable(p.base, delta - pairing)
    k = -pairing
    with np.errstate(over="ignore", invalid="ignore"):
        recon = d.exp(u.values - k + d.log(p.values))
    defect = float(np.max(np.abs(recon - q.values)))
    if not math.isfinite(defect) or defect > 1e-9 * max(1.0, float(np.max(q.values))):
        raise InvariantError(f"chart reconstruction defect {defect!r} exceeds 1e-9")
    return PhiChartResult(u, k)


@dataclass(frozen=True)
class PhiArcResult:
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
    points = phi_connected(p0, p1, d, [t])
    if not points[0].finite:
        raise InvariantError(f"arc mass diverges at t = {t}")
    lp0 = d.log(p0.values)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = d.exp((1.0 - t) * lp0 + t * d.log(p1.values))
    density = Density.from_unnormalized(p0.base, raw)
    u = phi_chart(p0, p1, d).u
    if t != 0.0:
        tu = t * u.values
        psi = phi_cumulant(p0, tu, d)
        family = _patch_at(p0, tu, d, psi)
    else:
        psi, family = 0.0, p0
    phi_p0 = d.phi(p0.values)
    diff = d.log(density.values) - lp0
    pairing_un = _dot(p0.base.weights, phi_p0 * diff)
    pairing_norm = pairing_un / _dot(p0.base.weights, phi_p0)
    return PhiArcResult(density, psi, family, pairing_un, pairing_norm)
