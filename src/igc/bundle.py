"""Square-root sphere embedding, isometric transports and the metric derivative.

Positive densities embed into the unit sphere of the weighted L2 space by
p -> sqrt(p).  The sphere carries an explicit isometric transport between
tangent spaces; pulled back through the embedding it becomes an isometry of
the centered-L2 fibers attached to each density.  Differentiating the pulled
back transport along a curve yields the metric covariant derivative on the
bundle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .measures import (
    Density,
    InvariantError,
    Measure,
    RandomVariable,
    TangentVector,
    _dot,
    _fibre_values,
    _frozen_array,
    _max,
    require_same_base,
    tangent,
    values_on,
)

__all__ = [
    "SphereVector",
    "sphere_dot",
    "sphere_point",
    "sphere_tangent",
    "embed_sqrt",
    "sphere_chart",
    "sphere_patch",
    "sphere_transport",
    "tangent_bundle_chart",
    "tangent_bundle_patch",
    "hilbert_transport",
    "covariant_derivative_sphere",
    "metric_derivative",
    "hermite_transport_demo",
    "HermiteTransportReport",
]

_SPHERE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SphereVector:
    """A point on the unit sphere of L2(mu), or a tangent vector at one.

    ``at`` is None for points; tangents store their base point and must be
    mu-orthogonal to it.
    """

    base: Measure
    values: np.ndarray
    at: "SphereVector | None" = None

    def __post_init__(self):
        vals = _frozen_array(self.values)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.base.points.shape:
            raise InvariantError("sphere vector values must match the support size")
        if self.at is None:
            nrm = _dot(self.base.weights, vals * vals)
            if not abs(nrm - 1.0) <= _SPHERE_TOL:  # a NaN norm fails too
                raise InvariantError(f"sphere point has squared norm {nrm!r}, expected 1")
        else:
            require_same_base(self.base, self.at.base, "SphereVector")
            if self.at.at is not None:
                raise InvariantError("tangent base must be a sphere point")
            _require_tangent(self.base.weights, vals, self.at.values)


@np.errstate(over="ignore", invalid="ignore")  # the pairing decides first, as the mean does in require_centered
def _require_tangent(weights: np.ndarray, vals: np.ndarray, at_vals: np.ndarray) -> None:
    """Raise unless vals is finite and mu-orthogonal to the point at_vals within _SPHERE_TOL * max(1, max|vals|)."""
    pairing = _dot(weights, vals * at_vals)
    sup = 0.0 if abs(pairing) <= _SPHERE_TOL else _max(np.abs(vals))  # NaN when any entry is NaN
    if not math.isfinite(sup):
        raise InvariantError("sphere tangent values must be finite")
    if abs(pairing) > _SPHERE_TOL * max(1.0, sup):
        raise InvariantError("tangent vector is not orthogonal to its base point")


def sphere_dot(x: SphereVector, y: SphereVector) -> float:
    """The L2(mu) inner product of two sphere objects on the same base."""
    require_same_base(x.base, y.base, "sphere_dot")
    return _dot(x.base.weights, x.values * y.values)


def sphere_point(base: Measure, values) -> SphereVector:
    """Normalize values to a unit sphere point."""
    vals = np.asarray(values, dtype=float)
    nrm = math.sqrt(_dot(base.weights, vals * vals))
    if nrm == 0.0:
        raise InvariantError("cannot normalize the zero vector")
    return SphereVector(base, vals / nrm)


def sphere_tangent(x: SphereVector, values) -> SphereVector:
    """Project values onto the tangent space at x."""
    vals = np.asarray(values, dtype=float)
    inner = _dot(x.base.weights, vals * x.values)
    return SphereVector(x.base, vals - inner * x.values, at=x)


def embed_sqrt(p: Density) -> SphereVector:
    """The sphere point sqrt(p)."""
    return SphereVector(p.base, np.sqrt(p.values))


def sphere_chart(x: SphereVector, y: SphereVector) -> SphereVector:
    """Projection chart y - <x, y> x, defined on the hemisphere <x, y> > 0."""
    c = sphere_dot(x, y)
    if c <= 0:
        raise InvariantError("projection chart requires <x, y> > 0")
    return SphereVector(x.base, y.values - c * x.values, at=x)


def sphere_patch(x: SphereVector, u: SphereVector) -> SphereVector:
    """Inverse of the projection chart: u + sqrt(1 - <u, u>) x.

    The radicand 1 - <u, u> is what restores a unit-norm point; with the
    square of the inner product instead the patch would leave the sphere,
    which the constructor would reject.
    """
    if u.at is None or u.at is not x:
        u = SphereVector(x.base, u.values, at=x)
    uu = sphere_dot(u, u)
    if uu >= 1.0:
        raise InvariantError("chart coordinate lies outside the unit ball")
    return SphereVector(x.base, u.values + math.sqrt(1.0 - uu) * x.values)


def _chord_transport(w: np.ndarray, x_values: np.ndarray, y_values: np.ndarray) -> Callable[..., np.ndarray]:
    """The chord transport from x to y as a map of u's values, its x-y terms computed once."""
    c = _dot(w, x_values * y_values)
    if c <= -1.0 + 1e-12:
        raise InvariantError("transport is undefined between antipodal points")
    denom, xy = 1.0 + c, x_values + y_values

    def move(u_values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.subtract(u_values, (_dot(w, u_values * y_values) / denom) * xy, out=out)

    return move


def sphere_transport(x: SphereVector, y: SphereVector, u: SphereVector) -> SphereVector:
    """Isometric transport of u from the tangent space at x to the one at y.

    The composition of two transports generally differs from the direct one
    unless the three points are coplanar; the chord formula carries no path
    information.
    """
    if u.at is None:
        raise InvariantError("u must be a tangent vector")
    require_same_base(x.base, y.base, "sphere_transport")
    return SphereVector(x.base, _chord_transport(x.base.weights, x.values, y.values)(u.values), at=y)


def tangent_bundle_chart(
    x: SphereVector, y: SphereVector, v: SphereVector
) -> tuple[SphereVector, SphereVector]:
    """Coordinates of (y, v) at center x: (projection of y, v transported to x)."""
    return sphere_chart(x, y), sphere_transport(y, x, v)


def tangent_bundle_patch(
    x: SphereVector, u: SphereVector, w: SphereVector
) -> tuple[SphereVector, SphereVector]:
    """Inverse of the tangent bundle chart at x."""
    y = sphere_patch(x, u)
    return y, sphere_transport(x, y, w)


# not in __all__: perfbench/workloads.py calls this name, and only a benchmark change edits perfbench/
hilbert_vector = tangent


def hilbert_transport(p: Density, q: Density, u: TangentVector) -> TangentVector:
    """Isometry of the centered-L2 fiber at p onto the fiber at q.

    Conjugating the sphere chord transport by the square-root embedding gives

        sqrt(p/q) u - (1 + E_q[sqrt(p/q)])**-1 (1 + sqrt(p/q)) E_q[sqrt(p/q) u],

    which is centered under q and preserves second moments exactly.
    """
    require_same_base(p, q, "hilbert_transport")
    uv = _fibre_values(p, u, "hilbert_transport")
    ratio = np.sqrt(p.values / q.values)
    denom = 1.0 + _dot(q.prob, ratio)
    num = _dot(q.prob, ratio * uv)
    return TangentVector(q, ratio * uv - (num / denom) * (1.0 + ratio))


def covariant_derivative_sphere(
    field: Callable[[SphereVector], SphereVector],
    w: SphereVector,
    x: SphereVector,
) -> SphereVector:
    """Metric covariant derivative of a sphere vector field along w at x.

    The field is evaluated on the radial normalization of x + t*w, the
    directional derivative is a central difference with step t = 1e-5, and
    the result is projected back onto the tangent space at x.
    """
    step = 1e-5
    if w.at is None:
        raise InvariantError("w must be a tangent vector")
    plus = field(sphere_point(x.base, x.values + step * w.values))
    minus = field(sphere_point(x.base, x.values - step * w.values))
    diff = (plus.values - minus.values) / (2.0 * step)
    return sphere_tangent(x, diff)


def metric_derivative(p: Density, f0: TangentVector, f0_dot, w: TangentVector) -> TangentVector:
    """Covariant derivative along a curve with initial velocity w in the moving frame.

    Given the fiber value F(0) = f0 and its raw time derivative f0_dot at
    t = 0, the derivative of the transported field is

        f0_dot + (1/2) f0 * w, recentered under p.
    """
    f0v, wv = _fibre_values(p, f0, "metric_derivative"), _fibre_values(p, w, "metric_derivative")
    return tangent(p, values_on(p.base, f0_dot) + 0.5 * f0v * wv)


class HermiteTransportReport(NamedTuple):
    gram: np.ndarray
    max_offdiag: float
    max_diag_defect: float


def hermite_transport_demo(y: RandomVariable, n_max: int) -> HermiteTransportReport:
    """Transport the Hermite basis from the constant point to a unit vector y.

    Under the Gaussian quadrature measure the Hermite polynomials H_1..H_n are
    an orthogonal tangent basis at the constant function 1; the transported
    family must stay orthogonal with squared norms n!.  Requires y to be a
    unit sphere point, E[y^2] = 1 within ``_SPHERE_TOL``, and at least
    2*n_max quadrature nodes.
    """
    base = y.base
    if base.rule != "gauss_hermite":
        raise InvariantError("hermite_transport_demo needs a Gauss-Hermite base measure")
    if n_max < 1:
        raise InvariantError("n_max must be at least 1")
    if base.size < 2 * n_max:
        raise InvariantError(f"quadrature underresolved: need at least {2 * n_max} nodes")
    # the two points are the only sphere objects; each degree is checked as SphereVector would check it,
    # H_n as a tangent at x and its transport as a tangent at y
    w, x, yv = base.weights, SphereVector(base, np.ones(base.size)).values, SphereVector(base, y.values).values
    move = _chord_transport(w, x, yv)
    mat = np.empty((n_max, base.size))
    prev, cur = x, base.points  # H_0 and H_1, then the three-term recurrence H_n = x H_{n-1} - (n-1) H_{n-2}
    for n in range(1, n_max + 1):
        if n > 1:
            prev, cur = cur, base.points * cur - (n - 1) * prev
        hn = cur - _dot(w, cur)  # exact mean is zero; remove quadrature residue
        _require_tangent(w, hn, x)
        _require_tangent(w, move(hn, out=mat[n - 1]), yv)
    gram = (mat * w) @ mat.T
    diag = np.diag(gram)
    expected = np.array([math.factorial(n) for n in range(1, n_max + 1)], dtype=float)
    return HermiteTransportReport(
        gram=gram,
        max_offdiag=float(np.abs(gram - np.diag(diag)).max()) if n_max > 1 else 0.0,
        max_diag_defect=float((np.abs(diag - expected) / expected).max()),
    )
