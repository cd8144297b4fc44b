"""Reference measures, densities and expectations on finite supports and 1-D grids.

A :class:`Measure` fixes support points and strictly positive integration
weights, either as a plain finite weighted set (including counting measure on
boolean state spaces) or as a 1-D quadrature grid.  A :class:`Density` is a
strictly positive unit-mass function on a measure, a :class:`RandomVariable`
is a plain value array tied to a base measure, and tangent/cotangent vectors
are random variables centered under a given density.

All objects are immutable after construction and every operation here is a
pure function, so concurrent reads are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FINITE_MASS_TOL = 1e-12
GRID_MASS_TOL = 1e-8
CENTER_TOL = 1e-12

__all__ = [
    "BaseMismatchError",
    "InvariantError",
    "Measure",
    "Density",
    "RandomVariable",
    "TangentVector",
    "CotangentVector",
    "finite_measure",
    "boolean_measure",
    "boolean_signs",
    "boolean_site",
    "gauss_legendre_measure",
    "halfline_measure",
    "periodic_grid_measure",
    "gauss_hermite_measure",
    "coordinate",
    "tangent",
    "cotangent",
    "expect",
    "covariance",
    "lp_norm",
    "upper_incomplete_gamma_half",
    "c_integral",
    "measure_to_json",
    "measure_from_json",
    "density_to_json",
    "density_from_json",
    "density_csv_rows",
]


# OpenBLAS splits a dot product over more than 10,000 entries across its thread
# pool: the rounding then depends on the pool size, and each call wakes a worker
# thread that spins between calls and competes with the caller.
_DOT_BLOCK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) for 1-D float arrays, in one thread and in a fixed order.

    Longer arrays are summed as the leading remainder plus one BLAS dot product
    per block of _DOT_BLOCK entries, each below the threading cut-off.
    """
    n = a.shape[0]
    if n <= _DOT_BLOCK:
        return float(a @ b)
    k, r = divmod(n, _DOT_BLOCK)
    blocks = np.matmul(a[r:].reshape(k, 1, _DOT_BLOCK), b[r:].reshape(k, _DOT_BLOCK, 1))
    return (float(a[:r] @ b[:r]) if r else 0.0) + float(blocks.sum())


class BaseMismatchError(ValueError):
    """Two objects do not share the same base measure."""


class InvariantError(ValueError):
    """A construction-time invariant is violated."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only copy of values; an array that is already read-only and owns its data is kept."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == dtype
        and not values.flags.writeable
        and values.base is None
    ):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Measure:
    """Weighted support points, either a finite set or a 1-D quadrature grid.

    ``weights`` are counting weights for ``kind == "finite"`` and quadrature
    weights for ``kind == "grid1d"``.  Boolean state spaces store their points
    as integer state codes with ``n_sites`` declared; all other supports use
    real points.
    """

    kind: str
    points: np.ndarray
    weights: np.ndarray
    domain: tuple[float, float] | None = None
    rule: str | None = None
    n_sites: int | None = None
    mass_tol: float = FINITE_MASS_TOL

    def __post_init__(self):
        if self.kind not in ("finite", "grid1d"):
            raise InvariantError(f"unknown measure kind {self.kind!r}")
        dtype = np.int64 if self.n_sites is not None else float
        object.__setattr__(self, "points", _frozen_array(self.points, dtype))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if self.points.ndim != 1 or self.weights.shape != self.points.shape:
            raise InvariantError("points and weights must be 1-D arrays of equal length")
        if self.points.size == 0:
            raise InvariantError("empty support")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise InvariantError("weights must be strictly positive and finite")
        if self.kind == "finite":
            if np.unique(self.points).size != self.points.size:
                raise InvariantError("finite support points must be pairwise distinct")
        else:
            if not np.all(np.diff(self.points) > 0):
                raise InvariantError("grid nodes must be strictly increasing")

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def spacing(self) -> float:
        """Node spacing of a uniform periodic grid."""
        if self.rule != "periodic" or self.domain is None:
            raise InvariantError("spacing is defined for periodic uniform grids only")
        return (self.domain[1] - self.domain[0]) / self.size

    def same_base(self, other: "Measure") -> bool:
        return self is other or (
            self.kind == other.kind
            and self.n_sites == other.n_sites
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )


def require_same_base(a, b, what: str = "operation"):
    ma = a if isinstance(a, Measure) else a.base
    mb = b if isinstance(b, Measure) else b.base
    if not ma.same_base(mb):
        raise BaseMismatchError(f"{what}: operands live on different base measures")


def finite_measure(points, weights=None) -> Measure:
    """Finite weighted support; unit counting weights by default."""
    pts = np.asarray(points, dtype=float)
    w = np.ones_like(pts) if weights is None else np.asarray(weights, dtype=float)
    return Measure("finite", pts, w)


def boolean_measure(n_sites: int) -> Measure:
    """Counting measure on the 2**n sign patterns of an n-site boolean space.

    State ``i`` encodes site ``k`` as +1 when bit ``k`` of ``i`` is zero and
    -1 otherwise.
    """
    if not 1 <= n_sites <= 20:
        raise InvariantError("n_sites must be between 1 and 20")
    n = 1 << n_sites
    return Measure("finite", np.arange(n), np.ones(n), n_sites=n_sites)


def boolean_signs(measure: Measure) -> np.ndarray:
    """The (2**n, n) array of site values, each entry +1 or -1."""
    if measure.n_sites is None:
        raise InvariantError("not a boolean measure")
    codes = measure.points[:, None]
    bits = (codes >> np.arange(measure.n_sites)[None, :]) & 1
    return 1 - 2 * bits.astype(float)


def boolean_site(measure: Measure, k: int) -> "RandomVariable":
    """The k-th coordinate function on a boolean measure."""
    return RandomVariable(measure, boolean_signs(measure)[:, k])


def gauss_legendre_measure(a: float, b: float, n_panels: int) -> Measure:
    """Composite 16-point Gauss-Legendre quadrature grid on [a, b]."""
    if not (b > a):
        raise InvariantError("need b > a")
    if n_panels < 1:
        raise InvariantError("need n_panels >= 1")
    x01, w01 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, n_panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(0.5 * (lo + hi) + half * x01)
        weights.append(half * w01)
    return Measure(
        "grid1d",
        np.concatenate(nodes),
        np.concatenate(weights),
        domain=(float(a), float(b)),
        rule="gauss_legendre",
        mass_tol=GRID_MASS_TOL,
    )


def halfline_measure(rate: float, tail_tol: float = 1e-12) -> Measure:
    """Truncated Gauss-Legendre grid for integrands bounded by exp(-rate*x) on [0, inf).

    The truncation point T satisfies the analytic tail bound
    ``int_T^inf exp(-rate*x) dx = exp(-rate*T)/rate <= tail_tol``; [0, T] is
    cut into panels no wider than 2, and at least 8 of them.
    """
    if rate <= 0:
        raise InvariantError("rate must be positive for a truncated half-line grid")
    upper = math.log(1.0 / (rate * tail_tol)) / rate
    n_panels = max(8, int(math.ceil(upper / 2.0)))
    return gauss_legendre_measure(0.0, upper, n_panels)


def periodic_grid_measure(a: float, b: float, n: int) -> Measure:
    """Uniform right-open grid on [a, b) with periodic-trapezoid weights h."""
    if not (b > a) or n < 3:
        raise InvariantError("need b > a and n >= 3")
    h = (b - a) / n
    return Measure(
        "grid1d",
        a + h * np.arange(n),
        np.full(n, h),
        domain=(float(a), float(b)),
        rule="periodic",
        mass_tol=GRID_MASS_TOL,
    )


def gauss_hermite_measure(n: int) -> Measure:
    """Gauss-Hermite grid integrating the standard normal probability measure."""
    if n < 2:
        raise InvariantError("need at least 2 nodes")
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return Measure(
        "grid1d",
        x,
        w / math.sqrt(2.0 * math.pi),
        domain=(-math.inf, math.inf),
        rule="gauss_hermite",
        mass_tol=FINITE_MASS_TOL,
    )


@dataclass(frozen=True, eq=False)
class Density:
    """Strictly positive unit-mass function on a measure."""

    base: Measure
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.shape != self.base.points.shape:
            raise InvariantError("density values must match the support size")
        # a NaN, zero or negative entry fails the minimum; with positive weights, +inf fails the mass
        mass = _dot(self.values, self.base.weights)
        if not float(np.min(self.values)) > 0 or not math.isfinite(mass):
            raise InvariantError("density values must be strictly positive and finite")
        if abs(mass - 1.0) > self.base.mass_tol:
            raise InvariantError(f"density mass {mass!r} is not 1 within {self.base.mass_tol}")

    @cached_property
    def prob(self) -> np.ndarray:
        """Discrete probability vector weights*values."""
        arr = self.base.weights * self.values
        arr.setflags(write=False)
        return arr

    @cached_property
    def log_values(self) -> np.ndarray:
        """log(values), computed once per density that is used as a chart center."""
        arr = np.log(self.values)
        arr.setflags(write=False)
        return arr

    def mass(self) -> float:
        return _dot(self.values, self.base.weights)

    @classmethod
    def uniform(cls, base: Measure) -> "Density":
        total = float(np.sum(base.weights))
        return cls(base, np.full(base.size, 1.0 / total))

    @classmethod
    def from_unnormalized(cls, base: Measure, values) -> "Density":
        vals = np.asarray(values, dtype=float)
        if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
            raise InvariantError("unnormalized density values must be positive and finite")
        return cls(base, vals / _dot(vals, base.weights))

    @classmethod
    def random(cls, base: Measure, rng: np.random.Generator, spread: float = 0.5) -> "Density":
        """Random log-normal-shaped density with bounded value ratios."""
        return cls.from_unnormalized(base, np.exp(spread * rng.standard_normal(base.size)))


@dataclass(frozen=True, eq=False)
class RandomVariable:
    """Real function on the support of a base measure."""

    base: Measure
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.shape != self.base.points.shape:
            raise InvariantError("random variable values must match the support size")
        if not np.all(np.isfinite(self.values)):
            raise InvariantError("random variable values must be finite")

    @classmethod
    def constant(cls, base: Measure, c: float) -> "RandomVariable":
        return cls(base, np.full(base.size, float(c)))

    def _binary(self, other, op) -> "RandomVariable":
        if isinstance(other, RandomVariable):
            require_same_base(self, other, "arithmetic")
            return RandomVariable(self.base, op(self.values, other.values))
        return RandomVariable(self.base, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return RandomVariable(self.base, float(other) - self.values)

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __neg__(self):
        return RandomVariable(self.base, -self.values)


def coordinate(measure: Measure) -> RandomVariable:
    """The identity function x on a real-valued support."""
    if measure.n_sites is not None:
        raise InvariantError("coordinate is not defined on boolean state codes")
    return RandomVariable(measure, measure.points.astype(float))


def values_on(base: Measure, u) -> np.ndarray:
    """Coerce a random variable, tangent/cotangent vector, array or scalar to values on base."""
    if isinstance(u, TangentVector):
        u = u.rv
    if isinstance(u, RandomVariable):
        require_same_base(base, u, "values_on")
        return u.values
    arr = np.asarray(u, dtype=float)
    if arr.ndim == 0:
        return np.full(base.size, float(arr))
    if arr.shape != base.points.shape:
        raise InvariantError("value array does not match the support size")
    return arr


def expect(p: Density, u) -> float:
    """E_p[u] = sum of u * p * weights."""
    return _dot(p.prob, values_on(p.base, u))


def covariance(p: Density, u, v) -> float:
    """Cov_p(u, v) = E_p[uv] - E_p[u] E_p[v]."""
    uv = values_on(p.base, u)
    vv = values_on(p.base, v)
    return _dot(p.prob, uv * vv) - _dot(p.prob, uv) * _dot(p.prob, vv)


def lp_norm(p: Density, u, alpha: float) -> float:
    """The L^alpha(p) norm (E_p|u|^alpha)^(1/alpha)."""
    if alpha <= 0:
        raise InvariantError("alpha must be positive")
    vals = np.abs(values_on(p.base, u))
    return _dot(p.prob, vals**alpha) ** (1.0 / alpha)


def require_centered(p: Density, vals: np.ndarray, what: str) -> np.ndarray:
    """Raise unless vals are finite and |E_p[vals]| <= CENTER_TOL * max(1, max|vals|); return vals."""
    sup = max(float(np.max(vals)), -float(np.min(vals)))
    if not math.isfinite(sup):
        raise InvariantError(f"{what}: values are not finite")
    if abs(_dot(p.prob, vals)) > CENTER_TOL * max(1.0, sup):
        raise InvariantError(f"{what}: values are not centered under the base density")
    return vals


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Random variable centered under its base density (exponential-side coordinate).

    The second field accepts a random variable or a raw value array on the
    base of ``at``.
    """

    at: Density
    rv: RandomVariable

    def __post_init__(self):
        if not isinstance(self.rv, RandomVariable):
            object.__setattr__(self, "rv", RandomVariable(self.at.base, self.rv))
        require_same_base(self.at, self.rv, type(self).__name__)
        require_centered(self.at, self.rv.values, type(self).__name__)

    @property
    def values(self) -> np.ndarray:
        return self.rv.values

    @property
    def base(self) -> Measure:
        return self.at.base


class CotangentVector(TangentVector):
    """Random variable centered under its base density (mixture-side coordinate)."""


def _centered_rv(p: Density, u) -> RandomVariable:
    vals = values_on(p.base, u)
    centered = vals - _dot(p.prob, vals)
    centered.setflags(write=False)  # a fresh array, so the random variable adopts it uncopied
    return RandomVariable(p.base, centered)


def tangent(p: Density, u) -> TangentVector:
    """Center u under p and wrap it as a tangent vector at p."""
    return TangentVector(p, _centered_rv(p, u))


def cotangent(p: Density, v) -> CotangentVector:
    """Center v under p and wrap it as a cotangent vector at p."""
    return CotangentVector(p, _centered_rv(p, v))


def upper_incomplete_gamma_half(x: float) -> float:
    """The tail integral of s**(-3/2) * exp(-s) from x to infinity, x > 0.

    Integration by parts gives 2*exp(-x)/sqrt(x) minus twice the tail of the
    Gamma(1/2, 1) integral, which is sqrt(pi)*erfc(sqrt(x)).
    """
    if x <= 0:
        raise InvariantError("x must be positive")
    return 2.0 * math.exp(-x) / math.sqrt(x) - 2.0 * math.sqrt(math.pi) * math.erfc(math.sqrt(x))


def c_integral(theta: float, a: float) -> float:
    """int_0^inf (a+x)**(-3/2) exp(-theta*x) dx, with +inf for theta < 0.

    For theta > 0 the scaled-erfc form 2/sqrt(a) - 2*sqrt(pi*theta)*erfcx(sqrt(theta*a))
    avoids overflow of the exp(theta*a) factor.
    """
    if a <= 0:
        raise InvariantError("a must be positive")
    if theta < 0:
        return math.inf
    if theta == 0:
        return 2.0 / math.sqrt(a)
    from scipy.special import erfcx  # imported here so that `import igc` does not load scipy

    return float(
        2.0 / math.sqrt(a)
        - 2.0 * math.sqrt(math.pi * theta) * erfcx(math.sqrt(theta * a))
    )


def measure_to_json(m: Measure) -> dict:
    out = {
        "kind": m.kind,
        "points": m.points.tolist(),
        "weights": m.weights.tolist(),
        "mass_tol": m.mass_tol,
    }
    if m.domain is not None:
        out["domain"] = list(m.domain)
    if m.rule is not None:
        out["rule"] = m.rule
    if m.n_sites is not None:
        out["n_sites"] = m.n_sites
    return out


def measure_from_json(data: dict) -> Measure:
    return Measure(
        data["kind"],
        np.asarray(data["points"]),
        np.asarray(data["weights"]),
        domain=tuple(data["domain"]) if "domain" in data else None,
        rule=data.get("rule"),
        n_sites=data.get("n_sites"),
        mass_tol=data.get("mass_tol", FINITE_MASS_TOL),
    )


def density_to_json(p: Density) -> dict:
    out = measure_to_json(p.base)
    out["values"] = p.values.tolist()
    return out


def density_from_json(data: dict) -> Density:
    return Density(measure_from_json(data), np.asarray(data["values"]))


def density_csv_rows(p: Density) -> list[tuple[float, float, float]]:
    """One (point, weight, value) row per support point."""
    return [
        (float(pt), float(w), float(v))
        for pt, w, v in zip(p.base.points, p.base.weights, p.values)
    ]
