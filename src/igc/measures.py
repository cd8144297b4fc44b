"""Reference measures, densities and expectations on finite supports and 1-D grids.

A :class:`Measure` fixes support points and strictly positive integration
weights, either as a plain finite weighted set (including counting measure on
boolean state spaces) or as a 1-D quadrature grid.  A :class:`Density` is a
strictly positive unit-mass function on a measure, a :class:`RandomVariable`
is a plain value array tied to a base measure, and a :class:`TangentVector` is a
value array centered under a given density.  On a finite support the exponential,
mixture and Hilbert fibres at p are one space, told apart only by their norms.

All objects are immutable after construction and every operation here is a
pure function, so concurrent reads are safe.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TOL = 1e-12  # unit mass and centering: |mass - 1| of a density, and |E_p[v]| relative to max(1, max|v|)

__all__ = [
    "BaseMismatchError",
    "InvariantError",
    "Measure",
    "Density",
    "RandomVariable",
    "TangentVector",
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
    "expect",
    "covariance",
    "lp_norm",
    "upper_incomplete_gamma_half",
    "c_integral",
    "require_same_base",
    "values_on",
    "require_centered",
]


# OpenBLAS splits a dot product over more than 10,000 entries across its thread
# pool: the rounding then depends on the pool size, and each call wakes a worker
# thread that spins between calls and competes with the caller.  It is also the
# cut-off below which numpy's set-up outweighs the arithmetic of the reductions.
_DOT_BLOCK = 8192


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum(a * b) for 1-D float arrays, in one thread and in a fixed order.

    Up to _DOT_BLOCK entries a.dot(b), bitwise a @ b with less set-up (a view with a
    negative stride aside); longer arrays are summed as the leading remainder plus
    one BLAS dot product per block of _DOT_BLOCK entries, each below the threading cut-off.
    """
    n = a.shape[0]
    if n <= _DOT_BLOCK:
        return float(a.dot(b))
    k, r = divmod(n, _DOT_BLOCK)
    blocks = np.matmul(a[r:].reshape(k, 1, _DOT_BLOCK), b[r:].reshape(k, _DOT_BLOCK, 1))
    return (float(a[:r] @ b[:r]) if r else 0.0) + float(blocks.sum())


def _max(a: np.ndarray) -> float:
    """float(a.max()) of a non-empty array; up to _DOT_BLOCK entries the entry at a.argmax(),
    which is NaN when any entry is NaN, since argmax stops at the first NaN."""
    return a.item(a.argmax()) if a.size <= _DOT_BLOCK else float(a.max())


def _min(a: np.ndarray) -> float:
    """float(a.min()) of a non-empty array; up to _DOT_BLOCK entries the entry at a.argmin(),
    which is NaN when any entry is NaN, since argmin stops at the first NaN."""
    return a.item(a.argmin()) if a.size <= _DOT_BLOCK else float(a.min())


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all() for a non-empty array: a NaN or infinite entry shows in the maximum or the minimum."""
    return math.isfinite(_max(a)) and math.isfinite(_min(a))


def _finite_sum(weights: np.ndarray, vals: np.ndarray) -> float:
    """_dot(weights, vals), with a non-finite sum (overflow or NaN) reported as a divergent +inf."""
    total = _dot(weights, vals)
    return total if math.isfinite(total) else math.inf


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


_RULES = (None, "boolean", "gauss_legendre", "periodic", "gauss_hermite")


@dataclass(frozen=True, eq=False)
class Measure:
    """Weighted support points, either a finite set or a 1-D quadrature grid.

    With ``rule`` None the weights are counting weights on distinct points;
    "boolean" stores the integer state codes 0 .. 2**n - 1 in order, n being
    ``n_sites``; the grid rules "gauss_legendre", "periodic" and "gauss_hermite"
    put quadrature weights on increasing nodes, and the equal weights of a
    periodic grid are its ``spacing``.  Every rule holds a density to the one tolerance
    ``TOL`` of unit mass, the same ``TOL`` that bounds centering under it.
    """

    points: np.ndarray
    weights: np.ndarray
    rule: str | None = None

    def __post_init__(self):
        if self.rule not in _RULES:
            raise InvariantError(f"rule must be one of {_RULES}, got {self.rule!r}")
        if self.rule == "boolean":  # compared before the integer cast, which would floor 0.5 to 0
            codes = np.asarray(self.points)
            if codes.size & (codes.size - 1) or not np.array_equal(codes, np.arange(codes.size)):
                raise InvariantError("boolean state codes must be 0 .. 2**n - 1 in order")
        dtype = np.int64 if self.rule == "boolean" else float
        object.__setattr__(self, "points", _frozen_array(self.points, dtype))
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if self.points.ndim != 1 or self.weights.shape != self.points.shape:
            raise InvariantError("points and weights must be 1-D arrays of equal length")
        if self.points.size == 0:
            raise InvariantError("empty support")
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights <= 0):
            raise InvariantError("weights must be strictly positive and finite")
        if self.rule is None:
            # sorted, a repeated point sits beside its twin; NaNs sort last, and two of them
            # also count as a repeat.  (np.unique would say the same, but loads numpy.ma.)
            pts = np.sort(self.points)
            if (pts[1:] == pts[:-1]).any() or np.isnan(pts[-2:]).sum() > 1:
                raise InvariantError("finite support points must be pairwise distinct")
        elif self.rule != "boolean" and not np.all(np.diff(self.points) > 0):
            raise InvariantError("grid nodes must be strictly increasing")
        if self.rule == "periodic" and not np.all(self.weights == self.weights[0]):
            raise InvariantError("periodic grid weights must all be equal")

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def n_sites(self) -> int | None:
        """The number of sites n of a boolean measure, whose size is 2**n; None on every other measure."""
        return self.size.bit_length() - 1 if self.rule == "boolean" else None

    @property
    def spacing(self) -> float:
        """Node spacing of a uniform periodic grid: its common weight."""
        if self.rule != "periodic":
            raise InvariantError("spacing is defined for periodic uniform grids only")
        return float(self.weights[0])

    @cached_property
    def unit_weights(self) -> bool:
        """Whether every weight is exactly 1.0, as on a counting measure."""
        return bool(np.all(self.weights == 1.0))

    def same_base(self, other: "Measure") -> bool:
        return self is other or (
            self.rule == other.rule
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
    return Measure(pts, w)


def boolean_measure(n_sites: int) -> Measure:
    """Counting measure on the 2**n sign patterns of an n-site boolean space.

    State ``i`` encodes site ``k`` as +1 when bit ``k`` of ``i`` is zero and
    -1 otherwise.
    """
    if not 1 <= n_sites <= 20:
        raise InvariantError("n_sites must be between 1 and 20")
    n = 1 << n_sites
    return Measure(np.arange(n), np.ones(n), rule="boolean")


def boolean_signs(measure: Measure) -> np.ndarray:
    """The (2**n, n) array of site values, each entry +1 or -1."""
    if measure.n_sites is None:
        raise InvariantError("not a boolean measure")
    codes = measure.points[:, None]
    bits = (codes >> np.arange(measure.n_sites)[None, :]) & 1
    return 1 - 2 * bits.astype(float)


def boolean_site(measure: Measure, k: int) -> "RandomVariable":
    """The k-th coordinate function on a boolean measure, 0 <= k < n_sites; k must be an integer."""
    signs = boolean_signs(measure)
    k = operator.index(k)  # a float raises TypeError; True reads as 1, as in Python's own indexing
    if not 0 <= k < measure.n_sites:
        raise InvariantError(f"site index {k!r} is not in 0 .. {measure.n_sites - 1}")
    return RandomVariable(measure, signs[:, k])


def gauss_legendre_measure(a: float, b: float, n_panels: int) -> Measure:
    """Composite 16-point Gauss-Legendre quadrature grid on [a, b]."""
    if not (b > a):
        raise InvariantError("need b > a")
    if n_panels < 1:
        raise InvariantError("need n_panels >= 1")
    x01, w01 = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(a, b, n_panels + 1)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]  # one row per panel
    return Measure(
        ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x01).ravel(),
        (half * w01).ravel(),
        rule="gauss_legendre",
    )


HALFLINE_MAX_NODES = 2**20  # 2**16 panels of 16 nodes: 16 MiB of points and weights


def halfline_measure(rate: float, tail_tol: float = 1e-12) -> Measure:
    """Truncated Gauss-Legendre grid for integrands bounded by exp(-rate*x) on [0, inf).

    The truncation point T = (-log(rate) - log(tail_tol)) / rate satisfies the analytic tail bound
    ``int_T^inf exp(-rate*x) dx = exp(-rate*T)/rate <= tail_tol``; [0, T] is cut into panels no
    wider than 2, and at least 8 of them.  Raises unless rate is finite and positive and tail_tol
    lies in (0, 1/rate), where T > 0, and, before allocating, when the grid would hold more than
    ``HALFLINE_MAX_NODES`` nodes (T above 2**17: rate below about 3e-4 at tail_tol = 1e-12).
    """
    if not 0.0 < rate < math.inf:
        raise InvariantError(f"rate must be finite and positive for a truncated half-line grid, got {rate!r}")
    if not 0.0 < tail_tol < 1.0 / rate:
        raise InvariantError(f"tail_tol must lie in (0, 1/rate) = (0, {1.0 / rate!r}), got {tail_tol!r}")
    upper = (-math.log(rate) - math.log(tail_tol)) / rate  # rate * tail_tol may underflow
    if upper > 2.0 * (HALFLINE_MAX_NODES // 16):
        raise InvariantError(f"a grid to T = {upper:.4g} needs {8.0 * upper:.4g} nodes > HALFLINE_MAX_NODES")
    return gauss_legendre_measure(0.0, upper, max(8, math.ceil(upper / 2.0)))


def periodic_grid_measure(a: float, b: float, n: int) -> Measure:
    """Uniform right-open grid on [a, b) with periodic-trapezoid weights h."""
    if not (b > a) or n < 3:
        raise InvariantError("need b > a and n >= 3")
    h = (b - a) / n
    return Measure(a + h * np.arange(n), np.full(n, h), rule="periodic")


def gauss_hermite_measure(n: int) -> Measure:
    """Gauss-Hermite grid integrating the standard normal probability measure."""
    if n < 2:
        raise InvariantError("need at least 2 nodes")
    x, w = np.polynomial.hermite_e.hermegauss(n)
    return Measure(x, w / math.sqrt(2.0 * math.pi), rule="gauss_hermite")


@dataclass(frozen=True, eq=False)
class Density:
    """Strictly positive function on a measure with |mass - 1| <= TOL, on every rule; see ``from_unnormalized``."""

    base: Measure
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.values.shape != self.base.points.shape:
            raise InvariantError("density values must match the support size")
        with np.errstate(over="ignore"):  # a mass that overflows reads inf, which the check refuses
            self._check(_min(self.values))

    def _check(self, low: float) -> "Density":  # given low = min(values); NaN, 0 or less fails low > 0
        mass = _dot(self.values, self.base.weights) if low > 0 else math.nan  # +inf or an overflow reads inf
        if not math.isfinite(mass):
            raise InvariantError("density values must be strictly positive and finite")
        if abs(mass - 1.0) > TOL:
            raise InvariantError(f"density mass {mass!r} is not 1 within {TOL}; rescale with Density.from_unnormalized")
        return self

    @classmethod
    def _adopt(cls, base: Measure, values: np.ndarray, low: float) -> "Density":
        """A patch: fresh read-only values of base's shape, minimum low, mass near 1; checked once, prob preset."""
        density = object.__new__(cls)
        density.__dict__.update(base=base, values=values, **({"prob": values} if base.unit_weights else {}))
        return density._check(low)

    @cached_property
    def prob(self) -> np.ndarray:
        """Discrete probability vector weights*values: ``values`` itself when every weight is 1.0."""
        if self.base.unit_weights:
            return self.values  # 1.0 * v == v exactly
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
        """values / sum(weights * values) for positive finite values; a sum that overflows or is subnormal is
        taken after dividing the values by their maximum, and every other input keeps the plain quotient's bits."""
        vals = np.asarray(values, dtype=float)
        if vals.shape != base.points.shape:
            raise InvariantError("density values must match the support size")
        if not (_min(vals) > 0 and _max(vals) < math.inf):
            raise InvariantError("unnormalized density values must be positive and finite")
        with np.errstate(over="ignore"):  # an overflowing sum reads inf
            mass = _dot(vals, base.weights)
            if not sys.float_info.min <= mass < math.inf:
                vals = vals / _max(vals)
                mass = _dot(vals, base.weights)
        return cls(base, vals / mass)

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
        if not _all_finite(self.values):
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

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__


def coordinate(measure: Measure) -> RandomVariable:
    """The identity function x on a real-valued support."""
    if measure.n_sites is not None:
        raise InvariantError("coordinate is not defined on boolean state codes")
    return RandomVariable(measure, measure.points.astype(float))


def values_on(base: Measure, u) -> np.ndarray:
    """Coerce a random variable, tangent vector, array or scalar to values on base."""
    if type(u) is np.ndarray and u.dtype == float and u.shape == base.points.shape:
        return u  # native float64 (not byte-swapped) of the base's shape: np.asarray(u, dtype=float) is u
    if isinstance(u, (RandomVariable, TangentVector)):
        require_same_base(base, u.at if isinstance(u, TangentVector) else u, "values_on")
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
    """Cov_p(u, v) = E_p[(u - E_p u)(v - E_p v)], each function first shifted by its value at the mode of p.

    The shift changes no covariance but removes a large common offset exactly, which
    E_p[uv] - E_p[u] E_p[v] would cancel away."""
    mode = p.prob.argmax()
    uc, vc = (w - w[mode] for w in (values_on(p.base, u), values_on(p.base, v)))
    return _dot(p.prob, (uc - _dot(p.prob, uc)) * (vc - _dot(p.prob, vc)))


def lp_norm(p: Density, u, alpha: float) -> float:
    """The L^alpha(p) norm (E_p|u|^alpha)^(1/alpha), for a finite alpha > 0.

    It is formed as s * (E_p (|u|/s)^alpha)^(1/alpha) with s = max|u|, so that |u|^alpha
    neither overflows nor underflows where the norm itself is a normal number."""
    if not 0.0 < alpha < math.inf:
        raise InvariantError(f"alpha must be positive and finite, got {alpha!r}")
    vals = np.abs(values_on(p.base, u))
    s = _max(vals)
    if not 0.0 < s < math.inf:  # u = 0, or an infinite or NaN value
        return s
    return s * _dot(p.prob, (vals / s) ** alpha) ** (1.0 / alpha)


def require_centered(p: Density, vals: np.ndarray, what: str) -> np.ndarray:
    """Raise unless vals are finite and |E_p[vals]| <= TOL * max(1, max|vals|); return vals.  The mean decides
    first: a NaN or infinite entry leaves it non-finite (0 * inf is NaN), so only |mean| > TOL takes the sup."""
    if vals.shape[0] <= _DOT_BLOCK and vals.flags.c_contiguous:  # p.prob is too: vdot makes the BLAS call of _dot
        mean = float(np.vdot(p.prob, vals))  # without numpy's floating-point check, ~1 us less than np.errstate
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # a mean that is not finite is refused below, not warned
            mean = _dot(p.prob, vals)
    sup = 0.0 if abs(mean) <= TOL else max(_max(vals), -_min(vals))  # within TOL any sup passes, and 0 does
    if not math.isfinite(sup):
        raise InvariantError(f"{what}: values are not finite")
    if abs(mean) > TOL * max(1.0, sup):
        raise InvariantError(f"{what}: values are not centered under the base density")
    return vals


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Function centered under its base density: a vector of the exponential, mixture or Hilbert fibre there.

    ``values`` accepts a random variable, a tangent vector or a raw value array
    on the base of ``at``; it is stored as one read-only array.
    """

    at: Density
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(values_on(self.at.base, self.values))
        object.__setattr__(self, "values", require_centered(self.at, vals, "TangentVector"))

    @property
    def rv(self) -> RandomVariable:
        """The values as a random variable on the base of ``at``."""
        return RandomVariable(self.at.base, self.values)


def tangent(p: Density, u) -> TangentVector:
    """Center u under p and wrap it as a tangent vector at p; the fresh array is adopted uncopied."""
    vals = values_on(p.base, u)
    centered = vals - _dot(p.prob, vals)
    centered.setflags(write=False)
    return TangentVector(p, centered)


def _fibre_values(p: Density, v, what: str) -> np.ndarray:
    """v's values, checked to lie in the fibre at p: a tangent vector at p itself passes on one identity
    test; any other vector, random variable, array or scalar must live on p's base and be centred under p."""
    if not isinstance(v, TangentVector):
        return require_centered(p, values_on(p.base, v), what)
    if v.at is not p:
        require_same_base(p, v.at, what)
        require_centered(p, v.values, what)
    return v.values


def upper_incomplete_gamma_half(x: float) -> float:
    """The tail integral Gamma(-1/2, x) of s**(-3/2) * exp(-s) from x to infinity, x > 0.

    With s = x + t it is exp(-x) * c_integral(1, x), which keeps full relative
    accuracy; the integration-by-parts form 2*exp(-x)/sqrt(x) - 2*sqrt(pi)*erfc(sqrt(x))
    cancels, and is 4.9e-11 off at x = 500.
    """
    if not x > 0:
        raise InvariantError("x must be positive")
    return math.exp(-x) * c_integral(1.0, x) if x < math.inf else 0.0


def c_integral(theta: float, a: float) -> float:
    """int_0^inf (a+x)**(-3/2) exp(-theta*x) dx, with +inf for theta < 0.

    With y = sqrt(theta*a) the integral is (2/sqrt(a)) * (1 - sqrt(pi)*y*exp(y*y)*erfc(y)).
    Below y = 2 that form is evaluated as it stands; its subtraction loses at most
    about a factor 10.  From y = 2 up, Laplace's continued fraction (Abramowitz-Stegun
    7.1.14) writes sqrt(pi)*exp(y*y)*erfc(y) = 1/(y + g) with the positive tail
    g = (1/2)/(y + 1/(y + (3/2)/(y + 2/(y + ...)))), so the bracket is g/(y + g):
    no subtraction at all, and full relative accuracy however large theta*a grows.
    """
    if not (a > 0 and math.isfinite(a)):
        raise InvariantError("a must be positive and finite")
    if math.isnan(theta):
        raise InvariantError("theta must not be NaN")
    if theta < 0:
        return math.inf
    y = math.sqrt(theta * a)
    if y < 2.0:
        return 2.0 / math.sqrt(a) * (1.0 - math.sqrt(math.pi) * y * math.exp(y * y) * math.erfc(y))
    # backward recurrence, truncated at depth 16 + 400/y**2: at least 1.5 times the depth at
    # which the fraction meets a 50-digit reference to 1e-17 over y in [2, 1e4] (69 terms at
    # y = 2, where it converges slowest; the depth needed only falls as y grows)
    t = y
    for k in range(16 + int(400.0 / (y * y)), 1, -1):
        t = y + 0.5 * k / t
    g = 0.5 / t
    return 2.0 / math.sqrt(a) * g / (y + g)
