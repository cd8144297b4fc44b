"""Young functions, Luxemburg and dual norms, boolean Walsh machinery, steepness probes.

The Young pairs implemented here are the classical conjugate families built
from phi(u) = log(1+u), arcsinh(u), log+(u) and the identity, plus
cosh(x) - 1.  The Luxemburg norm of u under a density p is the gauge

    inf { r > 0 : E_p[Phi(u/r)] <= 1 },

computed by ``_gauge``, the one gauge that also serves the dual and deformed
norms, by Newton in log(1/r) from an a-priori Jensen bracket, certified by one
evaluation at the returned radius.  Divergent integrals are reported as values
(math.inf), never silently clipped.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._rootfind import decreasing_root
from .measures import (
    Density,
    InvariantError,
    Measure,
    RandomVariable,
    _dot,
    _finite_sum,
    _frozen_array,
    _max,
    _min,
    c_integral,
    values_on,
)

__all__ = [
    "YoungFunction",
    "young_pair",
    "validate_young_pair",
    "YOUNG_TAGS",
    "luxemburg_norm",
    "dual_norm",
    "WalshSpectrum",
    "walsh_transform",
    "inverse_walsh",
    "boolean_mgf",
    "boolean_phi_moment",
    "steepness_profile",
    "nonsteep_profile",
    "nonsteep_density",
    "ProfilePoint",
]


# the gauges' relative tolerance, Newton's first stop (absolute in log s) and the most Newton runs
_REL_TOL, _NEWTON_TOL, _RUNS = 1e-14, 1e-7, 8


def _gauge(weights, F: Callable, sloped: Callable, vals, target: float, level: float, start: float, what: str, base=0.0):
    """inf { r > 0 : sum(weights * F(vals / r)) <= target } for vals >= 0, not all 0, a non-finite sum counting as +inf.

    F is convex and increasing, sloped(y) = (F(y), F'(y)), and M(s) = sum(weights * F(s * vals)), s = 1/r, has
    M(lo) <= target <= M(start * lo), lo = level / max(vals), and M(0) = base.  M is convex in log s too: Newton
    solves M - base = target - base in k = -1 - log(s / lo) from -1 - log(start), inside [-1 - log(start), -1],
    with slope -sum(weights * y * F'(y)), y = s * vals, and stops at a step below 1e-7, which it takes: by
    convexity that lands on or below the root.  The result is r there times 1 + rel_tol / 2, rel_tol = 1e-14,
    once one evaluation shows modular(result) <= target; otherwise Newton runs on from it to rel_tol.  So
    modular(result) <= target, and it is above the target at some r >= result * (1 - rel_tol).  Raises
    ``InvariantError(f"{what}: ...")`` when 8 runs do not bring it down.
    """
    sup = _max(vals)
    a = vals / sup * level  # s * vals at s = lo, formed without lo, which can overflow
    wa = weights * a
    seen = {}

    def modular_and_slope(k: float) -> tuple[float, float]:
        s = math.exp(-1.0 - k)
        fy, dfy = sloped(a * s)
        seen[k] = out = (_finite_sum(weights, fy) - base, -s * _dot(wa, dfy))
        return out

    k = lower = -1.0 - math.log(max(start, 1.0))
    tol = _NEWTON_TOL / -lower
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_RUNS):
            k = decreasing_root(modular_and_slope, target - base, k, modular_and_slope(k), lower, -1.0, tol)
            value, slope = seen[k]
            if math.isfinite(value) and -math.inf < slope < 0.0:
                k += (target - base - value) / slope
            r = max((1.0 + 0.5 * _REL_TOL) * math.exp(1.0 + k) * sup / level, math.ulp(0.0))
            if _finite_sum(weights, F(vals / r)) <= target:
                return r
            k, tol = math.log(r / sup * level) - 1.0, _REL_TOL / -lower
    raise InvariantError(f"{what}: no radius brings the modular down to {target}")


@dataclass(frozen=True)
class YoungFunction:
    """A conjugate pair (Phi, Phi_conj) with its generating derivative pair.

    ``phi`` is the right derivative of Phi on the nonnegative axis,
    ``phi_inv`` its inverse and ``dphi_inv`` the derivative of ``phi_inv``
    (the dual-norm slope); ``strict`` records whether phi is strictly
    increasing, which the dual-norm stationarity solve requires.
    """

    tag: str
    Phi: Callable[[np.ndarray], np.ndarray]
    Phi_conj: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    phi_inv: Callable[[np.ndarray], np.ndarray]
    dphi_inv: Callable[[np.ndarray], np.ndarray]
    strict: bool = True

    def __post_init__(self) -> None:
        """Solve ``_unit_level``, the c > 0 with Phi(c) = 1 or 0.0 when there is none: the reciprocal gauge of the
        constant 1 under a point mass, bracketed by the powers of two from 2**-1074 to 2**1023, read at once."""
        ys = np.ldexp(1.0, np.arange(-1074, 1024))
        with np.errstate(over="ignore", invalid="ignore"):
            reach = ~(self.Phi(ys) < 1.0)
        level, one, sloped = 0.0, np.ones(1), lambda y: (self.Phi(y), self.phi(y))
        if reach[-1] and not reach[0]:
            level = 1.0 / _gauge(one, self.Phi, sloped, one, 1.0, ys[np.argmax(reach) - 1], 2.0, self.tag)
        object.__setattr__(self, "_unit_level", level)


def _phi_a_sloped(x):  # Phi_a(x) and its slope log1p(x) for x >= 0 from one log1p, for the Luxemburg gauge
    log1p = np.log1p(x)
    return (1.0 + x) * log1p - x, log1p


def _phi_a(x):
    return _phi_a_sloped(np.abs(np.asarray(x, dtype=float)))[0]


def _phi_a_conj(y):
    y = np.abs(np.asarray(y, dtype=float))
    return np.expm1(y) - y


def _phi_b_sloped(x):  # Phi_b(x) and its slope arcsinh(x) for x >= 0 from one arcsinh
    asinh = np.arcsinh(x)
    return x * asinh - np.sqrt(1.0 + x * x) + 1.0, asinh


def _phi_b(x):
    return _phi_b_sloped(np.abs(np.asarray(x, dtype=float)))[0]


# The dual gauges' F(y) = Phi(phi_inv(y)) and slope y * dphi_inv(y) for y >= 0, each from one expm1 z = e**y - 1
def _dual_a_sloped(y):  # Phi_a(expm1(y)) = (1 + z) * y - z, slope y * e**y
    z = np.expm1(y)
    e = 1.0 + z
    return e * y - z, y * e


def _dual_b_sloped(y):  # Phi_b(sinh(y)) = y * sinh(y) - (cosh(y) - 1), slope y * cosh(y)
    z = np.expm1(y)
    e = 1.0 + z
    # sinh(y) = z (1 + e) / 2e, cosh(y) - 1 = z**2 / 2e: no cancellation near 0, and no overflow before y * z
    return z / (2.0 * e) * (y * (1.0 + e) - z), 0.5 * y * (e + 1.0 / e)


def _cosh_minus_one(y):
    return np.cosh(np.asarray(y, dtype=float)) - 1.0


def _phi_c(x):
    x = np.abs(np.asarray(x, dtype=float))
    return x * np.log(np.maximum(x, 1.0)) - np.maximum(x - 1.0, 0.0)


def _phi_c_conj(y):
    return np.expm1(np.abs(np.asarray(y, dtype=float)))


def _half_square(x):
    x = np.asarray(x, dtype=float)
    return 0.5 * x * x


def _identity(u):
    return np.asarray(u, dtype=float)


_PAIRS: dict[str, YoungFunction] = {
    "a": YoungFunction("a", _phi_a, _phi_a_conj, np.log1p, np.expm1, np.exp),
    "b": YoungFunction("b", _phi_b, _cosh_minus_one, np.arcsinh, np.sinh, np.cosh),
    "c": YoungFunction(
        "c", _phi_c, _phi_c_conj, lambda u: np.log(np.maximum(np.asarray(u, dtype=float), 1.0)), np.exp, np.exp, strict=False
    ),
    "two": YoungFunction("two", _half_square, _half_square, _identity, _identity, np.ones_like),
    "cosh_minus_one": YoungFunction(
        "cosh_minus_one", _cosh_minus_one, _phi_b, np.sinh, np.arcsinh, lambda y: 1.0 / np.sqrt(1.0 + np.square(y))
    ),
}

YOUNG_TAGS = tuple(_PAIRS)


def young_pair(tag: str) -> YoungFunction:
    try:
        return _PAIRS[tag]
    except KeyError:
        raise InvariantError(f"unknown Young pair tag {tag!r}; choose one of {YOUNG_TAGS}") from None


def validate_young_pair(yf: YoungFunction) -> None:
    """Spot-check the Young-function contract on 49 points of [-6, 6] and on -30 and 30.

    Verifies Phi(0) = 0, evenness, midpoint convexity of both conjugates and
    the Young inequality |xy| <= Phi(x) + Phi_conj(y), to 1e-12, and ``dphi_inv``
    against a central difference of ``phi_inv`` at x >= 0, to 1e-6; raises on violation.
    """
    xs = np.concatenate([np.linspace(-6.0, 6.0, 49), [-30.0, 30.0]])
    tol = 1e-12
    if abs(float(yf.Phi(np.zeros(1))[0])) > tol or abs(float(yf.Phi_conj(np.zeros(1))[0])) > tol:
        raise InvariantError(f"pair {yf.tag!r}: Phi(0) must vanish")
    for fn in (yf.Phi, yf.Phi_conj):
        vals = fn(xs)
        if np.max(np.abs(vals - fn(-xs))) > tol * np.maximum(1.0, np.max(np.abs(vals))):
            raise InvariantError(f"pair {yf.tag!r}: not even")
        mid = fn((xs[:-1] + xs[1:]) / 2.0)
        if np.any(mid > (vals[:-1] + vals[1:]) / 2.0 + 1e-10):
            raise InvariantError(f"pair {yf.tag!r}: midpoint convexity fails")
    gx, gy = np.meshgrid(xs, xs)
    lhs = np.abs(gx * gy)
    rhs = yf.Phi(gx) + yf.Phi_conj(gy)
    if np.any(lhs > rhs * (1.0 + 1e-12) + 1e-10):
        raise InvariantError(f"pair {yf.tag!r}: Young inequality fails on the grid")
    ys = xs[xs >= 0.0]
    h = 1e-5 * np.maximum(1.0, ys)
    central = (yf.phi_inv(ys + h) - yf.phi_inv(ys - h)) / (2.0 * h)
    if np.any(np.abs(yf.dphi_inv(ys) - central) > 1e-6 * np.maximum(1.0, np.abs(central))):
        raise InvariantError(f"pair {yf.tag!r}: dphi_inv is not the derivative of phi_inv")


def _jensen_gauge(p: Density, F: Callable, sloped: Callable, abs_vals: np.ndarray, level: float, what: str) -> float:
    """The gauge of E_p[F(|v|/r)] <= 1, F(level) = 1: by Jensen, at most 1 at s = level / max|v|, at least at level / E_p|v|."""
    sup = _max(abs_vals)
    if not (0.0 < level < math.inf and sup < math.inf):
        raise InvariantError(f"{what}: Phi does not cross 1 on (0, inf), or a value is not finite")
    return _gauge(p.prob, F, sloped, abs_vals, 1.0, level, 1.0 / _dot(p.prob, abs_vals / sup), what)


def luxemburg_norm(p: Density, u, Phi: YoungFunction) -> float:
    """Gauge of the unit ball {E_p[Phi(u)] <= 1}; zero for u identically zero."""
    abs_vals = np.abs(values_on(p.base, u))
    if _max(abs_vals) == 0.0:
        return 0.0
    sloped = {_phi_a: _phi_a_sloped, _phi_b: _phi_b_sloped}.get(Phi.Phi, lambda y: (Phi.Phi(y), Phi.phi(y)))
    return _jensen_gauge(p, Phi.Phi, sloped, abs_vals, Phi._unit_level, f"Luxemburg norm diverges for tag {Phi.tag!r}")


def dual_norm(p: Density, v, Phi: YoungFunction) -> float:
    """sup { E_p[uv] : E_p[Phi(u)] <= 1 }, solved through the stationarity condition.

    At the optimum the multiplier lam > 0 satisfies u = phi_inv(|v|/lam) signwise
    and the constraint E_p[Phi(phi_inv(|v|/lam))] = 1 is active; lam is its
    gauge, with slope y * dphi_inv(y) and unit level phi(c), Phi(c) = 1.
    """
    if not Phi.strict:
        raise InvariantError(f"dual norm needs a strictly increasing phi; tag {Phi.tag!r} is flat near zero")
    abs_vals = np.abs(values_on(p.base, v))
    if _max(abs_vals) == 0.0:
        return 0.0
    level = float(Phi.phi(np.array([Phi._unit_level]))[0])
    sloped = {(_phi_a, np.expm1): _dual_a_sloped, (_phi_b, np.sinh): _dual_b_sloped}.get(
        (Phi.Phi, Phi.phi_inv), lambda y: (Phi.Phi(Phi.phi_inv(y)), y * Phi.dphi_inv(y))
    )
    F = lambda y: sloped(y)[0]  # noqa: E731
    lam = _jensen_gauge(p, F, sloped, abs_vals, level, f"dual norm diverges for tag {Phi.tag!r}")
    return _dot(p.prob * abs_vals, Phi.phi_inv(abs_vals / lam))  # E_p[u v], u = sign(v) phi_inv(|v| / lam)


@dataclass(frozen=True, init=False, eq=False)
class WalshSpectrum:
    """Character expansion of a function on an n-site boolean space, in two read-only arrays.

    ``masks`` (int64, increasing; bit k set: site k is in the monomial) and ``values`` (float64,
    zeros kept) hold the monomials and coefficients; ``coeffs``, the read-only mapping built on
    first access, is also what the constructor takes: integer masks in [0, 2**n), finite values.
    """

    n: int
    masks: np.ndarray
    values: np.ndarray

    def __init__(self, n: int, coeffs: Mapping[int, float]):
        for mask, c in coeffs.items():
            if not isinstance(mask, (int, np.integer)) or not math.isfinite(c):
                raise InvariantError(f"mask {mask!r} with coefficient {c!r}: masks must be integers, coefficients finite")
            if not 0 <= mask < (1 << n):
                raise InvariantError(f"mask {mask} out of range for n={n}")
        masks = sorted(coeffs)
        vars(self).update(n=n, masks=_frozen_array(masks, np.int64), values=_frozen_array([coeffs[k] for k in masks]))

    @classmethod
    def _from_arrays(cls, n: int, masks: np.ndarray, values: np.ndarray) -> WalshSpectrum:
        """Adopt arrays of sorted, distinct, in-range masks and finite values, unchecked, and make them read-only."""
        spec = cls.__new__(cls)
        masks.flags.writeable = values.flags.writeable = False
        vars(spec).update(n=n, masks=masks, values=values)
        return spec

    @cached_property
    def coeffs(self) -> Mapping[int, float]:
        return MappingProxyType(dict(zip(self.masks.tolist(), self.values.tolist())))

    def __eq__(self, other):
        return isinstance(other, WalshSpectrum) and self.n == other.n and self.coeffs == other.coeffs


def _fwht(a: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly with kernel (-1)**popcount(i & j); overwrites float ``a``.

    Constant-geometry stages: each streams the sums, then the differences, of the even and odd entries
    into the two halves of the other array.  The stages ping-pong between ``a`` and one buffer, and the
    array the last stage wrote is returned.  Bit 0 is combined first, as even + odd and even - odd, so
    every output is bitwise the textbook butterfly's.
    """
    src, dst, half = a, np.empty_like(a), a.size // 2
    for _ in range(a.size.bit_length() - 1):
        np.add(src[0::2], src[1::2], out=dst[:half])
        np.subtract(src[0::2], src[1::2], out=dst[half:])
        src, dst = dst, src
    return src


@cache
def _dense_masks(n: int) -> np.ndarray:
    """The masks 0 .. 2**n - 1 of a dense n-site spectrum: one read-only array shared by all of them."""
    masks = np.arange(1 << n, dtype=np.int64)
    masks.flags.writeable = False
    return masks


def walsh_transform(u: RandomVariable) -> WalshSpectrum:
    """Exact character coefficients of u on a boolean measure, zero coefficients dropped."""
    n = u.base.n_sites
    if n is None:
        raise InvariantError("walsh_transform needs a boolean base measure")
    size, vals = float(u.base.size), u.values
    # every coefficient is an average, so |c| <= max|u|, but the butterfly's sums reach size * max|u|:
    # past DBL_MAX / size scale first (exact, size being a power of two); below it divide last,
    # which rounds a subnormal coefficient once
    if max(_max(vals), -_min(vals)) > sys.float_info.max / size:
        coeffs = _fwht(vals / size)
    else:
        coeffs = _fwht(vals.copy())
        coeffs /= size
    if coeffs.all():  # a dense spectrum adopts the butterfly's output
        return WalshSpectrum._from_arrays(n, _dense_masks(n), coeffs)
    nz = np.flatnonzero(coeffs != 0.0)
    return WalshSpectrum._from_arrays(n, nz, coeffs[nz])


def inverse_walsh(spec: WalshSpectrum, measure: Measure) -> RandomVariable:
    """Reconstruct u(x) as the sum of coeff * monomial over the spectrum."""
    if measure.n_sites != spec.n:
        raise InvariantError("measure does not match the spectrum size")
    if spec.masks.size == measure.size:  # every mask present, in order: copy instead of scattering
        dense = spec.values.copy()
    else:
        dense = np.zeros(measure.size)
        dense[spec.masks] = spec.values
    dense = _fwht(dense)
    dense.setflags(write=False)
    return RandomVariable(measure, dense)


def _gf2_kernel_basis(masks: Sequence[int]) -> list[int]:
    """Basis of subsets of ``masks`` whose bitwise XOR vanishes.

    Each basis element is an integer whose bit j selects masks[j].
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel: list[int] = []
    for j, mask in enumerate(masks):
        vec, combo = int(mask), 1 << j
        while vec:
            lead = vec.bit_length() - 1
            if lead not in pivots:
                break
            pvec, pcombo = pivots[lead]
            vec ^= pvec
            combo ^= pcombo
        if vec:
            pivots[vec.bit_length() - 1] = (vec, combo)
        else:
            kernel.append(combo)
    return kernel


def _gf2_rank_above(masks: Iterable[int], limit: int) -> bool:
    """Whether the masks span more than ``limit`` dimensions over GF(2).

    Only the pivots are kept, and the scan stops at pivot ``limit + 1``, so it
    reads at most 2**limit + 1 distinct masks whatever the spectrum's size.
    """
    pivots: dict[int, int] = {}
    for mask in masks:
        vec = int(mask)
        while vec and vec.bit_length() - 1 in pivots:
            vec ^= pivots[vec.bit_length() - 1]
        if vec:
            pivots[vec.bit_length() - 1] = vec
            if len(pivots) > limit:
                return True
    return False


# enumeration guards: the parity path's two tables hold 2**(m/2) entries, the class path 2**r
_MAX_SUPPORT = 24
_MAX_CLASS_RANK = 12


def _xor_span(basis: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Every XOR combination of ``basis`` with the parity of its bit count, built by doubling."""
    combos = np.zeros(1, dtype=np.int64)
    odd = np.zeros(1, dtype=bool)
    for b in basis:
        combos = np.concatenate([combos, combos ^ b])
        odd = np.concatenate([odd, odd ^ bool(bin(b).count("1") & 1)])
    return combos, odd


def _factor_table(ch: np.ndarray, sh: np.ndarray) -> np.ndarray:
    """table[x] = product over j of (sh[j] if bit j of x is set else ch[j])."""
    table = np.ones(1)
    for c, s in zip(ch, sh):
        table = np.concatenate([table * c, table * s])
    return table


def _parity_class_terms(coefs: np.ndarray, kernel: Sequence[int], t: float) -> tuple[np.ndarray, int]:
    """The parity-class terms of E[exp(t*u)], one per kernel subset, and how many subsets are even.

    Expanding exp(t*u) factorwise over the spectrum support leaves exactly the
    subsets whose monomial product is constant, which are the solutions of an
    XOR system over the support masks.  Each such subset contributes the
    product of sinh(t*c) over its members and cosh(t*c) over the rest; that
    product is read from two tables, one per half of the support.  The 2**k
    subsets of the k-dimensional kernel (k <= 12 on this path) come even-sized
    first, the empty subset, whose term is the product of every cosh(t*c), at 0.
    """
    tc = t * coefs
    ch, sh = np.cosh(tc), np.sinh(tc)
    half = coefs.size // 2
    low_table = _factor_table(ch[:half], sh[:half])
    high_table = _factor_table(ch[half:], sh[half:])
    subsets, odd = _xor_span(kernel)
    subsets = subsets[np.argsort(odd, kind="stable")]
    terms = low_table[subsets & ((1 << half) - 1)] * high_table[subsets >> half]
    return terms, int(np.count_nonzero(~odd))


def _uniform_mean(spec: WalshSpectrum, t: float, phi: bool) -> float:
    """E[exp(t*u)], or E[cosh(t*u) - 1] when ``phi``, under the uniform density.

    If the m support masks have GF(2) rank r < m - r, average over the 2**r equally likely classes
    of u: a kernel element's top bit is a dependent mask, its character the product of its other bits'.
    cosh(x) - 1 is taken as 2*sinh(x/2)**2, which keeps its relative accuracy as x goes to 0.
    """
    keep = spec.values != 0.0
    coefs, masks = spec.values[keep], spec.masks[keep]
    # m <= 24 bounds the parity path; past it r <= 12 < m - r, so the class path is taken.
    # Checked on the pivots alone, before the kernel's m-bit combinations are built.
    if coefs.size > _MAX_SUPPORT and _gf2_rank_above(masks, _MAX_CLASS_RANK):
        raise InvariantError(
            f"spectrum support {coefs.size} exceeds the enumeration guard {_MAX_SUPPORT}"
            f" and its rank the class enumeration guard {_MAX_CLASS_RANK}"
        )
    kernel = _gf2_kernel_basis(masks.tolist())
    if 2 * len(kernel) <= coefs.size:
        terms, n_even = _parity_class_terms(coefs, kernel, t)
        if not phi:
            return float(terms[:n_even].sum()) + float(terms[n_even:].sum())
        # the empty subset's term less 1: prod(1 + 2*sinh(t*c/2)**2) - 1
        head = math.expm1(float(np.sum(np.log1p(2.0 * np.sinh(0.5 * t * coefs) ** 2))))
        return head + float(terms[1:n_even].sum())
    combos = {e.bit_length() - 1: e for e in kernel}
    free = [j for j in range(coefs.size) if j not in combos]
    where = [sum(1 << b for b, i in enumerate(free) if combos.get(j, 1 << j) >> i & 1) for j in range(coefs.size)]
    classes = np.zeros(1 << len(free))
    classes[where] = coefs
    tu = t * _fwht(classes)
    return float(np.mean(2.0 * np.sinh(0.5 * tu) ** 2 if phi else np.exp(tu)))


def boolean_mgf(spec: WalshSpectrum, t: float) -> float:
    """Moment generating function E[exp(t*u)] under the uniform density, by parity classes."""
    return _uniform_mean(spec, t, phi=False)


def boolean_phi_moment(spec: WalshSpectrum, t: float) -> float:
    """E_p[cosh(t*u) - 1] under the uniform density: the symmetrized MGF, sinh being odd."""
    return _uniform_mean(spec, t, phi=True)


@dataclass(frozen=True)
class ProfilePoint:
    alpha: float
    value: float

    @property
    def divergent(self) -> bool:
        return not math.isfinite(self.value)


def steepness_profile(
    p: Density,
    u,
    Phi: YoungFunction,
    alphas: Iterable[float],
) -> list[ProfilePoint]:
    """Tabulate alpha -> E_p[Phi(alpha*u)] on the support of p.

    Non-finite sums are reported as divergent points.  On a quadrature grid
    the table is only as trustworthy as the grid resolves the integrand; the
    half-line family with closed form lives in :func:`nonsteep_profile`.
    Every alpha must be finite.
    """
    vals = values_on(p.base, u)
    out = []
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise InvariantError(f"alpha must be finite, got {alpha}")
        with np.errstate(over="ignore"):
            ev = Phi.Phi(alpha * vals)
        out.append(ProfilePoint(float(alpha), _finite_sum(p.prob, ev)))
    return out


def nonsteep_profile(a: float, alphas: Iterable[float]) -> list[ProfilePoint]:
    """Closed-form steepness table for the half-line density (a+x)**(-3/2) e**(-x).

    For u(x) = x and Phi = cosh - 1 the value at alpha is
    (C(1-alpha, a) + C(1+alpha, a)) / (2 C(1, a)) - 1 with C the half-line
    Laplace-type integral; it is finite exactly on [-1, 1] and infinite
    outside, so the effective domain edge carries a finite value.  a lies in
    (0, 1e300] and every alpha must be finite.
    """
    if not 0 < a <= 1e300:
        raise InvariantError(f"a must lie in (0, 1e300], got {a}")
    # C(theta, a) = C(theta*a, 1)/sqrt(a) and the 1/sqrt(a) cancels in the ratio; taken at
    # a = 1, where they are about 1/(theta*a), the C values stay normal numbers up to a = 1e300
    # (C(1, a) itself turns subnormal from a ~ 1e205)
    denom = 2.0 * c_integral(a, 1.0)
    out = []
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise InvariantError(f"alpha must be finite, got {alpha}")
        num = c_integral((1.0 - abs(alpha)) * a, 1.0) + c_integral((1.0 + abs(alpha)) * a, 1.0)
        value = num / denom - 1.0 if math.isfinite(num) else math.inf
        out.append(ProfilePoint(float(alpha), value))
    return out


def nonsteep_density(a: float, measure: Measure) -> Density:
    """The half-line density proportional to (a+x)**(-3/2) e**(-x) on a grid."""
    if a <= 0:
        raise InvariantError("a must be positive")
    x = measure.points.astype(float)
    return Density.from_unnormalized(measure, (a + x) ** -1.5 * np.exp(-x))
