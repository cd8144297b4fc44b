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
import operator
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ._rootfind import decreasing_root
from .measures import (
    Density,
    InvariantError,
    Measure,
    RandomVariable,
    _all_finite,
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
    "YOUNG_TAGS",
    "luxemburg_norm",
    "dual_norm",
    "WalshSpectrum",
    "walsh_transform",
    "inverse_walsh",
    "boolean_mgf",
    "steepness_profile",
    "nonsteep_profile",
    "ProfilePoint",
]


# the gauges' relative tolerance, Newton's first stop (absolute in log s) and the most Newton runs
_REL_TOL, _NEWTON_TOL, _RUNS = 1e-14, 1e-7, 8


def _gauge(weights, sloped: Callable, vals, level: float, start_weights, norm: str, tag: str, base=0.0):
    """inf { r > 0 : sum(weights * F(vals / r)) <= base + 1 } for vals >= 0, a non-finite sum counting as +inf.

    The one front end of the three norms: 0.0 when every value is 0, ``InvariantError`` when ``level`` is not in
    (0, inf), a value is not finite or start = 1 / sum(start_weights * vals / max(vals)) overflows (the bracket).
    sloped(y) = (F(y), F'(y)) with F convex and increasing, and M(s) = sum(weights * F(s * vals)), s = 1/r, has
    M(lo) <= target <= M(start * lo), target = base + 1, lo = level / max(vals), and M(0) = base.  M is convex in
    log s too: Newton solves M - base = 1 in k = -1 - log(s / lo) from -1 - log(start), inside [-1 - log(start),
    -1], with slope -sum(weights * y * F'(y)), y = s * vals, and stops at a step below 1e-7, which it takes: by
    convexity that lands on or below the root.  The result is r there times 1 + rel_tol / 2, rel_tol = 1e-14,
    once one evaluation shows modular(result) <= target; otherwise Newton runs on from it to rel_tol.  So
    modular(result) <= target, and it is above the target at some r >= result * (1 - rel_tol).  Raises
    ``InvariantError(f"{norm} diverges for tag {tag!r}: ...")`` when 8 runs do not bring it down.
    """
    sup = _max(vals)
    if sup == 0.0:
        return 0.0
    what = f"{norm} diverges for tag {tag!r}"
    if not (0.0 < level < math.inf and sup < math.inf):
        raise InvariantError(f"{what}: Phi does not cross 1 on (0, inf), or a value is not finite")
    y = vals / sup
    start = 1.0 / max(_dot(start_weights, y), math.ulp(0.0))  # the sum is positive, but it can underflow
    if not start < math.inf:
        raise InvariantError(f"{norm} for tag {tag!r}: the gauge bracket overflows double precision")
    a = y * level  # s * vals at s = lo, formed without lo, which can overflow
    wa = weights * a
    target = base + 1.0

    def modular_and_slope(k: float) -> tuple[float, float]:
        s = math.exp(-1.0 - k)
        fy, dfy = sloped(a * s)
        return _finite_sum(weights, fy) - base, -s * _dot(wa, dfy)

    k = lower = -1.0 - math.log(max(start, 1.0))
    tol = _NEWTON_TOL / -lower
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_RUNS):
            k, (value, slope) = decreasing_root(modular_and_slope, 1.0, k, modular_and_slope(k), lower, -1.0, tol)
            if math.isfinite(value) and -math.inf < slope < 0.0:
                k += (1.0 - value) / slope
            r = max((1.0 + 0.5 * _REL_TOL) * math.exp(1.0 + k) * sup / level, math.ulp(0.0))
            if _finite_sum(weights, sloped(vals / r)[0]) <= target:
                return r
            k, tol = math.log(r / sup * level) - 1.0, _REL_TOL / -lower
    raise InvariantError(f"{what}: no radius brings the modular down to {target}")


@dataclass(frozen=True)
class YoungFunction:
    """A conjugate pair (Phi, Phi_conj) with the forms its two gauges evaluate.

    ``sloped(x)`` = (Phi(x), phi(x)) for x >= 0, phi the right derivative of Phi, is the Luxemburg gauge's.
    ``dual_sloped(y)`` = (Phi(phi_inv(y)), y * phi_inv'(y)) for y >= 0 is the dual gauge's, or None where phi
    is not strictly increasing, as the dual norm's stationarity solve needs.  ``unit_level`` is the c > 0
    with Phi(c) = 1, rounded so that Phi(c) <= 1 holds in floating point: it scales the Luxemburg norm's
    Jensen bracket, and ``unit_slope`` = phi(c), evaluated on first use and kept with the pair, the dual's.
    """

    tag: str
    Phi: Callable[[np.ndarray], np.ndarray]
    Phi_conj: Callable[[np.ndarray], np.ndarray]
    sloped: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    phi_inv: Callable[[np.ndarray], np.ndarray]
    dual_sloped: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None
    unit_level: float

    @cached_property
    def unit_slope(self) -> float:
        """phi(unit_level), the dual gauge's level: a constant of the pair, so it is evaluated once."""
        return float(self.sloped(np.array([self.unit_level]))[1][0])


def _magnitude(x) -> np.ndarray:
    """|x| with +-inf read as the largest double, where every public form overflows to inf without inf - inf."""
    return np.minimum(np.abs(np.asarray(x, dtype=float)), sys.float_info.max)


def _even(sloped: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """The even Young function x -> sloped(|x|)[0], which overflows to inf without a warning, at +-inf too."""

    def even(x):
        with np.errstate(over="ignore"):
            return sloped(_magnitude(x))[0]

    return even


def _sloped_a(x):  # (1 + x) log1p(x) - x, log1p(x)
    log1p = np.log1p(x)
    return (1.0 + x) * log1p - x, log1p


def _sloped_b(x):  # x arcsinh(x) - sqrt(1 + x**2) + 1, arcsinh(x)
    asinh = np.arcsinh(x)
    # sqrt(1 + x**2) is 1 + x at most, and x where x**2 overflows, as in _dual_cosh: never -inf
    return x * asinh - np.minimum(np.sqrt(1.0 + x * x), 1.0 + x) + 1.0, asinh


def _sloped_c(x):  # x log+(x) - (x - 1)+, log+(x)
    log_plus = np.log(np.maximum(x, 1.0))
    return x * log_plus - np.maximum(x - 1.0, 0.0), log_plus


def _sloped_two(x):  # x**2 / 2, x: also its own dual form, phi_inv being the identity
    return 0.5 * x * x, x


def _sloped_cosh(x):  # cosh(x) - 1, sinh(x)
    return np.cosh(x) - 1.0, np.sinh(x)


# (Phi(phi_inv(y)), y * phi_inv'(y)) for y >= 0; for a and b from one expm1 z = e**y - 1
def _dual_a_sloped(y):  # Phi_a(expm1(y)) = (1 + z) * y - z, slope y * e**y
    z = np.expm1(y)
    e = 1.0 + z
    return e * y - z, y * e


def _dual_b_sloped(y):  # Phi_b(sinh(y)) = y * sinh(y) - (cosh(y) - 1), slope y * cosh(y)
    z = np.expm1(y)
    e = 1.0 + z
    # sinh(y) = z (1 + e) / 2e, cosh(y) - 1 = z**2 / 2e: no cancellation near 0, and no overflow before y * z
    return z / (2.0 * e) * (y * (1.0 + e) - z), 0.5 * y * (e + 1.0 / e)


def _dual_cosh(y):  # cosh(arcsinh(y)) - 1 = y**2 / (1 + h), slope y / h, h = sqrt(1 + y**2): no cancellation near 0
    h = np.minimum(np.sqrt(1.0 + y * y), 1.0 + y)  # = y where y**2 overflows; np.hypot costs twice as much
    return y * (y / (1.0 + h)), y / h


@np.errstate(over="ignore")  # as in _even
def _phi_a_conj(y):
    y = _magnitude(y)
    return np.expm1(y) - y


@np.errstate(over="ignore")
def _phi_c_conj(y):
    return np.expm1(np.abs(np.asarray(y, dtype=float)))


# unit levels: e - 1, e and arccosh 2 in closed form; for two math.nextafter(math.sqrt(2), 0), as Phi(sqrt(2))
# rounds to 1 + 2**-52; for b the root of c * arcsinh(c) = sqrt(1 + c**2), 1.50887956153831992893...
_PAIRS: dict[str, YoungFunction] = {
    tag: YoungFunction(tag, *forms)
    for tag, forms in {
        "a": (_even(_sloped_a), _phi_a_conj, _sloped_a, np.expm1, _dual_a_sloped, math.e - 1.0),
        "b": (_even(_sloped_b), _even(_sloped_cosh), _sloped_b, np.sinh, _dual_b_sloped, 1.50887956153832),
        "c": (_even(_sloped_c), _phi_c_conj, _sloped_c, np.exp, None, math.e),
        "two": (_even(_sloped_two), _even(_sloped_two), _sloped_two, np.positive, _sloped_two, 1.414213562373095),
        "cosh_minus_one": (_even(_sloped_cosh), _even(_sloped_b), _sloped_cosh, np.arcsinh, _dual_cosh, math.acosh(2)),
    }.items()
}

YOUNG_TAGS = tuple(_PAIRS)


def young_pair(tag: str) -> YoungFunction:
    try:
        return _PAIRS[tag]
    except KeyError:
        raise InvariantError(f"unknown Young pair tag {tag!r}; choose one of {YOUNG_TAGS}") from None


def luxemburg_norm(p: Density, u, Phi: YoungFunction) -> float:
    """Gauge of the unit ball {E_p[Phi(u)] <= 1}, zero for u = 0; by Jensen 1/r is in [c / max|u|, c / E_p|u|]."""
    vals = np.abs(values_on(p.base, u))
    return _gauge(p.prob, Phi.sloped, vals, Phi.unit_level, p.prob, "Luxemburg norm", Phi.tag)


def dual_norm(p: Density, v, Phi: YoungFunction) -> float:
    """sup { E_p[uv] : E_p[Phi(u)] <= 1 }, solved through the stationarity condition.

    At the optimum the multiplier lam > 0 satisfies u = phi_inv(|v|/lam) signwise
    and the constraint E_p[Phi(phi_inv(|v|/lam))] = 1 is active; lam is its
    gauge, evaluated by ``dual_sloped``, with unit level phi(c), Phi(c) = 1, in
    the Luxemburg norm's Jensen bracket (the pair's ``unit_slope``).
    """
    if Phi.dual_sloped is None:
        raise InvariantError(f"dual norm needs a strictly increasing phi; tag {Phi.tag!r} is flat near zero")
    abs_vals = np.abs(values_on(p.base, v))
    lam = _gauge(p.prob, Phi.dual_sloped, abs_vals, Phi.unit_slope, p.prob, "dual norm", Phi.tag)
    # E_p[u v], u = sign(v) phi_inv(|v| / lam); lam = 0 for v = 0
    return _dot(p.prob * abs_vals, Phi.phi_inv(abs_vals / lam)) if lam else 0.0


@dataclass(frozen=True, init=False, eq=False)
class WalshSpectrum:
    """Character expansion of a function on an n-site boolean space, in two read-only arrays.

    ``masks`` (int64, increasing; bit k set: site k is in the monomial) and ``values`` (float64,
    zeros kept) hold the monomials and coefficients; ``coeffs``, the read-only mapping built on
    first access, is also what the constructor takes: an integer n in 0 .. 63, integer masks in
    [0, 2**n), finite values.
    """

    n: int
    masks: np.ndarray
    values: np.ndarray

    def __init__(self, n: int, coeffs: Mapping[int, float]):
        n = operator.index(n)  # a float raises TypeError, as in boolean_site
        if not 0 <= n <= 63:
            raise InvariantError(f"n = {n} is not in 0 .. 63: the masks are int64")
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


# enumeration guard: the class path averages 2**r classes, r <= 12; the parity tables hold 2**(m/2), m <= 24
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


def _parity_class_terms(coefs: np.ndarray, kernel: Sequence[int], t: float) -> tuple[np.ndarray, np.ndarray]:
    """The parity-class terms of E[exp(t*u)], one per kernel subset: those of the even subsets, then the odd.

    Expanding exp(t*u) factorwise over the spectrum support leaves exactly the
    subsets whose monomial product is constant, which are the solutions of an
    XOR system over the support masks.  Each such subset contributes the
    product of sinh(t*c) over its members and cosh(t*c) over the rest; that
    product is read from two tables, one per half of the support, for each of
    the 2**k subsets of the k-dimensional kernel (k <= 12 on this path).
    """
    tc = t * coefs
    ch, sh = np.cosh(tc), np.sinh(tc)
    half = coefs.size // 2
    low_table = _factor_table(ch[:half], sh[:half])
    high_table = _factor_table(ch[half:], sh[half:])
    subsets, odd = _xor_span(kernel)
    terms = low_table[subsets & ((1 << half) - 1)] * high_table[subsets >> half]
    return terms[~odd], terms[odd]


def _uniform_mean(masks: np.ndarray, values: np.ndarray, t: float) -> float:
    """E[exp(t*u)] under the uniform density, u's spectrum given, t finite.

    One GF(2) elimination of the m support masks gives the kernel dimension k.  The parity path sums 2**k terms
    when 2k <= m <= 24; else, if the rank r = m - k is at most 12, u is averaged over its 2**r equally likely classes:
    a kernel element's top bit is a dependent mask, its character the product of its other bits'.  Any other
    spectrum is refused; past 2**12 masks without the elimination, as m distinct masks span >= log2(m) dimensions.
    An overflow is reported as the divergent value inf.
    """
    if not math.isfinite(t):
        raise InvariantError(f"t must be finite, got {t}")
    keep = values != 0.0
    coefs, masks = values[keep], masks[keep]
    m = coefs.size
    # past 2**12 masks the elimination is skipped, and the empty kernel's rank m refuses
    kernel = _gf2_kernel_basis(masks.tolist()) if m <= 1 << _MAX_CLASS_RANK else []
    parity = 2 * len(kernel) <= m <= 2 * _MAX_CLASS_RANK
    if not parity and m - len(kernel) > _MAX_CLASS_RANK:
        raise InvariantError(
            f"spectrum support {m} exceeds the enumeration guard {2 * _MAX_CLASS_RANK}"
            f" and its rank the class enumeration guard {_MAX_CLASS_RANK}"
        )
    with np.errstate(over="ignore"):
        if parity:
            even, odd = _parity_class_terms(coefs, kernel, t)
            mean = float(even.sum()) + float(odd.sum())
            if math.isnan(mean):  # terms of both signs overflowed
                raise InvariantError(f"parity-class terms overflow with both signs at t = {t}")
            return mean
        combos = {e.bit_length() - 1: e for e in kernel}
        free = [j for j in range(coefs.size) if j not in combos]
        where = [sum(1 << b for b, i in enumerate(free) if combos.get(j, 1 << j) >> i & 1) for j in range(coefs.size)]
        classes = np.zeros(1 << len(free))
        classes[where] = coefs
        return float(np.mean(np.exp(t * _fwht(classes))))


def boolean_mgf(spec: WalshSpectrum, t: float) -> float:
    """E[exp(t*u)] under the uniform density, by parity classes, mask 0's coefficient c_0 taken out as exp(t*c_0)."""
    head = int(spec.masks.size > 0 and spec.masks[0] == 0)  # the masks increase: mask 0 comes first
    mean = _uniform_mean(spec.masks[head:], spec.values[head:], t)
    with np.errstate(over="ignore"):
        value = float(np.exp(t * spec.values[:head].sum())) * mean  # times exp(0) = 1 without mask 0
    if math.isnan(value):
        raise InvariantError(f"exp(t * c_0) and the MGF of the other characters over- and underflow at t = {t}")
    return value


class ProfilePoint(NamedTuple):
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
    Every alpha and every value of u must be finite.
    """
    vals = values_on(p.base, u)
    if not _all_finite(vals):
        raise InvariantError("steepness profile: a value of u is not finite")
    out = []
    for alpha in alphas:
        if not math.isfinite(alpha):
            raise InvariantError(f"alpha must be finite, got {alpha}")
        with np.errstate(over="ignore", invalid="ignore"):  # alpha * u may overflow, and a zero prob meet inf
            out.append(ProfilePoint(float(alpha), _finite_sum(p.prob, Phi.Phi(alpha * vals))))
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
