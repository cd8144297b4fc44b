"""Young functions, Luxemburg and dual norms, boolean Walsh machinery, steepness probes.

The Young pairs implemented here are the classical conjugate families built
from phi(u) = log(1+u), arcsinh(u), log+(u) and the identity, plus
cosh(x) - 1.  The Luxemburg norm of u under a density p is the gauge

    inf { r > 0 : E_p[Phi(u/r)] <= 1 },

computed as the root of the monotone map r -> E_p[Phi(u/r)] by the shared
guarded Illinois false position of ``_rootfind``.  Divergent
integrals are reported as values (math.inf), never silently clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._rootfind import BracketError, decreasing_root
from .measures import (
    Density,
    InvariantError,
    Measure,
    RandomVariable,
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


@dataclass(frozen=True)
class YoungFunction:
    """A conjugate pair (Phi, Phi_conj) with its generating derivative pair.

    ``phi`` is the right derivative of Phi on the nonnegative axis and
    ``phi_inv`` its inverse; ``strict`` records whether phi is strictly
    increasing, which the dual-norm stationarity solve requires.
    """

    tag: str
    Phi: Callable[[np.ndarray], np.ndarray]
    Phi_conj: Callable[[np.ndarray], np.ndarray]
    phi: Callable[[np.ndarray], np.ndarray]
    phi_inv: Callable[[np.ndarray], np.ndarray]
    strict: bool = True


def _phi_a(x):
    x = np.abs(np.asarray(x, dtype=float))
    return (1.0 + x) * np.log1p(x) - x


def _phi_a_conj(y):
    y = np.abs(np.asarray(y, dtype=float))
    return np.expm1(y) - y


def _phi_b(x):
    x = np.abs(np.asarray(x, dtype=float))
    return x * np.arcsinh(x) - np.sqrt(1.0 + x * x) + 1.0


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


_PAIRS: dict[str, YoungFunction] = {
    "a": YoungFunction("a", _phi_a, _phi_a_conj, np.log1p, np.expm1),
    "b": YoungFunction("b", _phi_b, _cosh_minus_one, np.arcsinh, np.sinh),
    "c": YoungFunction(
        "c",
        _phi_c,
        _phi_c_conj,
        lambda u: np.log(np.maximum(np.asarray(u, dtype=float), 1.0)),
        np.exp,
        strict=False,
    ),
    "two": YoungFunction("two", _half_square, _half_square, lambda u: np.asarray(u, dtype=float), lambda v: np.asarray(v, dtype=float)),
    "cosh_minus_one": YoungFunction("cosh_minus_one", _cosh_minus_one, _phi_b, np.sinh, np.arcsinh),
}

YOUNG_TAGS = tuple(_PAIRS)


def young_pair(tag: str) -> YoungFunction:
    try:
        return _PAIRS[tag]
    except KeyError:
        raise InvariantError(f"unknown Young pair tag {tag!r}; choose one of {YOUNG_TAGS}") from None


def validate_young_pair(
    yf: YoungFunction,
    xs: np.ndarray | None = None,
    ys: np.ndarray | None = None,
    tol: float = 1e-12,
) -> None:
    """Spot-check the Young-function contract on a grid.

    Verifies Phi(0) = 0, evenness, midpoint convexity of both conjugates and
    the Young inequality |xy| <= Phi(x) + Phi_conj(y); raises on violation.
    """
    if xs is None:
        xs = np.concatenate([np.linspace(-6.0, 6.0, 49), [-30.0, 30.0]])
    if ys is None:
        ys = xs
    if abs(float(yf.Phi(np.zeros(1))[0])) > tol or abs(float(yf.Phi_conj(np.zeros(1))[0])) > tol:
        raise InvariantError(f"pair {yf.tag!r}: Phi(0) must vanish")
    for fn in (yf.Phi, yf.Phi_conj):
        vals = fn(xs)
        if np.max(np.abs(vals - fn(-xs))) > tol * np.maximum(1.0, np.max(np.abs(vals))):
            raise InvariantError(f"pair {yf.tag!r}: not even")
        mid = fn((xs[:-1] + xs[1:]) / 2.0)
        if np.any(mid > (vals[:-1] + vals[1:]) / 2.0 + 1e-10):
            raise InvariantError(f"pair {yf.tag!r}: midpoint convexity fails")
    gx, gy = np.meshgrid(xs, ys)
    lhs = np.abs(gx * gy)
    rhs = yf.Phi(gx) + yf.Phi_conj(gy)
    if np.any(lhs > rhs * (1.0 + 1e-12) + 1e-10):
        raise InvariantError(f"pair {yf.tag!r}: Young inequality fails on the grid")


def _phi_expect(p: Density, vals: np.ndarray, Phi: YoungFunction, r: float) -> float:
    with np.errstate(over="ignore"):
        out = Phi.Phi(vals / r)
    total = float(p.prob @ out)
    return total if math.isfinite(total) else math.inf


def luxemburg_norm(p: Density, u, Phi: YoungFunction, rel_tol: float = 1e-14) -> float:
    """Gauge of the unit ball {E_p[Phi(u)] <= 1}; zero for u identically zero."""
    vals = values_on(p.base, u)
    sup = float(np.max(np.abs(vals)))
    if sup == 0.0:
        return 0.0
    try:
        return decreasing_root(lambda r: _phi_expect(p, vals, Phi, r), 1.0, sup, rel_tol=rel_tol)
    except BracketError as exc:
        raise InvariantError(f"Luxemburg norm diverges for tag {Phi.tag!r}: {exc}") from exc


def dual_norm(p: Density, v, Phi: YoungFunction, rel_tol: float = 1e-14) -> float:
    """sup { E_p[uv] : E_p[Phi(u)] <= 1 }, solved through the stationarity condition.

    At the optimum the multiplier lam > 0 satisfies u = phi_inv(|v|/lam) signwise
    and the constraint is active; lam is the root of that constraint, found by
    the shared root-finder.
    """
    if not Phi.strict:
        raise InvariantError(f"dual norm needs a strictly increasing phi; tag {Phi.tag!r} is flat near zero")
    vals = values_on(p.base, v)
    sup = float(np.max(np.abs(vals)))
    if sup == 0.0:
        return 0.0

    def constraint(lam: float) -> float:
        with np.errstate(over="ignore"):
            u = Phi.phi_inv(np.abs(vals) / lam)
            out = Phi.Phi(u)
        total = float(p.prob @ out)
        return total if math.isfinite(total) else math.inf

    lam = decreasing_root(constraint, 1.0, sup, rel_tol=rel_tol)
    u_opt = np.sign(vals) * Phi.phi_inv(np.abs(vals) / lam)
    return float(p.prob @ (u_opt * vals))


@dataclass(frozen=True)
class WalshSpectrum:
    """Sparse character expansion of a function on an n-site boolean space.

    ``coeffs`` maps an integer mask (bit k set means site k participates in
    the monomial) to the real coefficient of that monomial.
    """

    n: int
    coeffs: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))
        for mask in (min(self.coeffs, default=0), max(self.coeffs, default=0)):
            if not 0 <= mask < (1 << self.n):
                raise InvariantError(f"mask {mask} out of range for n={self.n}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(m for m, c in self.coeffs.items() if c != 0.0))


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterfly with kernel (-1)**popcount(i & j)."""
    a = np.array(values, dtype=float)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2 * h)
        top = a[:, :h] + a[:, h:]
        bot = a[:, :h] - a[:, h:]
        a = np.concatenate([top, bot], axis=1).reshape(-1)
        h *= 2
    return a


def walsh_transform(u: RandomVariable) -> WalshSpectrum:
    """Exact character coefficients of u on a boolean measure."""
    n = u.base.n_sites
    if n is None:
        raise InvariantError("walsh_transform needs a boolean base measure")
    coeffs = _fwht(u.values) / float(u.base.size)
    nz = np.flatnonzero(coeffs)
    return WalshSpectrum(n, dict(zip(nz.tolist(), coeffs[nz].tolist())))


def inverse_walsh(spec: WalshSpectrum, measure: Measure) -> RandomVariable:
    """Reconstruct u(x) as the sum of coeff * monomial over the spectrum."""
    if measure.n_sites != spec.n or measure.size != (1 << spec.n):
        raise InvariantError("measure does not match the spectrum size")
    dense = np.zeros(measure.size)
    count = len(spec.coeffs)
    dense[np.fromiter(spec.coeffs.keys(), dtype=np.int64, count=count)] = np.fromiter(
        spec.coeffs.values(), dtype=float, count=count
    )
    return RandomVariable(measure, _fwht(dense))


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


_MAX_SUPPORT = 24
_BLOCK_BITS = 14  # kernel subsets are enumerated in blocks of 2**14


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


def _parity_class_sums(spec: WalshSpectrum, t: float) -> tuple[float, float]:
    """Sums of the parity-class terms of E[exp(t*u)] over kernel subsets of even and of odd size.

    Expanding exp(t*u) factorwise over the spectrum support leaves exactly the
    subsets whose monomial product is constant, which are the solutions of an
    XOR system over the support masks.  Each such subset contributes the
    product of sinh(t*c) over its members and cosh(t*c) over the rest; that
    product is read from two tables, one per half of the support.  The 2**k
    subsets of a k-dimensional kernel are enumerated in blocks of
    2**_BLOCK_BITS, summed in a fixed order, so memory does not grow with k.
    """
    items = sorted((mask, c) for mask, c in spec.coeffs.items() if c != 0.0)
    m = len(items)
    if m > _MAX_SUPPORT:
        raise InvariantError(f"spectrum support {m} exceeds the enumeration guard {_MAX_SUPPORT}")
    kernel = _gf2_kernel_basis([mask for mask, _ in items])
    tc = t * np.array([c for _, c in items])
    ch, sh = np.cosh(tc), np.sinh(tc)
    half = m // 2
    low_bits = (1 << half) - 1
    low_table = _factor_table(ch[:half], sh[:half])
    high_table = _factor_table(ch[half:], sh[half:])
    block, block_odd = _xor_span(kernel[:_BLOCK_BITS])
    block = block[np.argsort(block_odd, kind="stable")]  # even subsets first
    n_even = int(np.count_nonzero(~block_odd))
    heads, heads_odd = _xor_span(kernel[_BLOCK_BITS:])
    even = odd = 0.0
    for head, head_odd in zip(heads.tolist(), heads_odd.tolist()):
        subsets = block ^ head
        terms = low_table[subsets & low_bits] * high_table[subsets >> half]
        first, rest = float(terms[:n_even].sum()), float(terms[n_even:].sum())
        # XOR with an odd head flips the parity of every subset in the block
        even += rest if head_odd else first
        odd += first if head_odd else rest
    return even, odd


def boolean_mgf(spec: WalshSpectrum, t: float) -> float:
    """Moment generating function E[exp(t*u)] under the uniform density, by parity classes."""
    even, odd = _parity_class_sums(spec, t)
    return even + odd


def boolean_phi_moment(spec: WalshSpectrum, t: float) -> float:
    """E_p[cosh(t*u) - 1] under the uniform density.

    This is the symmetrized MGF; sinh is odd, so it keeps the kernel subsets
    of even size.
    """
    even, _ = _parity_class_sums(spec, t)
    return even - 1.0


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
    """
    vals = values_on(p.base, u)
    out = []
    for alpha in alphas:
        with np.errstate(over="ignore"):
            ev = Phi.Phi(alpha * vals)
        total = float(p.prob @ ev)
        out.append(ProfilePoint(float(alpha), total if math.isfinite(total) else math.inf))
    return out


def nonsteep_profile(a: float, alphas: Iterable[float]) -> list[ProfilePoint]:
    """Closed-form steepness table for the half-line density (a+x)**(-3/2) e**(-x).

    For u(x) = x and Phi = cosh - 1 the value at alpha is
    (C(1-alpha, a) + C(1+alpha, a)) / (2 C(1, a)) - 1 with C the half-line
    Laplace-type integral; it is finite exactly on [-1, 1] and infinite
    outside, so the effective domain edge carries a finite value.
    """
    denom = 2.0 * c_integral(1.0, a)
    out = []
    for alpha in alphas:
        num = c_integral(1.0 - abs(alpha), a) + c_integral(1.0 + abs(alpha), a)
        value = num / denom - 1.0 if math.isfinite(num) else math.inf
        out.append(ProfilePoint(float(alpha), value))
    return out


def nonsteep_density(a: float, measure: Measure) -> Density:
    """The half-line density proportional to (a+x)**(-3/2) e**(-x) on a grid."""
    if a <= 0:
        raise InvariantError("a must be positive")
    x = measure.points.astype(float)
    return Density.from_unnormalized(measure, (a + x) ** -1.5 * np.exp(-x))
