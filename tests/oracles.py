"""Shared independent oracles for the test suite."""

import math

import numpy as np
from scipy.special import erfcx


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


def log_space_patch(p, u_vals):
    """exp(max(u - K_p(u) + log p, -700)) renormalised: the exponential patch written in log space.

    K_p(u) comes from a max-shifted log-sum-exp; the floor acts on the log density, before any
    exponential is taken.
    """
    u = np.asarray(u_vals, dtype=float)
    top = float(np.max(u))
    k = top + math.log(float(p.prob @ np.exp(u - top)))
    q = np.exp(np.maximum(u - k + np.log(p.values), -700.0))
    return q / float(q @ p.base.weights)


def fd_gradient(p, u_vals, v_vals, h=1e-5):
    """Central difference of the cumulant along v."""
    return cumulant_difference(p, u_vals + h * v_vals, u_vals - h * v_vals) / (2.0 * h)


def fd_hessian(p, u_vals, vi_vals, vj_vals, h=1e-5):
    """Central mixed difference of the cumulant along (vi, vj)."""
    d_plus = cumulant_difference(p, u_vals + h * vi_vals + h * vj_vals, u_vals + h * vi_vals - h * vj_vals)
    d_minus = cumulant_difference(p, u_vals - h * vi_vals + h * vj_vals, u_vals - h * vi_vals - h * vj_vals)
    return (d_plus - d_minus) / (4.0 * h * h)


def walsh_values(spec):
    """u(x) = sum over the spectrum of c * (-1)**popcount(x & mask), for every state x, added mask by mask."""
    states = np.arange(1 << spec.n)
    u = np.zeros(states.size)
    for mask, c in spec.coeffs.items():
        u += c * (1.0 - 2.0 * (np.bitwise_count(states & mask) & 1))
    return u


def concatenating_fwht(values):
    """Unnormalized Walsh-Hadamard butterfly that concatenates the sum and difference halves at each stage.

    The reference for the in-place butterfly: same stages, same additions, fresh arrays throughout.
    """
    a = np.array(values, dtype=float)
    h = 1
    while h < a.size:
        a = a.reshape(-1, 2 * h)
        top = a[:, :h] + a[:, h:]
        bot = a[:, :h] - a[:, h:]
        a = np.concatenate([top, bot], axis=1).reshape(-1)
        h *= 2
    return a


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


def allocating_rk4(rhs, y, t_final, dt):
    """The RK4 states the chart flows take, each stage and the update built as fresh arrays.

    The reference for the stepper with one stage buffer: the same fewest equal steps <= dt, the
    same operations in the textbook order, and a yielded state may be overwritten to restart.
    """
    n_steps = math.ceil(t_final / dt * (1.0 - 1e-12))
    h = t_final / n_steps if n_steps else dt
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield y


def bisection_root(g, target, guess, rel_tol=1e-14):
    """Plain bisection for a nonincreasing g from the bracket that doubling or halving ``guess`` finds.

    The bracket and stop rule of the false-position solve the gauges used before they moved to
    Newton: hi - lo <= rel_tol * hi, hi returned; inf and NaN count as above.
    """
    def above(r):
        return not (g(r) <= target)

    hi = guess
    while above(hi):
        hi *= 2.0
    lo = hi / 2.0
    while not above(lo):
        hi, lo = lo, lo / 2.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi


_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(30)


def c_integral_reference(theta, a):
    """int_0^inf (a+x)**(-3/2) exp(-theta*x) dx for theta > 0, from the oracle suited to z = theta*a.

    - z <= 16: the scaled-erfc closed form 2/sqrt(a) - 2*sqrt(pi*theta)*erfcx(sqrt(z)); its
      subtraction loses at most a factor of about 35 there.
    - 16 < z < 1e4: 30-point Gauss-Laguerre on int_0^inf (1 + s/z)**(-3/2) e**(-s) ds / (z*sqrt(a)),
      the integral after x = s/theta.  Its integrand is smooth once the branch point s = -z is far
      from the nodes; against a 40-digit reference it is within 3.1e-15 over this band.
    - z >= 1e4: the asymptotic series (1 - 3/(2z) + 15/(4z**2) - 105/(8z**3) + 945/(16z**4)) / (theta*a**1.5),
      whose first omitted term is below 4e-18 relative.
    """
    z = theta * a
    if z <= 16.0:
        return 2.0 / math.sqrt(a) - 2.0 * math.sqrt(math.pi * theta) * float(erfcx(math.sqrt(z)))
    if z < 1e4:
        return float(_LAGUERRE_WEIGHTS @ (1.0 + _LAGUERRE_NODES / z) ** -1.5) / (z * math.sqrt(a))
    series = 1.0 - 3.0 / (2.0 * z) + 15.0 / (4.0 * z**2) - 105.0 / (8.0 * z**3) + 945.0 / (16.0 * z**4)
    return series / (theta * a**1.5)


def bisection_cumulant(p, u_vals, d, rel_tol=1e-14):
    """The deformed cumulant by plain bisection alone: k with mass(k) = 1, mass(k) >= 1 kept.

    The normalizing constant of exp_phi(u - k + log_phi p), solved for r = 1/k (when the mass at
    k = 0 is at least 1) or r = -k by :func:`bisection_root`, with roundoff-level negatives
    snapped to 0; raises ``InvariantError`` as ``phi_cumulant`` does.  A patch value that is NaN,
    or 0 with its argument at or below the domain edge, counts as mass 0 (past the edge); a 0
    above the edge is an underflow and counts as a value.
    """
    from igc.measures import InvariantError, _dot, _finite_sum

    u_vals = np.asarray(u_vals, dtype=float)
    if float(np.max(np.abs(u_vals))) == 0.0:
        return 0.0
    log_p = d.log(p.values)
    w = p.base.weights

    def mass(k):
        x = u_vals - k + log_p
        vals = d.exp(x)
        inside = (vals > 0.0) | ((vals == 0.0) & (x > d.lower_bound))
        return _finite_sum(w, vals) if np.all(inside) else 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        at_zero = d.exp(u_vals + log_p)
        if np.any(np.isnan(at_zero)):
            raise InvariantError("coordinate leaves the deformed-exponential domain at k = 0")
        mass0 = _dot(w, at_zero)
        if not math.isfinite(mass0):
            raise InvariantError("mass integral diverges at k = 0")
        to_k = (lambda r: 1.0 / r) if mass0 >= 1.0 else (lambda r: -r)
        r = bisection_root(lambda r: -mass(to_k(r)), -1.0, 1.0, rel_tol=rel_tol)
    k = to_k(r)
    return 0.0 if -1e-13 < k < 0.0 else k


_LEGENDRE_NODES, _LEGENDRE_WEIGHTS = np.polynomial.legendre.leggauss(16)


def gamma_minus_half_reference(x):
    """Gamma(-1/2, x), the integral of s**(-3/2) * exp(-s) from x to infinity, by quadrature.

    With s = x * e**r it is exp(-x) / sqrt(x) times the integral over r >= 0 of
    exp(-r/2 - x * expm1(r)): a smooth integrand with no subtraction anywhere.  The integral
    is cut where x * expm1(r) = 60 (the rest is about exp(-60) of it) and summed by 16-point
    Gauss-Legendre on 64 equal panels; against a 50-digit reference it is within 4e-16 at 13
    points of [1e-6, 700].
    """
    edges = np.linspace(0.0, math.log1p(60.0 / x), 65)
    half = (0.5 * (edges[1:] - edges[:-1]))[:, None]
    r = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * _LEGENDRE_NODES
    integral = float(np.sum(half * _LEGENDRE_WEIGHTS * np.exp(-0.5 * r - x * np.expm1(r))))
    return math.exp(-x) * integral / math.sqrt(x)


def require_centered_reference(p, vals, what):
    """The centring rule that takes the sup first: finite entries, then |E_p[vals]| <= TOL * max(1, sup).

    The reference for ``measures.require_centered``, which decides on the mean first.
    """
    from igc.measures import TOL, InvariantError, _dot, _max, _min

    sup = max(_max(vals), -_min(vals))
    if not math.isfinite(sup):
        raise InvariantError(f"{what}: values are not finite")
    if abs(_dot(p.prob, vals)) > TOL * max(1.0, sup):
        raise InvariantError(f"{what}: values are not centered under the base density")
    return vals


def require_tangent_reference(weights, vals, at_vals):
    """The sphere-tangent rule that takes the sup first: finite entries, then |<vals, at_vals>| within
    _SPHERE_TOL * max(1, max|vals|).  The reference for ``bundle._require_tangent``."""
    from igc.bundle import _SPHERE_TOL
    from igc.measures import InvariantError, _dot, _max

    sup = _max(np.abs(vals))
    if not math.isfinite(sup):
        raise InvariantError("sphere tangent values must be finite")
    if abs(_dot(weights, vals * at_vals)) > _SPHERE_TOL * max(1.0, sup):
        raise InvariantError("tangent vector is not orthogonal to its base point")
