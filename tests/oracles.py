"""Shared independent oracles and contract checks for the test suite."""

import math
from fractions import Fraction

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


def allocating_rk4(rhs, y, t_final, n_steps):
    """The RK4 states the chart flows take, each stage and the update built as fresh arrays.

    The reference for the stepper with one stage buffer: the same n_steps equal steps, the
    same operations in the textbook order, and a yielded state may be overwritten to restart.
    """
    h = t_final / max(n_steps, 1)
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


def validate_young_pair(yf):
    """Spot-check the Young-function contract on 49 points of [-6, 6] and on -30 and 30.

    Verifies Phi(0) = 0, evenness, midpoint convexity of both conjugates and the Young inequality |xy| <= Phi(x) +
    Phi_conj(y), to 1e-12, the slope of ``dual_sloped`` against y times a central difference of ``phi_inv``, to 1e-6,
    and that ``dual_sloped(y)`` and ``sloped(|x|)`` give Phi(phi_inv(y)) and Phi(x), to 1e-12; raises
    ``InvariantError`` on violation.
    """
    from igc.measures import InvariantError

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
    if yf.dual_sloped is not None:
        F, slope = yf.dual_sloped(ys)
        h = 1e-5 * np.maximum(1.0, ys)
        central = ys * (yf.phi_inv(ys + h) - yf.phi_inv(ys - h)) / (2.0 * h)
        if np.any(np.abs(slope - central) > 1e-6 * np.maximum(1.0, np.abs(central))):
            raise InvariantError(f"pair {yf.tag!r}: the slope of dual_sloped is not y times the derivative of phi_inv")
        if np.any(np.abs(F - yf.Phi(yf.phi_inv(ys))) > tol * np.abs(yf.Phi(yf.phi_inv(ys)))):
            raise InvariantError(f"pair {yf.tag!r}: dual_sloped does not give Phi(phi_inv)")
    if np.any(np.abs(yf.sloped(np.abs(xs))[0] - yf.Phi(xs)) > tol * np.abs(yf.Phi(xs))):
        raise InvariantError(f"pair {yf.tag!r}: sloped does not give Phi")


def hermite_values(n, x):
    """Probabilists' Hermite polynomial of degree n >= 0 at x, by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)
    prev, cur = np.ones_like(x), x.copy()
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


def e_m_pairing_reference(p, q, u_vals, v_vals):
    """E_p[v u] - E_q[u] E_p[v] in exact rational arithmetic on the floats of p.prob, q.prob, u and v.

    On unit weights it is E_q[((p/q) v) (u - E_q[u])] exactly, the pairing of the mixture transport of v
    with the exponential transport of u: E_p[v u] itself once v is centred under p.
    """
    pp, qq, u, v = ([Fraction(a) for a in np.asarray(x, dtype=float).tolist()] for x in (p.prob, q.prob, u_vals, v_vals))
    mean_q_u = sum(a * b for a, b in zip(qq, u))
    return float(sum(a * b * c for a, b, c in zip(pp, v, u)) - mean_q_u * sum(a * b for a, b in zip(pp, v)))


def cumulant_derivatives_reference(q_prob, rows):
    """(E_q[v_i], Cov_q(v_i, v_j)) in exact rational arithmetic on the floats of q_prob and of the rows v_i, with
    q_prob rescaled to unit mass exactly: the first and second derivatives of K_p at u when q = patch_e(p, u)."""
    qq = [Fraction(a) for a in np.asarray(q_prob, dtype=float).tolist()]
    mass = sum(qq)
    qq = [a / mass for a in qq]
    vs = [[Fraction(a) for a in row] for row in np.asarray(rows, dtype=float).tolist()]
    means = [sum(a * b for a, b in zip(qq, v)) for v in vs]
    centred = [[b - m for b in v] for v, m in zip(vs, means)]
    hess = [[float(sum(a * b * c for a, b, c in zip(qq, ci, cj))) for cj in centred] for ci in centred]
    return np.array([float(m) for m in means]), np.array(hess)
