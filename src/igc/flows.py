"""Chart-based ODE flows: integral curves, geodesics, natural-gradient ascent, heat flow.

A vector field assigns to each density p a tangent vector F(p) at p, the
moving-frame velocity.  An integral curve satisfies dp/dt = F(p(t)) * p(t);
in the exponential chart anchored at p0 this becomes

    du/dt = F(p(t)) - E_p0[F(p(t))],      p(t) = patch_e(p0, u(t)),

which is integrated with the classical fixed-step fourth-order Runge-Kutta
scheme.  Every emitted density is renormalized exactly, so mass is conserved
to machine precision at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .manifold import patch_e
from .measures import (
    CotangentVector,
    Density,
    InvariantError,
    RandomVariable,
    TangentVector,
    _dot,
    covariance,
    expect,
    require_same_base,
    tangent,
    values_on,
)

__all__ = [
    "VectorField",
    "CurveRecord",
    "FlowError",
    "integrate_e_chart",
    "e_geodesic",
    "m_geodesic",
    "MixtureGeodesic",
    "natural_gradient_ascent",
    "OptimizationResult",
    "hessian_expectation",
    "one_sided_lipschitz_probe",
    "heat_flow",
    "HeatFlowResult",
    "heat_field",
    "second_difference",
    "reference_heat_solution",
    "exponential_field",
]


class FlowError(RuntimeError):
    """Integration failed (non-finite state or domain exit)."""


class VectorField:
    """Moving-frame vector field p -> F(p) with an optional domain predicate.

    The evaluator may return raw values, a random variable or a tangent
    vector; the result is centered under p, which is what conserves mass
    along integral curves.
    """

    def __init__(
        self,
        evaluator: Callable[[Density], object],
        domain: Callable[[Density], bool] | None = None,
    ):
        self._evaluator = evaluator
        self._domain = domain

    def raw(self, p: Density) -> np.ndarray:
        """The evaluator's values at p, checked finite and inside the domain, not yet centered."""
        if self._domain is not None and not self._domain(p):
            raise FlowError("vector field evaluated outside its domain")
        vals = values_on(p.base, self._evaluator(p))
        if not np.all(np.isfinite(vals)):
            raise FlowError("vector field produced non-finite values")
        return vals

    def __call__(self, p: Density) -> TangentVector:
        return tangent(p, self.raw(p))


@dataclass(frozen=True)
class CurveRecord:
    """Sampled integral curve: densities and moving-frame velocities, each centered under its density."""

    times: np.ndarray
    densities: list[Density]
    velocities: list[np.ndarray]

    def mass_drift(self) -> float:
        return max(abs(d.mass() - 1.0) for d in self.densities)


def _steps(t_final: float, dt: float) -> tuple[int, float]:
    """The fewest equal steps covering [0, t_final] with none longer than dt."""
    n = math.ceil(t_final / dt * (1.0 - 1e-12))
    return n, (t_final / n if n else dt)


def _rk4(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, t_final: float, dt: float):
    """Yield the classical RK4 states of dy/dt = rhs(y) at the steps of :func:`_steps`.

    A caller may overwrite a yielded state in place to restart from there.  The
    stage slopes outlive each step: freeing them every step made the allocator
    return memory to the OS and fault it back in (a fifth of the time at large n).
    """
    n_steps, h = _steps(t_final, dt)
    for _ in range(n_steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield y


def integrate_e_chart(
    field: VectorField,
    p0: Density,
    t_final: float,
    dt: float,
    reanchor_threshold: float | None = None,
) -> CurveRecord:
    """Integrate an integral curve in the exponential chart with fixed-step RK4.

    The run takes equal steps no longer than ``dt`` and ends at ``t_final``
    exactly.  The chart center is re-anchored (an exact affine transition)
    whenever the sup norm of the running coordinate exceeds
    ``reanchor_threshold``, keeping the exponentials well conditioned on long
    runs.
    """
    if dt <= 0 or t_final < 0:
        raise InvariantError("need dt > 0 and t_final >= 0")
    anchor = p0

    def rhs(u_state: np.ndarray) -> np.ndarray:
        f = field.raw(patch_e(anchor, u_state - _dot(anchor.prob, u_state)))
        out = f - _dot(anchor.prob, f)
        if not np.all(np.isfinite(out)):
            raise FlowError("non-finite vector field value; step rejected")
        return out

    densities = [p0]
    velocities = [field(p0).values]
    for u in _rk4(rhs, np.zeros(p0.base.size), t_final, dt):
        if not np.all(np.isfinite(u)):
            raise FlowError("non-finite chart state; step rejected")
        pt = patch_e(anchor, u - _dot(anchor.prob, u))
        densities.append(pt)
        velocities.append(field(pt).values)
        if reanchor_threshold is not None and float(np.max(np.abs(u))) > reanchor_threshold:
            anchor = pt
            u[:] = 0.0  # the next step starts from the new anchor
    return CurveRecord(np.linspace(0.0, t_final, len(densities)), densities, velocities)


def exponential_field(f: RandomVariable) -> VectorField:
    """The field whose value at q is f - E_q[f]; its integral curves are geodesics."""
    wf = f.base.weights * f.values  # E_q[f] = sum(q.values * wf), without building q.prob

    def evaluator(q: Density) -> np.ndarray:
        require_same_base(q, f, "exponential_field")
        return f.values - _dot(q.values, wf)

    return VectorField(evaluator)


def e_geodesic(p: Density, f, t: float) -> Density:
    """Closed-form exponential geodesic exp(t f - K_p(t f)) * p for centered f."""
    fv = values_on(p.base, f)
    fv = fv - _dot(p.prob, fv)
    return patch_e(p, tangent(p, t * fv))


class MixtureGeodesic(NamedTuple):
    function: RandomVariable
    positive: bool


def m_geodesic(p: Density, f: CotangentVector, t: float) -> MixtureGeodesic:
    """Mixture geodesic p * (1 + t f); unit mass for every t, signed when 1 + t f <= 0.

    The positivity boundary in forward time is t* = -1 / min(f) when f takes
    negative values.
    """
    vals = p.values * (1.0 + t * f.values)
    return MixtureGeodesic(RandomVariable(p.base, vals), bool(np.all(vals > 0)))


@dataclass(frozen=True)
class OptimizationResult:
    record: CurveRecord
    objective: np.ndarray
    regularized: bool


def natural_gradient_ascent(
    objective: RandomVariable,
    p0: Density,
    directions: Sequence[TangentVector] | str = "full",
    gamma: float = 0.1,
    iters: int = 100,
) -> OptimizationResult:
    """Steepest ascent of E_q[objective] in the exponential chart at p0.

    With ``directions="full"`` the ascent direction at q is
    objective - E_q[objective]; with a basis V it is the covariance-orthogonal
    projection onto span(V), obtained from the Gram system
    Cov_q(v_i, v_j) c = Cov_q(v_i, objective).  A Gram matrix that fails its
    Cholesky factorization gets 1e-10 added to its diagonal, and the result
    reports ``regularized``.
    """
    f = values_on(p0.base, objective)
    basis = None
    if not (isinstance(directions, str) and directions == "full"):
        basis = np.stack([values_on(p0.base, v) for v in directions])
    u = np.zeros(p0.base.size)
    regularized = False
    times = [0.0]
    densities = [p0]
    velocities = []
    objective_trace = []
    q = p0
    for k in range(iters + 1):
        objective_trace.append(_dot(q.prob, f))
        # shifting each function by its value at the mode of q leaves every covariance as it is,
        # but keeps the centered values exact once q concentrates there
        mode = int(np.argmax(q.prob))
        fq = f - f[mode]
        fq -= _dot(q.prob, fq)
        if basis is None:
            direction = fq
        else:
            centered = basis - basis[:, mode, None]
            centered -= (centered @ q.prob)[:, None]
            gram = (centered * q.prob) @ centered.T
            rhs = (centered * q.prob) @ fq
            try:
                chol = np.linalg.cholesky(gram)
                coef = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
            except np.linalg.LinAlgError:
                regularized = True
                coef = np.linalg.solve(gram + 1e-10 * np.eye(gram.shape[0]), rhs)
            direction = coef @ centered
        velocities.append(direction)
        if k == iters:
            break
        u = u + gamma * (direction - _dot(p0.prob, direction))
        q = patch_e(p0, u - _dot(p0.prob, u))
        times.append(float(k + 1))
        densities.append(q)
    record = CurveRecord(np.asarray(times), densities, velocities)
    return OptimizationResult(record, np.asarray(objective_trace), regularized)


def hessian_expectation(p: Density, u, objective: RandomVariable, v) -> float:
    """Second derivative of u -> E_{patch(p,u)}[objective] along v, as a covariance."""
    q = patch_e(p, u)
    return covariance(q, v, objective)


def one_sided_lipschitz_probe(
    field: VectorField,
    p: Density,
    trials: int = 50,
    scale: float = 0.5,
) -> float:
    """Sampled supremum of <F(u) - F(v), u - v>_p / <u - v, u - v>_p.

    F(u) denotes the chart representation of the field at patch_e(p, u),
    centered under p.  The returned ratio bounds the one-sided growth rate of
    the chart dynamics near p.  The samples come from a generator seeded with 0.
    """
    rng = np.random.default_rng(0)

    def chart_field(u_vals: np.ndarray) -> np.ndarray:
        fv = field.raw(patch_e(p, u_vals - _dot(p.prob, u_vals)))
        return fv - _dot(p.prob, fv)

    worst = -math.inf
    for _ in range(trials):
        a = rng.standard_normal(p.base.size) * scale
        b = rng.standard_normal(p.base.size) * scale
        a -= _dot(p.prob, a)
        b -= _dot(p.prob, b)
        diff = a - b
        denom = _dot(p.prob, diff * diff)
        if denom == 0.0:
            continue
        num = _dot(p.prob, (chart_field(a) - chart_field(b)) * diff)
        worst = max(worst, num / denom)
    return worst


def _wrap(values: np.ndarray) -> np.ndarray:
    """values between copies of its last and first entries: [2:] and [:-2] are the periodic neighbours."""
    return np.concatenate((values[-1:], values, values[:1]))


def second_difference(values: np.ndarray, h: float) -> np.ndarray:
    """Periodic three-point second difference with spacing h."""
    ext = _wrap(values)
    return (ext[2:] - 2.0 * values + ext[:-2]) / (h * h)


def heat_field(p0: Density) -> VectorField:
    """The moving-frame heat field p -> D2(p)/p on a periodic grid."""
    h = p0.base.spacing

    def evaluator(p: Density) -> np.ndarray:
        return second_difference(p.values, h) / p.values

    return VectorField(evaluator)


def reference_heat_solution(
    p0_values: np.ndarray,
    h: float,
    t_final: float,
    dt: float,
    scheme: str = "rk4",
) -> np.ndarray:
    """Explicit finite-difference reference for dp/dt = D2(p), in plain value space.

    Takes the same time steps as :func:`integrate_e_chart` for equal ``t_final`` and ``dt``."""
    p = np.array(p0_values, dtype=float)
    if scheme == "euler":
        n_steps, tau = _steps(t_final, dt)
        for _ in range(n_steps):
            p = p + tau * second_difference(p, h)
    elif scheme == "rk4":
        for p in _rk4(lambda y: second_difference(y, h), p, t_final, dt):
            pass
    else:
        raise InvariantError(f"unknown reference scheme {scheme!r}")
    return p


@dataclass(frozen=True)
class HeatFlowResult:
    record: CurveRecord
    reference: np.ndarray
    max_gap: float
    mass_drift: float
    weak_residuals: np.ndarray


def heat_flow(p0: Density, t_final: float, dt: float) -> HeatFlowResult:
    """Integrate the heat equation in the exponential chart on a periodic grid.

    Rejects time steps violating the explicit stability bound dt <= h**2 / 2.
    The chart is re-anchored whenever its coordinate exceeds 30 in sup norm.
    Alongside the chart solution, the RK4 finite-difference reference is
    advanced in plain value space and the sup-norm gap at the final time is
    reported, together with the weak-form residuals

        E_p[dp/dt * v] + E_p[(p'/p) * v']

    over the sine and cosine test modes of frequencies 1, 2 and 3 (first
    derivatives by central differences, so the residuals are O(h**2)
    discretization defects).
    """
    if p0.base.rule != "periodic":
        raise InvariantError("heat flow needs a periodic uniform grid")
    h = p0.base.spacing
    if dt > h * h / 2.0:
        raise InvariantError(f"dt = {dt!r} violates the stability bound h**2/2 = {h * h / 2.0!r}")
    record = integrate_e_chart(heat_field(p0), p0, t_final, dt, reanchor_threshold=30.0)
    reference = reference_heat_solution(p0.values, h, t_final, dt)
    final = record.densities[-1]
    max_gap = float(np.max(np.abs(final.values - reference)))

    a, b = p0.base.domain
    length = b - a
    xs = p0.base.points
    dp_frame = record.velocities[-1]
    ext = _wrap(final.values)
    logslope = (ext[2:] - ext[:-2]) / (2.0 * h) / final.values
    residuals = []
    for k in (1, 2, 3):
        om = 2.0 * math.pi * k / length
        for test, dtest in (
            (np.sin(om * xs), om * np.cos(om * xs)),
            (np.cos(om * xs), -om * np.sin(om * xs)),
        ):
            residuals.append(
                expect(final, dp_frame * test) + expect(final, logslope * dtest)
            )
    return HeatFlowResult(record, reference, max_gap, record.mass_drift(), np.asarray(residuals))
