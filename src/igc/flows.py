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
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .manifold import patch_e
from .measures import (
    Density,
    InvariantError,
    RandomVariable,
    TangentVector,
    _all_finite,
    _dot,
    _fibre_values,
    _max,
    _min,
    expect,
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
    "one_sided_lipschitz_probe",
    "heat_flow",
    "HeatFlowResult",
    "heat_field",
    "second_difference",
    "reference_heat_solution",
    "exponential_field",
]


class FlowError(RuntimeError):
    """Integration failed (a non-finite state or field value)."""


class VectorField:
    """Moving-frame vector field p -> F(p), defined at every density.

    The evaluator reads the density's values array (read-only, on its base) and
    may return raw values, a random variable or a tangent vector, whose base is
    checked; the result is centered under p, which conserves mass along integral curves.
    """

    def __init__(self, evaluator: Callable[[np.ndarray], object]):
        self._evaluator = evaluator

    def __call__(self, p: Density) -> TangentVector:
        """F(p), centred under p as the chart loops centre it; a non-finite value raises FlowError."""
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _centred_field(self, p.values, p)
        vals.setflags(write=False)
        return TangentVector(p, vals)


class CurveRecord(NamedTuple):
    """Sampled integral curve: densities and moving-frame velocities, each centered under its density."""

    times: np.ndarray
    densities: list[Density]
    velocities: list[np.ndarray]

    def mass_drift(self) -> float:
        return max(abs(d.mass() - 1.0) for d in self.densities)


def _require_steps(t_final: float, dt: float) -> int:
    """The fewest equal steps <= dt over [0, t_final], for finite dt > 0, t_final >= 0 and t_final / dt (NaN fails)."""
    if not (0.0 < dt < math.inf and 0.0 <= t_final < math.inf and t_final / dt < math.inf):
        raise InvariantError(f"need dt > 0 and t_final >= 0 with a finite t_final / dt, got {t_final!r} / {dt!r}")
    return math.ceil(t_final / dt * (1.0 - 1e-12))


def _rk4(rhs: Callable[[np.ndarray], np.ndarray], y: np.ndarray, t_final: float, n_steps: int):
    """Yield the classical RK4 states of dy/dt = rhs(y) over [0, t_final], in n_steps equal steps.

    ``rhs`` must return a fresh array, which the stepper may overwrite.  A caller may overwrite a
    yielded state in place to restart from there.  One stage buffer serves every step: k1's array
    becomes the slope sum, accumulated in the order ((k1 + 2 k2) + 2 k3) + k4 of the textbook
    update, and each doubled slope is dropped once summed, so only y, the stage and the sum are
    live while rhs runs.
    """
    h = t_final / max(n_steps, 1)
    stage = np.empty_like(y)
    for _ in range(n_steps):
        acc = rhs(y)  # k1, whose array becomes the slope sum
        np.multiply(acc, 0.5 * h, out=stage)
        stage += y
        k = rhs(stage)  # k2
        np.multiply(k, 0.5 * h, out=stage)
        stage += y
        k *= 2.0
        acc += k
        del k
        k = rhs(stage)  # k3
        np.multiply(k, h, out=stage)
        stage += y
        k *= 2.0
        acc += k
        del k
        acc += rhs(stage)  # k4
        acc *= h / 6.0
        acc += y
        y = acc
        yield y


def _centred_field(field: VectorField, vals: np.ndarray, anchor: Density, out: np.ndarray | None = None) -> np.ndarray:
    """The field at the density with values ``vals``, centred under the anchor into ``out`` and checked finite.

    Only the centred value is checked: a non-finite field value leaves its mean, and so every entry, non-finite.
    """
    f = values_on(anchor.base, field._evaluator(vals))
    del vals  # a stage patch's array is freed before the centred value is allocated
    out = np.subtract(f, _dot(anchor.prob, f), out=out)
    if not _all_finite(out):
        raise FlowError("non-finite vector field value; step rejected")
    return out


def _chart_patch(anchor: Density, u: np.ndarray) -> Density:
    """patch_e(anchor, u); a chart state that overflowed fails its check with a non-finite mean: FlowError."""
    try:
        return patch_e(anchor, u)
    except InvariantError:
        if math.isfinite(_dot(anchor.prob, u)):
            raise
        raise FlowError("non-finite chart state; step rejected") from None


REANCHOR_SUP = 30.0


def integrate_e_chart(field: VectorField, p0: Density, t_final: float, dt: float) -> CurveRecord:
    """Integrate an integral curve in the exponential chart with fixed-step RK4.

    The run takes equal steps no longer than ``dt`` and ends at ``t_final``
    exactly.  The chart center is re-anchored (an exact affine transition)
    whenever the sup norm of the running coordinate exceeds ``REANCHOR_SUP``,
    keeping the exponentials well conditioned on long runs.

    Centering policy: each field value is centered once, under the anchor, and
    the chart state is re-centered in place once per step.  A stage state
    y + a*k is then a sum of anchor-centered vectors and goes to ``patch_e``
    as it is; ``patch_e`` still checks that it is centered.

    The record is one array allocated before the first step: a read-only row per
    emitted density after p0, then a row per velocity.  So keeping any one sample
    keeps its run's whole record, and a step count whose record cannot be
    allocated raises InvariantError before the first step.
    """
    n_steps = _require_steps(t_final, dt)
    try:
        rows = np.empty((2 * n_steps + 1, p0.base.size))
    except (MemoryError, ValueError):  # ValueError: more rows than numpy can index
        what = f"whose record of {n_steps:.4g} steps can be allocated"
        raise InvariantError(f"need dt > 0 and t_final >= 0 {what}, got {t_final!r} / {dt!r}") from None
    anchor = p0
    densities = [p0]
    velocities = list(rows[n_steps:])
    # each value made under the errstate is checked (FlowError); rhs reads anchor when called: re-anchors act next step
    def rhs(u_state: np.ndarray) -> np.ndarray:
        return _centred_field(field, _chart_patch(anchor, u_state).values, anchor)

    with np.errstate(over="ignore", invalid="ignore"):
        _centred_field(field, p0.values, p0, velocities[0])
        for u, row, velocity in zip(_rk4(rhs, np.zeros(p0.base.size), t_final, n_steps), rows, velocities[1:]):
            u -= _dot(anchor.prob, u)  # the next step starts from the centered state
            row[:] = _chart_patch(anchor, u).values  # the patch's own array is freed at once
            row.setflags(write=False)
            pt = Density._adopt(p0.base, row)  # patch_e has checked these bits
            densities.append(pt)
            _centred_field(field, row, pt, velocity)
            if max(_max(u), -_min(u)) > REANCHOR_SUP:
                anchor = pt
                u[:] = 0.0  # the next step starts from the new anchor
    return CurveRecord(np.linspace(0.0, t_final, len(densities)), densities, velocities)


def exponential_field(f: RandomVariable) -> VectorField:
    """The field whose value at q is f - E_q[f]; its integral curves are geodesics.

    The evaluator returns the random variable f - f[0] uncentered: a constant
    shift changes no field value, and taking it once here removes a large offset
    of f exactly, so the one centering in the caller (under q in ``field(q)``,
    under the anchor in the chart flows) leaves a mean error of eps times the
    range of f.  A q on another base than f's raises BaseMismatchError there.
    """
    shifted = RandomVariable(f.base, f.values - f.values[0])
    return VectorField(lambda values: shifted)


def e_geodesic(p: Density, f, t: float) -> Density:
    """Closed-form exponential geodesic exp(t f - K_p(t f)) * p for centered f.

    f is shifted by its first value before the one centering, as in
    :func:`exponential_field`, so a large constant offset costs no accuracy.
    """
    fv = values_on(p.base, f)
    return patch_e(p, tangent(p, t * (fv - fv[0])))


class MixtureGeodesic(NamedTuple):
    function: RandomVariable
    positive: bool


def m_geodesic(p: Density, f: TangentVector, t: float) -> MixtureGeodesic:
    """Mixture geodesic p * (1 + t f); unit mass for every t, signed when 1 + t f <= 0.

    The positivity boundary in forward time is t* = -1 / min(f) when f takes
    negative values.  f must be a vector of the fibre at p.
    """
    vals = p.values * (1.0 + t * _fibre_values(p, f, "m_geodesic"))
    return MixtureGeodesic(RandomVariable(p.base, vals), bool(np.all(vals > 0)))


class OptimizationResult(NamedTuple):
    record: CurveRecord
    objective: np.ndarray
    regularized: bool


def natural_gradient_ascent(
    objective: RandomVariable,
    p0: Density,
    directions: Sequence[TangentVector],
    gamma: float = 0.1,
    iters: int = 100,
) -> OptimizationResult:
    """Steepest ascent of E_q[objective] in the exponential chart at p0, with step size ``gamma``.

    The ascent direction at q is the covariance-orthogonal projection of the
    objective onto the span of the basis V = ``directions``, obtained from the Gram system
    Cov_q(v_i, v_j) c = Cov_q(v_i, objective).  The objective is stacked under
    the basis once per call; each step centres and weights the rows and forms its
    update in buffers made once per call, and the Gram system in one product.
    Cholesky only tests that the Gram matrix is positive definite; one solve
    gives c.  A Gram matrix that fails the test gets 1e-10 added to its diagonal,
    and the result reports ``regularized``.  An ``iters`` that is not a
    non-negative integer, a ``gamma`` that is not finite and positive and an empty
    basis raise InvariantError; an overflowing step, FlowError.  The basis
    [objective] gives objective - E_q[objective], the e-geodesic at t = k gamma.
    """
    if not isinstance(iters, (int, np.integer)) or iters < 0:
        raise InvariantError(f"need an integer iters >= 0, got {iters!r}")
    if not 0.0 < gamma < math.inf:
        raise InvariantError(f"need a finite gamma > 0, got {gamma!r}")
    f = values_on(p0.base, objective)
    basis = [values_on(p0.base, v) for v in directions]
    if not basis:
        raise InvariantError("directions must hold at least one direction")
    rows = np.stack(basis + [f])  # the basis, then the objective as the last row
    centered, weighted = np.empty_like(rows), np.empty_like(rows[:-1])  # weighted: centred basis rows * q.prob
    u, step = np.zeros(p0.base.size), np.empty(p0.base.size)
    regularized = False
    times = [0.0]
    densities = [p0]
    velocities = []
    objective_trace = []
    q = p0
    # an overflowing step fails _chart_patch's check and is reported as FlowError
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(iters + 1):
            objective_trace.append(_dot(q.prob, f))
            # shifting each function by its value at the mode of q leaves every covariance as it is,
            # but keeps the centered values exact once q concentrates there
            np.subtract(rows, rows[:, q.prob.argmax(), None], out=centered)
            centered -= (centered @ q.prob)[:, None]
            covs = np.multiply(centered[:-1], q.prob, out=weighted) @ centered.T  # the Gram matrix, then the rhs
            gram, rhs = covs[:, :-1], covs[:, -1]
            try:
                np.linalg.cholesky(gram)  # raises unless gram is positive definite
                coef = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                regularized = True
                coef = np.linalg.solve(gram + 1e-10 * np.eye(len(gram)), rhs)
            direction = coef @ centered[:-1]
            velocities.append(direction)
            if k == iters:
                break
            u += np.multiply(np.subtract(direction, _dot(p0.prob, direction), out=step), gamma, out=step)
            u -= _dot(p0.prob, u)
            q = _chart_patch(p0, u)
            times.append(float(k + 1))
            densities.append(q)
    record = CurveRecord(np.asarray(times), densities, velocities)
    return OptimizationResult(record, np.asarray(objective_trace), regularized)


def one_sided_lipschitz_probe(
    field: VectorField,
    p: Density,
    trials: int = 50,
    scale: float = 0.5,
) -> float:
    """Sampled supremum of <F(u) - F(v), u - v>_p / <u - v, u - v>_p.

    F(u) denotes the chart representation of the field at patch_e(p, u),
    centered under p; a non-finite value of F, or of a ratio (an overflowing
    difference), raises FlowError.  The returned ratio bounds the one-sided growth rate of
    the chart dynamics near p.  The samples come from a generator seeded with 0.
    Raises InvariantError unless trials >= 1 and scale is finite and positive, when a sampled
    difference does not square to a finite number, and when no trial contributes: on a one-point
    measure every centred difference is 0, and at a tiny scale its square underflows.
    """
    if trials < 1 or not 0.0 < scale < math.inf:
        raise InvariantError(f"need trials >= 1 and a finite positive scale, got trials={trials}, scale={scale!r}")
    rng = np.random.default_rng(0)
    ratios = []
    # each value made under the errstate is checked: the squared difference (InvariantError), the centred field
    # value and the ratio (FlowError)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(trials):
            a = rng.standard_normal(p.base.size) * scale
            b = rng.standard_normal(p.base.size) * scale
            a -= _dot(p.prob, a)
            b -= _dot(p.prob, b)
            diff = a - b
            denom = _dot(p.prob, diff * diff)
            if not math.isfinite(denom):
                raise InvariantError(f"need a scale whose sampled differences square to a finite number, got {scale!r}")
            if denom == 0.0:
                continue
            fa = _centred_field(field, _chart_patch(p, a).values, p)
            ratio = _dot(p.prob, (fa - _centred_field(field, _chart_patch(p, b).values, p)) * diff) / denom
            if not math.isfinite(ratio):
                raise FlowError("non-finite vector field difference; pair rejected")
            ratios.append(ratio)
    if not ratios:
        raise InvariantError("no sampled pair has a nonzero difference in L2(p)")
    return float(max(ratios))


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
    return VectorField(lambda values: second_difference(values, h) / values)


def reference_heat_solution(
    p0_values: np.ndarray,
    h: float,
    t_final: float,
    dt: float,
) -> np.ndarray:
    """Explicit RK4 finite-difference reference for dp/dt = D2(p), in plain value space.

    Takes the same time steps as :func:`integrate_e_chart` for equal ``t_final`` and ``dt``."""
    n_steps = _require_steps(t_final, dt)
    p = np.array(p0_values, dtype=float)
    for p in _rk4(lambda y: second_difference(y, h), p, t_final, n_steps):
        pass
    return p


class HeatFlowResult(NamedTuple):
    record: CurveRecord
    reference: np.ndarray
    max_gap: float
    mass_drift: float
    weak_residuals: np.ndarray


def heat_flow(p0: Density, t_final: float, dt: float) -> HeatFlowResult:
    """Integrate the heat equation in the exponential chart on a periodic grid.

    Rejects time steps violating the explicit stability bound dt <= h**2 / 2.
    The chart is re-anchored as in :func:`integrate_e_chart`.
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
    record = integrate_e_chart(heat_field(p0), p0, t_final, dt)
    reference = reference_heat_solution(p0.values, h, t_final, dt)
    final = record.densities[-1]
    max_gap = float(np.max(np.abs(final.values - reference)))

    length = p0.base.size * h
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
