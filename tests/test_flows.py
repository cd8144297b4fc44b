import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igc
from igc.flows import (
    FlowError,
    VectorField,
    e_geodesic,
    exponential_field,
    heat_field,
    heat_flow,
    hessian_expectation,
    integrate_e_chart,
    m_geodesic,
    natural_gradient_ascent,
    one_sided_lipschitz_probe,
    reference_heat_solution,
    second_difference,
)
from igc.manifold import chart_m, patch_e, transport_e
from igc.measures import (
    Density,
    InvariantError,
    RandomVariable,
    boolean_measure,
    boolean_signs,
    covariance,
    cotangent,
    expect,
    finite_measure,
    periodic_grid_measure,
    tangent,
)


@pytest.fixture
def space():
    rng = np.random.default_rng(30)
    m = finite_measure(np.arange(8.0))
    return rng, m


def test_zero_field_constant_curve(space):
    rng, m = space
    p = Density.random(m, rng)
    record = integrate_e_chart(VectorField(lambda q: np.zeros(8)), p, 1.0, 0.05)
    for d in record.densities:
        assert np.max(np.abs(d.values - p.values)) < 1e-14
    assert record.mass_drift() < 1e-12


def test_geodesic_matches_integration(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    record = integrate_e_chart(exponential_field(f), p, 1.0, 1e-3)
    closed = e_geodesic(p, f, 1.0)
    assert np.max(np.abs(record.densities[-1].values - closed.values)) <= 1e-6
    assert record.mass_drift() <= 1e-12


def test_integrator_ends_at_requested_time(space):
    # 0.1 / 0.03 is not a whole number of steps: four equal steps of 0.025 are taken
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    record = integrate_e_chart(exponential_field(f), p, 0.1, 0.03)
    assert record.times[-1] == 0.1
    assert len(record.times) == 5
    closed = e_geodesic(p, f, 0.1)
    assert np.max(np.abs(record.densities[-1].values - closed.values)) <= 1e-6


def test_geodesic_two_point_closed_form():
    two = finite_measure([1.0, -1.0])
    p = Density.uniform(two)
    f = RandomVariable(two, two.points.astype(float))
    for t in (0.0, 0.5, 1.5):
        got = e_geodesic(p, f, t).values
        want = np.array([math.exp(t), math.exp(-t)])
        want /= math.exp(t) + math.exp(-t)
        assert np.max(np.abs(got - want)) < 1e-14


def test_geodesic_group_property(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    for s, t in ((0.3, 0.9), (1.1, -0.4)):
        lhs = e_geodesic(p, f, s + t)
        mid = e_geodesic(p, f, s)
        rhs = e_geodesic(mid, transport_e(p, mid, tangent(p, f.values)), t)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-10


def test_reanchoring_is_exact(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    # force frequent re-anchoring; the transition is exact so the curve agrees
    record = integrate_e_chart(exponential_field(f), p, 1.0, 1e-2, reanchor_threshold=0.05)
    closed = e_geodesic(p, f, 1.0)
    assert np.max(np.abs(record.densities[-1].values - closed.values)) <= 1e-7


def test_m_geodesic(space):
    rng, m = space
    p = Density.random(m, rng)
    v = cotangent(p, rng.standard_normal(8))
    assert np.max(np.abs(m_geodesic(p, v, 0.0).function.values - p.values)) == 0.0
    for t in (-3.0, 0.4, 2.5):
        out = m_geodesic(p, v, t)
        assert float(out.function.values @ m.weights) == pytest.approx(1.0, abs=1e-12)
    t_star = -1.0 / float(np.min(v.values))
    assert m_geodesic(p, v, 0.999 * t_star).positive
    assert not m_geodesic(p, v, 1.001 * t_star).positive
    # boundary matches a parameter scan
    ts = np.linspace(0.0, 2.0 * t_star, 2001)
    flags = np.array([m_geodesic(p, v, float(t)).positive for t in ts])
    first_bad = ts[np.argmin(flags)]
    assert first_bad == pytest.approx(t_star, abs=2.0 * (ts[1] - ts[0]))


def test_moving_frame_consistency(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    gaps = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        record = integrate_e_chart(exponential_field(f), p, 0.2, dt)
        worst = 0.0
        for k in range(len(record.times) - 1):
            fd = (record.densities[k + 1].values - record.densities[k].values) / (
                dt * record.densities[k].values
            )
            worst = max(worst, float(np.max(np.abs(fd - record.velocities[k]))))
        gaps.append(worst)
    assert gaps[2] < gaps[0]
    assert gaps[0] < 1.0 * 1e-1  # O(dt) with a moderate constant


def test_velocity_representations_agree(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    dt = 1e-3
    record = integrate_e_chart(exponential_field(f), p, 0.1, dt)
    # mixture coordinate of the curve at anchor p, differentiated centrally
    for k in range(1, len(record.times) - 1):
        v_prev = chart_m(p, record.densities[k - 1]).values
        v_next = chart_m(p, record.densities[k + 1]).values
        v_dot = (v_next - v_prev) / (2 * dt)
        delta_from_m = p.values / record.densities[k].values * v_dot
        assert np.max(np.abs(delta_from_m - record.velocities[k])) < 5e-5


def test_natural_gradient_constant_objective_fixed_point(space):
    rng, m = space
    p = Density.random(m, rng)
    res = natural_gradient_ascent(RandomVariable.constant(m, 3.0), p, "full", gamma=0.2, iters=10)
    assert np.max(np.abs(res.record.densities[-1].values - p.values)) < 1e-14
    assert np.max(np.abs(res.objective - 3.0)) < 1e-12


def test_natural_gradient_full_space_monotone(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    res = natural_gradient_ascent(f, p, "full", gamma=0.1, iters=200)
    assert np.all(np.diff(res.objective) >= -1e-12)
    # the full flow runs along the one-parameter family generated by f
    t_reached = 0.1 * 200
    on_family = e_geodesic(p, f, t_reached)
    # objective value approaches the maximum of f
    assert res.objective[-1] <= float(np.max(f.values)) + 1e-12
    assert res.objective[-1] > res.objective[0]
    assert expect(on_family, f) == pytest.approx(res.objective[-1], rel=1e-6)


def test_natural_gradient_boolean_concentration():
    rng = np.random.default_rng(31)
    m = boolean_measure(8)
    signs = boolean_signs(m)
    coefs = rng.uniform(0.5, 1.5, 8) * rng.choice([-1.0, 1.0], 8)
    objective = RandomVariable(m, signs @ coefs)
    p0 = Density.uniform(m)
    basis = [tangent(p0, signs[:, k]) for k in range(8)]
    res = natural_gradient_ascent(objective, p0, basis, gamma=0.1, iters=500)
    best = int(np.argmax(objective.values))
    assert float(res.record.densities[-1].prob[best]) >= 0.99
    assert np.all(np.diff(res.objective) >= -1e-12)


def test_natural_gradient_gram_velocity_exact_under_concentration():
    # the objective lies in the span of the basis, so the projected velocity is objective - E_q[objective];
    # once q concentrates the covariances are ~1e-13 and must not be taken from values of order 1
    rng = np.random.default_rng(31)
    m = boolean_measure(8)
    signs = boolean_signs(m)
    coefs = rng.uniform(0.5, 1.5, 8) * rng.choice([-1.0, 1.0], 8)
    objective = RandomVariable(m, signs @ coefs)
    p0 = Density.uniform(m)
    basis = [tangent(p0, signs[:, k]) for k in range(8)]
    res = natural_gradient_ascent(objective, p0, basis, gamma=0.1, iters=500)
    assert float(res.record.densities[-1].prob.max()) >= 0.99
    for q, velocity in zip(res.record.densities, res.record.velocities):
        exact = objective.values - expect(q, objective)
        assert np.max(np.abs(velocity - exact)) <= 1e-9


def test_natural_gradient_singular_gram_is_regularized():
    # a constant direction centers to exactly zero, so the Gram matrix is singular
    rng = np.random.default_rng(32)
    m = boolean_measure(4)
    signs = boolean_signs(m)
    objective = RandomVariable(m, signs @ rng.uniform(0.5, 1.5, 4))
    p0 = Density.uniform(m)
    basis = [tangent(p0, signs[:, k]) for k in range(4)]
    plain = natural_gradient_ascent(objective, p0, basis, gamma=0.1, iters=20)
    jittered = natural_gradient_ascent(
        objective, p0, basis + [tangent(p0, np.ones(m.size))], gamma=0.1, iters=20
    )
    assert not plain.regularized
    assert jittered.regularized
    assert np.max(np.abs(jittered.objective - plain.objective)) < 1e-8


def test_hessian_expectation(space):
    rng, m = space
    p = Density.random(m, rng)
    u = tangent(p, 0.3 * rng.standard_normal(8))
    f = RandomVariable(m, rng.standard_normal(8))
    q = patch_e(p, u)
    # direction orthogonal to f under Cov_q gives a vanishing derivative
    w = rng.standard_normal(8)
    f_c = f.values - expect(q, f)
    w_orth = w - covariance(q, w, f.values) / covariance(q, f.values, f.values) * f_c
    assert abs(hessian_expectation(p, u, f, w_orth)) < 1e-12
    # finite differences of the chart expectation
    v = tangent(p, rng.standard_normal(8))
    h = 1e-5
    fd = (
        expect(patch_e(p, tangent(p, u.values + h * v.values)), f)
        - expect(patch_e(p, tangent(p, u.values - h * v.values)), f)
    ) / (2 * h)
    got = hessian_expectation(p, u, f, v)
    assert abs(fd - got) <= 1e-6 * max(1.0, abs(got))
    # at the chart center the covariance is taken under p itself
    assert hessian_expectation(p, tangent(p, np.zeros(8)), f, v) == pytest.approx(
        covariance(p, v, f), abs=1e-14
    )


def test_one_sided_lipschitz(space):
    rng, m = space
    p = Density.random(m, rng)
    assert one_sided_lipschitz_probe(VectorField(lambda q: np.zeros(8)), p, trials=10) == 0.0
    f = RandomVariable(m, rng.standard_normal(8))
    lam = one_sided_lipschitz_probe(exponential_field(f), p, trials=30)
    assert abs(lam) < 1e-12  # the chart field differs by constants only
    grid = periodic_grid_measure(0.0, 1.0, 16)
    p0 = Density.from_unnormalized(grid, 1.0 + 0.2 * np.cos(2 * math.pi * grid.points))
    lam_heat = one_sided_lipschitz_probe(heat_field(p0), p0, trials=20, scale=0.2)
    assert math.isfinite(lam_heat)


def test_heat_flow(space):
    grid = periodic_grid_measure(0.0, 1.0, 64)
    x = grid.points
    p0 = Density.from_unnormalized(
        grid, 1.0 + 0.3 * np.cos(2 * math.pi * x) + 0.1 * np.sin(4 * math.pi * x)
    )
    h = grid.spacing
    res = heat_flow(p0, 0.1, h * h / 4.0)
    assert res.max_gap <= 1e-4
    assert res.mass_drift <= 1e-12
    assert np.max(np.abs(res.weak_residuals)) < 5e-2
    # smoothing toward the uniform density
    final = res.record.densities[-1]
    assert np.max(final.values) - np.min(final.values) < np.max(p0.values) - np.min(p0.values)


def test_heat_flow_uniform_stationary():
    grid = periodic_grid_measure(0.0, 1.0, 32)
    p0 = Density.uniform(grid)
    res = heat_flow(p0, 0.01, grid.spacing**2 / 4.0)
    assert np.max(np.abs(res.record.densities[-1].values - p0.values)) < 1e-12


def test_heat_flow_rejects_unstable_step():
    grid = periodic_grid_measure(0.0, 1.0, 32)
    p0 = Density.uniform(grid)
    with pytest.raises(InvariantError):
        heat_flow(p0, 0.01, grid.spacing**2)


def test_heat_reference_schemes_agree():
    grid = periodic_grid_measure(0.0, 1.0, 32)
    x = grid.points
    p0 = 1.0 + 0.05 * np.cos(2 * math.pi * x)
    h = grid.spacing
    dt = h * h / 4.0
    rk = reference_heat_solution(p0, h, 0.02, dt, scheme="rk4")
    eu = reference_heat_solution(p0, h, 0.02, dt, scheme="euler")
    assert np.max(np.abs(rk - eu)) < 1e-4
    with pytest.raises(InvariantError):
        reference_heat_solution(p0, h, 0.02, dt, scheme="leapfrog")


def test_second_difference_annihilates_constants():
    vals = np.full(16, 2.3)
    assert np.max(np.abs(second_difference(vals, 0.1))) == 0.0


def test_field_domain_guard(space):
    rng, m = space
    p = Density.random(m, rng)
    field = VectorField(lambda q: np.zeros(8), domain=lambda q: False)
    with pytest.raises(FlowError):
        field(p)


def test_integrator_rejects_nonfinite(space):
    rng, m = space
    p = Density.random(m, rng)
    field = VectorField(lambda q: np.full(8, np.inf))
    with pytest.raises((FlowError, InvariantError)):
        integrate_e_chart(field, p, 0.1, 0.01)


def test_natural_gradient_monotone_threshold_probe(space):
    # the objective trace stays nondecreasing for step sizes below a probed level
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    for gamma in (0.02, 0.05, 0.1):
        res = natural_gradient_ascent(f, p, "full", gamma=gamma, iters=100)
        assert np.all(np.diff(res.objective) >= -1e-12), f"not monotone at step {gamma}"


def test_chart_flow_bits_do_not_depend_on_blas_threads():
    # at this size a plain BLAS dot product is split across the thread pool
    src = str(Path(igc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import hashlib; import numpy as np; "
        "from igc import flows, measures; "
        "rng = np.random.default_rng(5); m = measures.finite_measure(np.arange(3.0 * 8192 + 5)); "
        "p0 = measures.Density.random(m, rng); f = measures.RandomVariable(m, rng.standard_normal(m.size)); "
        "rec = flows.integrate_e_chart(flows.exponential_field(f), p0, 0.04, 0.02); "
        "print(hashlib.sha256(rec.densities[-1].values.tobytes()).hexdigest())"
    )
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
