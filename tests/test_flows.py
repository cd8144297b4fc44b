import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import igc
import igc.flows as flows_module
from igc.flows import (
    FlowError,
    VectorField,
    e_geodesic,
    exponential_field,
    heat_field,
    heat_flow,
    integrate_e_chart,
    m_geodesic,
    natural_gradient_ascent,
    one_sided_lipschitz_probe,
    reference_heat_solution,
    second_difference,
)
from igc.manifold import chart_m, patch_e, transport_e
from igc.measures import (
    BaseMismatchError,
    Density,
    InvariantError,
    RandomVariable,
    boolean_measure,
    boolean_signs,
    covariance,
    expect,
    finite_measure,
    periodic_grid_measure,
    tangent,
)
from oracles import allocating_rk4


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
    f = RandomVariable(m, 100.0 * rng.standard_normal(8))
    # a steep field crosses the re-anchoring sup norm several times; the transition is exact so the curve agrees
    record = integrate_e_chart(exponential_field(f), p, 1.0, 1e-2)
    closed = e_geodesic(p, f, 1.0)
    assert np.max(np.abs(record.densities[-1].values - closed.values)) <= 1e-7


def test_reanchoring_keeps_a_long_steep_geodesic_accurate():
    # f = 30 N(0, 1) on 16 points to T = 20: the last density's largest relative error against the closed form,
    # over its entries above 1e-200, is 1.7e-13 to 5.7e-13 for these draws with re-anchoring and 5.3e-11 to
    # 5.5e-11 with none (REANCHOR_SUP = 1e300), which the 1e-7 absolute bound of test_reanchoring_is_exact
    # cannot tell apart; these draws keep 4 to 8 such entries, and a draw that keeps only the mode is exact either way
    m = finite_measure(np.arange(16.0))
    for seed in (6, 7, 10):
        rng = np.random.default_rng(seed)
        p = Density.random(m, rng)
        f = RandomVariable(m, 30.0 * rng.standard_normal(16))
        got = integrate_e_chart(exponential_field(f), p, 20.0, 1e-2).densities[-1].values
        want = e_geodesic(p, f, 20.0).values
        kept = want > 1e-200
        assert np.max(np.abs(got[kept] / want[kept] - 1.0)) <= 5e-12, seed


def test_m_geodesic(space):
    rng, m = space
    p = Density.random(m, rng)
    v = tangent(p, rng.standard_normal(8))
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
    # a random direction keeps the Gram matrix regular: the constant objective's row centres to exactly 0
    direction = RandomVariable(m, rng.standard_normal(8))
    res = natural_gradient_ascent(RandomVariable.constant(m, 3.0), p, [direction], gamma=0.2, iters=10)
    assert np.max(np.abs(res.record.densities[-1].values - p.values)) < 1e-14
    assert np.max(np.abs(res.objective - 3.0)) < 1e-12


def test_natural_gradient_full_space_monotone(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    res = natural_gradient_ascent(f, p, [f], gamma=0.1, iters=200)
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


def _site_basis_ascent(sites, seed, iters, wrap=None):
    # the boolean-concentration problem: the objective lies in the span of the site basis
    rng = np.random.default_rng(seed)
    m = boolean_measure(sites)
    signs = boolean_signs(m)
    coefs = rng.uniform(0.5, 1.5, sites) * rng.choice([-1.0, 1.0], sites)
    objective = RandomVariable(m, signs @ coefs)
    p0 = Density.uniform(m)
    wrap = wrap or (lambda values: tangent(p0, values))
    basis = [wrap(signs[:, k]) for k in range(sites)]
    return objective, natural_gradient_ascent(objective, p0, basis, gamma=0.1, iters=iters)


@pytest.mark.parametrize("sites, seed", [(8, 31), (10, 1)])
def test_natural_gradient_velocity_is_the_centred_objective_to_rounding(sites, seed):
    # centring the objective with the basis keeps the projected velocity as exact as centring it
    # alone did: 1.1e-14 and 1.8e-14 before, 1.1e-14 and 1.4e-14 after, over the concentrating run
    objective, res = _site_basis_ascent(sites, seed, 500)
    assert float(res.record.densities[-1].prob.max()) >= 0.99
    gap = max(
        float(np.max(np.abs(velocity - (objective.values - expect(q, objective)))))
        for q, velocity in zip(res.record.densities, res.record.velocities)
    )
    assert gap <= 5e-14


def test_natural_gradient_basis_forms_give_the_same_record():
    m = boolean_measure(6)
    _, as_vectors = _site_basis_ascent(6, 5, 30)
    for wrap in (np.asarray, lambda values: RandomVariable(m, values)):
        _, res = _site_basis_ascent(6, 5, 30, wrap)
        assert res.regularized == as_vectors.regularized
        assert res.objective.tobytes() == as_vectors.objective.tobytes()
        for got, want in zip(res.record.velocities, as_vectors.record.velocities):
            assert got.tobytes() == want.tobytes()
        for got, want in zip(res.record.densities, as_vectors.record.densities):
            assert got.values.tobytes() == want.values.tobytes()


def test_natural_gradient_stored_velocities_survive_later_steps():
    # each step reuses one centring buffer; a velocity kept in the record must not be a view of it
    _, short = _site_basis_ascent(6, 5, 3)
    _, long = _site_basis_ascent(6, 5, 12)
    for got, want in zip(long.record.velocities, short.record.velocities):
        assert got.tobytes() == want.tobytes()
    velocities = long.record.velocities
    assert not any(np.shares_memory(a, b) for i, a in enumerate(velocities) for b in velocities[i + 1 :])


def _geodesic_record():
    m = finite_measure(np.arange(16.0), np.linspace(0.5, 2.0, 16))
    rng = np.random.default_rng(4)
    return integrate_e_chart(exponential_field(RandomVariable(m, rng.standard_normal(16))), Density.random(m, rng),
                             1.0, 0.1)


def _heat_record():
    grid = periodic_grid_measure(0.0, 1.0, 16)
    return heat_flow(Density.from_unnormalized(grid, 1.0 + 0.3 * np.cos(2 * math.pi * grid.points)), 0.01, 0.001).record


@pytest.mark.parametrize("run", [
    _geodesic_record,
    _heat_record,
    lambda: _site_basis_ascent(6, 5, 12)[1].record,
], ids=["geodesic", "heat", "ascent-basis"])
def test_recorded_densities_and_velocities_share_no_memory(run):
    # the RK4 stage buffer and the ascent's centring, weighted-row and step buffers are reused across steps;
    # nothing the record keeps may be one of them, or overlap another kept array (the chart flows keep disjoint rows)
    record = run()
    arrays = [d.values for d in record.densities] + list(record.velocities)
    assert len(arrays) > 20
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])


@pytest.mark.parametrize("run", [
    _geodesic_record,
    _heat_record,
    lambda: _site_basis_ascent(6, 5, 12)[1].record,
], ids=["geodesic", "heat", "ascent-basis"])
def test_chart_flow_records_every_sample_in_one_array(run):
    # one allocation per run: the densities after p0, then every velocity, are the rows of one array, in order
    record = run()
    rows = [d.values for d in record.densities[1:]] + list(record.velocities)
    block = rows[0].base
    assert block.shape == (len(rows), rows[0].size)
    assert all(a.base is block and np.shares_memory(a, row) for a, row in zip(rows, block))
    assert not any(d.values.flags.writeable for d in record.densities)
    with pytest.raises(ValueError, match="read-only"):
        record.densities[-1].values[0] = 1.0


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc raises its thresholds on free")
def test_repeated_large_geodesics_take_no_page_faults():
    # glibc raises its mmap and trim thresholds to the largest block freed, so once one run's record (a single
    # 5.25 MiB block) is freed, later runs reuse the heap; recorded as 21 arrays of 256 KiB, 1,312 pages were
    # handed back to the kernel and faulted in again on every run
    src = str(Path(igc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import resource; import numpy as np; "
        "from igc import flows, measures; "
        "rng = np.random.default_rng(32); m = measures.finite_measure(np.arange(32768.0)); "
        "p0 = measures.Density.random(m, rng); field = flows.exponential_field(measures.RandomVariable(m, "
        "rng.standard_normal(m.size)))\n"
        "for _ in range(8):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    flows.integrate_e_chart(field, p0, 0.2, 0.02)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    faults = [int(line) for line in out.stdout.split()]
    assert len(faults) == 8 and statistics.median(faults[-5:]) < 131


def test_hessian_expectation(space):
    # d/dt E_{patch_e(p, u + t v)}[f] at t = 0 is Cov_q(v, f) at q = patch_e(p, u): the Hessian of K_p at u
    rng, m = space
    p = Density.random(m, rng)
    u = tangent(p, 0.3 * rng.standard_normal(8))
    f = RandomVariable(m, rng.standard_normal(8))
    q = patch_e(p, u)
    # direction orthogonal to f under Cov_q gives a vanishing derivative
    w = rng.standard_normal(8)
    f_c = f.values - expect(q, f)
    w_orth = w - covariance(q, w, f.values) / covariance(q, f.values, f.values) * f_c
    assert abs(covariance(q, w_orth, f)) < 1e-12
    # finite differences of the chart expectation
    v = tangent(p, rng.standard_normal(8))
    h = 1e-5
    fd = (
        expect(patch_e(p, tangent(p, u.values + h * v.values)), f)
        - expect(patch_e(p, tangent(p, u.values - h * v.values)), f)
    ) / (2 * h)
    got = covariance(q, v, f)
    assert abs(fd - got) <= 1e-6 * max(1.0, abs(got))
    # at the chart center the covariance is taken under p itself
    assert covariance(patch_e(p, tangent(p, np.zeros(8))), v, f) == pytest.approx(
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


@pytest.mark.parametrize(
    "kwargs", [{"trials": 0}, {"trials": -3}, {"scale": 0.0}, {"scale": -0.5}, {"scale": math.nan}, {"scale": math.inf}]
)
def test_one_sided_lipschitz_probe_rejects_a_probe_that_samples_nothing(space, kwargs):
    # trials < 1 or scale <= 0 used to return -inf, a bound that no sample supports
    rng, m = space
    with pytest.raises(InvariantError, match="need trials >= 1 and a finite positive scale"):
        one_sided_lipschitz_probe(VectorField(lambda q: np.zeros(8)), Density.random(m, rng), **kwargs)


@pytest.mark.parametrize(
    "points, scale", [([0.0], 0.5), (np.arange(8.0), 1e-200)], ids=["one-point", "underflowing-square"]
)
def test_one_sided_lipschitz_probe_raises_when_no_trial_contributes(points, scale):
    # on one point every centred difference is 0, and at scale 1e-200 its square underflows to 0:
    # every trial is skipped, and -inf would be a bound that no sample supports
    m = finite_measure(points)
    field = VectorField(lambda q: np.zeros(m.size))
    with pytest.raises(InvariantError, match="no sampled pair has a nonzero difference"):
        one_sided_lipschitz_probe(field, Density.uniform(m), trials=5, scale=scale)


def test_exponential_field_leaves_f_uncentered_and_centers_once():
    rng = np.random.default_rng(91)
    m = finite_measure(np.arange(16.0))
    p = Density.random(m, rng)
    f = RandomVariable(m, 3.0 * rng.standard_normal(16) + 5.0)
    q = Density.random(m, rng)
    field = exponential_field(f)
    assert np.array_equal(field._evaluator(q.values).values, f.values - f.values[0])
    want = f.values - math.fsum((q.prob * f.values).tolist())
    assert np.max(np.abs(field(q).values - want)) <= 1e-15 * np.max(np.abs(f.values))
    # the true value is 0; centering the field under q and again under p gave 2.230490151877035e-17
    assert abs(one_sided_lipschitz_probe(field, p)) <= 1e-15
    grid = periodic_grid_measure(0.0, 1.0, 16)
    p0 = Density.from_unnormalized(grid, 1.0 + 0.2 * np.cos(2 * math.pi * grid.points))
    lam_heat = one_sided_lipschitz_probe(heat_field(p0), p0, trials=20, scale=0.2)
    assert lam_heat == pytest.approx(-348.3060749950116, rel=1e-12)


def test_exponential_flow_ignores_a_large_offset_of_f():
    rng = np.random.default_rng(33)
    m = finite_measure(np.arange(64.0))
    p = Density.random(m, rng)
    q = Density.random(m, rng)
    # on a 1/64 lattice the offset is exact, so f + 1e6 and f are one field, bit for bit
    g = np.round(64.0 * rng.standard_normal(64)) / 64.0
    small = integrate_e_chart(exponential_field(RandomVariable(m, g)), p, 1.0, 0.05)
    large = integrate_e_chart(exponential_field(RandomVariable(m, 1e6 + g)), p, 1.0, 0.05)
    assert all(np.array_equal(a.values, b.values) for a, b in zip(small.densities, large.densities))
    assert all(np.array_equal(a, b) for a, b in zip(small.velocities, large.velocities))
    f = RandomVariable(m, 1e6 + rng.standard_normal(64))
    field = exponential_field(f)
    want = f.values - math.fsum((q.prob * f.values).tolist())
    assert np.max(np.abs(field(q).values - want)) <= 1e-15 * np.max(np.abs(f.values))
    record = integrate_e_chart(field, p, 1.0, 0.05)
    closed = e_geodesic(p, f, 1.0).values
    assert np.max(np.abs(record.densities[-1].values - closed) / closed) <= 1e-12


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


def test_heat_reference_is_the_discrete_rk4_decay():
    # D2 annihilates constants and scales cos(2 pi x) by -(4/h**2) sin(pi h)**2, so each RK4 step of
    # length tau multiplies the mode by R(z) = 1 + z + z**2/2 + z**3/6 + z**4/24, z = -(4/h**2) sin(pi h)**2 tau
    grid = periodic_grid_measure(0.0, 1.0, 32)
    x = grid.points
    h = grid.spacing
    dt = h * h / 4.0
    n_steps = 82  # the fewest equal steps over [0, 0.02] no longer than dt = 1/4096
    tau = 0.02 / n_steps
    assert tau <= dt < 0.02 / (n_steps - 1)
    z = -(4.0 / h**2) * math.sin(math.pi * h) ** 2 * tau
    decay = (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0) ** n_steps
    got = reference_heat_solution(1.0 + 0.05 * np.cos(2 * math.pi * x), h, 0.02, dt)
    assert np.max(np.abs(got - (1.0 + 0.05 * decay * np.cos(2 * math.pi * x)))) < 1e-14


def test_second_difference_annihilates_constants():
    vals = np.full(16, 2.3)
    assert np.max(np.abs(second_difference(vals, 0.1))) == 0.0


def test_integrator_rejects_nonfinite(space):
    rng, m = space
    p = Density.random(m, rng)
    field = VectorField(lambda q: np.full(8, np.inf))
    with pytest.raises((FlowError, InvariantError)):
        integrate_e_chart(field, p, 0.1, 0.01)


def test_a_non_finite_stage_value_fails_the_one_check_on_the_centred_value():
    # finite at p0, so the first velocity passes; every stage value is infinite, and its centred value
    # (inf - inf) is what the chart loop checks, with no numpy warning first
    p = Density.uniform(finite_measure(np.arange(3.0)))
    field = VectorField(lambda values: np.zeros(3) if values is p.values else np.full(3, np.inf))
    with pytest.raises(FlowError, match=r"^non-finite vector field value; step rejected$"):
        integrate_e_chart(field, p, 0.1, 0.1)


def test_an_overflowing_first_velocity_is_a_flow_error():
    # finite values whose centring under p0 overflows in entry 0: the first velocity is checked as every later
    # one is, with no numpy warning first
    p = Density(finite_measure(np.arange(4.0)), [0.1, 0.7, 0.1, 0.1])
    field = VectorField(lambda q: np.array([1.7e308, -1.7e308, 0.0, 0.0]))
    with pytest.raises(FlowError, match=r"^non-finite vector field value; step rejected$"):
        integrate_e_chart(field, p, 0.1, 0.1)


def test_emitted_velocities_are_the_field_at_each_density(space):
    rng, m = space
    p0 = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(m.size))
    field = VectorField(lambda values: f.values * values)
    record = integrate_e_chart(field, p0, 0.3, 0.1)
    for q, velocity in zip(record.densities, record.velocities):
        assert np.array_equal(velocity, field(q).values)


def test_the_evaluator_reads_p0_values_first_and_only_read_only_arrays(space):
    # the first velocity is the field at p0 itself; every stage and emitted sample hands over patch_e's array
    rng, m = space
    p0 = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(m.size))
    seen = []

    def evaluator(values):
        seen.append(values)
        return f.values * values

    record = integrate_e_chart(VectorField(evaluator), p0, 0.3, 0.1)
    assert seen[0] is p0.values and len(seen) > len(record.times)
    assert not any(values.flags.writeable for values in seen)


def test_exponential_field_refuses_a_density_on_another_base():
    m = finite_measure(np.arange(8.0))
    field = exponential_field(RandomVariable(m, np.arange(8.0) ** 2))
    q = Density.uniform(finite_measure(np.arange(8.0) + 0.5))
    with pytest.raises(BaseMismatchError):
        integrate_e_chart(field, q, 0.1, 0.1)
    with pytest.raises(BaseMismatchError):
        field(q)


def test_a_field_call_rejects_an_overflowing_centred_value_as_the_chart_loops_do():
    # the value of test_an_overflowing_first_velocity_is_a_flow_error: its centring under p overflows in entry 0,
    # and field(p) reports it with the chart loops' message, with no numpy warning first
    p = Density(finite_measure(np.arange(4.0)), [0.1, 0.7, 0.1, 0.1])
    field = VectorField(lambda values: np.array([1.7e308, -1.7e308, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowError, match=r"^non-finite vector field value; step rejected$"):
            field(p)


STEP_MESSAGE = "need dt > 0 and t_final >= 0"


@pytest.mark.parametrize(
    "t_final, dt",
    [(0.1, math.nan), (0.1, math.inf), (0.1, 0.0), (0.1, -0.01), (math.nan, 0.01), (math.inf, 0.01), (-0.1, 0.01),
     (1e308, 1e-300), (1e12, 1e-3), (1e300, 1e-3)],
)
def test_integrator_requires_finite_positive_steps(space, t_final, dt):
    # NaN fails every comparison and inf makes math.ceil fail or a zero-step run end at t = 0; so does an
    # overflowing t_final / dt, and a step count whose record cannot be allocated before the first step: 114 PiB
    # for 10^15 steps of 8 values, and more rows than numpy can index for 10^303
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    with pytest.raises(InvariantError, match=STEP_MESSAGE):
        integrate_e_chart(exponential_field(f), p, t_final, dt)


@pytest.mark.parametrize(
    "t_final, dt", [(0.02, math.nan), (0.02, math.inf), (math.nan, 1e-4), (math.inf, 1e-4), (1e308, 1e-300)]
)
def test_heat_reference_requires_finite_positive_steps(t_final, dt):
    grid = periodic_grid_measure(0.0, 1.0, 16)
    with pytest.raises(InvariantError, match=STEP_MESSAGE):
        reference_heat_solution(np.ones(16), grid.spacing, t_final, dt)


@pytest.mark.parametrize(
    "t_final, dt", [(0.01, math.nan), (math.nan, 1e-4), (math.inf, 1e-4), (1e308, 1e-300), (1e12, 1e-3)]
)
def test_heat_flow_requires_finite_positive_steps(t_final, dt):
    grid = periodic_grid_measure(0.0, 1.0, 16)
    with pytest.raises(InvariantError, match=STEP_MESSAGE):
        heat_flow(Density.uniform(grid), t_final, dt)


def test_natural_gradient_rejects_negative_iters(space):
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    with pytest.raises(InvariantError, match="iters >= 0"):
        natural_gradient_ascent(f, p, [f], iters=-1)


def test_natural_gradient_monotone_threshold_probe(space):
    # the objective trace stays nondecreasing for step sizes below a probed level
    rng, m = space
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(8))
    for gamma in (0.02, 0.05, 0.1):
        res = natural_gradient_ascent(f, p, [f], gamma=gamma, iters=100)
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


def test_long_flows_keep_every_stage_state_centered(monkeypatch):
    # the chart state is centered once per step and stage states go to patch_e as they are
    rng = np.random.default_rng(12)
    m = finite_measure(np.arange(4096.0))
    p = Density.random(m, rng)
    f = RandomVariable(m, rng.standard_normal(4096))
    closed = e_geodesic(p, f, 1.0)
    grid = periodic_grid_measure(0.0, 1.0, 64)  # the defaults of `igc flow heat`
    x = grid.points
    p0 = Density.from_unnormalized(
        grid, 1.0 + 0.3 * np.cos(2 * math.pi * x) + 0.1 * np.sin(4 * math.pi * x)
    )
    ratios = []  # |E_anchor[u]| / max(1, sup|u|) of every state handed to patch_e

    def spy(anchor, u):
        vals = np.asarray(u)
        ratios.append(abs(float(anchor.prob @ vals)) / max(1.0, float(np.max(np.abs(vals)))))
        return patch_e(anchor, u)

    monkeypatch.setattr(flows_module, "patch_e", spy)

    record = integrate_e_chart(exponential_field(f), p, 1.0, 2e-4)
    assert len(record.times) == 5001
    assert len(ratios) == 5 * 5000
    assert max(ratios) <= 1e-15
    assert record.mass_drift() <= 1e-12
    final = record.densities[-1].values
    assert np.max(np.abs(final - closed.values) / closed.values) <= 1e-10

    ratios.clear()
    res = heat_flow(p0, 0.1, grid.spacing**2 / 4.0)
    steps = len(res.record.times) - 1
    assert steps == 1639
    assert len(ratios) == 5 * steps
    assert max(ratios) <= 1e-15
    assert res.mass_drift <= 1e-12
    assert res.max_gap <= 1e-4


def test_chart_state_stays_centered_over_a_long_run(monkeypatch):
    # 16,384 heat steps without re-anchoring: the state is re-centered every step, so no
    # stage state's mean under the anchor exceeds one rounding unit of its sup norm
    # (without the per-step centering the mean drifts to about 3e-15 by t = 1)
    grid = periodic_grid_measure(0.0, 1.0, 64)
    x = grid.points
    p0 = Density.from_unnormalized(
        grid, 1.0 + 0.3 * np.cos(2 * math.pi * x) + 0.1 * np.sin(4 * math.pi * x)
    )
    worst = [0.0]

    def spy(anchor, u):
        vals = np.asarray(u)
        ratio = abs(float(anchor.prob @ vals)) / max(1.0, float(np.max(np.abs(vals))))
        worst[0] = max(worst[0], ratio)
        return patch_e(anchor, u)

    monkeypatch.setattr(flows_module, "patch_e", spy)
    record = integrate_e_chart(heat_field(p0), p0, 1.0, grid.spacing**2 / 4.0)
    assert len(record.times) == 16385
    assert worst[0] <= 2.0**-52
    assert record.mass_drift() <= 1e-12


def test_rk4_stage_buffer_is_bitwise_the_allocating_stepper(monkeypatch):
    # a chart flow that re-anchors several times and the heat reference, with the stepper's one
    # stage buffer and with fresh arrays for every stage and update
    rng = np.random.default_rng(41)
    m = finite_measure(np.arange(64.0))
    p = Density.random(m, rng)
    field = exponential_field(RandomVariable(m, 100.0 * rng.standard_normal(m.size)))
    grid = periodic_grid_measure(0.0, 1.0, 32)
    p0 = Density.from_unnormalized(grid, 1.0 + 0.5 * np.cos(2 * math.pi * grid.points))
    anchors = set()

    def spy(anchor, u):
        anchors.add(id(anchor))  # every anchor stays alive in the record, so ids are not reused
        return patch_e(anchor, u)

    def run():
        record = integrate_e_chart(field, p, 1.0, 0.05)
        heat = reference_heat_solution(p0.values, grid.spacing, 0.02, grid.spacing**2 / 4.0)
        return [a.tobytes() for a in (*(d.values for d in record.densities), *record.velocities, heat)]

    monkeypatch.setattr(flows_module, "patch_e", spy)
    got = run()
    assert len(anchors) >= 3
    monkeypatch.setattr(flows_module, "_rk4", allocating_rk4)
    assert run() == got


def test_geodesic_allocates_only_what_its_record_keeps():
    # one 10-step n = 32,768 geodesic: the record keeps 10 new densities and 11 velocities and
    # nothing else (on a counting measure prob is the density's own values); the stepper's stage
    # buffer, slope sum and one slope keep the peak at most 26 arrays of n floats
    n = 32768
    rng = np.random.default_rng(32)
    m = finite_measure(np.arange(float(n)))
    p0 = Density.random(m, rng)
    field = exponential_field(RandomVariable(m, rng.standard_normal(n)))
    _ = p0.log_values  # the chart center's log, cached on first use, is not the flow's
    tracemalloc.start()
    try:
        record = integrate_e_chart(field, p0, 0.2, 0.02)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(record.times) == 11
    assert round(kept / (8 * n)) == 21
    assert peak <= 26 * 8 * n
